// Command perfbench is the repository benchmark. It runs one seeded workload
// against the code of the checkout it was built from, checks every output,
// and prints the workload's metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 a separate traced run reports the per-layer ones.
//
// Run it from the repository root through the wrapper, which builds this
// program and the rlcd daemon first:
//
//	bash perfbench/run.sh --workload optimize-sweep --seed 1 --seconds 20 --trace 0
//
// --regen-refs rewrites perfbench/refs.json from the slow oracle paths.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics BENCHMARK.json declares for --trace 0, in print
// order. fail_frac and ref_err_max are printed too but gate `correct`
// instead: both are 0 or near 0 at a correct commit, so a relative
// regression bound on them is meaningless.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics BENCHMARK.json declares for --trace 1. Every
// traced run prints all of them; a layer the workload does not exercise
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_overhead_ms", "ms"},
	{"serve.sweep_first_chunk_ms", "ms"},
	{"serve.server_p50_ms", "ms"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.coalesced_frac", "frac"},
	{"serve.queue_full", "frac"},
	{"serve.degraded", "frac"},
	{"core.ladder.opt-newton.ok", "count"},
	{"core.ladder.opt-newton.failed", "count"},
	{"core.ladder.opt-nelder-mead.ok", "count"},
	{"core.ladder.opt-nelder-mead.failed", "count"},
	{"core.ladder.other", "count"},
	{"core.direct_solve_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.transport_ms", "ms"},
	{"core.optimize_ms", "ms"},
	{"core.planline_ms", "ms"},
	{"core.sweep_point_ms", "ms"},
	{"core.warm_method_frac", "frac"},
	{"core.outer_iters_mean", "count"},
	{"pade.delay_us", "us"},
	{"power.front_ms", "ms"},
	{"power.plan_ms", "ms"},
	{"batch.speedup", "x"},
	{"ringosc.run_reduced_ms", "ms"},
	{"ringosc.run_full_ms", "ms"},
	{"mor.engaged_frac", "frac"},
	{"mor.rejected", "count"},
	{"mor.fallbacks", "count"},
	{"mor.cache_hits", "count"},
	{"spice.steps_per_s", "1/s"},
	{"spice.deck_ms", "ms"},
	{"xtalk.run_ms", "ms"},
	{"pdn.build_ms", "ms"},
	{"pdn.solve_ir_ms", "ms"},
	{"pdn.solve_ir_direct_ms", "ms"},
	{"pdn.impedance_point_ms", "ms"},
	{"sparse.cg_iters", "count"},
	{"sparse.solver.direct", "count"},
	{"sparse.solver.cg", "count"},
	{"sparse.solver.gmres", "count"},
	{"sparse.fallbacks", "count"},
	{"sparse.residual_max", "1"},
	{"trace.uncovered_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// workloads maps --workload names to the functions that run them.
var workloads = map[string]func(*run){
	"serve-mix":      serveMix,
	"optimize-sweep": optimizeSweep,
	"ring-transient": ringTransient,
	"pdn-mesh":       pdnMesh,
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	rlcd     string // daemon binary (serve-mix)
	outDir   string // build/output directory inside the checkout
	refs     *refs
	rng      *rand.Rand
	tr       *tracer // nil on untraced runs
	cur      int     // span of the op in progress (single-caller workloads), parent of layer spans

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
	refErr    float64

	// setups, latMS, p50s and opsPerS are scaled to the reference host
	// speed (see calib.go); slowdowns keeps each cycle's or window's factor.
	clock     *hostClock
	slowdowns []float64
	setups    []float64      // seconds per set-up repetition
	latMS     []float64      // per-op latency of the measured phase
	opAt      [][2]time.Time // start and end of each latMS op (library workloads)
	p50s      []float64      // median latency of each cycle or time window
	opsPerS   float64
	rssMB     float64
	invalid   string // non-empty when the run's measurements cannot be used
	notes     []string
	layer     map[string]float64
}

// fail records one failed operation or check.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// count records attempted operations.
func (r *run) count(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// check records one attempted check and fails it unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.count(1)
	if !ok {
		r.fail(format, args...)
	}
}

// ref compares got against a committed reference value; the relative
// deviation feeds ref_err_max and fails the check beyond tol.
func (r *run) ref(name string, got, want, tol float64) {
	e := relErr(got, want)
	r.mu.Lock()
	if e > r.refErr || math.IsNaN(e) {
		r.refErr = e
	}
	r.mu.Unlock()
	r.check(e <= tol, "%s: got %.9g, reference %.9g (rel err %.3g > %.3g)", name, got, want, e, tol)
}

// note adds a line to the human-readable report.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setLayer stores a per-layer metric.
func (r *run) setLayer(name string, v float64) {
	r.mu.Lock()
	r.layer[name] = v
	r.mu.Unlock()
}

// setupSamples are the kernel samples taken before and after each set-up
// repetition.
const setupSamples = 40

// timeSetup runs prep n times and records each duration, less the kernel
// samples inside it, scaled by the slowdown of the samples right before,
// inside and right after it; the median is setup_s. Only the last
// repetition's state is kept by prep itself.
func (r *run) timeSetup(n int, prep func(i int)) {
	for i := 0; i < n; i++ {
		before := time.Now()
		r.clock.sampleN(setupSamples)
		t0 := time.Now()
		prep(i)
		t1 := time.Now()
		r.clock.sampleN(setupSamples)
		_, kernelS := r.clock.window(t0, t1)
		slow, _ := r.clock.window(before, time.Now())
		r.setups = append(r.setups, (t1.Sub(t0).Seconds()-kernelS)/slow)
	}
}

// op times one operation of the measured phase, records its latency and a
// top-level span, and counts it as failed when fn errs. Kernel samples run
// after the timed call.
func (r *run) op(name string, fn func() error) error {
	id := r.tr.begin(name, -1, 0)
	r.cur = id
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.tr.end(id)
	r.cur = -1
	r.clock.tick()
	r.count(1)
	if err != nil {
		r.fail("%s: %v", name, err)
		return err
	}
	r.mu.Lock()
	r.latMS = append(r.latMS, ms(d))
	r.opAt = append(r.opAt, [2]time.Time{t0, t0.Add(d)})
	r.mu.Unlock()
	return nil
}

// opWindow is how far around an op the kernel samples that give its
// slowdown reach: about five samples on each side.
const opWindow = 50 * time.Millisecond

// measure runs whole cycles of the workload until seconds have passed and
// at least minCycles completed. ops_per_s and latency_p50_ms are medians
// over cycles of each cycle's rate of successful ops and median latency, so
// a burst of interference from outside the benchmark moves one cycle, not
// the result; latency_tail_ms is taken over all ops. Each op's latency is
// scaled by the slowdown of the kernel samples within opWindow of it, since
// the host's speed swings within a second. A cycle's time, less the
// samples' own, is scaled by its ops' combined slowdown (their wall time
// over their scaled time). On a traced run the first half of the budget
// runs untraced as the baseline for the tracing overhead and the second
// half records spans; only the traced half's latencies are kept.
func (r *run) measure(minCycles int, cycle func(c int)) {
	loop := func(budget float64, c0 int) (opsPerS float64, c int, t0, t1 time.Time) {
		r.latMS, r.opAt, r.p50s, r.slowdowns = r.latMS[:0], r.opAt[:0], r.p50s[:0], r.slowdowns[:0]
		var rates []float64
		t0 = time.Now()
		for c = c0; c-c0 < minCycles || time.Since(t0).Seconds() < budget; c++ {
			n, tc := len(r.latMS), time.Now()
			cycle(c)
			// Start every cycle from a collected heap, so the peak RSS
			// reflects the workload rather than where GC happened to run.
			runtime.GC()
			r.clock.tick()
			te := time.Now()
			slow, kernelS := r.clock.window(tc, te)
			wall, scaled := 0.0, 0.0
			for i := n; i < len(r.latMS); i++ {
				s, _ := r.clock.window(r.opAt[i][0].Add(-opWindow), r.opAt[i][1].Add(opWindow))
				wall += r.latMS[i]
				r.latMS[i] /= s
				scaled += r.latMS[i]
			}
			if scaled > 0 {
				slow = wall / scaled
			}
			rates = append(rates, float64(len(r.latMS)-n)/(te.Sub(tc).Seconds()-kernelS)*slow)
			r.p50s = append(r.p50s, median(r.latMS[n:]))
			r.slowdowns = append(r.slowdowns, slow)
		}
		return median(rates), c, t0, time.Now()
	}
	if r.tr == nil {
		r.opsPerS, _, _, _ = loop(r.seconds, 0)
		return
	}
	minCycles = (minCycles + 1) / 2
	base, c, _, _ := loop(r.seconds/2, 0)
	r.tr.on = true
	traced, _, t0, t1 := loop(r.seconds/2, c)
	r.tr.on = false
	r.opsPerS = traced
	r.setLayer("trace.overhead_frac", base/traced-1)
	r.setLayer("trace.uncovered_frac", r.tr.uncovered(t0, t1))
}

func main() {
	workload := flag.String("workload", "", "workload: serve-mix, optimize-sweep, ring-transient or pdn-mesh")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository root")
	rlcd := flag.String("rlcd", "", "rlcd daemon binary (serve-mix)")
	outDir := flag.String("out", ".bench_build", "directory for traces, results and daemon logs")
	regen := flag.Bool("regen-refs", false, "recompute refs.json from the oracle paths and exit")
	flag.Parse()

	refPath := filepath.Join(*root, "perfbench", "refs.json")
	if *regen {
		if err := regenRefs(refPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	rf, err := loadRefs(refPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: float64(*seconds),
		rlcd: *rlcd, outDir: *outDir, refs: rf,
		rng:   rand.New(rand.NewSource(*seed)),
		cur:   -1,
		clock: newHostClock(),
		layer: map[string]float64{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	st := stampOf(*root, *workload, *seed, *trace)
	fmt.Printf("stamp: commit=%s source_sha256=%s go=%s nproc=%d gomaxprocs=%d cpu=%q workload=%s seed=%d trace=%d\n",
		st.Commit, st.Source, st.Go, st.NProc, st.GOMAXPROCS, st.CPU, st.Workload, st.Seed, st.Trace)

	// Fault in the kernel's buffer before the first timed sample.
	r.clock.sampleN(setupSamples)
	drive(r)
	if r.rssMB == 0 {
		r.rssMB = peakRSSMB(os.Getpid())
	}
	os.Exit(r.report(st))
}

// report prints the human-readable metric table, writes the full result and
// any trace under outDir, and prints the final JSON line. It returns the
// exit status.
func (r *run) report(st stamp) int {
	sort.Float64s(r.latMS)
	tailP, tailV := tail(r.latMS)
	e2e := map[string]float64{
		"setup_s":         median(r.setups),
		"ops_per_s":       r.opsPerS,
		"latency_p50_ms":  median(r.p50s),
		"latency_tail_ms": tailV,
		"max_rss_mb":      r.rssMB,
	}
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(r.failed) / float64(r.attempted)
	}
	sort.Float64s(r.slowdowns)
	slowMin, slowMax := math.NaN(), math.NaN()
	if len(r.slowdowns) > 0 {
		slowMin, slowMax = r.slowdowns[0], r.slowdowns[len(r.slowdowns)-1]
	}
	r.note("host slowdown against the reference kernel time %.3g ms: median %.3f (%.3f–%.3f) over %d windows; "+
		"the times and rates below are divided by it", refKernelMS, median(r.slowdowns), slowMin, slowMax, len(r.slowdowns))
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, p := range r.problems {
		fmt.Println("FAILED:", p)
	}
	if r.invalid != "" {
		fmt.Println("INVALID:", r.invalid)
	}

	metrics := map[string]metric{}
	if r.tr == nil {
		fmt.Printf("%-28s %14s  %s\n", "metric", "value", "unit")
		for _, m := range endToEnd {
			metrics[m.name] = metric{e2e[m.name], m.unit}
			fmt.Printf("%-28s %14.6g  %s\n", m.name, e2e[m.name], m.unit)
		}
		fmt.Printf("%-28s %14.6g  %s\n", "fail_frac", failFrac, "frac")
		fmt.Printf("%-28s %14.6g  %s\n", "ref_err_max", r.refErr, "1")
		fmt.Printf("latency_tail_ms is p%g of %d samples (setups %d)\n", 100*tailP, len(r.latMS), len(r.setups))
	} else {
		fmt.Printf("%-36s %14s  %s\n", "per-layer metric", "value", "unit")
		for _, m := range perLayer {
			v, ok := r.layer[m.name]
			metrics[m.name] = metric{v, m.unit}
			mark := ""
			if !ok {
				mark = "  (not exercised by " + r.workload + ")"
			}
			fmt.Printf("%-36s %14.6g  %s%s\n", m.name, v, m.unit, mark)
		}
		path := filepath.Join(r.outDir, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			r.fail("write trace: %v", err)
		} else {
			fmt.Println("spans written to", path)
		}
	}

	correct := r.failed == 0 && r.invalid == "" && r.attempted > 0
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			correct = false
			metrics[k] = metric{0, m.Unit} // JSON cannot carry them
		}
	}
	full := map[string]any{
		"stamp": st, "correct": correct, "attempted": r.attempted, "failed": r.failed,
		"fail_frac": failFrac, "ref_err_max": r.refErr, "latency_tail_percentile": tailP,
		"latency_samples": len(r.latMS), "setups_s": r.setups, "slowdowns": r.slowdowns, "metrics": metrics,
		"problems": r.problems, "invalid": r.invalid, "notes": r.notes,
	}
	if b, err := json.MarshalIndent(full, "", "  "); err == nil {
		path := filepath.Join(r.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", r.workload, r.seed, st.Trace))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// relErr is |got−want|/|want| (absolute when want is 0).
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// techNames are the technology nodes inputs draw from.
var techNames = []string{"250nm", "100nm", "100nm-eps250"}

// uniform draws from [lo, hi).
func uniform(rng *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
