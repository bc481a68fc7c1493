// Command figures regenerates every table and figure of the paper's
// evaluation (Table 1, Figures 2 and 4–12) as CSV files plus aligned-text
// summaries on stdout.
//
// Usage:
//
//	figures [-only id] [-out dir] [-points n] [-fast] [-workers n] [-timeout d] [-warm=false]
//
// where id is one of: table1, fig2, fig4, fig5, fig6, fig7, fig8, fig9,
// fig10, fig11, fig12, pareto, valid, all (default all). -fast reduces
// transient resolution for a quick smoke run. pareto is the delay/power
// Pareto front of the power-aware subsystem, not a figure of the source
// paper.
//
// With -only all the artifacts evaluate concurrently over a bounded worker
// pool; each artifact's text renders into its own buffer and buffers flush
// to stdout in the canonical order as soon as each artifact (and all before
// it) is done. ^C or an exhausted -timeout stops the run, keeps every
// completed artifact's output, and exits with status 2. Figures 4–8 run
// through the batched sweep engine with Newton warm-start continuation;
// pass -warm=false for the cold engine (bit-identical to the serial
// reference path).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"rlcint"
	"rlcint/internal/awe"
	"rlcint/internal/num"
	"rlcint/internal/pade"
	"rlcint/internal/runctl"
	"rlcint/internal/waveform"
)

func main() {
	only := flag.String("only", "all", "which artifact to regenerate")
	outDir := flag.String("out", "out", "output directory for CSV files")
	points := flag.Int("points", 13, "sweep points per curve for Figures 4-8")
	fast := flag.Bool("fast", false, "reduce transient resolution (Figures 9-12)")
	workers := flag.Int("workers", 0, "parallel artifact/point evaluations (0 = all cores)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
	warm := flag.Bool("warm", true, "warm-start continuation for the Figure 4-8 sweeps")
	noReduction := flag.Bool("no-reduction", false, "force the full transient solver (disable the Krylov reduced-order fast path)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	base := gen{
		dir:         *outDir,
		points:      *points,
		fast:        *fast,
		noReduction: *noReduction,
		ctx:         ctx,
		sweep:       rlcint.SweepOptions{Workers: *workers, Warm: *warm},
	}

	if *only == "all" {
		runAll(ctx, base, *workers)
		return
	}
	g := base
	g.w = os.Stdout
	f, ok := artifactsOf(&g)[*only]
	if !ok {
		fatal(fmt.Errorf("unknown artifact %q", *only))
	}
	if err := f(); err != nil {
		if rlcint.IsRunStop(err) {
			fmt.Fprintln(os.Stderr, "figures: stopped:", err)
			os.Exit(2)
		}
		fatal(err)
	}
}

// allOrder is the canonical artifact sequence of a full run (fig4 covers
// Figures 4-8, which share one sweep).
var allOrder = []string{"table1", "fig2", "fig4", "fig9", "fig10", "fig11", "fig12", "pareto", "valid"}

// runAll evaluates every artifact concurrently, each rendering into its own
// buffer, and flushes the buffers to stdout in canonical order as they (and
// all their predecessors) complete — so an interrupted run still prints a
// clean prefix of whole artifacts.
func runAll(ctx context.Context, base gen, workers int) {
	ctl := runctl.New(ctx, rlcint.RunLimits{})
	done := 0
	err := runctl.Stream(ctl, workers, len(allOrder),
		func(i int) (*bytes.Buffer, error) {
			g := base
			var buf bytes.Buffer
			g.w = &buf
			if err := artifactsOf(&g)[allOrder[i]](); err != nil {
				return nil, fmt.Errorf("%s: %w", allOrder[i], err)
			}
			return &buf, nil
		},
		func(i int, buf *bytes.Buffer) error {
			done++
			_, err := os.Stdout.Write(buf.Bytes())
			return err
		})
	if err != nil {
		if rlcint.IsRunStop(err) {
			fmt.Fprintf(os.Stderr, "figures: stopped after %d/%d artifacts: %v\n", done, len(allOrder), err)
			os.Exit(2)
		}
		fatal(err)
	}
}

func artifactsOf(g *gen) map[string]func() error {
	return map[string]func() error{
		"table1": g.table1,
		"fig2":   g.fig2,
		"fig4":   g.figs4to8, // Figures 4-8 share one sweep
		"fig5":   g.figs4to8,
		"fig6":   g.figs4to8,
		"fig7":   g.figs4to8,
		"fig8":   g.figs4to8,
		"fig9":   func() error { return g.waveFig("fig9", 1.8e-6) },
		"fig10":  func() error { return g.waveFig("fig10", 2.2e-6) },
		"fig11":  g.fig11,
		"fig12":  g.fig12,
		"pareto": g.pareto,
		"valid":  g.valid,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", rlcint.DiagString(err, nil))
	os.Exit(1)
}

type gen struct {
	dir         string
	points      int
	fast        bool
	noReduction bool
	w           io.Writer
	ctx         context.Context
	sweep       rlcint.SweepOptions
	sweepRan    bool
}

func (g *gen) csv(name string, t []float64, cols []string, series ...[]float64) error {
	f, err := os.Create(filepath.Join(g.dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return waveform.WriteCSV(f, t, cols, series...)
}

// table1 regenerates the derived columns of Table 1 from (r_s, c_0, c_p)
// and, inversely, re-extracts the device from the published optima.
func (g *gen) table1() error {
	fmt.Fprintln(g.w, "== Table 1: technology parameters and RC optima ==")
	fmt.Fprintf(g.w, "%-8s %10s %10s %10s %12s %10s %10s\n",
		"node", "h_opt(mm)", "k_opt", "tau(ps)", "rs(kΩ)", "c0(fF)", "cp(fF)")
	var rows [][]float64
	for _, t := range rlcint.Technologies() {
		rc, err := rlcint.OptimizeRC(t)
		if err != nil {
			return err
		}
		d, err := rlcint.ExtractDevice(rlcint.LineOf(t, 0), rc.H, rc.K, rc.Tau)
		if err != nil {
			return err
		}
		fmt.Fprintf(g.w, "%-8s %10.1f %10.0f %10.2f %12.3f %10.4f %10.4f\n",
			t.Name, rc.H/rlcint.MM, rc.K, rc.Tau/rlcint.PS,
			d.Rs/rlcint.KOhm, d.C0/rlcint.FF, d.Cp/rlcint.FF)
		rows = append(rows, []float64{rc.H / rlcint.MM, rc.K, rc.Tau / rlcint.PS,
			d.Rs / rlcint.KOhm, d.C0 / rlcint.FF, d.Cp / rlcint.FF})
	}
	idx := []float64{250, 100}
	cols := []string{"h_opt_mm", "k_opt", "tau_ps", "rs_kohm", "c0_fF", "cp_fF"}
	series := make([][]float64, len(cols))
	for c := range cols {
		series[c] = []float64{rows[0][c], rows[1][c]}
	}
	return g.csv("table1.csv", idx, cols, series...)
}

// fig2 renders the canonical over/critically/under-damped step responses.
func (g *gen) fig2() error {
	fmt.Fprintln(g.w, "== Figure 2: second-order step responses ==")
	ts := num.Linspace(0, 12, 601)
	curves := map[string]pade.Model{}
	for _, c := range []struct {
		name string
		zeta float64
	}{{"overdamped", 2}, {"critical", 1}, {"underdamped", 0.3}} {
		m, err := pade.New(2*c.zeta, 1) // b2 = 1 → ωn = 1
		if err != nil {
			return err
		}
		curves[c.name] = m
	}
	over := sample(curves["overdamped"], ts)
	crit := sample(curves["critical"], ts)
	under := sample(curves["underdamped"], ts)
	os, _ := curves["underdamped"].Overshoot()
	fmt.Fprintf(g.w, "underdamped (ζ=0.3) overshoot: %.1f%%\n", 100*os)
	return g.csv("fig2.csv", ts, []string{"overdamped", "critical", "underdamped"}, over, crit, under)
}

func sample(m pade.Model, ts []float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = m.Step(t)
	}
	return out
}

// figs4to8 runs the three technology sweeps through the batched engine and
// writes Figures 4-8.
func (g *gen) figs4to8() error {
	if g.sweepRan {
		return nil
	}
	g.sweepRan = true
	ls := num.Linspace(0.1e-6, 4.9e-6, g.points)
	techs := []rlcint.Technology{rlcint.Tech250(), rlcint.Tech100(), rlcint.Tech100Eps250()}
	fmt.Fprintf(g.w, "sweeping %d nodes × %d points (warm=%v)...\n", len(techs), len(ls), g.sweep.Warm)
	rows, err := rlcint.SweepNodes(g.ctx, g.sweep, techs, ls, 0.5)
	if err != nil {
		return err
	}
	lsN := make([]float64, len(ls))
	for i, l := range ls {
		lsN[i] = l / rlcint.NHPerMM
	}
	get := func(ci int, f func(rlcint.SweepPoint) float64) []float64 {
		out := make([]float64, len(ls))
		for i, p := range rows[ci].Points {
			out[i] = f(p)
		}
		return out
	}
	names := []string{"n250", "n100", "n100eps250"}
	figs := []struct {
		file, title string
		f           func(rlcint.SweepPoint) float64
	}{
		{"fig4.csv", "Figure 4: l_crit (nH/mm) at the RLC optimum", func(p rlcint.SweepPoint) float64 { return p.LCrit / rlcint.NHPerMM }},
		{"fig5.csv", "Figure 5: h_optRLC / h_optRC", func(p rlcint.SweepPoint) float64 { return p.HRatio }},
		{"fig6.csv", "Figure 6: k_optRLC / k_optRC", func(p rlcint.SweepPoint) float64 { return p.KRatio }},
		{"fig7.csv", "Figure 7: optimal (tau/h) ratio, RLC vs l=0", func(p rlcint.SweepPoint) float64 { return p.DelayRatio }},
		{"fig8.csv", "Figure 8: tau/h at RC sizing over RLC optimum", func(p rlcint.SweepPoint) float64 { return p.Penalty }},
	}
	for _, fg := range figs {
		s0, s1, s2 := get(0, fg.f), get(1, fg.f), get(2, fg.f)
		if err := g.csv(fg.file, lsN, names, s0, s1, s2); err != nil {
			return err
		}
		fmt.Fprintf(g.w, "== %s ==\n", fg.title)
		fmt.Fprintf(g.w, "%-12s %10s %10s %12s\n", "l (nH/mm)", "250nm", "100nm", "100nm-eps")
		for i := range lsN {
			fmt.Fprintf(g.w, "%-12.2f %10.3f %10.3f %12.3f\n", lsN[i], s0[i], s1[i], s2[i])
		}
	}
	last := len(ls) - 1
	fmt.Fprintf(g.w, "Figure 7 endpoints: 250nm %.2fx (paper ≈2), 100nm %.2fx (paper ≈3.5)\n",
		get(0, figs[3].f)[last], get(1, figs[3].f)[last])
	fmt.Fprintf(g.w, "Figure 8 worst penalties: 250nm %.1f%% (paper 6%%), 100nm %.1f%% (paper 12%%)\n",
		100*(maxOf(get(0, figs[4].f))-1), 100*(maxOf(get(1, figs[4].f))-1))
	return nil
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func (g *gen) ringCfg(l float64) rlcint.RingConfig {
	cfg := rlcint.RingConfig{Node: rlcint.Tech100(), LineL: l, NoReduction: g.noReduction}
	if g.fast {
		cfg.Sections = 10
	}
	return cfg
}

// waveFig writes the monitored inverter's input/output waveforms for
// Figures 9 (l = 1.8 nH/mm) and 10 (l = 2.2 nH/mm).
func (g *gen) waveFig(name string, l float64) error {
	fmt.Fprintf(g.w, "== %s: ring oscillator waveforms at l=%.1f nH/mm ==\n", name, l/rlcint.NHPerMM)
	w, met, err := rlcint.RunRing(g.ringCfg(l))
	if err != nil {
		return err
	}
	fmt.Fprintf(g.w, "period %.3f ns, overshoot %.3f V, undershoot %.3f V\n",
		met.Period*1e9, met.Overshoot, met.Undershoot)
	ox, err := rlcint.CheckOxide(rlcint.Tech100(), met.Overshoot)
	if err != nil {
		return err
	}
	fmt.Fprintf(g.w, "oxide field with overshoot: %.2f MV/cm (limit 5, critical 7) over-limit=%v\n",
		ox.Field/1e8, ox.OverLimit)
	return g.csv(name+".csv", w.T, []string{"vin", "vout"}, w.VIn, w.VOut)
}

// fig11 sweeps the ring period versus inductance for both nodes.
func (g *gen) fig11() error {
	fmt.Fprintln(g.w, "== Figure 11: ring oscillator period vs line inductance ==")
	ls := []float64{0.4e-6, 0.8e-6, 1.2e-6, 1.6e-6, 2.0e-6, 2.4e-6, 2.6e-6, 2.8e-6, 3.0e-6, 3.5e-6}
	if g.fast {
		ls = []float64{0.8e-6, 1.8e-6, 2.8e-6}
	}
	p100, err := rlcint.SweepRingPeriod(g.ringCfg(0), ls)
	if err != nil {
		return err
	}
	cfg250 := rlcint.RingConfig{Node: rlcint.Tech250()}
	if g.fast {
		cfg250.Sections = 10
	}
	p250, err := rlcint.SweepRingPeriod(cfg250, ls)
	if err != nil {
		return err
	}
	lsN := make([]float64, len(ls))
	per100 := make([]float64, len(ls))
	per250 := make([]float64, len(ls))
	fmt.Fprintf(g.w, "%-12s %14s %10s %14s\n", "l (nH/mm)", "100nm T (ns)", "collapsed", "250nm T (ns)")
	for i := range ls {
		lsN[i] = ls[i] / rlcint.NHPerMM
		per100[i] = p100[i].Metrics.Period * 1e9
		per250[i] = p250[i].Metrics.Period * 1e9
		fmt.Fprintf(g.w, "%-12.2f %14.3f %10v %14.3f\n", lsN[i], per100[i], p100[i].Collapsed, per250[i])
	}
	return g.csv("fig11.csv", lsN, []string{"period100_ns", "period250_ns"}, per100, per250)
}

// fig12 sweeps peak and rms current density versus inductance (100 nm).
func (g *gen) fig12() error {
	fmt.Fprintln(g.w, "== Figure 12: wire current density vs line inductance (100 nm) ==")
	ls := []float64{0.4e-6, 1.0e-6, 1.6e-6, 2.2e-6, 2.6e-6}
	if g.fast {
		ls = []float64{0.8e-6, 2.2e-6}
	}
	lsN := make([]float64, len(ls))
	peak := make([]float64, len(ls))
	rms := make([]float64, len(ls))
	fmt.Fprintf(g.w, "%-12s %16s %16s %8s\n", "l (nH/mm)", "peakJ (MA/cm²)", "rmsJ (MA/cm²)", "pass")
	for i, l := range ls {
		_, met, err := rlcint.RunRing(g.ringCfg(l))
		if err != nil {
			return err
		}
		rep, err := rlcint.CheckWire(met.PeakJ, met.RMSJ)
		if err != nil {
			return err
		}
		lsN[i] = l / rlcint.NHPerMM
		peak[i] = met.PeakJ / 1e10 // A/m² → MA/cm²
		rms[i] = met.RMSJ / 1e10
		fmt.Fprintf(g.w, "%-12.2f %16.3f %16.3f %8v\n", lsN[i], peak[i], rms[i], !rep.RMSOver && !rep.PeakOver)
	}
	return g.csv("fig12.csv", lsN, []string{"peakJ_MAcm2", "rmsJ_MAcm2"}, peak, rms)
}

// pareto traces the delay/power Pareto front of the buffered 100 nm line
// (l = 2 nH/mm, α = 0.15, f_clk = 1 GHz) and reports the mixed-scheme
// power plan for a 30 mm net — the power/delay tradeoff the power-aware
// subsystem reproduces (≥15% power saved within a 5% delay penalty).
func (g *gen) pareto() error {
	fmt.Fprintln(g.w, "== Pareto: delay/power front and mixed-scheme plan (100 nm, l=2 nH/mm) ==")
	const l = 2e-6
	prm := rlcint.PowerParams{Alpha: 0.15, Freq: 1e9}
	m, err := rlcint.NewPowerModel(rlcint.Tech100(), l, prm)
	if err != nil {
		return err
	}
	opts := rlcint.ParetoOptions{Points: g.points, Workers: g.sweep.Workers, Cold: !g.sweep.Warm}
	front, err := rlcint.ParetoFront(g.ctx, m, 0.5, opts)
	if err != nil {
		return err
	}
	n := len(front)
	weights := make([]float64, n)
	delays := make([]float64, n)
	powers := make([]float64, n)
	dr := make([]float64, n)
	pr := make([]float64, n)
	fmt.Fprintf(g.w, "%10s %14s %14s %8s %8s\n", "lambda", "delay (ps/mm)", "power (mW/mm)", "D/D0", "P/P0")
	for i, p := range front {
		weights[i] = p.Weight
		delays[i] = p.Delay / (rlcint.PS / rlcint.MM)
		powers[i] = p.Power // W/m prints unchanged as mW/mm
		dr[i] = p.DelayRatio
		pr[i] = p.PowerRatio
		fmt.Fprintf(g.w, "%10.3f %14.2f %14.3f %8.4f %8.4f\n", weights[i], delays[i], powers[i], dr[i], pr[i])
	}
	plan, err := rlcint.PlanPowerCtx(g.ctx, rlcint.Tech100(), l, 0.5, 30*rlcint.MM, prm,
		rlcint.PowerPlanOptions{Front: opts})
	if err != nil {
		return err
	}
	fmt.Fprintf(g.w, "30 mm plan: %.2f%% power saved at %.2f%% delay penalty (%d scheme(s))\n",
		100*plan.PowerSaved, 100*plan.DelayPenalty, len(plan.Schemes))
	return g.csv("pareto.csv", weights,
		[]string{"delay_ps_mm", "power_mw_mm", "delay_ratio", "power_ratio"},
		delays, powers, dr, pr)
}

// valid cross-checks the two-pole model against higher-order AWE fits and
// reports the Newton iteration counts the paper quotes.
func (g *gen) valid() error {
	fmt.Fprintln(g.w, "== Validation: two-pole model vs higher-order AWE ==")
	fmt.Fprintf(g.w, "%-10s %14s %14s %10s %8s\n", "l (nH/mm)", "2-pole (ps)", "AWE q=6 (ps)", "rel err", "iters")
	for _, l := range []float64{0.5e-6, 1e-6, 2e-6, 3e-6, 4e-6} {
		st := rlcint.StageOf(rlcint.Tech100(), l, 11.1*rlcint.MM, 528)
		m, err := rlcint.TwoPoleOf(st)
		if err != nil {
			return err
		}
		d, err := m.Delay(0.5)
		if err != nil {
			return err
		}
		// High-order AWE fits are occasionally unstable (its classic
		// failure mode); fall back to the highest stable order.
		ref := math.NaN()
		order := 0
		for q := 6; q >= 3; q-- {
			fit, err := awe.FromStage(st, q)
			if err != nil || !fit.Stable() {
				continue
			}
			if ref, err = fit.Delay(0.5); err == nil {
				order = q
				break
			}
		}
		rel := math.Abs(d.Tau-ref) / ref
		fmt.Fprintf(g.w, "%-10.1f %14.1f %11.1f q=%d %9.1f%% %8d\n",
			l/rlcint.NHPerMM, d.Tau/rlcint.PS, ref/rlcint.PS, order, 100*rel, d.Iterations)
	}
	return nil
}
