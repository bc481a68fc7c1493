package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rlcint"
)

// Serving endpoints: the Zipf key universe of each, and how many of its
// hottest keys set-up warms. The universes add up to ~2.7× the daemon's
// 4096-entry LRU. Every sweep and plan-power key is warmed, so their misses
// are exactly the pattern's cold slots.
var serveEndpoints = []struct {
	path     string
	universe int
	warm     int
}{
	{"/v1/optimize", 4096, 256},
	{"/v1/delay", 4096, 256},
	{"/v1/plan", 2048, 128},
	{"/v1/check/wire", 1024, 64},
	{"/v1/sweep", 32, 32},
	{"/v1/plan-power", 8, 8},
}

// slotKind says how a pattern slot draws its key.
type slotKind int

const (
	zipfKey  slotKind = iota // Zipf over the endpoint's universe
	coldKey                  // a never-seen key
	burstKey                 // two consecutive slots with one never-seen key
)

type slot struct {
	ep   int
	kind slotKind
}

// servePattern is the fixed order of every 50 requests: 13 optimize plus a
// duplicate cold optimize pair, 12 delay, 6 plan, 9 wire checks, 3 sweeps
// plus one cold sweep, and 4 plan-power. Plan-power keys are all warmed at
// set-up: a cold one saturates both cores for ~150 ms, and the requests
// queued behind it, not the endpoints' own cost, would set the tail. The order is shuffled once with a constant seed, so every run sends the
// same endpoint sequence with its heavy requests spread evenly; the run's
// seed picks only the keys and their inputs.
var servePattern = func() []slot {
	counts := []struct {
		s slot
		n int
	}{
		{slot{0, zipfKey}, 13}, {slot{0, burstKey}, 1}, {slot{1, zipfKey}, 12}, {slot{2, zipfKey}, 6},
		{slot{3, zipfKey}, 9}, {slot{4, zipfKey}, 3}, {slot{4, coldKey}, 1}, {slot{5, zipfKey}, 4},
	}
	var slots []slot
	for _, c := range counts {
		for i := 0; i < c.n; i++ {
			slots = append(slots, c.s)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	var out []slot
	for _, s := range slots {
		out = append(out, s)
		if s.kind == burstKey {
			out = append(out, s)
		}
	}
	return out
}()

const (
	openRate      = 300.0 // open-loop requests per second, ~1/6 of the two-client closed-loop rate
	sweepPoints   = 32
	zipfS         = 1.1
	maxLagP99MS   = 20.0 // generator timer lag beyond which an open-loop run is invalid
	maxBacklogS   = 1.0  // final send backlog beyond which an open-loop run is invalid
	serveClients  = 2    // connections and client goroutines (nproc)
	checksPerEP   = 40   // answers per endpoint re-computed in process
	checksHeavyEP = 4    // for sweep and plan-power
)

// sreq is one generated request.
type sreq struct {
	ep   int    // index into serveEndpoints
	path string // endpoint path
	key  string // input identity: endpoint + key id
	body []byte
}

// sres is the client-side record of one request.
type sres struct {
	req       *sreq
	status    int
	xcache    string
	degraded  bool
	err       error
	body      []byte
	latMS     float64       // from due time (open loop) or send (closed loop)
	clientMS  float64       // send → last byte
	firstMS   float64       // send → first NDJSON line (sweep)
	lagMS     float64       // timer lag when the generator was not backlogged
	backlogMS float64       // how late a backlogged request was sent
	at        time.Duration // due (open loop) or completion (closed loop) time since the phase began
}

// keyspace derives every request's inputs from the seed, so a key maps to
// the same body wherever it is drawn.
type keyspace struct {
	seed int64
	cold int
}

// u returns a deterministic uniform [0,1) for (endpoint, key, field).
func (ks *keyspace) u(ep, key, field int) float64 {
	x := uint64(ks.seed)*0x9E3779B97F4A7C15 ^ uint64(ep)<<56 ^ uint64(key)<<8 ^ uint64(field)
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// make builds the request for key id of endpoint ep. Negative ids are cold
// keys never drawn before.
func (ks *keyspace) make(ep, id int) *sreq {
	u := func(f int) float64 { return ks.u(ep, id, f) }
	tech := techNames[int(u(0)*float64(len(techNames)))]
	l := (0.1 + 4.8*u(1)) * 1e-6
	var body any
	switch serveEndpoints[ep].path {
	case "/v1/optimize":
		body = map[string]any{"tech": tech, "l": l, "f": 0.5}
	case "/v1/delay":
		t, _ := rlcint.TechByName(tech)
		rc, _ := rlcint.OptimizeRC(t)
		body = map[string]any{"tech": tech, "l": l, "h": rc.H * (0.5 + u(2)), "k": rc.K * (0.5 + u(3)), "f": 0.5}
	case "/v1/plan":
		body = map[string]any{"tech": tech, "l": l, "f": 0.5, "length": (5 + 35*u(2)) * 1e-3}
	case "/v1/check/wire":
		peak := (1 + 9*u(2)) * 1e9
		body = map[string]any{"peak_j": peak, "rms_j": peak * (0.2 + 0.6*u(3))}
	case "/v1/sweep":
		ls := make([]float64, sweepPoints)
		for i := range ls {
			ls[i] = (0.1 + 0.15*float64(i) + 0.1*u(2)) * 1e-6
		}
		// One node, so every sweep miss costs about the same.
		body = map[string]any{"tech": "100nm", "ls": ls, "f": 0.5, "warm": true}
	case "/v1/plan-power":
		body = map[string]any{"tech": "100nm", "l": (1.8 + 0.4*u(1)) * 1e-6, "f": 0.9, "length": (28 + 4*u(2)) * 1e-3,
			"alpha": 0.1 + 0.1*u(3), "freq": (0.8 + 0.4*u(4)) * 1e9}
	}
	b, _ := json.Marshal(body)
	path := serveEndpoints[ep].path
	return &sreq{ep: ep, path: path, key: fmt.Sprintf("%s#%d", path, id), body: b}
}

// coldKey returns a fresh key id (negative, never reused).
func (ks *keyspace) coldKey() int {
	ks.cold++
	return -ks.cold
}

// generator walks servePattern, drawing keys by Zipf.
type generator struct {
	ks    *keyspace
	zipfs []*rand.Zipf
	i     int
	burst *sreq // first half of a duplicate pair
}

func newGenerator(ks *keyspace, rng *rand.Rand) *generator {
	g := &generator{ks: ks}
	for _, e := range serveEndpoints {
		g.zipfs = append(g.zipfs, rand.NewZipf(rng, zipfS, 1, uint64(e.universe-1)))
	}
	return g
}

// next returns the next request and whether it duplicates the previous one
// (the second half of a burst pair).
func (g *generator) next() (*sreq, bool) {
	s := servePattern[g.i%len(servePattern)]
	g.i++
	switch {
	case s.kind == burstKey && g.burst != nil:
		q := g.burst
		g.burst = nil
		return q, true
	case s.kind == burstKey:
		g.burst = g.ks.make(s.ep, g.ks.coldKey())
		return g.burst, false
	case s.kind == coldKey:
		return g.ks.make(s.ep, g.ks.coldKey()), false
	}
	return g.ks.make(s.ep, int(g.zipfs[s.ep].Uint64())), false
}

// daemon is a running rlcd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *os.File
	done   chan error
}

func startDaemon(r *run) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(fmt.Sprintf("%s/rlcd-seed%d.log", r.outDir, r.seed))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(r.rlcd, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients, DisableCompression: true,
		}}}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, fmt.Errorf("rlcd exited during start-up: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("rlcd not ready after 20s")
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the daemon if it
// does not exit in time. It returns once the process has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.client.CloseIdleConnections()
	d.log.Close()
}

// do sends one request and reads the whole answer.
func (d *daemon) do(q *sreq) sres {
	res := sres{req: q}
	t0 := time.Now()
	resp, err := d.client.Post(d.base+q.path, "application/json", bytes.NewReader(q.body))
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	res.firstMS = ms(time.Since(t0))
	rest, err2 := io.ReadAll(br)
	res.clientMS = ms(time.Since(t0))
	if err != nil && err != io.EOF {
		res.err = err
	} else if err2 != nil {
		res.err = err2
	}
	res.body = append(first, rest...)
	res.status = resp.StatusCode
	res.xcache = resp.Header.Get("X-Cache")
	res.degraded = resp.Header.Get("X-Degraded") != ""
	res.latMS = res.clientMS
	return res
}

// metricsSnap is the part of /metrics the benchmark reads.
type metricsSnap struct {
	Admission map[string]int64 `json:"admission"`
	Ladder    map[string]int64 `json:"ladder"`
	Degraded  map[string]int64 `json:"degraded"`
	Latency   map[string]struct {
		Count   int64            `json:"count"`
		SumMS   float64          `json:"sum_ms"`
		Buckets map[string]int64 `json:"buckets"`
	} `json:"latency"`
}

func (d *daemon) metrics() (metricsSnap, error) {
	var m metricsSnap
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// drive runs reqs over serveClients connections. Given due times it is an
// open loop: request i is sent at start + due[i] (burst pairs share a due
// time) and its latency counts from then. Otherwise it is a closed loop that
// runs until the deadline.
func (d *daemon) drive(reqs []*sreq, due []time.Duration, deadline time.Time, tr *tracer) []sres {
	var next atomic.Int64
	out := make([]sres, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || (due == nil && time.Now().After(deadline)) {
					return
				}
				var lag, backlog float64
				at := time.Now()
				if due != nil {
					at = start.Add(due[i])
					if wait := time.Until(at); wait > 0 {
						time.Sleep(wait)
						lag = ms(time.Since(at))
					} else {
						backlog = ms(-wait)
					}
				}
				sent := time.Now()
				res := d.do(reqs[i])
				end := time.Now()
				if id := tr.record("serve"+reqs[i].path, -1, int64(i), at, end); id >= 0 && due != nil {
					tr.record("loadgen.wait", id, int64(i), at, sent)
					tr.record("http.roundtrip", id, int64(i), sent, end)
				}
				res.lagMS, res.backlogMS, res.at = lag, backlog, end.Sub(start)
				if due != nil {
					res.latMS, res.at = ms(end.Sub(at)), due[i]
				}
				out[i] = res
			}
		}()
	}
	wg.Wait()
	// A closed-loop client that drew an index after the deadline left its
	// slot empty.
	done := out[:0]
	for _, res := range out {
		if res.req != nil {
			done = append(done, res)
		}
	}
	return done
}

// answers keeps the first body seen per key and checks later ones agree.
type answers struct {
	first map[string][]byte
	keys  map[string]*sreq
	miss  map[string]float64 // /v1/optimize misses: key → client ms
}

func (a *answers) add(r *run, res sres) {
	ok := res.err == nil && res.status == http.StatusOK && !res.degraded
	r.count(1)
	if !ok {
		r.fail("%s %s: status %d degraded=%v err=%v %.200s", res.req.path, res.req.body, res.status, res.degraded, res.err, res.body)
		return
	}
	k := res.req.key
	if prev, seen := a.first[k]; !seen {
		a.first[k], a.keys[k] = res.body, res.req
	} else if !bytes.Equal(prev, res.body) {
		r.fail("%s: answers for one key differ (%s)", k, res.xcache)
	}
	if res.req.path == "/v1/optimize" && res.xcache == "miss" {
		a.miss[k] = res.clientMS
	}
}

// serveMix drives the rlcd binary on loopback with its default config:
// warm the cache, an open loop at a fixed rate, then a closed loop with two
// clients. Answers are checked against the in-process facade.
func serveMix(r *run) {
	if r.rlcd == "" {
		r.fail("serve-mix needs -rlcd")
		return
	}
	ks := &keyspace{seed: r.seed}
	var d *daemon
	r.timeSetup(3, func(int) {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = startDaemon(r); err != nil {
			r.fail("start rlcd: %v", err)
			return
		}
		var warm []*sreq
		for ep, e := range serveEndpoints {
			for id := 0; id < e.warm; id++ {
				warm = append(warm, ks.make(ep, id))
			}
		}
		// Kernel samples between chunks of the warm-up let the set-up's
		// slowdown follow the host through it.
		for i := 0; i < len(warm); i += warmChunk {
			for _, res := range d.drive(warm[i:min(i+warmChunk, len(warm))], nil, time.Now().Add(time.Hour), nil) {
				if res.err != nil || res.status != http.StatusOK {
					r.fail("warm-up %s: status %d err %v", res.req.key, res.status, res.err)
				}
			}
			r.clock.sampleN(segmentSamples)
		}
	})
	if d == nil {
		return
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	gen := newGenerator(ks, r.rng)
	ans := &answers{first: map[string][]byte{}, keys: map[string]*sreq{}, miss: map[string]float64{}}
	openDur, closedDur := 0.5*r.seconds, 0.5*r.seconds
	var base float64 // untraced closed-loop ops/s, the tracing-overhead baseline
	if r.tr != nil {
		closedDur /= 2
		base = closedLoop(r, d, gen, ans, closedDur, nil)
	}
	m0, err := d.metrics()
	if err != nil {
		r.fail("metrics: %v", err)
	}
	if r.tr != nil {
		r.tr.on = true
	}

	// Open loop, in one-second windows: request i of a window is due at
	// i/rate after the window starts; the second half of a burst pair is due
	// together with the first, so both clients send it at once. After each
	// window, while the daemon is idle, kernel samples give the slowdown its
	// latencies are scaled by; samples beside the requests would delay them.
	var open []sres
	var windows [][]float64
	lastBacklog := 0.0
	for w := 0; w < max(1, int(openDur)); w++ {
		reqs := make([]*sreq, int(openRate))
		due := make([]time.Duration, len(reqs))
		for i := range reqs {
			q, dup := gen.next()
			reqs[i], due[i] = q, time.Duration(float64(i)/openRate*float64(time.Second))
			if dup && i > 0 {
				due[i] = due[i-1]
			}
		}
		res := d.drive(reqs, due, time.Time{}, r.tr)
		t := time.Now()
		r.clock.sampleN(segmentSamples)
		slow, _ := r.clock.window(t, time.Now())
		r.slowdowns = append(r.slowdowns, slow)
		// Only computed answers are scaled. A cache hit's time is loopback
		// and wake-up latency more than computation and does not follow the
		// kernel: over ten seeds its median spread 13% unscaled, 47% scaled.
		var lat []float64
		for i := range res {
			if res[i].xcache != "hit" {
				res[i].latMS /= slow
			}
			if res[i].err == nil && res[i].status == http.StatusOK {
				lat = append(lat, res[i].latMS)
			}
		}
		r.latMS = append(r.latMS, lat...)
		windows = append(windows, lat)
		lastBacklog = max(lastBacklog, res[len(res)-1].backlogMS)
		open = append(open, res...)
	}
	var lags, backlog, hitMS, firstMS, clientMS []float64
	coalesced := 0
	for _, res := range open {
		ans.add(r, res)
		if res.backlogMS > 0 {
			backlog = append(backlog, res.backlogMS)
		} else {
			lags = append(lags, res.lagMS)
		}
		switch res.xcache {
		case "hit":
			hitMS = append(hitMS, res.clientMS)
		case "coalesced":
			coalesced++
		}
		if res.req.path == "/v1/sweep" {
			firstMS = append(firstMS, res.firstMS)
		}
		clientMS = append(clientMS, res.clientMS)
	}
	lagP99 := 0.0
	if len(lags) > 0 {
		sort.Float64s(lags)
		lagP99 = quantile(lags, 0.99)
	}
	r.note("open loop: %d requests at %.0f/s, timer lag p99 %.3f ms, %d sent late (largest final backlog of a window %.1f ms)",
		len(open), openRate, lagP99, len(backlog), lastBacklog)
	if lagP99 > maxLagP99MS || lastBacklog > maxBacklogS*1e3 {
		r.invalid = fmt.Sprintf("open-loop generator fell behind its schedule (timer lag p99 %.2f ms, final backlog %.0f ms)", lagP99, lastBacklog)
		r.latMS = nil // latencies from a late schedule are not reported
	} else {
		for _, w := range windows {
			r.p50s = append(r.p50s, median(w))
		}
	}

	mOpen, err := d.metrics()
	if err != nil {
		r.fail("metrics: %v", err)
	}

	// Closed loop.
	tclosed := time.Now()
	opsPerS := closedLoop(r, d, gen, ans, closedDur, r.tr)
	tclosedEnd := time.Now()
	if r.tr != nil {
		r.tr.on = false
	}
	m1, err := d.metrics()
	if err != nil {
		r.fail("metrics: %v", err)
	}
	r.opsPerS = opsPerS

	hitFrac := float64(len(hitMS)) / float64(len(open))
	r.check(hitFrac > 0 && hitFrac < 1 && coalesced > 0, "cache hit share %.3f, %d coalesced: want hits, misses and coalesced requests", hitFrac, coalesced)
	r.note("open loop: cache hit share %.3f, coalesced %d of %d", hitFrac, coalesced, len(open))

	// Anchors through the daemon.
	anchor := func(path string, body string, v any) bool {
		res := d.do(&sreq{path: path, key: path + "#anchor", body: []byte(body)})
		r.check(res.err == nil && res.status == http.StatusOK && json.Unmarshal(res.body, v) == nil,
			"anchor %s: status %d err %v", path, res.status, res.err)
		return res.status == http.StatusOK
	}
	var rc struct{ Tau float64 }
	if anchor("/v1/optimize-rc", `{"tech":"100nm"}`, &rc) {
		r.ref("served Table 1 tau 100nm (ps)", rc.Tau/rlcint.PS, r.refs.Table1TauPS["100nm"], 1e-9)
	}
	var rip struct {
		PowerSaved   float64 `json:"power_saved"`
		DelayPenalty float64 `json:"delay_penalty"`
	}
	if anchor("/v1/plan-power", `{"tech":"100nm","l":2e-6,"f":0.9,"length":0.03,"alpha":0.15,"freq":1e9}`, &rip) {
		r.ref("served RIP power saved", rip.PowerSaved, r.refs.RIPPowerSaved, 1e-6)
		r.ref("served RIP delay penalty", rip.DelayPenalty, r.refs.RIPDelayPenalty, 1e-6)
	}

	r.rssMB = peakRSSMB(d.cmd.Process.Pid)
	d.stop()
	d = nil

	checkAnswers(r, ans)
	if r.tr == nil {
		return
	}
	r.setLayer("trace.overhead_frac", base/opsPerS-1)
	r.setLayer("trace.uncovered_frac", r.tr.uncovered(tclosed, tclosedEnd))
	r.setLayer("serve.hit_p50_ms", median(hitMS))
	missMS, directMS := directSolves(ans)
	if len(missMS) > 0 {
		r.setLayer("serve.miss_p50_ms", median(missMS))
		r.setLayer("core.direct_solve_ms", median(directMS))
		r.setLayer("serve.miss_overhead_ms", median(missMS)-median(directMS))
	}
	if len(firstMS) > 0 {
		r.setLayer("serve.sweep_first_chunk_ms", median(firstMS))
	}
	r.setLayer("serve.server_p50_ms", histP50(m0, mOpen))
	r.setLayer("loadgen.transport_ms", mean(clientMS)-serverMean(m0, mOpen))
	r.setLayer("loadgen.lag_p99_ms", lagP99)
	r.setLayer("serve.cache_hit_frac", hitFrac)
	r.setLayer("serve.coalesced_frac", float64(coalesced)/float64(len(open)))
	total := float64(r.attempted)
	r.setLayer("serve.queue_full", float64(m1.Admission["queue_full"]-m0.Admission["queue_full"])/total)
	deg := int64(0)
	for k, v := range m1.Degraded {
		deg += v - m0.Degraded[k]
	}
	r.setLayer("serve.degraded", float64(deg)/total)
	known := map[string]bool{}
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "core.ladder.") && m.name != "core.ladder.other" {
			known[m.name] = true
			r.setLayer(m.name, 0)
		}
	}
	other := int64(0)
	for k, v := range m1.Ladder {
		name := "core.ladder." + strings.ReplaceAll(k, "|", ".")
		if known[name] {
			r.setLayer(name, float64(v-m0.Ladder[k]))
		} else {
			other += v - m0.Ladder[k]
		}
	}
	r.setLayer("core.ladder.other", float64(other))
}

// closedSegment is one stretch of the closed loop; segmentSamples kernel
// samples run after each, and after each open-loop window, while the daemon
// is idle.
const (
	closedSegment  = 500 * time.Millisecond
	segmentSamples = 40
	warmChunk      = 64 // set-up requests between kernel samples
)

// closedLoop runs serveClients clients back to back for dur seconds, in
// segments of closedSegment, and returns the median over segments of each
// one's rate of successful requests completed within it, scaled by the
// slowdown of the kernel samples after it.
func closedLoop(r *run, d *daemon, gen *generator, ans *answers, dur float64, tr *tracer) float64 {
	var rates []float64
	for end := time.Now().Add(time.Duration(dur * float64(time.Second))); time.Now().Before(end); {
		reqs := make([]*sreq, int(4000*closedSegment.Seconds())) // more than two clients can send
		for i := range reqs {
			reqs[i], _ = gen.next()
		}
		res := d.drive(reqs, nil, time.Now().Add(closedSegment), tr)
		t := time.Now()
		r.clock.sampleN(segmentSamples)
		slow, _ := r.clock.window(t, time.Now())
		ok := 0
		for _, x := range res {
			ans.add(r, x)
			if x.err == nil && x.status == http.StatusOK && !x.degraded && x.at <= closedSegment {
				ok++
			}
		}
		rates = append(rates, float64(ok)/closedSegment.Seconds()*slow)
		r.slowdowns = append(r.slowdowns, slow)
	}
	return median(rates)
}

// serverMean is the mean server latency over all /v1 endpoints between two
// snapshots, exact where the histogram median is coarse.
func serverMean(m0, m1 metricsSnap) float64 {
	sum, n := 0.0, int64(0)
	for ep, h := range m1.Latency {
		if strings.Contains(ep, "v1") {
			sum += h.SumMS - m0.Latency[ep].SumMS
			n += h.Count - m0.Latency[ep].Count
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// histP50 interpolates the median server latency over all /v1 endpoints
// from the /metrics histogram deltas between two snapshots.
func histP50(m0, m1 metricsSnap) float64 {
	labels := []string{"le_1ms", "le_4ms", "le_16ms", "le_64ms", "le_250ms", "le_1s", "le_4s", "inf"}
	bounds := []float64{1, 4, 16, 64, 250, 1000, 4000, 16000}
	counts := make([]float64, len(labels))
	total := 0.0
	for ep, h := range m1.Latency {
		if !strings.Contains(ep, "v1") {
			continue
		}
		for i, l := range labels {
			c := float64(h.Buckets[l] - m0.Latency[ep].Buckets[l])
			counts[i] += c
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	acc, lo := 0.0, 0.0
	for i, c := range counts {
		if acc+c >= total/2 && c > 0 {
			return lo + (bounds[i]-lo)*(total/2-acc)/c
		}
		acc += c
		lo = bounds[i]
	}
	return lo
}

// directSolves times the in-process Optimize for up to checksPerEP of the
// /v1/optimize keys the daemon missed on, after the daemon has stopped, and
// returns the served miss latencies and the in-process times, both in ms.
func directSolves(a *answers) (missMS, directMS []float64) {
	keys := make([]string, 0, len(a.miss))
	for k := range a.miss {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys[:min(len(keys), checksPerEP)] {
		var in struct {
			Tech string
			L, F float64
		}
		if json.Unmarshal(a.keys[k].body, &in) != nil {
			continue
		}
		t, _ := rlcint.TechByName(in.Tech)
		t0 := time.Now()
		if _, err := rlcint.Optimize(t, in.L, in.F); err != nil {
			continue
		}
		directMS = append(directMS, ms(time.Since(t0)))
		missMS = append(missMS, a.miss[k])
	}
	return missMS, directMS
}

// checkAnswers recomputes a deterministic sample of the served answers with
// the in-process facade and compares them.
func checkAnswers(r *run, a *answers) {
	keys := make([]string, 0, len(a.first))
	for k := range a.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	perEP := map[int]int{}
	for _, k := range keys {
		q := a.keys[k]
		limit := checksPerEP
		if p := q.path; p == "/v1/sweep" || p == "/v1/plan-power" {
			limit = checksHeavyEP
		}
		if perEP[q.ep] >= limit {
			continue
		}
		perEP[q.ep]++
		if err := checkAnswer(r, q, a.first[k]); err != nil {
			r.fail("%s: %v", k, err)
		}
	}
}

// checkAnswer compares one served body with the facade's answer.
func checkAnswer(r *run, q *sreq, body []byte) error {
	var in struct {
		Tech               string
		L, F, H, K, Length float64
		Ls                 []float64
		PeakJ              float64 `json:"peak_j"`
		RMSJ               float64 `json:"rms_j"`
		Alpha, Freq        float64
	}
	if err := json.Unmarshal(q.body, &in); err != nil {
		return err
	}
	t, _ := rlcint.TechByName(in.Tech)
	cmp := func(name string, got, want float64) { r.ref("served "+name, got, want, 1e-12) }
	switch q.path {
	case "/v1/optimize":
		var got struct{ H, K, Tau float64 }
		want, err := rlcint.Optimize(t, in.L, in.F)
		if err != nil || json.Unmarshal(body, &got) != nil {
			return fmt.Errorf("optimize: %v", err)
		}
		cmp("optimize h", got.H, want.H)
		cmp("optimize k", got.K, want.K)
		cmp("optimize tau", got.Tau, want.Tau)
	case "/v1/delay":
		var got struct{ Tau float64 }
		want, err := rlcint.Delay(rlcint.StageOf(t, in.L, in.H, in.K), in.F)
		if err != nil || json.Unmarshal(body, &got) != nil {
			return fmt.Errorf("delay: %v", err)
		}
		cmp("delay tau", got.Tau, want)
	case "/v1/plan":
		var got struct {
			Stages int
			Total  float64
		}
		want, err := rlcint.PlanLine(t, in.L, in.F, in.Length)
		if err != nil || json.Unmarshal(body, &got) != nil {
			return fmt.Errorf("plan: %v", err)
		}
		r.check(got.Stages == want.Stages, "plan stages %d, facade %d", got.Stages, want.Stages)
		cmp("plan total", got.Total, want.Total)
	case "/v1/check/wire":
		var got struct {
			PeakMargin float64 `json:"peak_margin"`
			RMSMargin  float64 `json:"rms_margin"`
		}
		want, err := rlcint.CheckWire(in.PeakJ, in.RMSJ)
		if err != nil || json.Unmarshal(body, &got) != nil {
			return fmt.Errorf("wire: %v", err)
		}
		cmp("wire peak margin", got.PeakMargin, want.PeakMargin)
		cmp("wire rms margin", got.RMSMargin, want.RMSMargin)
	case "/v1/sweep":
		want, err := rlcint.SweepBatch(context.Background(), rlcint.SweepOptions{Warm: true, TileSize: 8}, t, in.Ls, in.F)
		if err != nil {
			return fmt.Errorf("sweep: %v", err)
		}
		i := 0
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var p struct {
				Type string
				L    float64
				Tau  float64
			}
			if json.Unmarshal(line, &p) != nil || p.Type != "point" {
				continue
			}
			if i < len(want) {
				cmp("sweep tau", p.Tau, want[i].Opt.Tau)
			}
			i++
		}
		r.check(i == len(want), "sweep: %d points served, %d computed", i, len(want))
	case "/v1/plan-power":
		var got struct {
			PowerSaved float64 `json:"power_saved"`
			Delay      float64
		}
		want, err := rlcint.PlanPower(t, in.L, in.F, in.Length, rlcint.PowerParams{Alpha: in.Alpha, Freq: in.Freq}, rlcint.PowerPlanOptions{})
		if err != nil || json.Unmarshal(body, &got) != nil {
			return fmt.Errorf("plan-power: %v", err)
		}
		cmp("plan-power delay", got.Delay, want.Delay)
		if want.PowerSaved != 0 || got.PowerSaved != 0 {
			cmp("plan-power saved", got.PowerSaved, want.PowerSaved)
		}
	}
	if math.IsNaN(r.refErr) {
		return errors.New("NaN deviation")
	}
	return nil
}
