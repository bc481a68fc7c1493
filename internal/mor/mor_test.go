package mor

import (
	"errors"
	"math"
	"testing"

	"rlcint/internal/diag"
	"rlcint/internal/sparse"
)

// ladder builds the mor-form System for a driven RLC ladder:
// vsrc —[branch]— node0 —R—L— node1 —R—L— … —R—L— node S, C to ground at
// every node, ports = {source branch row, far node}. Branch rows are stored
// in the flipped (PRIMA-passive) orientation the spice extractor produces.
type ladder struct {
	sys    *System
	nNodes int
	wave   func(t float64) float64
}

func buildLadder(sections int, r, l, c, rdrive float64, wave func(float64) float64, x0far float64) *ladder {
	nNodes := sections + 1
	nBranch := sections + 1 // one per inductor + the source branch
	n := nNodes + nBranch
	srcRow := nNodes // branch row of the voltage source
	trip := sparse.NewTriplet(n)

	node := func(i int) int { return i }
	// Source branch (flipped): row: −v0 (+w(t) via u); KCL at node0: +i_src.
	trip.Add(node(0), srcRow, 1)
	trip.Add(srcRow, node(0), -1)
	if rdrive > 0 {
		// series drive resistor folded into the source branch row would
		// change its nature; instead put it as the first ladder R below.
		_ = rdrive
	}
	for s := 0; s < sections; s++ {
		a, b := node(s), node(s+1)
		br := nNodes + 1 + s
		g := 1 / r
		if s == 0 && rdrive > 0 {
			g = 1 / (r + rdrive)
		}
		// R between a and mid — model R and L in series as R into the
		// inductor branch: V_a − V_b = R·i + L·di/dt. Stamp as a single
		// branch with series resistance: flipped branch row
		// −(v_a − v_b) + R·i + L·di/dt = 0.
		_ = g
		trip.Add(a, br, 1)
		trip.Add(b, br, -1)
		rr := r
		if s == 0 {
			rr += rdrive
		}
		trip.Add(br, a, -1)
		trip.Add(br, b, 1)
		trip.Add(br, br, rr) // flipped: +R·i
		// grounded caps
		trip.Add(b, b, 0) // pattern slot for C
	}
	trip.Add(node(0), node(0), 0) // cap pattern at node0
	pat := trip.Compile()
	nnz := pat.NNZ()
	g := make([]float64, nnz)
	cv := make([]float64, nnz)

	set := func(vals []float64, i, j int, v float64) {
		for p := pat.P[j]; p < pat.P[j+1]; p++ {
			if pat.I[p] == i {
				vals[p] += v
				return
			}
		}
		panic("missing pattern slot")
	}
	set(g, node(0), srcRow, 1)
	set(g, srcRow, node(0), -1)
	for s := 0; s < sections; s++ {
		a, b := node(s), node(s+1)
		br := nNodes + 1 + s
		set(g, a, br, 1)
		set(g, b, br, -1)
		set(g, br, a, -1)
		set(g, br, b, 1)
		rr := r
		if s == 0 {
			rr += rdrive
		}
		set(g, br, br, rr)
		set(cv, br, br, l)
		set(cv, b, b, c)
	}
	set(cv, node(0), node(0), c)

	x0 := make([]float64, n)
	x0[node(sections)] = x0far

	ld := &ladder{nNodes: nNodes, wave: wave}
	ld.sys = &System{
		N:       n,
		Pattern: pat,
		G:       g,
		C:       cv,
		Ports:   []int{srcRow, node(sections)},
		X0:      x0,
		U: func(t float64, up []float64) {
			up[0] = -wave(t) // flipped source branch row
		},
	}
	return ld
}

// elementReference steps the ladder with per-element companion models the
// way internal/spice does (cap iPrev, inductor flux history), giving an
// independent check that the mor package's standard BE/TR recursion
// reproduces the element-level discretization (they are algebraically the
// same scheme). Returns the far-node waveform (w+1 samples).
func (ld *ladder) elementReference(dt float64, steps, beSteps int, tr bool, r, l, c, rdrive float64, sections int) []float64 {
	n := ld.sys.N
	nNodes := ld.nNodes
	srcRow := nNodes
	x := append([]float64(nil), ld.sys.X0...)
	capPrev := make([]float64, nNodes) // iPrev per grounded cap (node index)
	out := make([]float64, steps+1)
	out[0] = x[sections]
	lu := sparse.Workspace(n)
	trip := sparse.NewTriplet(n)
	rhs := make([]float64, n)
	xn := make([]float64, n)
	for s := 1; s <= steps; s++ {
		useTR := tr && s > beSteps
		t := float64(s) * dt
		trip2 := trip
		trip2.Reset()
		for i := range rhs {
			rhs[i] = 0
		}
		// Source: v0 = w(t) (unflipped orientation — independent of mor's).
		trip2.Add(0, srcRow, 1)
		trip2.Add(srcRow, 0, 1)
		rhs[srcRow] = ld.wave(t)
		for sec := 0; sec < sections; sec++ {
			a, b := sec, sec+1
			br := nNodes + 1 + sec
			rr := r
			if sec == 0 {
				rr += rdrive
			}
			// Branch: v_a − v_b − R·i − L·di/dt = 0.
			trip2.Add(a, br, 1)
			trip2.Add(b, br, -1)
			trip2.Add(br, a, 1)
			trip2.Add(br, b, -1)
			var gl float64
			if useTR {
				gl = 2 * l / dt
				// v_a−v_b−R·i_{n+1} companioned: v+vPrev−R(i+iPrev)… spice
				// inductor: trap row v + vPrev − (2l/dt)(i − iPrev) = 0 with
				// the resistor R as a separate series element. Here R rides
				// the branch, so: (v_a−v_b)_{n+1} + (v_a−v_b)_n − R·i_{n+1}
				// − R·i_n − (2l/dt)(i_{n+1} − i_n) = 0.
				trip2.Add(br, br, -rr-gl)
				rhs[br] = -(x[a] - x[b]) + rr*x[br] - gl*x[br]
			} else {
				gl = l / dt
				trip2.Add(br, br, -rr-gl)
				rhs[br] = -gl * x[br]
			}
			// Grounded cap at b (and at node0 once).
			gc := c / dt
			if useTR {
				gc = 2 * c / dt
			}
			trip2.Add(b, b, gc)
			rhs[b] += gc * x[b]
			if useTR {
				rhs[b] += capPrev[b]
			}
		}
		gc := c / dt
		if useTR {
			gc = 2 * c / dt
		}
		trip2.Add(0, 0, gc)
		rhs[0] += gc * x[0]
		if useTR {
			rhs[0] += capPrev[0]
		}
		a := trip2.Compile()
		if err := lu.Factorize(a, 1); err != nil {
			panic(err)
		}
		lu.SolveInto(xn, rhs)
		// accept: cap currents
		for nd := 0; nd < nNodes; nd++ {
			if useTR {
				capPrev[nd] = (2*c/dt)*(xn[nd]-x[nd]) - capPrev[nd]
			} else {
				capPrev[nd] = (c / dt) * (xn[nd] - x[nd])
			}
		}
		copy(x, xn)
		out[s] = x[sections]
	}
	return out
}

func pulse(t float64) float64 {
	const delay, rise, width = 2e-12, 10e-12, 400e-12
	switch {
	case t < delay:
		return 0
	case t < delay+rise:
		return (t - delay) / rise
	case t < delay+width:
		return 1
	default:
		return 0
	}
}

func TestReducedMatchesElementReference(t *testing.T) {
	// A moderately damped delay line: wave-like enough to need a high-order
	// basis (underdamped ladders converge slowly in the Krylov order), damped
	// enough that the gate accepts below full dimension.
	const (
		sections = 24
		r        = 30.0
		l        = 2e-10
		c        = 3e-14
		rdrive   = 50.0
	)
	for _, tc := range []struct {
		name    string
		tr      bool
		beSteps int
	}{
		{"be", false, 0},
		{"tr", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ld := buildLadder(sections, r, l, c, rdrive, pulse, 0)
			dt := 2e-13
			steps := 2000
			opts := Options{
				DT: dt, NSteps: steps, TR: tc.tr, BESteps: tc.beSteps,
				Tol: 1e-4, GateWindow: 1000, MaxOrder: 40,
			}
			m, err := Reduce(ld.sys, opts)
			if err != nil {
				t.Fatalf("Reduce: %v", err)
			}
			if m.GateErr > 1e-4 {
				t.Fatalf("gate error %g above tolerance", m.GateErr)
			}
			t.Logf("order=%d gateErr=%.3g momErr=%.3g", m.Order, m.GateErr, m.MomentErr)

			ref := ld.elementReference(dt, steps, tc.beSteps, tc.tr, r, l, c, rdrive, sections)

			// Production reduced run on the output grid.
			run := m.NewRun()
			out := make([]float64, steps+1)
			out[0] = run.PortValues()[1]
			up := make([]float64, 2)
			stBE, err := m.PrepStepper(dt, false)
			if err != nil {
				t.Fatal(err)
			}
			var stTR *Stepper
			if tc.tr {
				if stTR, err = m.PrepStepper(dt, true); err != nil {
					t.Fatal(err)
				}
			}
			upPrev := make([]float64, 2)
			for j := 1; j <= steps; j++ {
				tt := float64(j) * dt
				st := stBE
				if m.StepIsTR(j) {
					st = stTR
				}
				up[0], up[1] = -pulse(tt), 0
				upPrev[0], upPrev[1] = -pulse(float64(j-1)*dt), 0
				if _, err := run.Advance(st, tt, up, upPrev, nil, NewtonOpts{}); err != nil {
					t.Fatalf("Advance step %d: %v", j, err)
				}
				out[j] = run.PortValues()[1]
			}
			var se, sr float64
			for s := 0; s <= steps; s++ {
				d := ref[s] - out[s]
				se += d * d
				sr += ref[s] * ref[s]
			}
			rel := math.Sqrt(se) / math.Max(math.Sqrt(sr), 1e-30)
			t.Logf("reduced-vs-element relative L2 error: %.3g", rel)
			if rel > 5e-4 {
				t.Fatalf("reduced waveform deviates from element-companion reference: rel=%.3g", rel)
			}
		})
	}
}

func TestExactAtFullOrder(t *testing.T) {
	// At order = component dimension the projection is the identity up to
	// an orthogonal change of basis: gate error should be ~machine epsilon.
	ld := buildLadder(6, 20, 1e-10, 2e-14, 25, pulse, 0)
	opts := Options{
		DT: 5e-13, NSteps: 400, TR: true, BESteps: 2,
		Tol: 1e-4, GateWindow: 300,
		// MaxDimFrac > 1: at full order the reduced dimension equals N,
		// which the production no-headroom guard would veto.
		Order: 64, MaxOrder: 64, MaxDimFrac: 2,
	}
	m, err := Reduce(ld.sys, opts)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if m.GateErr > 1e-9 {
		t.Fatalf("full-order projection should be near-exact, gate err %g", m.GateErr)
	}
}

func TestGateRejectTightTolerance(t *testing.T) {
	ld := buildLadder(30, 10, 2e-10, 3e-14, 50, pulse, 0)
	rep := &diag.Report{}
	opts := Options{
		DT: 2e-13, NSteps: 2000, TR: true, BESteps: 2,
		Tol:   1e-300, // unattainable
		Order: 4, MaxOrder: 6, GateWindow: 400,
		Report: rep,
	}
	if _, err := Reduce(ld.sys, opts); err == nil {
		t.Fatal("expected gate rejection at unattainable tolerance")
	} else if !errors.Is(err, diag.ErrNonConvergence) {
		t.Fatalf("expected ErrNonConvergence, got %v", err)
	}
	found := false
	for _, a := range rep.Attempts {
		if a.Ladder == "mor-gate" && a.Outcome == diag.OutcomeFailed {
			found = true
		}
	}
	if !found {
		t.Fatal("gate rejection not recorded in diag report")
	}
}

func TestArnoldiFaultInjection(t *testing.T) {
	ld := buildLadder(16, 10, 2e-10, 3e-14, 50, pulse, 0)
	opts := Options{
		DT: 2e-13, NSteps: 500, TR: true, BESteps: 2,
		GateWindow: 200,
		Injector:   diag.FaultAt("mor.arnoldi", 0, errors.New("injected")),
	}
	if _, err := Reduce(ld.sys, opts); err == nil {
		t.Fatal("expected injected Arnoldi failure")
	}
	opts.Injector = diag.FaultAt("mor.gate", 0, errors.New("injected"))
	if _, err := Reduce(ld.sys, opts); err == nil {
		t.Fatal("expected injected gate failure")
	}
}

func TestRunStateRoundTrip(t *testing.T) {
	ld := buildLadder(12, 15, 2e-10, 3e-14, 50, pulse, 0.5)
	// Accuracy is irrelevant here — the test only needs an accepted model.
	opts := Options{DT: 2e-13, NSteps: 600, TR: true, BESteps: 2, GateWindow: 300, Tol: 1e-2}
	m, err := Reduce(ld.sys, opts)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	run := m.NewRun()
	st, err := m.PrepStepper(2e-13, false)
	if err != nil {
		t.Fatal(err)
	}
	up := make([]float64, 2)
	upPrev := make([]float64, 2)
	for j := 1; j <= 5; j++ {
		tt := float64(j) * 2e-13
		up[0] = -pulse(tt)
		if _, err := run.Advance(st, tt, up, nil, nil, NewtonOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	snap := run.CaptureState()
	// Advance both a restored copy and the original in lockstep: bit-exact.
	run2 := m.NewRun()
	if err := run2.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	stTR, err := m.PrepStepper(2e-13, true)
	if err != nil {
		t.Fatal(err)
	}
	for j := 6; j <= 20; j++ {
		tt := float64(j) * 2e-13
		up[0] = -pulse(tt)
		upPrev[0] = -pulse(float64(j-1) * 2e-13)
		if _, err := run.Advance(stTR, tt, up, upPrev, nil, NewtonOpts{}); err != nil {
			t.Fatal(err)
		}
		if _, err := run2.Advance(stTR, tt, up, upPrev, nil, NewtonOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range run.v {
		if run.v[i] != run2.v[i] {
			t.Fatalf("restored run diverged at port %d: %g vs %g", i, run.v[i], run2.v[i])
		}
	}
	x := make([]float64, ld.sys.N)
	run.ExpandInto(x)
	if x[ld.sys.Ports[1]] != run.v[1] {
		t.Fatal("ExpandInto does not reproduce port values")
	}
}
