package spice

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"rlcint/internal/diag"
	"rlcint/internal/runctl"
)

// randLadder builds a randomized driven RLC ladder: a pulse source feeding
// sections of series R–L with shunt C, mutual coupling between neighbouring
// inductors, and (optionally) inverter repeaters every third section. The
// same seed always builds the identical netlist, so the differential tests
// construct one circuit per simulation run (element state mutates during a
// run) and still compare like against like. The topology is driven, not
// autonomous: free-running oscillators amplify last-bit differences
// chaotically, which would make even correct refactorization look broken.
func randLadder(t *testing.T, seed int64, withInverters bool) (*Circuit, []Probe) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := New()
	in := c.Node("in")
	if _, err := c.AddV(in, Ground, Pulse{V0: 0, V1: 1, Delay: 20e-12, Rise: 30e-12, Width: 350e-12, Fall: 30e-12}); err != nil {
		t.Fatal(err)
	}
	prev := in
	var prevL *Inductor
	sections := 6 + rng.Intn(4)
	for i := 0; i < sections; i++ {
		mid := c.Node(fmt.Sprintf("m%d", i))
		out := c.Node(fmt.Sprintf("n%d", i))
		if err := c.AddR(prev, mid, 5+20*rng.Float64()); err != nil {
			t.Fatal(err)
		}
		l, err := c.AddL(mid, out, (0.5+rng.Float64())*1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddC(out, Ground, (0.5+rng.Float64())*1e-14); err != nil {
			t.Fatal(err)
		}
		if prevL != nil {
			if _, err := c.AddMutual(prevL, l, 0.15+0.1*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		prevL = l
		prev = out
		if withInverters && i%3 == 2 {
			buf := c.Node(fmt.Sprintf("b%d", i))
			if _, err := c.AddInverter(prev, buf, InverterParams{
				VDD: 1, ROut: 200 + 100*rng.Float64(), CIn: 2e-15, COut: 2e-15,
			}); err != nil {
				t.Fatal(err)
			}
			// Decouple repeaters so the chain keeps a stable DC point.
			prev = buf
			prevL = nil
		}
	}
	probes := []Probe{c.ProbeNode("n0"), c.ProbeNode(c.NodeName(NodeID(prev)))}
	return c, probes
}

func ladderOpts() TranOpts {
	// Tight solver tolerances so fast/legacy Newton iterates for nonlinear
	// circuits agree far below the 1e-9 comparison threshold.
	return TranOpts{
		TStop: 1e-9, DT: 5e-12,
		ITol: 1e-12, RelTol: 1e-9, VNTol: 1e-12,
	}
}

func maxSignalDiff(t *testing.T, a, b *Result) float64 {
	t.Helper()
	if len(a.T) != len(b.T) || len(a.Signals) != len(b.Signals) {
		t.Fatalf("result shapes differ: %d/%d samples, %d/%d signals",
			len(a.T), len(b.T), len(a.Signals), len(b.Signals))
	}
	m := 0.0
	for i := range a.Signals {
		for j := range a.Signals[i] {
			if d := math.Abs(a.Signals[i][j] - b.Signals[i][j]); d > m {
				m = d
			}
		}
	}
	return m
}

// TestFastPathLinearBitExact checks the linear-circuit bypass against the
// legacy path on randomized RLC ladders: every recorded sample must be
// bit-for-bit equal, because the bypass runs the same Newton loop on the
// same residuals with numerically identical factors.
func TestFastPathLinearBitExact(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cFast, pFast := randLadder(t, seed, false)
		cSlow, pSlow := randLadder(t, seed, false)
		// This test pins the sparse-kernel fast path against the legacy
		// assembly; the Krylov reduction (which is accurate to its gate
		// tolerance, not bit-exact) is exercised by reduce_test.go.
		fastOpts := ladderOpts()
		fastOpts.NoReduction = true
		fast, err := cFast.Transient(fastOpts, pFast...)
		if err != nil {
			t.Fatalf("seed %d fast: %v", seed, err)
		}
		slowOpts := ladderOpts()
		slowOpts.NoFastPath = true
		slow, err := cSlow.Transient(slowOpts, pSlow...)
		if err != nil {
			t.Fatalf("seed %d legacy: %v", seed, err)
		}
		if d := maxSignalDiff(t, fast, slow); d != 0 {
			t.Errorf("seed %d: linear bypass deviates from legacy path by %g (want bit-exact)", seed, d)
		}
	}
}

// TestFastPathNonlinearAgrees checks the partitioned-stamping +
// refactorization path against the legacy path on ladders with inverter
// repeaters. Both paths converge each step to the same tight tolerances, so
// the waveforms must agree to well below 1e-9.
func TestFastPathNonlinearAgrees(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cFast, pFast := randLadder(t, seed, true)
		cSlow, pSlow := randLadder(t, seed, true)
		fast, err := cFast.Transient(ladderOpts(), pFast...)
		if err != nil {
			t.Fatalf("seed %d fast: %v", seed, err)
		}
		slowOpts := ladderOpts()
		slowOpts.NoFastPath = true
		slow, err := cSlow.Transient(slowOpts, pSlow...)
		if err != nil {
			t.Fatalf("seed %d legacy: %v", seed, err)
		}
		if d := maxSignalDiff(t, fast, slow); d > 1e-9 {
			t.Errorf("seed %d: fast path deviates from legacy path by %g (want <= 1e-9)", seed, d)
		}
	}
}

// TestFastPathDCAgrees compares DC operating points: bit-exact for linear
// circuits, Newton-tolerance agreement with nonlinear repeaters.
func TestFastPathDCAgrees(t *testing.T) {
	for _, nl := range []bool{false, true} {
		cFast, _ := randLadder(t, 7, nl)
		cSlow, _ := randLadder(t, 7, nl)
		xf, err := cFast.DCOperatingPointWith(DCOpts{})
		if err != nil {
			t.Fatalf("nl=%v fast: %v", nl, err)
		}
		xs, err := cSlow.DCOperatingPointWith(DCOpts{NoFastPath: true})
		if err != nil {
			t.Fatalf("nl=%v legacy: %v", nl, err)
		}
		m := 0.0
		for i := range xf {
			if d := math.Abs(xf[i] - xs[i]); d > m {
				m = d
			}
		}
		if !nl && m != 0 {
			t.Errorf("linear DC point deviates by %g (want bit-exact)", m)
		}
		if nl && m > 1e-5 {
			t.Errorf("nonlinear DC point deviates by %g (want <= 1e-5)", m)
		}
	}
}

// TestFastPathRefactorFallbackRecovers forces the pivot-health guard's
// fallback on every refactorization attempt via the
// "spice.refactorize/<rung>" injection site: the run must complete by
// falling back to full factorizations, record the fallbacks, and still
// match the legacy waveform.
func TestFastPathRefactorFallbackRecovers(t *testing.T) {
	cFast, pFast := randLadder(t, 11, true)
	cSlow, pSlow := randLadder(t, 11, true)
	rep := &diag.Report{}
	opts := ladderOpts()
	opts.Report = rep
	opts.Injector = &diag.Injector{Fault: func(s diag.Site) error {
		if strings.HasPrefix(s.Op, "spice.refactorize/") {
			return fmt.Errorf("injected refactorization fault")
		}
		return nil
	}}
	fast, err := cFast.Transient(opts, pFast...)
	if err != nil {
		t.Fatalf("fast run with forced fallbacks: %v", err)
	}
	if rep.Tried("newton-fast") == 0 {
		t.Fatalf("no refactor-fallback attempts recorded; injector never reached the refactorization site")
	}
	slowOpts := ladderOpts()
	slowOpts.NoFastPath = true
	slow, err := cSlow.Transient(slowOpts, pSlow...)
	if err != nil {
		t.Fatalf("legacy: %v", err)
	}
	if d := maxSignalDiff(t, fast, slow); d > 1e-9 {
		t.Errorf("fallback waveform deviates from legacy by %g (want <= 1e-9)", d)
	}
}

// TestFastPathRestartBitExact interrupts a nonlinear fast-path run
// mid-window via an iteration budget, restarts it from the snapshot on a
// freshly built circuit, and requires the restarted waveform to equal the
// uninterrupted run's bit-for-bit — the property the fast path's symbolic
// refresh schedule (full factorization at snapshot-boundary steps) exists
// to preserve.
func TestFastPathRestartBitExact(t *testing.T) {
	cpPath := filepath.Join(t.TempDir(), "ladder.ckpt")

	cFull, pFull := randLadder(t, 13, true)
	full, err := cFull.Transient(ladderOpts(), pFull...)
	if err != nil {
		t.Fatalf("uninterrupted: %v", err)
	}

	cHalf, pHalf := randLadder(t, 13, true)
	halfOpts := ladderOpts()
	halfOpts.CheckpointPath = cpPath
	halfOpts.CheckpointEvery = 25
	halfOpts.Limits = runctl.Limits{MaxIters: 250}
	if _, err := cHalf.Transient(halfOpts, pHalf...); err == nil {
		t.Fatal("interrupted run unexpectedly completed; raise the window or lower MaxIters")
	}

	cp, err := LoadCheckpoint(cpPath)
	if err != nil {
		t.Fatalf("load snapshot: %v", err)
	}
	nSteps := int(ladderOpts().TStop/ladderOpts().DT + 0.5)
	if cp.Step < 1 || cp.Step >= nSteps {
		t.Fatalf("snapshot at step %d does not interrupt the %d-step window", cp.Step, nSteps)
	}

	cRes, pRes := randLadder(t, 13, true)
	resOpts := ladderOpts()
	resOpts.CheckpointEvery = 25
	resumed, err := cRes.TransientResume(cp, resOpts, pRes...)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if d := maxSignalDiff(t, full, resumed); d != 0 {
		t.Errorf("restarted run deviates from uninterrupted run by %g (want bit-exact)", d)
	}
}

// TestFastPathAdaptiveLinearBitExact runs the adaptive stepper on a linear
// ladder both ways: the bypass must reproduce the legacy run bit-exactly,
// step-size decisions included, even though the adaptive dt churn overflows
// the bounded factorization cache.
func TestFastPathAdaptiveLinearBitExact(t *testing.T) {
	cFast, pFast := randLadder(t, 17, false)
	cSlow, pSlow := randLadder(t, 17, false)
	aOpts := AdaptiveOpts{TStop: 1e-9, ITol: 1e-12}
	fast, err := cFast.TransientAdaptive(aOpts, pFast...)
	if err != nil {
		t.Fatalf("fast: %v", err)
	}
	aOpts.NoFastPath = true
	slow, err := cSlow.TransientAdaptive(aOpts, pSlow...)
	if err != nil {
		t.Fatalf("legacy: %v", err)
	}
	if d := maxSignalDiff(t, fast, slow); d != 0 {
		t.Errorf("adaptive bypass deviates from legacy by %g (want bit-exact)", d)
	}
}

// TestTransientStepAllocFree drives a warmed-up nonlinear solver through
// steady-state production full steps and requires them to allocate
// nothing: the fast path's point is that the per-step hot loop touches only
// preallocated state.
func TestTransientStepAllocFree(t *testing.T) {
	c, _ := randLadder(t, 19, true)
	opts, err := TranOpts{TStop: 1e-9, DT: 5e-12}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	ns := newNewtonState(c)
	x0, err := c.DCOperatingPointWith(DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	copy(ns.x, x0)
	var st stepper = &fullStep{c: c, ns: ns, opts: opts}
	requireStepsAllocFree(t, st, opts.DT)
}

// requireStepsAllocFree warms st up (freezing patterns, sizing every
// buffer) and then requires steady-state trapezoidal steps through the
// stepper interface to allocate nothing.
func requireStepsAllocFree(t *testing.T, st stepper, dt float64) {
	t.Helper()
	step := 1
	runStep := func() {
		if err := st.advance(float64(step-1)*dt, dt, step, step > 2); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		step++
	}
	for i := 0; i < 8; i++ {
		runStep()
	}
	if allocs := testing.AllocsPerRun(20, runStep); allocs != 0 {
		t.Errorf("steady-state %T step allocates %.0f objects/op, want 0", st, allocs)
	}
}
