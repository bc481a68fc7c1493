package spice

// Tests for the Krylov reduced-order fast path (reduce.go): differential
// accuracy against the full solver, gate-reject and fault-injection
// fallbacks, checkpoint/resume bit-exactness, and model-cache behaviour.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"rlcint/internal/diag"
	"rlcint/internal/runctl"
)

// morCacheReset empties the global projection cache so each test observes
// its own build/reject decisions instead of a neighbour's cached ones.
func morCacheReset() {
	morCache.mu.Lock()
	defer morCache.mu.Unlock()
	morCache.m = nil
}

// reduceLadder builds a coupled RLC ladder with enough sections to clear
// the reduction size floor (reduceMinUnknowns); randLadder's 6–9 sections
// sit right at it. Structure matches randLadder otherwise.
func reduceLadder(t *testing.T, seed int64, withInverters bool) (*Circuit, []Probe) {
	t.Helper()
	c, probes, err := buildReduceLadder(seed, withInverters)
	if err != nil {
		t.Fatal(err)
	}
	return c, probes
}

func buildReduceLadder(seed int64, withInverters bool) (*Circuit, []Probe, error) {
	rng := rand.New(rand.NewSource(seed))
	c := New()
	in := c.Node("in")
	if _, err := c.AddV(in, Ground, Pulse{V0: 0, V1: 1, Delay: 20e-12, Rise: 30e-12, Width: 350e-12, Fall: 30e-12}); err != nil {
		return nil, nil, err
	}
	prev := in
	var prevL *Inductor
	for i := 0; i < 12; i++ {
		mid := c.Node(fmt.Sprintf("m%d", i))
		out := c.Node(fmt.Sprintf("n%d", i))
		if err := c.AddR(prev, mid, 5+20*rng.Float64()); err != nil {
			return nil, nil, err
		}
		l, err := c.AddL(mid, out, (0.5+rng.Float64())*1e-10)
		if err != nil {
			return nil, nil, err
		}
		if err := c.AddC(out, Ground, (0.5+rng.Float64())*1e-14); err != nil {
			return nil, nil, err
		}
		if prevL != nil {
			if _, err := c.AddMutual(prevL, l, 0.15+0.1*rng.Float64()); err != nil {
				return nil, nil, err
			}
		}
		prevL = l
		prev = out
		if withInverters && i%4 == 3 {
			buf := c.Node(fmt.Sprintf("b%d", i))
			if _, err := c.AddInverter(prev, buf, InverterParams{
				VDD: 1, ROut: 200 + 100*rng.Float64(), CIn: 2e-15, COut: 2e-15,
			}); err != nil {
				return nil, nil, err
			}
			prev = buf
			prevL = nil
		}
	}
	probes := []Probe{c.ProbeNode("n0"), c.ProbeNode(c.NodeName(NodeID(prev)))}
	return c, probes, nil
}

func reportHas(rep *diag.Report, ladder, rung string) bool {
	for _, a := range rep.Attempts {
		if a.Ladder == ladder && a.Rung == rung {
			return true
		}
	}
	return false
}

// TestReducedLinearAgrees runs big linear ladders through the reduced path
// (asserting via the diag report that it actually engaged, after exactly one
// accuracy-gate attempt) and checks the waveforms against the full solver
// within the accuracy-gate budget.
func TestReducedLinearAgrees(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		morCacheReset()
		cRed, pRed := reduceLadder(t, seed, false)
		rep := &diag.Report{}
		redOpts := ladderOpts()
		redOpts.Report = rep
		red, err := cRed.Transient(redOpts, pRed...)
		if err != nil {
			t.Fatalf("seed %d reduced: %v", seed, err)
		}
		if !reportHas(rep, "mor", "accept") {
			t.Fatalf("seed %d: reduction did not engage:\n%s", seed, rep)
		}
		if n := rep.Tried("mor-gate"); n != 1 {
			t.Errorf("seed %d: %d mor-gate attempts, want one:\n%s", seed, n, rep)
		}
		cFull, pFull := reduceLadder(t, seed, false)
		fullOpts := ladderOpts()
		fullOpts.NoReduction = true
		full, err := cFull.Transient(fullOpts, pFull...)
		if err != nil {
			t.Fatalf("seed %d full: %v", seed, err)
		}
		if d := maxSignalDiff(t, red, full); d > 5e-3 || math.IsNaN(d) {
			t.Errorf("seed %d: reduced run deviates from full solver by %g (want <= 5e-3)", seed, d)
		}
	}
}

// TestReducedNonlinearConfirmGuard runs ladders with inverter repeaters.
// The large-signal confirmation window either accepts the reduced model (in
// which case the waveform agrees within the confirm budget) or rejects it
// (full solver, exact by construction); both outcomes must stay close to
// the NoReduction reference, and the decision must be on the report.
func TestReducedNonlinearConfirmGuard(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		morCacheReset()
		cRed, pRed := reduceLadder(t, seed, true)
		rep := &diag.Report{}
		redOpts := ladderOpts()
		redOpts.Report = rep
		red, err := cRed.Transient(redOpts, pRed...)
		if err != nil {
			t.Fatalf("seed %d reduced: %v", seed, err)
		}
		if rep.Tried("mor") == 0 {
			t.Fatalf("seed %d: no reduced-path decision on the report", seed)
		}
		cFull, pFull := reduceLadder(t, seed, true)
		fullOpts := ladderOpts()
		fullOpts.NoReduction = true
		full, err := cFull.Transient(fullOpts, pFull...)
		if err != nil {
			t.Fatalf("seed %d full: %v", seed, err)
		}
		if d := maxSignalDiff(t, red, full); d > 2e-2 || math.IsNaN(d) {
			t.Errorf("seed %d: nonlinear run deviates from full solver by %g (want <= 2e-2)", seed, d)
		}
	}
}

// TestReducedBuildFaultFallsBack injects a fault into the Arnoldi build and
// requires a bit-exact full-solver run plus a reject entry on the report.
func TestReducedBuildFaultFallsBack(t *testing.T) {
	for _, site := range []string{"mor.arnoldi", "mor.build", "mor.gate"} {
		morCacheReset()
		cRed, pRed := reduceLadder(t, 4, false)
		rep := &diag.Report{}
		redOpts := ladderOpts()
		redOpts.Report = rep
		redOpts.Injector = diag.FaultAt(site, 0, errors.New("injected build fault"))
		red, err := cRed.Transient(redOpts, pRed...)
		if err != nil {
			t.Fatalf("%s: run failed instead of falling back: %v", site, err)
		}
		if !reportHas(rep, "mor", "reduce") {
			t.Errorf("%s: no reduce-reject entry on the report:\n%s", site, rep)
		}
		if reportHas(rep, "mor", "accept") {
			t.Errorf("%s: model accepted despite injected build fault", site)
		}
		cFull, pFull := reduceLadder(t, 4, false)
		fullOpts := ladderOpts()
		fullOpts.NoReduction = true
		full, err := cFull.Transient(fullOpts, pFull...)
		if err != nil {
			t.Fatalf("full: %v", err)
		}
		if d := maxSignalDiff(t, red, full); d != 0 {
			t.Errorf("%s: build-fault fallback deviates from NoReduction by %g (want bit-exact)", site, d)
		}
	}
}

// TestReducedStepFaultBailsBitExact injects a fault into the reduced
// stepping loop mid-run; the transient must restart on the full solver and
// end bit-identical to a NoReduction run, with bailout+fallback recorded.
func TestReducedStepFaultBailsBitExact(t *testing.T) {
	morCacheReset()
	cRed, pRed := reduceLadder(t, 6, false)
	rep := &diag.Report{}
	redOpts := ladderOpts()
	redOpts.Report = rep
	redOpts.Injector = diag.FaultAt("spice.mor/step", 10, errors.New("injected step fault"))
	red, err := cRed.Transient(redOpts, pRed...)
	if err != nil {
		t.Fatalf("reduced: run failed instead of bailing out: %v", err)
	}
	if !reportHas(rep, "mor", "accept") {
		t.Fatalf("reduction did not engage:\n%s", rep)
	}
	if !reportHas(rep, "mor", "bailout") || !reportHas(rep, "mor", "fallback") {
		t.Errorf("bailout/fallback not recorded:\n%s", rep)
	}
	cFull, pFull := reduceLadder(t, 6, false)
	fullOpts := ladderOpts()
	fullOpts.NoReduction = true
	full, err := cFull.Transient(fullOpts, pFull...)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if d := maxSignalDiff(t, red, full); d != 0 {
		t.Errorf("step-fault fallback deviates from NoReduction by %g (want bit-exact)", d)
	}
}

// TestReducedCheckpointResumeBitExact interrupts a reduced checkpointing
// run, resumes from the snapshot, and requires the stitched waveform to be
// bit-identical to an uninterrupted reduced run. It then checks the two
// refusal paths: a reduced snapshot cannot resume under NoReduction or
// NoFastPath.
func TestReducedCheckpointResumeBitExact(t *testing.T) {
	dir := t.TempDir()
	morCacheReset()

	cFull, pFull := reduceLadder(t, 5, false)
	rep := &diag.Report{}
	fullOpts := ladderOpts()
	fullOpts.Report = rep
	fullOpts.CheckpointPath = filepath.Join(dir, "whole.ckpt")
	fullOpts.CheckpointEvery = 50
	full, err := cFull.Transient(fullOpts, pFull...)
	if err != nil {
		t.Fatalf("uninterrupted: %v", err)
	}
	if !reportHas(rep, "mor", "accept") {
		t.Fatalf("reduction did not engage:\n%s", rep)
	}

	cpPath := filepath.Join(dir, "interrupted.ckpt")
	cHalf, pHalf := reduceLadder(t, 5, false)
	halfOpts := ladderOpts()
	halfOpts.CheckpointPath = cpPath
	halfOpts.CheckpointEvery = 50
	halfOpts.Limits = runctl.Limits{MaxIters: 120}
	if _, err := cHalf.Transient(halfOpts, pHalf...); err == nil {
		t.Fatal("interrupted run unexpectedly completed; lower MaxIters")
	}
	cp, err := LoadCheckpoint(cpPath)
	if err != nil {
		t.Fatalf("load snapshot: %v", err)
	}
	if cp.MOR == nil {
		t.Fatal("checkpoint from a reduced run is missing the reduced-state blob")
	}

	cRes, pRes := reduceLadder(t, 5, false)
	resOpts := ladderOpts()
	resOpts.CheckpointEvery = 50
	resumed, err := cRes.TransientResume(cp, resOpts, pRes...)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if d := maxSignalDiff(t, full, resumed); d != 0 {
		t.Errorf("resumed run deviates from uninterrupted run by %g (want bit-exact)", d)
	}

	cNR, pNR := reduceLadder(t, 5, false)
	nrOpts := ladderOpts()
	nrOpts.NoReduction = true
	if _, err := cNR.TransientResume(cp, nrOpts, pNR...); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("NoReduction resume of a reduced snapshot: got %v, want domain error", err)
	}
	cNF, pNF := reduceLadder(t, 5, false)
	nfOpts := ladderOpts()
	nfOpts.NoFastPath = true
	if _, err := cNF.TransientResume(cp, nfOpts, pNF...); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("NoFastPath resume of a reduced snapshot: got %v, want domain error", err)
	}
}

// TestReducedStepAllocFree marches a validated reduced model of a
// repeated ladder through steady-state steps of the production reduced
// step and requires them to allocate nothing, like the full step.
func TestReducedStepAllocFree(t *testing.T) {
	morCacheReset()
	c, probes := reduceLadder(t, 3, true)
	opts, err := ladderOpts().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	x0, err := c.DCOperatingPointWith(DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := c.tryReduce(opts, x0, probes, opts.gridSteps(), 2)
	if err != nil || rr == nil {
		t.Fatalf("no reduced model to step (err %v)", err)
	}
	st, err := c.newReducedStep(opts, rr, rr.model.NewRun(), rr.ex.cl.probePI)
	if err != nil {
		t.Fatal(err)
	}
	requireStepsAllocFree(t, st, opts.DT)
}

// TestReducedCacheConcurrent hammers the shared projection cache from
// several goroutines running identical circuits; mainly a -race exercise.
func TestReducedCacheConcurrent(t *testing.T) {
	morCacheReset()
	const workers = 4
	type job struct {
		c *Circuit
		p []Probe
	}
	jobs := make([]job, workers)
	for g := range jobs {
		c, p := reduceLadder(t, 9, false)
		jobs[g] = job{c, p}
	}
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			if _, err := j.c.Transient(ladderOpts(), j.p...); err != nil {
				errs <- err
			}
		}(jobs[g])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent reduced run: %v", err)
	}
}
