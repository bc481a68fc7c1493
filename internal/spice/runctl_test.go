package spice

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"rlcint/internal/diag"
	"rlcint/internal/runctl"
	"rlcint/internal/testutil"
)

// rlcStepCircuit builds a pulse-driven RLC ladder segment with both
// capacitor and inductor state, so checkpoint/resume exercises every kind
// of carried solver history.
func rlcStepCircuit(t *testing.T) *Circuit {
	t.Helper()
	c := New()
	in, mid, out := c.Node("in"), c.Node("mid"), c.Node("out")
	if _, err := c.AddV(in, Ground, Pulse{V0: 0, V1: 1, Delay: 1e-10, Rise: 5e-11}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR(in, mid, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddL(mid, out, 2e-9); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC(mid, Ground, 1e-13); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC(out, Ground, 2e-13); err != nil {
		t.Fatal(err)
	}
	return c
}

var rlcWindow = TranOpts{TStop: 4e-9, DT: 1e-11}

func TestTransientCancellationReturnsPartial(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := rlcStepCircuit(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the solver at grid step 50, deterministically; the
	// next Newton iteration must observe it.
	opts := rlcWindow
	opts.Injector = &diag.Injector{Fault: func(s diag.Site) error {
		if s.Step >= 50 {
			cancel()
		}
		return nil
	}}
	res, err := c.TransientCtx(ctx, opts, c.ProbeNode("out"))
	if !errors.Is(err, diag.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("cancelled run did not return a partial result")
	}
	if len(res.T) < 50 {
		t.Errorf("partial waveform has %d samples, want >= 50", len(res.T))
	}
	var de *diag.Error
	if !errors.As(err, &de) {
		t.Fatalf("want *diag.Error, got %T", err)
	}
	// The run must stop within one integration step of the cancellation.
	if de.Step < 50 || de.Step > 51 {
		t.Errorf("stopped at step %d, want 50 or 51", de.Step)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("context cause not wrapped")
	}
}

func TestTransientIterationBudgetStopsTyped(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := rlcStepCircuit(t)
	opts := rlcWindow
	opts.Limits = runctl.Limits{MaxIters: 40}
	res, err := c.Transient(opts, c.ProbeNode("out"))
	if !errors.Is(err, diag.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if res == nil || !res.Partial || len(res.T) < 2 {
		t.Fatal("budget stop lost the partial waveform")
	}
}

func TestTransientDeadlineCarriesElapsed(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := rlcStepCircuit(t)
	opts := rlcWindow
	opts.Limits = runctl.Limits{Timeout: time.Nanosecond} // expires before the first iteration
	_, err := c.Transient(opts, c.ProbeNode("out"))
	if !errors.Is(err, diag.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	var de *diag.Error
	if !errors.As(err, &de) || de.Elapsed <= 0 {
		t.Fatalf("deadline error carries no elapsed time: %v", err)
	}
}

func TestCheckpointResumeBitExact(t *testing.T) {
	testutil.CheckGoroutines(t)
	probe := func(c *Circuit) []Probe { return []Probe{c.ProbeNode("out"), c.ProbeNode("mid")} }

	// Reference: the uninterrupted run.
	cRef := rlcStepCircuit(t)
	ref, err := cRef.Transient(rlcWindow, probe(cRef)...)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpoints every 8 grid steps, killed by an
	// iteration budget partway through the window.
	cp := filepath.Join(t.TempDir(), "tran.ckpt")
	cKilled := rlcStepCircuit(t)
	opts := rlcWindow
	opts.CheckpointPath = cp
	opts.CheckpointEvery = 8
	opts.Limits = runctl.Limits{MaxIters: 120}
	if _, err := cKilled.Transient(opts, probe(cKilled)...); !errors.Is(err, diag.ErrBudget) {
		t.Fatalf("interrupted run: want ErrBudget, got %v", err)
	}

	loaded, err := LoadCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	nSteps := int(rlcWindow.TStop/rlcWindow.DT + 0.5)
	if loaded.Step < 8 || loaded.Step >= nSteps {
		t.Fatalf("checkpoint at step %d, want mid-run", loaded.Step)
	}

	// Resume on a fresh circuit and march to completion.
	cRes := rlcStepCircuit(t)
	resOpts := rlcWindow
	resOpts.CheckpointPath = cp
	resOpts.CheckpointEvery = 8
	resumed, err := cRes.TransientResume(loaded, resOpts, probe(cRes)...)
	if err != nil {
		t.Fatal(err)
	}

	if len(resumed.T) != len(ref.T) {
		t.Fatalf("resumed run has %d samples, reference %d", len(resumed.T), len(ref.T))
	}
	for i := range ref.T {
		if resumed.T[i] != ref.T[i] {
			t.Fatalf("time axis diverges at %d: %v != %v", i, resumed.T[i], ref.T[i])
		}
		for s := range ref.Signals {
			if resumed.Signals[s][i] != ref.Signals[s][i] {
				t.Fatalf("signal %q diverges at sample %d: %v != %v (bit-exact resume broken)",
					ref.Labels[s], i, resumed.Signals[s][i], ref.Signals[s][i])
			}
		}
	}
}

func TestCheckpointResumeAlreadyComplete(t *testing.T) {
	c := rlcStepCircuit(t)
	cp := filepath.Join(t.TempDir(), "done.ckpt")
	opts := rlcWindow
	opts.CheckpointPath = cp
	full, err := c.Transient(opts, c.ProbeNode("out"))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	c2 := rlcStepCircuit(t)
	res, err := c2.TransientResume(loaded, rlcWindow, c2.ProbeNode("out"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.T) != len(full.T) {
		t.Fatalf("complete-checkpoint resume has %d samples, want %d", len(res.T), len(full.T))
	}
}

func TestResumeRejectsMismatches(t *testing.T) {
	c := rlcStepCircuit(t)
	cp := filepath.Join(t.TempDir(), "m.ckpt")
	opts := rlcWindow
	opts.CheckpointPath = cp
	opts.CheckpointEvery = 8
	opts.Limits = runctl.Limits{MaxIters: 120}
	c.Transient(opts, c.ProbeNode("out"))
	loaded, err := LoadCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}

	c2 := rlcStepCircuit(t)
	badWindow := rlcWindow
	badWindow.DT = 2e-11
	if _, err := c2.TransientResume(loaded, badWindow, c2.ProbeNode("out")); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("window mismatch not rejected: %v", err)
	}
	if _, err := c2.TransientResume(loaded, rlcWindow, c2.ProbeNode("mid")); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("probe mismatch not rejected: %v", err)
	}
	if _, err := c2.TransientResume(nil, rlcWindow, c2.ProbeNode("out")); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("nil checkpoint not rejected: %v", err)
	}
}

func TestPanicInDeviceEvalSurfacesTyped(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := rlcStepCircuit(t)
	opts := rlcWindow
	opts.Injector = diag.PanicAt("spice.newton/tran-tr", 30, "poisoned stamp")
	res, err := c.Transient(opts, c.ProbeNode("out"))
	if !errors.Is(err, diag.ErrPanic) {
		t.Fatalf("want ErrPanic, got %v", err)
	}
	var de *diag.Error
	if !errors.As(err, &de) {
		t.Fatalf("want *diag.Error, got %T", err)
	}
	if de.Op != "spice.Transient" {
		t.Errorf("panic recovered at %q, want the public boundary", de.Op)
	}
	if len(de.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
	if de.Detail != "poisoned stamp" {
		t.Errorf("detail = %q", de.Detail)
	}
	// The recover boundary is above the marching loop, so the partial
	// result is lost by design — but the process must not crash and res
	// must be nil, not garbage.
	if res != nil && !res.Partial && len(res.T) > 0 {
		t.Log("panic path returned a result; acceptable but unexpected")
	}
}

func TestACAnalysisCancellationKeepsPrefix(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := New()
	in, out := c.Node("in"), c.Node("out")
	src, err := c.AddV(in, Ground, DC(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddR(in, out, 1e3); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC(out, Ground, 1e-12); err != nil {
		t.Fatal(err)
	}
	ss := make([]complex128, 100)
	for i := range ss {
		ss[i] = complex(0, 1e6*float64(i+1))
	}
	res, err := c.ACAnalysisCtx(context.Background(), runctl.Limits{MaxIters: 10}, src, out, ss)
	if !errors.Is(err, diag.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if len(res.H) != 10 || len(res.S) != 10 {
		t.Fatalf("prefix has %d points, want 10", len(res.H))
	}
}
