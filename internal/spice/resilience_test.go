package spice

import (
	"errors"
	"math"
	"strings"
	"testing"

	"rlcint/internal/diag"
)

// dividerCircuit builds a resistive divider with a well-defined DC point:
// v(mid) = 0.5 V.
func dividerCircuit(t *testing.T) *Circuit {
	t.Helper()
	c := New()
	in, mid := c.Node("in"), c.Node("mid")
	if _, err := c.AddV(in, Ground, DC(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR(in, mid, 1e3); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR(mid, Ground, 1e3); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC(mid, Ground, 1e-12); err != nil {
		t.Fatal(err)
	}
	return c
}

// resRCCircuit builds the 1 Ω / 1 F step-response circuit whose analytic
// solution is v(t) = 1 − e^{−t}.
func resRCCircuit(t *testing.T) *Circuit {
	t.Helper()
	c := New()
	in, out := c.Node("in"), c.Node("out")
	if _, err := c.AddV(in, Ground, DC(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR(in, out, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC(out, Ground, 1); err != nil {
		t.Fatal(err)
	}
	c.SetIC(out, 0)
	return c
}

func TestDCGminLadderSkipsFaultedRung(t *testing.T) {
	// A singular factorization injected at the gmin=1e-7 rung (after earlier
	// rungs converged) must be skipped — restoring the last converged iterate
	// — rather than aborting the whole ladder.
	c := dividerCircuit(t)
	inj := &diag.Injector{Fault: func(s diag.Site) error {
		if s.Op == "spice.factorize/dc-gmin" && s.Gmin == 1e-7 {
			return errors.New("injected pivot failure")
		}
		return nil
	}}
	rep := &diag.Report{}
	x, err := c.DCOperatingPointWith(DCOpts{Injector: inj, Report: rep})
	if err != nil {
		t.Fatalf("DC with mid-ladder fault: %v", err)
	}
	if vm := x[c.Node("mid")]; math.Abs(vm-0.5) > 1e-9 {
		t.Errorf("v(mid) = %v, want 0.5", vm)
	}
	skipped := false
	for _, a := range rep.Attempts {
		if a.Ladder == "dc-gmin" && a.Rung == "gmin=1e-07" {
			if a.Outcome != diag.OutcomeSkipped {
				t.Errorf("faulted rung outcome = %s, want skipped", a.Outcome)
			}
			if !errors.Is(a.Err, diag.ErrSingularJacobian) {
				t.Errorf("faulted rung error %v does not match ErrSingularJacobian", a.Err)
			}
			skipped = true
		}
	}
	if !skipped {
		t.Errorf("report has no dc-gmin gmin=1e-07 attempt:\n%s", rep)
	}
}

func TestDCSourceRampRescuesGminFailure(t *testing.T) {
	// When every gmin rung faults, the source-ramping rung must still find
	// the operating point, and it must agree with the unfaulted solve.
	c := dividerCircuit(t)
	want, err := c.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	inj := &diag.Injector{Fault: func(s diag.Site) error {
		if strings.HasSuffix(s.Op, "/dc-gmin") {
			return errors.New("injected gmin-ladder failure")
		}
		return nil
	}}
	rep := &diag.Report{}
	x, err := c.DCOperatingPointWith(DCOpts{Injector: inj, Report: rep})
	if err != nil {
		t.Fatalf("DC with gmin ladder disabled: %v\n%s", err, rep)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	if rep.Tried("dc-ramp") == 0 {
		t.Errorf("source ramp left no report trace:\n%s", rep)
	}
	if last, ok := rep.Last("dc-ramp"); !ok || last.Rung != "polish" || last.Outcome != diag.OutcomeOK {
		t.Errorf("last dc-ramp attempt = %+v, want successful polish", last)
	}
}

func TestDCTerminalFailureIsTyped(t *testing.T) {
	// Faulting both ladders must surface a diag.ErrNonConvergence carrying
	// the DC operating point op, with the injected cause still reachable.
	c := dividerCircuit(t)
	inj := &diag.Injector{Fault: func(s diag.Site) error {
		if strings.HasPrefix(s.Op, "spice.newton/dc-") {
			return errors.New("injected DC failure")
		}
		return nil
	}}
	rep := &diag.Report{}
	_, err := c.DCOperatingPointWith(DCOpts{Injector: inj, Report: rep})
	if err == nil {
		t.Fatal("DC solve succeeded despite both ladders faulted")
	}
	if !errors.Is(err, diag.ErrNonConvergence) {
		t.Errorf("error %v does not match diag.ErrNonConvergence", err)
	}
	var de *diag.Error
	if !errors.As(err, &de) {
		t.Fatalf("error %T is not a *diag.Error", err)
	}
	if de.Op != "spice.DCOperatingPoint" {
		t.Errorf("Op = %q, want spice.DCOperatingPoint", de.Op)
	}
	if rep.Tried("dc-gmin") == 0 || rep.Tried("dc-ramp") == 0 {
		t.Errorf("report missing ladder attempts:\n%s", rep)
	}
}

func TestTransientBEFallbackOnTRStall(t *testing.T) {
	// Every trapezoidal Newton solve is faulted; the TR→BE rung must carry
	// the whole run to completion without halving the grid away.
	c := resRCCircuit(t)
	inj := diag.FaultAt("spice.newton/tran-tr", 0, errors.New("injected TR stall"))
	rep := &diag.Report{}
	res, err := c.Transient(TranOpts{
		TStop: 3, DT: 0.05, UseICs: true, Method: Trapezoidal,
		Injector: inj, Report: rep,
	}, c.ProbeNode("out"))
	if err != nil {
		t.Fatalf("transient with TR faulted: %v\n%s", err, rep)
	}
	if res.Partial {
		t.Error("completed run marked partial")
	}
	v, _ := res.Signal("out")
	for i, tt := range res.T {
		// Backward Euler accuracy only: first-order in dt.
		if want := 1 - math.Exp(-tt); math.Abs(v[i]-want) > 0.05 {
			t.Fatalf("t=%v: v=%v, want %v (BE tolerance)", tt, v[i], want)
		}
	}
	fallbacks := 0
	for _, a := range rep.Attempts {
		if a.Ladder == "tran-step" && a.Rung == "be-fallback" {
			fallbacks++
			if !errors.Is(a.Err, diag.ErrNonConvergence) {
				t.Errorf("fallback cause %v does not match ErrNonConvergence", a.Err)
			}
		}
		if a.Ladder == "tran-step" && a.Rung == "halve" {
			t.Errorf("BE fallback should have absorbed the stall without halving: %+v", a)
		}
	}
	if fallbacks == 0 {
		t.Errorf("no be-fallback attempts recorded:\n%s", rep)
	}
}

func TestTransientTimestepCollapsePartialResult(t *testing.T) {
	// From grid step 5 onward both integration schemes are faulted: the step
	// ladder (BE fallback, then halvings) must exhaust itself and return the
	// partial result alongside a typed collapse error.
	const failFrom = 5
	c := resRCCircuit(t)
	inj := &diag.Injector{Fault: func(s diag.Site) error {
		if strings.HasPrefix(s.Op, "spice.newton/tran-") && s.Step >= failFrom {
			return errors.New("injected persistent stall")
		}
		return nil
	}}
	rep := &diag.Report{}
	const dt = 0.01
	res, err := c.Transient(TranOpts{
		TStop: 1, DT: dt, UseICs: true, Method: Trapezoidal,
		Injector: inj, Report: rep,
	}, c.ProbeNode("out"))
	if err == nil {
		t.Fatal("transient succeeded despite persistent stall")
	}
	if !errors.Is(err, diag.ErrTimestepCollapse) {
		t.Errorf("error %v does not match diag.ErrTimestepCollapse", err)
	}
	var de *diag.Error
	if !errors.As(err, &de) {
		t.Fatalf("error %T is not a *diag.Error", err)
	}
	if de.Step != failFrom {
		t.Errorf("collapse Step = %d, want %d", de.Step, failFrom)
	}
	if want := (failFrom - 1) * dt; math.Abs(de.Time-want) > 1e-12 {
		t.Errorf("collapse Time = %v, want %v", de.Time, want)
	}
	if res == nil {
		t.Fatal("no partial result returned")
	}
	if !res.Partial {
		t.Error("Partial not set on collapsed run")
	}
	if want := (failFrom - 1) * dt; math.Abs(res.PartialT-want) > 1e-12 {
		t.Errorf("PartialT = %v, want %v", res.PartialT, want)
	}
	// Samples for t = 0 .. (failFrom-1)·dt must be preserved.
	if len(res.T) != failFrom {
		t.Fatalf("len(T) = %d, want %d", len(res.T), failFrom)
	}
	v, verr := res.Signal("out")
	if verr != nil {
		t.Fatal(verr)
	}
	if len(v) != len(res.T) {
		t.Fatalf("signal length %d != time length %d", len(v), len(res.T))
	}
	for i, tt := range res.T {
		if want := 1 - math.Exp(-tt); math.Abs(v[i]-want) > 1e-3 {
			t.Errorf("preserved sample t=%v: v=%v, want %v", tt, v[i], want)
		}
	}
	if last, ok := rep.Last("tran-step"); !ok || last.Rung != "collapse" || last.Outcome != diag.OutcomeFailed {
		t.Errorf("last tran-step attempt = %+v, want failed collapse", last)
	}
}

func TestTransientMaxHalvingsBoundary(t *testing.T) {
	// MaxHalvings=1 with backward Euler (no TR rung available) must collapse
	// after exactly one halving attempt and keep only the t=0 sample.
	c := resRCCircuit(t)
	inj := diag.FaultAt("spice.newton/tran-be", 0, errors.New("injected BE stall"))
	rep := &diag.Report{}
	res, err := c.Transient(TranOpts{
		TStop: 1, DT: 0.1, UseICs: true, Method: BackwardEuler,
		MaxHalvings: 1, Injector: inj, Report: rep,
	}, c.ProbeNode("out"))
	if !errors.Is(err, diag.ErrTimestepCollapse) {
		t.Fatalf("error %v does not match diag.ErrTimestepCollapse", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("collapsed run must return a partial result")
	}
	if res.PartialT != 0 {
		t.Errorf("PartialT = %v, want 0 (no step completed)", res.PartialT)
	}
	if len(res.T) != 1 || res.T[0] != 0 {
		t.Errorf("T = %v, want just the initial sample", res.T)
	}
	halves := 0
	for _, a := range rep.Attempts {
		if a.Ladder == "tran-step" && a.Rung == "halve" {
			halves++
		}
	}
	if halves != 1 {
		t.Errorf("halve attempts = %d, want exactly 1 (MaxHalvings boundary)\n%s", halves, rep)
	}
}

func TestTransientNoBEStartFallsBackImmediately(t *testing.T) {
	// With NoBEStart the very first step runs trapezoidal; a fault on that
	// step alone must engage the BE fallback and then complete normally.
	c := resRCCircuit(t)
	inj := &diag.Injector{Fault: func(s diag.Site) error {
		if s.Op == "spice.newton/tran-tr" && s.Step == 1 {
			return errors.New("injected first-step stall")
		}
		return nil
	}}
	rep := &diag.Report{}
	res, err := c.Transient(TranOpts{
		TStop: 1, DT: 0.01, UseICs: true, Method: Trapezoidal, NoBEStart: true,
		Injector: inj, Report: rep,
	}, c.ProbeNode("out"))
	if err != nil {
		t.Fatalf("transient: %v\n%s", err, rep)
	}
	if res.Partial {
		t.Error("completed run marked partial")
	}
	if n := rep.Tried("tran-step"); n == 0 {
		t.Errorf("first-step fault left no tran-step trace:\n%s", rep)
	}
}

func TestTranOptsValidateRejectsBadValues(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		opts TranOpts
	}{
		{"negative ITol", TranOpts{TStop: 1, DT: 0.1, ITol: -1e-9}},
		{"NaN RelTol", TranOpts{TStop: 1, DT: 0.1, RelTol: nan}},
		{"Inf TStop", TranOpts{TStop: math.Inf(1), DT: 0.1}},
		{"NaN TStop", TranOpts{TStop: nan, DT: 0.1}},
		{"negative Gmin", TranOpts{TStop: 1, DT: 0.1, Gmin: -1e-12}},
		{"negative MaxStep", TranOpts{TStop: 1, DT: 0.1, MaxStep: -5}},
		{"negative MaxNewton", TranOpts{TStop: 1, DT: 0.1, MaxNewton: -1}},
		{"negative MaxHalvings", TranOpts{TStop: 1, DT: 0.1, MaxHalvings: -1}},
		{"negative VNTol", TranOpts{TStop: 1, DT: 0.1, VNTol: -1}},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			if err := cse.opts.Validate(); !errors.Is(err, diag.ErrDomain) {
				t.Errorf("Validate() = %v, want ErrDomain match", err)
			}
			c := resRCCircuit(t)
			if _, err := c.Transient(cse.opts, c.ProbeNode("out")); !errors.Is(err, diag.ErrDomain) {
				t.Errorf("Transient() = %v, want ErrDomain match", err)
			}
		})
	}
	// Zero values still mean "use defaults", not a domain violation.
	if err := (TranOpts{TStop: 1, DT: 0.1}).Validate(); err != nil {
		t.Errorf("zero-valued options rejected: %v", err)
	}
	// A bad window is a domain error too.
	c := resRCCircuit(t)
	if _, err := c.Transient(TranOpts{TStop: 1, DT: 2}, c.ProbeNode("out")); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("DT > TStop accepted: %v", err)
	}
}
