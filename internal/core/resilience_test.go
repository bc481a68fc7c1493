package core

import (
	"errors"
	"math"
	"testing"

	"rlcint/internal/diag"
	"rlcint/internal/repeater"
	"rlcint/internal/tech"
	"rlcint/internal/tline"
)

// testProblem is a well-conditioned instance (the 100 nm node at 2 nH/mm)
// whose unfaulted solve lands on the Newton path.
func testProblem() Problem {
	n := tech.Node100()
	return Problem{
		Device: repeater.FromTech(n),
		Line:   tline.Line{R: n.R, L: 2 * tech.NHPerMM, C: n.C},
		F:      0.5,
	}
}

func TestOptimizeNelderMeadRescuesColdStart(t *testing.T) {
	// Faulting only the cold start (start index 0) must push the optimizer to
	// the Nelder–Mead fallback and its Newton polish, and land on the
	// unfaulted optimum. The polish's τ/h is no worse than the direct
	// minimum's, so the polish answers, at the unfaulted stationary point
	// rather than the simplex's ~1e-6 from it.
	want, err := Optimize(testProblem())
	if err != nil {
		t.Fatal(err)
	}
	p := testProblem()
	p.Injector = &diag.Injector{Fault: func(s diag.Site) error {
		if s.Op == "core.stationarity" && s.Step == 0 {
			return errors.New("injected cold-start failure")
		}
		return nil
	}}
	rep := &diag.Report{}
	p.Report = rep
	opt, err := Optimize(p)
	if err != nil {
		t.Fatalf("Optimize with cold start faulted: %v\n%s", err, rep)
	}
	if opt.Method != MethodNewton {
		t.Errorf("Method = %s, want %s (the polish after the fallback)", opt.Method, MethodNewton)
	}
	if math.Abs(opt.H-want.H) > 1e-8*want.H || math.Abs(opt.K-want.K) > 1e-8*want.K {
		t.Errorf("optimum (%g, %g) deviates from unfaulted (%g, %g)", opt.H, opt.K, want.H, want.K)
	}
	var coldFailed, nmOK, polishOK bool
	for _, a := range rep.Attempts {
		switch {
		case a.Ladder == "opt-newton" && a.Rung == "cold-start":
			coldFailed = a.Outcome == diag.OutcomeFailed
		case a.Ladder == "opt-nelder-mead" && a.Rung == "direct":
			nmOK = a.Outcome == diag.OutcomeOK
		case a.Ladder == "opt-newton" && a.Rung == "polish":
			polishOK = a.Outcome == diag.OutcomeOK
		}
	}
	if !coldFailed || !nmOK || !polishOK {
		t.Errorf("report missing cold-start failure, Nelder–Mead success or polish success:\n%s", rep)
	}
}

func TestOptimizeNewtonStallReachesNelderMead(t *testing.T) {
	// Faulting every stationarity evaluation (the cold start and the
	// polish) must still produce an optimum via the Nelder–Mead rung.
	p := testProblem()
	p.Injector = &diag.Injector{Fault: func(s diag.Site) error {
		if s.Op == "core.stationarity" {
			return errors.New("injected Newton stall")
		}
		return nil
	}}
	rep := &diag.Report{}
	p.Report = rep
	opt, err := Optimize(p)
	if err != nil {
		t.Fatalf("Optimize with Newton disabled: %v\n%s", err, rep)
	}
	if opt.Method != MethodNelderMead {
		t.Errorf("Method = %s, want %s", opt.Method, MethodNelderMead)
	}
	// The direct minimum must agree with the unfaulted answer to optimization
	// accuracy.
	want, err := Optimize(testProblem())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt.PerUnit-want.PerUnit) > 1e-6*want.PerUnit {
		t.Errorf("per-unit delay %g deviates from unfaulted %g", opt.PerUnit, want.PerUnit)
	}
	if last, ok := rep.Last("opt-nelder-mead"); !ok || last.Outcome != diag.OutcomeOK {
		t.Errorf("nelder-mead rung not recorded as OK:\n%s", rep)
	}
	failed := map[string]bool{}
	for _, a := range rep.Attempts {
		if a.Ladder == "opt-newton" && a.Outcome == diag.OutcomeFailed {
			failed[a.Rung] = true
		}
	}
	if !failed["cold-start"] || !failed["polish"] {
		t.Errorf("cold-start and polish not both recorded failed:\n%s", rep)
	}
}

func TestOptimizeTerminalFailureIsTyped(t *testing.T) {
	// Faulting both the stationarity system and the objective evaluation
	// leaves no rung standing: the terminal error must match both the legacy
	// ErrOptimize sentinel and the diag taxonomy.
	p := testProblem()
	p.Injector = &diag.Injector{Fault: func(s diag.Site) error {
		if s.Op == "core.stationarity" || s.Op == "core.eval" {
			return errors.New("injected total failure")
		}
		return nil
	}}
	rep := &diag.Report{}
	p.Report = rep
	_, err := Optimize(p)
	if err == nil {
		t.Fatal("Optimize succeeded with every rung faulted")
	}
	if !errors.Is(err, ErrOptimize) {
		t.Errorf("error %v does not match core.ErrOptimize", err)
	}
	if !errors.Is(err, diag.ErrNonConvergence) {
		t.Errorf("error %v does not match diag.ErrNonConvergence", err)
	}
	var de *diag.Error
	if !errors.As(err, &de) {
		t.Fatalf("error %T is not a *diag.Error", err)
	}
	if de.Op != "core.Optimize" {
		t.Errorf("Op = %q, want core.Optimize", de.Op)
	}
	if last, ok := rep.Last("opt-nelder-mead"); !ok || last.Outcome != diag.OutcomeFailed {
		t.Errorf("nelder-mead rung not recorded as failed:\n%s", rep)
	}
}

func TestOptimizeRejectsNaNInputs(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		mod  func(*Problem)
	}{
		{"NaN inductance", func(p *Problem) { p.Line.L = nan }},
		{"NaN resistance", func(p *Problem) { p.Line.R = nan }},
		{"NaN device Rs", func(p *Problem) { p.Device.Rs = nan }},
		{"NaN threshold", func(p *Problem) { p.F = nan }},
		{"Inf threshold", func(p *Problem) { p.F = math.Inf(1) }},
		{"threshold at 1", func(p *Problem) { p.F = 1 }},
		{"negative threshold", func(p *Problem) { p.F = -0.5 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := testProblem()
			c.mod(&p)
			if _, err := Optimize(p); !errors.Is(err, diag.ErrDomain) {
				t.Errorf("Optimize = %v, want ErrDomain match", err)
			}
		})
	}
}
