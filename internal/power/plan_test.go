package power

import (
	"context"
	"errors"
	"math"
	"testing"

	"rlcint/internal/diag"
	"rlcint/internal/tech"
)

// TestPlanPowerRIPClaim reproduces the RIP mixed-scheme result on the
// paper's 100 nm global wire: a repeater plan drawn from the Pareto front
// saves ≥15% total power versus the delay-optimal plan while staying within
// the 5% delay penalty budget.
func TestPlanPowerRIPClaim(t *testing.T) {
	m, err := New(tech.Node100(), 2e-6, Params{Alpha: 0.15, Freq: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanPower(context.Background(), m, frontF, 0.03, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.DelayPenalty > 0.05+1e-12 {
		t.Errorf("delay penalty %.4f exceeds the 5%% budget", plan.DelayPenalty)
	}
	if plan.PowerSaved < 0.15 {
		t.Errorf("power saved %.4f < 0.15 — the RIP claim does not reproduce", plan.PowerSaved)
	}
	t.Logf("RIP claim: %.2f%% power saved at %.2f%% delay penalty (baseline %d stages)",
		100*plan.PowerSaved, 100*plan.DelayPenalty, plan.Baseline.Stages)
}

// TestPlanPowerConsistency: the plan's aggregates must follow from its
// scheme runs, and the runs must tile the net exactly.
func TestPlanPowerConsistency(t *testing.T) {
	m, err := New(tech.Node100(), 2e-6, Params{Alpha: 0.15, Freq: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	const L = 0.02
	plan, err := PlanPower(context.Background(), m, frontF, L, PlanOptions{MaxPenalty: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Schemes) < 1 || len(plan.Schemes) > 2 {
		t.Fatalf("plan has %d schemes, want 1 or 2", len(plan.Schemes))
	}
	var length, delay, pow float64
	for _, s := range plan.Schemes {
		if s.Stages < 1 || s.H <= 0 || s.K <= 0 {
			t.Errorf("degenerate scheme %+v", s)
		}
		length += float64(s.Stages) * s.H
		delay += float64(s.Stages) * s.StageTau
		pow += float64(s.Stages) * s.Stage.Total()
	}
	if math.Abs(length-L) > 1e-6*L {
		t.Errorf("schemes cover %.9g m of a %.9g m net", length, L)
	}
	if relDiff(delay, plan.Delay) > 1e-12 {
		t.Errorf("delay aggregate mismatch: %g vs %g", delay, plan.Delay)
	}
	if relDiff(pow, plan.Power) > 1e-12 {
		t.Errorf("power aggregate mismatch: %g vs %g", pow, plan.Power)
	}
	if plan.Delay > (1+0.03)*plan.Baseline.Total*(1+1e-12) {
		t.Errorf("plan delay %g violates the 3%% budget over baseline %g", plan.Delay, plan.Baseline.Total)
	}
	// The planner must never lose to the delay-optimal baseline on power.
	if plan.Power > plan.BaselinePower*(1+1e-12) {
		t.Errorf("plan power %g exceeds baseline %g", plan.Power, plan.BaselinePower)
	}
	if len(plan.Front) == 0 {
		t.Errorf("plan is missing its front trace")
	}
}

// TestPlanPowerZeroPenalty: with no delay slack the planner still returns a
// feasible plan (the baseline split itself is in the search space via the
// λ=0 front point).
func TestPlanPowerZeroPenalty(t *testing.T) {
	m, err := New(tech.Node100(), 2e-6, Params{Alpha: 0.15, Freq: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanPower(context.Background(), m, frontF, 0.02, PlanOptions{MaxPenalty: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if plan.DelayPenalty > 1e-9+1e-12 {
		t.Errorf("delay penalty %.3g exceeds the zero budget", plan.DelayPenalty)
	}
	if plan.PowerSaved < -1e-9 {
		t.Errorf("plan lost power vs baseline: saved %.3g", plan.PowerSaved)
	}
}

func TestPlanPowerDomain(t *testing.T) {
	m, err := New(tech.Node100(), 2e-6, Params{Alpha: 0.15, Freq: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	for _, L := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := PlanPower(context.Background(), m, frontF, L, PlanOptions{}); !errors.Is(err, diag.ErrDomain) {
			t.Errorf("L=%g: want ErrDomain, got %v", L, err)
		}
	}
	if _, err := PlanPower(context.Background(), m, frontF, 0.02, PlanOptions{MaxPenalty: math.NaN()}); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("NaN MaxPenalty: want ErrDomain, got %v", err)
	}
	if _, err := PlanPower(context.Background(), m, frontF, 0.02, PlanOptions{MaxPenalty: -0.1}); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("negative MaxPenalty: want ErrDomain, got %v", err)
	}
}

// BenchmarkPlanPower measures one RIP plan (100 nm, 2 nH/mm, f = 0.9,
// 30 mm): the baseline PlanLine, the Pareto front and the split search.
func BenchmarkPlanPower(b *testing.B) {
	m, err := New(tech.Node100(), 2e-6, Params{Alpha: 0.15, Freq: 1e9})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PlanPower(context.Background(), m, frontF, 0.03, PlanOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
