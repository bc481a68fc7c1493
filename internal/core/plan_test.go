package core

import (
	"errors"
	"math"
	"testing"

	"rlcint/internal/diag"
	"rlcint/internal/tech"
)

func TestPlanLineBasicConsistency(t *testing.T) {
	p := problem(tech.Node100(), 2)
	L := 50e-3
	plan, err := PlanLine(p, L)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stages < 1 {
		t.Fatalf("stages %d", plan.Stages)
	}
	if math.Abs(plan.H*float64(plan.Stages)-L) > 1e-12*L {
		t.Errorf("segments don't tile the net: %v × %d != %v", plan.H, plan.Stages, L)
	}
	if math.Abs(plan.Total-float64(plan.Stages)*plan.StageTau) > 1e-15 {
		t.Error("total != stages × stage delay")
	}
	// The realized plan cannot beat the continuous optimum's rate, but
	// must be close (within a few % for ≥3 stages).
	contTotal := plan.Continuous.PerUnit * L
	if plan.Total < contTotal*(1-1e-9) {
		t.Errorf("plan (%v) beats the continuous bound (%v)", plan.Total, contTotal)
	}
	if plan.Stages >= 3 && plan.Total > contTotal*1.10 {
		t.Errorf("plan %v more than 10%% above continuous %v", plan.Total, contTotal)
	}
}

func TestPlanLineNeighbourCountsNotBetter(t *testing.T) {
	// The chosen stage count must beat its neighbours when evaluated the
	// same way.
	p := problem(tech.Node100(), 1)
	L := 40e-3
	plan, err := PlanLine(p, L)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{plan.Stages - 1, plan.Stages + 1} {
		if n < 1 {
			continue
		}
		h := L / float64(n)
		k, _, err := optimizeKAtFixedH(p, h, plan.Continuous.K)
		if err != nil {
			continue
		}
		_, d, err := p.Eval(h, k)
		if err != nil {
			continue
		}
		if tot := float64(n) * d.Tau; tot < plan.Total*(1-1e-9) {
			t.Errorf("neighbour %d stages (%v) beats chosen %d (%v)", n, tot, plan.Stages, plan.Total)
		}
	}
}

func TestPlanLineShortNet(t *testing.T) {
	// A net shorter than one optimal segment uses a single stage.
	p := problem(tech.Node100(), 2)
	plan, err := PlanLine(p, 3e-3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stages != 1 {
		t.Errorf("short net used %d stages", plan.Stages)
	}
	if plan.H != 3e-3 {
		t.Errorf("h = %v, want full net", plan.H)
	}
}

func TestPlanLineValidation(t *testing.T) {
	p := problem(tech.Node100(), 1)
	if _, err := PlanLine(p, -1); err == nil {
		t.Error("negative length must fail")
	}
	bad := p
	bad.F = 7
	if _, err := PlanLine(bad, 0.01); err == nil {
		t.Error("invalid problem must fail")
	}
}

// g2Bisect is the reference root of g2 at fixed h: plain bisection on its
// sign inside [lo, hi], to 1e-13 relative. A search on τ itself cannot
// serve as the reference at that depth, since τ is flat at its minimum: a
// 1e-9 relative step in k moves τ by about 1e-18 relative, far below the
// delay solve's resolution.
func g2Bisect(t *testing.T, p Problem, h, lo, hi float64) float64 {
	t.Helper()
	for hi-lo > 1e-13*hi {
		mid := 0.5 * (lo + hi)
		_, g2, _, err := p.stationarity(h, mid)
		if err != nil {
			t.Fatalf("g2 at h=%g k=%g: %v", h, mid, err)
		}
		if g2 < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// TestPlanLineG2Sizing: at every candidate segment length PlanLine weighs,
// the repeater size is the root of g2 to 1e-9 relative, and its delay is no
// worse than the scan and golden-section search's beyond the delay solve's
// last bits (1e-15 relative), over three nodes, four inductances,
// f ∈ {0.5, 0.9} and three net lengths.
func TestPlanLineG2Sizing(t *testing.T) {
	nodes := []tech.Node{tech.Node250(), tech.Node100(), tech.Node100WithEps250()}
	n := 0
	for _, node := range nodes {
		for _, l := range []float64{0, 1, 2, 4} {
			for _, f := range []float64{0.5, 0.9} {
				p := problem(node, l)
				p.F = f
				opt, err := Optimize(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, L := range []float64{7e-3, 23e-3, 41e-3} {
					nIdeal := L / opt.H
					for _, stages := range []int{int(math.Floor(nIdeal)), int(math.Ceil(nIdeal)), int(math.Round(nIdeal)) + 1} {
						h := L / float64(max(stages, 1))
						k, tau, ok := g2RootK(p, h, opt.K)
						if !ok {
							t.Errorf("%s l=%g f=%g h=%g: the g2 root did not answer", node.Name, l, f, h)
							continue
						}
						n++
						if ref := g2Bisect(t, p, h, opt.K/2, 2*opt.K); math.Abs(k-ref) > 1e-9*ref {
							t.Errorf("%s l=%g f=%g h=%g: k = %.15g, g2 root %.15g (rel %.2g)", node.Name, l, f, h, k, ref, (k-ref)/ref)
						}
						_, scanTau, err := scanK(p, h, opt.K)
						if err != nil {
							t.Fatal(err)
						}
						if tau > scanTau*(1+1e-15) {
							t.Errorf("%s l=%g f=%g h=%g: τ = %.17g above the scan's %.17g", node.Name, l, f, h, tau, scanTau)
						}
					}
				}
			}
		}
	}
	t.Logf("%d fixed-h sizings", n)
}

// TestPlanLineG2Fallback: with the g2 evaluations faulted, the scan and
// golden-section search sizes every candidate, and the plan is the one that
// search alone gives.
func TestPlanLineG2Fallback(t *testing.T) {
	p := problem(tech.Node100(), 2)
	p.F = 0.9
	const L = 30e-3
	g2Calls := 0
	p.Injector = &diag.Injector{Fault: func(s diag.Site) error {
		if s.Op == "core.stationarity" && s.Step == -3 {
			g2Calls++
			return errors.New("injected g2 failure")
		}
		return nil
	}}
	plan, err := PlanLine(p, L)
	if err != nil {
		t.Fatal(err)
	}
	if g2Calls == 0 {
		t.Fatal("PlanLine never evaluated g2")
	}
	k, tau, err := scanK(p, plan.H, plan.Continuous.K)
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != k || plan.StageTau != tau {
		t.Errorf("faulted plan (k=%v, τ=%v), scan alone (k=%v, τ=%v)", plan.K, plan.StageTau, k, tau)
	}
	// An unfaulted plan agrees: the same stage count, k to the scan's
	// 1e-6 resolution, and τ no worse.
	p.Injector = nil
	clean, err := PlanLine(p, L)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Stages != plan.Stages || math.Abs(clean.K-plan.K) > 1e-6*clean.K || clean.StageTau > plan.StageTau*(1+1e-15) {
		t.Errorf("g2 plan %d stages k=%v τ=%v, scan plan %d stages k=%v τ=%v",
			clean.Stages, clean.K, clean.StageTau, plan.Stages, plan.K, plan.StageTau)
	}
	// A seed far from the optimum leaves the g2 bracket without a sign
	// change; the scan, which looks eight times wider, answers.
	h := clean.H
	if _, _, ok := g2RootK(p, h, 5*clean.K); ok {
		t.Errorf("g2 bracket around 5× the optimum's k answered")
	}
	k, tau, err = optimizeKAtFixedH(p, h, 5*clean.K)
	if err != nil {
		t.Fatal(err)
	}
	if wk, wtau, _ := scanK(p, h, 5*clean.K); k != wk || tau != wtau {
		t.Errorf("far seed: got (k=%v, τ=%v), scan (k=%v, τ=%v)", k, tau, wk, wtau)
	}
	if math.Abs(k-clean.K) > 1e-6*clean.K {
		t.Errorf("far seed: k = %v, want about %v", k, clean.K)
	}
}
