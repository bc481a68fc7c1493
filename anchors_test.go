package rlcint

import (
	"context"
	"math"
	"testing"

	"rlcint/internal/num"
	"rlcint/internal/spice"
)

// TestPaperAnchors pins the paper's numeric anchors through the facade:
// Table 1's RC-optimal stage delays, the RIP mixed-scheme plan
// (arXiv:0710.4690), the Fig4–8 sweep quantities EXPERIMENTS.md reports,
// the Fig9 ring period, the Fig11 period collapse, and the 250 nm ring's
// reduced-order period against the full solver.
func TestPaperAnchors(t *testing.T) {
	near := func(name string, got, want, tol float64) {
		t.Helper()
		if !(math.Abs(got-want) <= tol) {
			t.Errorf("%s = %.6g, want %.6g ± %g", name, got, want, tol)
		}
	}

	for _, tc := range []struct {
		node  Technology
		tauPS float64
	}{
		{Tech100(), 105.96},
		{Tech250(), 305.18},
	} {
		rc, err := OptimizeRC(tc.node)
		if err != nil {
			t.Fatalf("Table 1 %s: %v", tc.node.Name, err)
		}
		near("Table 1 "+tc.node.Name+" tau (ps)", rc.Tau/PS, tc.tauPS, 0.005)
	}

	plan, err := PlanPower(Tech100(), 2e-6, 0.9, 30*MM, PowerParams{Alpha: 0.15, Freq: 1e9},
		PowerPlanOptions{Front: ParetoOptions{Cold: true}})
	if err != nil {
		t.Fatalf("RIP plan: %v", err)
	}
	near("RIP power saved", plan.PowerSaved, 0.2224, 1e-4)
	near("RIP delay penalty", plan.DelayPenalty, 0.0440, 1e-4)

	// Figures 4-8 on cmd/figures' grid: 13 points over 0.1-4.9 nH/mm at
	// f = 0.5, cold starts (warm continuation differs by ~1e-6).
	ls := num.Linspace(0.1*NHPerMM, 4.9*NHPerMM, 13)
	rows, err := SweepNodes(context.Background(), SweepOptions{}, []Technology{Tech250(), Tech100()}, ls, 0.5)
	if err != nil {
		t.Fatalf("Fig4-8 sweep: %v", err)
	}
	for i, want := range []struct {
		lcrit, h, k        [2]float64 // first and last point
		fig7End, fig8Worst float64
	}{
		{[2]float64{0.188, 0.417}, [2]float64{0.9660, 1.3690}, [2]float64{0.8379, 0.4848}, 1.9943, 1.0828},
		{[2]float64{0.0637, 0.1888}, [2]float64{0.9908, 1.5882}, [2]float64{0.7748, 0.3843}, 2.9756, 1.1165},
	} {
		pts, name := rows[i].Points, rows[i].Node.Name
		ends := [2]SweepPoint{pts[0], pts[len(pts)-1]}
		worst := 0.0
		for _, p := range pts {
			worst = math.Max(worst, p.Penalty)
		}
		for j, end := range []string{"first", "last"} {
			near("Fig4 "+name+" l_crit (nH/mm), "+end+" point", ends[j].LCrit/NHPerMM, want.lcrit[j], 5e-4)
			near("Fig5 "+name+" h ratio, "+end+" point", ends[j].HRatio, want.h[j], 5e-4)
			near("Fig6 "+name+" k ratio, "+end+" point", ends[j].KRatio, want.k[j], 5e-4)
		}
		near("Fig7 "+name+" delay ratio at 4.9 nH/mm", ends[1].DelayRatio, want.fig7End, 5e-4)
		near("Fig8 "+name+" worst RC-sizing penalty", worst, want.fig8Worst, 5e-4)
	}

	if testing.Short() {
		t.Skip("ring-oscillator transients")
	}
	pts, err := SweepRingPeriod(RingConfig{Node: Tech100()}, []float64{1.8e-6, 2.8e-6}) // H/m
	if err != nil {
		t.Fatalf("Fig9/Fig11 sweep: %v", err)
	}
	near("Fig9 period (ns)", pts[0].Metrics.Period*1e9, 2.203, 5e-4)
	if pts[0].Collapsed || !pts[1].Collapsed {
		t.Errorf("Fig11 collapse flags %v/%v at 1.8/2.8 nH/mm, want false/true", pts[0].Collapsed, pts[1].Collapsed)
	}

	engaged := spice.ReductionStats().Engaged
	_, red, err := RunRing(RingConfig{Node: Tech250(), LineL: 1.8e-6})
	if err != nil {
		t.Fatalf("250 nm ring: %v", err)
	}
	if spice.ReductionStats().Engaged == engaged {
		t.Error("250 nm ring did not run on the reduced-order model")
	}
	_, full, err := RunRing(RingConfig{Node: Tech250(), LineL: 1.8e-6, NoReduction: true})
	if err != nil {
		t.Fatalf("250 nm ring (NoReduction): %v", err)
	}
	near("250 nm reduced/full period ratio", red.Period/full.Period, 1, 1e-3)
}
