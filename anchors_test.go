package rlcint

import (
	"math"
	"testing"

	"rlcint/internal/spice"
)

// TestPaperAnchors pins the paper's numeric anchors through the facade:
// Table 1's RC-optimal stage delays, the RIP mixed-scheme plan
// (arXiv:0710.4690), the Fig9 ring period, the Fig11 period collapse, and
// the 250 nm ring's reduced-order period against the full solver.
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
