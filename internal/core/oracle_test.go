package core

import (
	"encoding/csv"
	"math"
	"os"
	"strconv"
	"testing"

	"rlcint/internal/diag"
	"rlcint/internal/tech"
)

// oraclePoint is one row of testdata/optimum_grid.csv.
type oraclePoint struct {
	node      tech.Node
	f, l      float64 // threshold fraction; inductance in nH/mm
	h, k, tph float64 // optimum h (m), k and τ/h (s/m)
}

// readOracleGrid loads the optimizer's oracle table: the 915 problems of
// the three nodes × f ∈ {0.1, 0.3, 0.5, 0.7, 0.9} × l = 0–6 nH/mm in steps
// of 0.1, with the answers of the ladder that cross-checked every cold
// Newton solve against a full Nelder–Mead minimization. The table is an
// oracle: regenerating it from the code under test would check nothing.
func readOracleGrid(t *testing.T) []oraclePoint {
	t.Helper()
	fh, err := os.Open("testdata/optimum_grid.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	rows, err := csv.NewReader(fh).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var pts []oraclePoint
	for _, row := range rows[1:] {
		node, err := tech.ByName(row[0])
		if err != nil {
			t.Fatal(err)
		}
		var v [5]float64
		for i := range v {
			if v[i], err = strconv.ParseFloat(row[i+1], 64); err != nil {
				t.Fatal(err)
			}
		}
		pts = append(pts, oraclePoint{node, v[0], v[1], v[2], v[3], v[4]})
	}
	if len(pts) != 915 {
		t.Fatalf("oracle grid has %d rows, want 915", len(pts))
	}
	return pts
}

// TestOptimizeOracleGrid checks every cold optimum of the grid against the
// oracle table: τ/h no worse than the table's by more than 1e-9 relative,
// and no error. For f ≥ 0.5 the closed-form-seeded Newton must pass its
// certificate everywhere, so the Nelder–Mead fallback never runs.
func TestOptimizeOracleGrid(t *testing.T) {
	for _, o := range readOracleGrid(t) {
		p := problem(o.node, o.l)
		p.F = o.f
		rep := &diag.Report{}
		p.Report = rep
		opt, err := Optimize(p)
		if err != nil {
			t.Errorf("%s f=%g l=%g: %v", o.node.Name, o.f, o.l, err)
			continue
		}
		if !(opt.PerUnit <= o.tph*(1+1e-9)) {
			t.Errorf("%s f=%g l=%g: τ/h %.12g worse than the oracle's %.12g (rel %.3g)",
				o.node.Name, o.f, o.l, opt.PerUnit, o.tph, opt.PerUnit/o.tph-1)
		}
		if _, ran := rep.Last("opt-nelder-mead"); ran && o.f >= 0.5 {
			t.Errorf("%s f=%g l=%g: Nelder–Mead fallback ran:\n%s", o.node.Name, o.f, o.l, rep)
		}
	}
}

// TestOptimizeCertificateRejectsWorseStationaryPoint pins the certificate's
// comparison condition. At 100 nm, f = 0.1, l = 6 nH/mm the closed-form-
// seeded Newton converges cleanly to a stationary point whose τ/h is about
// 23× the minimum's; the certificate must reject it, so the Nelder–Mead
// fallback runs and the answer is the oracle's optimum. The oracle holds
// the simplex's point; the Newton polish from it answers, no worse in τ/h
// and within the simplex's resolution of it in h and k.
func TestOptimizeCertificateRejectsWorseStationaryPoint(t *testing.T) {
	var want oraclePoint
	for _, o := range readOracleGrid(t) {
		if o.node.Name == "100nm" && o.f == 0.1 && o.l == 6 {
			want = o
		}
	}
	p := problem(tech.Node100(), 6)
	p.F = 0.1
	rep := &diag.Report{}
	p.Report = rep
	opt, err := Optimize(p)
	if err != nil {
		t.Fatalf("Optimize: %v\n%s", err, rep)
	}
	var coldOK, rejected bool
	for _, a := range rep.Attempts {
		if a.Ladder != "opt-newton" {
			continue
		}
		coldOK = coldOK || (a.Rung == "cold-start" && a.Outcome == diag.OutcomeOK && a.Err == nil)
		rejected = rejected || (a.Rung == "certificate" && a.Outcome == diag.OutcomeFailed)
	}
	if !coldOK || !rejected {
		t.Errorf("want a clean cold-start Newton rejected by the certificate:\n%s", rep)
	}
	if nm, ok := rep.Last("opt-nelder-mead"); !ok || nm.Outcome != diag.OutcomeOK {
		t.Errorf("Nelder–Mead fallback not recorded as OK:\n%s", rep)
	}
	if opt.Method != MethodNewton || !(opt.PerUnit <= want.tph) ||
		math.Abs(opt.H-want.h) > 1e-5*want.h || math.Abs(opt.K-want.k) > 1e-5*want.k {
		t.Errorf("optimum (h=%.17g, k=%.17g, τ/h=%.17g) by %s, oracle (%.17g, %.17g, %.17g)",
			opt.H, opt.K, opt.PerUnit, opt.Method, want.h, want.k, want.tph)
	}
}
