package core

import (
	"math"
	"testing"

	"rlcint/internal/num"
	"rlcint/internal/repeater"
	"rlcint/internal/tech"
	"rlcint/internal/tline"
)

func problem(node tech.Node, lNHmm float64) Problem {
	return Problem{
		Device: repeater.FromTech(node),
		Line:   tline.Line{R: node.R, L: lNHmm * tech.NHPerMM, C: node.C},
	}
}

func TestCoeffDerivsMatchFiniteDifferences(t *testing.T) {
	p := problem(tech.Node100(), 2)
	h0, k0 := 11.1*tech.MM, 528.0
	b1f := func(h, k float64) float64 { b1, _, _, _, _, _ := p.coeffDerivs(h, k); return b1 }
	b2f := func(h, k float64) float64 { _, b2, _, _, _, _ := p.coeffDerivs(h, k); return b2 }
	_, _, db1h, db1k, db2h, db2k := p.coeffDerivs(h0, k0)

	checks := []struct {
		name     string
		analytic float64
		fd       float64
	}{
		{"db1/dh", db1h, num.CentralDiff(func(h float64) float64 { return b1f(h, k0) }, h0)},
		{"db1/dk", db1k, num.CentralDiff(func(k float64) float64 { return b1f(h0, k) }, k0)},
		{"db2/dh", db2h, num.CentralDiff(func(h float64) float64 { return b2f(h, k0) }, h0)},
		{"db2/dk", db2k, num.CentralDiff(func(k float64) float64 { return b2f(h0, k) }, k0)},
	}
	for _, c := range checks {
		if math.Abs(c.analytic-c.fd) > 1e-5*math.Abs(c.fd)+1e-30 {
			t.Errorf("%s: analytic %v, FD %v", c.name, c.analytic, c.fd)
		}
	}
}

func TestCoeffsMatchStageSeries(t *testing.T) {
	// b1, b2 from coeffDerivs must equal the series coefficients of the
	// stage built through the repeater scaling.
	p := problem(tech.Node250(), 3)
	h, k := 14.4*tech.MM, 578.0
	b1, b2, _, _, _, _ := p.coeffDerivs(h, k)
	d := p.Device.Stage(p.Line, h, k).DenominatorSeries(3)
	if math.Abs(b1-d[1])/d[1] > 1e-12 || math.Abs(b2-d[2])/d[2] > 1e-12 {
		t.Errorf("coeffs (%v,%v) != series (%v,%v)", b1, b2, d[1], d[2])
	}
}

func TestPoleDerivsMatchFiniteDifferences(t *testing.T) {
	p := problem(tech.Node100(), 2)
	h0, k0 := 13.0*tech.MM, 300.0 // generic point away from critical damping
	s1, s2, ds1h, ds1k, ds2h, ds2k, err := p.poleDerivs(h0, k0)
	if err != nil {
		t.Fatalf("poleDerivs: %v", err)
	}
	// Poles satisfy 1 + b1 s + b2 s² = 0.
	b1, b2, _, _, _, _ := p.coeffDerivs(h0, k0)
	for _, s := range []complex128{s1, s2} {
		res := complex(1, 0) + complex(b1, 0)*s + complex(b2, 0)*s*s
		if math.Hypot(real(res), imag(res)) > 1e-6*math.Hypot(real(s*s*complex(b2, 0)), imag(s*s*complex(b2, 0))) {
			t.Errorf("pole residual at %v", s)
		}
	}
	// FD on the real/imaginary parts of s1 w.r.t. h.
	rePole := func(h, k float64) (float64, float64) {
		s1n, _, _, _, _, _, err := p.poleDerivs(h, k)
		if err != nil {
			t.Fatalf("FD eval: %v", err)
		}
		return real(s1n), imag(s1n)
	}
	eps := 1e-6 * h0
	rp, ip := rePole(h0+eps, k0)
	rm, im := rePole(h0-eps, k0)
	fdRe, fdIm := (rp-rm)/(2*eps), (ip-im)/(2*eps)
	if math.Abs(real(ds1h)-fdRe) > 1e-4*math.Abs(fdRe)+1e-3*math.Abs(real(s1)/h0) {
		t.Errorf("Re ds1/dh: analytic %v, FD %v", real(ds1h), fdRe)
	}
	if math.Abs(imag(ds1h)-fdIm) > 1e-4*math.Abs(fdIm)+1e-3*math.Abs(real(s1)/h0) {
		t.Errorf("Im ds1/dh: analytic %v, FD %v", imag(ds1h), fdIm)
	}
	// k-derivatives: check via the sum s1+s2 = -b1/b2 identity.
	_, _, db1h, db1k, db2h, db2k := p.coeffDerivs(h0, k0)
	_ = db1h
	_ = db2h
	wantSumK := complex(-(db1k*b2-b1*db2k)/(b2*b2), 0)
	if gotSumK := ds1k + ds2k; math.Hypot(real(gotSumK-wantSumK), imag(gotSumK-wantSumK)) > 1e-6*math.Abs(real(wantSumK)) {
		t.Errorf("ds1k+ds2k = %v, want %v", gotSumK, wantSumK)
	}
	wantSumH := complex(-(db1h*b2-b1*db2h)/(b2*b2), 0)
	if gotSumH := ds1h + ds2h; math.Hypot(real(gotSumH-wantSumH), imag(gotSumH-wantSumH)) > 1e-6*math.Abs(real(wantSumH)) {
		t.Errorf("ds1h+ds2h = %v, want %v", gotSumH, wantSumH)
	}
}

func TestStationarityVanishesAtNumericalMinimum(t *testing.T) {
	// Find the minimum by brute Nelder–Mead, then check g1, g2 ≈ 0 there
	// (this validates Eqs. (7)-(8) against the direct objective).
	p := problem(tech.Node100(), 1.0)
	opt, err := Optimize(p)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	g1, g2, _, err := p.stationarity(opt.H, opt.K)
	if err != nil {
		t.Skipf("optimum inside critical band: %v", err)
	}
	// Scale: compare against the magnitude of g at a clearly non-optimal
	// point.
	g1far, g2far, _, err := p.stationarity(opt.H*1.3, opt.K*1.3)
	if err != nil {
		t.Fatalf("stationarity far: %v", err)
	}
	if math.Abs(g1) > 1e-3*math.Abs(g1far) {
		t.Errorf("g1 at optimum = %v (far %v)", g1, g1far)
	}
	if math.Abs(g2) > 1e-3*math.Abs(g2far) {
		t.Errorf("g2 at optimum = %v (far %v)", g2, g2far)
	}
}

func TestOptimizeIsLocalMinimum(t *testing.T) {
	for _, node := range tech.Nodes() {
		for _, l := range []float64{0, 0.5, 2, 4.5} {
			p := problem(node, l)
			opt, err := Optimize(p)
			if err != nil {
				t.Fatalf("%s l=%v: %v", node.Name, l, err)
			}
			base := opt.PerUnit
			for _, dh := range []float64{-0.03, 0.03} {
				for _, dk := range []float64{-0.03, 0.03} {
					pu := p.PerUnitDelay(opt.H*(1+dh), opt.K*(1+dk))
					if pu < base*(1-1e-6) {
						t.Errorf("%s l=%v: perturbation (%v,%v) improves: %v < %v",
							node.Name, l, dh, dk, pu, base)
					}
				}
			}
		}
	}
}

func TestOptimizeAtZeroInductanceNearRCOpt(t *testing.T) {
	// Paper, Section 3.1: at l=0 the two-pole optimum has h slightly SMALLER
	// than h_optRC (an effect the curve-fitted baselines cannot show).
	for _, node := range tech.Nodes() {
		p := problem(node, 0)
		opt, err := Optimize(p)
		if err != nil {
			t.Fatalf("%s: %v", node.Name, err)
		}
		rc, _ := OptimizeRC(p)
		ratio := opt.H / rc.H
		if ratio >= 1.0 || ratio < 0.5 {
			t.Errorf("%s: h ratio at l=0 = %v, want slightly below 1", node.Name, ratio)
		}
		kratio := opt.K / rc.K
		if kratio < 0.5 || kratio > 1.5 {
			t.Errorf("%s: k ratio at l=0 = %v, want near 1", node.Name, kratio)
		}
	}
}

func TestOptimizeTrendsWithInductance(t *testing.T) {
	// Paper Figures 5 and 6: h_optRLC grows and k_optRLC shrinks with l.
	node := tech.Node100()
	var prevH, prevK float64
	for i, l := range []float64{0.5, 1.5, 3, 4.5} {
		opt, err := Optimize(problem(node, l))
		if err != nil {
			t.Fatalf("l=%v: %v", l, err)
		}
		if i > 0 {
			if opt.H <= prevH {
				t.Errorf("l=%v: h did not increase (%v <= %v)", l, opt.H, prevH)
			}
			if opt.K >= prevK {
				t.Errorf("l=%v: k did not decrease (%v >= %v)", l, opt.K, prevK)
			}
		}
		prevH, prevK = opt.H, opt.K
	}
}

func TestOptimizeKAsymptoteMatchesZ0(t *testing.T) {
	// Figure 6's interpretation: at large l, the optimal driver's output
	// resistance approaches the lossless characteristic impedance.
	// At l = 5 nH/mm the asymptote is approached but not reached; require
	// that the optimal driver resistance moves monotonically from the RC
	// value toward Z0 (and never past it).
	node := tech.Node100()
	rcR := node.Rs / 528.0
	prev := rcR
	for _, l := range []float64{1, 2.5, 4.8} {
		p := problem(node, l)
		opt, err := Optimize(p)
		if err != nil {
			t.Fatal(err)
		}
		rDrv := node.Rs / opt.K
		z0 := p.Line.Z0LC()
		if rDrv <= prev {
			t.Errorf("l=%v: driver R %v did not increase toward Z0 (prev %v)", l, rDrv, prev)
		}
		if rDrv > z0 {
			t.Errorf("l=%v: driver R %v overshot Z0 %v", l, rDrv, z0)
		}
		prev = rDrv
	}
}

func TestEvalValidation(t *testing.T) {
	p := problem(tech.Node100(), 1)
	if _, _, err := p.Eval(-1, 100); err == nil {
		t.Error("negative h must fail")
	}
	if pu := p.PerUnitDelay(-1, 100); !math.IsInf(pu, 1) {
		t.Error("PerUnitDelay outside domain must be +Inf")
	}
	bad := p
	bad.F = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("f=1.5 must fail validation")
	}
	if _, err := Optimize(bad); err == nil {
		t.Error("Optimize must validate")
	}
}

func TestOptimizeCustomThreshold(t *testing.T) {
	// 90% delay optimization must also work and give a larger τ than 50%.
	p50 := problem(tech.Node100(), 1)
	p90 := p50
	p90.F = 0.9
	o50, err := Optimize(p50)
	if err != nil {
		t.Fatal(err)
	}
	o90, err := Optimize(p90)
	if err != nil {
		t.Fatal(err)
	}
	if o90.PerUnit <= o50.PerUnit {
		t.Errorf("90%% per-unit delay %v should exceed 50%%'s %v", o90.PerUnit, o50.PerUnit)
	}
}

func TestNewtonPathIterationBudget(t *testing.T) {
	// The paper: "convergence is achieved in less than six iterations in
	// all cases" for its Newton on (g1, g2). Our damped Newton with a
	// finite-difference Jacobian needs a few more, but where the cold-start
	// Newton path wins it must still converge in a small handful.
	p := problem(tech.Node250(), 0.1)
	opt, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Method == MethodNewton && opt.Iterations > 15 {
		t.Errorf("Newton path took %d iterations", opt.Iterations)
	}
}
