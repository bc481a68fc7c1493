package core

import (
	"context"
	"fmt"
	"math"

	"rlcint/internal/diag"
	"rlcint/internal/num"
	"rlcint/internal/runctl"
)

// LinePlan is a realizable repeater plan for a net of a given total length:
// the optimizer's continuous h is rounded to an integer stage count and the
// delay re-evaluated at the actual segment length.
type LinePlan struct {
	Length   float64 // total net length, m
	Stages   int     // number of repeater stages (≥ 1)
	H        float64 // realized segment length = Length/Stages
	K        float64 // repeater size
	StageTau float64 // per-stage delay at the realized h, s
	Total    float64 // end-to-end delay = Stages·StageTau, s
	// Continuous is the unrounded optimum the plan was derived from.
	Continuous Optimum
}

// PlanLine turns the continuous optimum into a realizable plan for a net of
// length L: it evaluates the candidate stage counts around L/h_opt
// (including the ±1 neighbours) at the re-optimized k for each candidate's
// segment length, and returns the fastest.
func PlanLine(p Problem, L float64) (LinePlan, error) {
	return PlanLineCtx(context.Background(), p, L)
}

// PlanLineCtx is PlanLine under run control: cancellation, the context
// deadline, and p.Limits are checked at every inner optimizer iteration, so
// a stopped plan aborts promptly with a typed stop error.
func PlanLineCtx(ctx context.Context, p Problem, L float64) (LinePlan, error) {
	if err := p.Validate(); err != nil {
		return LinePlan{}, err
	}
	if L <= 0 || math.IsNaN(L) || math.IsInf(L, 0) {
		return LinePlan{}, diag.Domainf("core.PlanLine", "requires positive finite length, got %g", L)
	}
	// One workspace serves the optimization and every fixed-h refinement
	// below, so the plan path allocates a handful of buffers once instead
	// of churning per candidate evaluation.
	opt, err := OptimizeWS(ctx, p, NewWorkspace())
	if err != nil {
		return LinePlan{}, err
	}
	// Wire the context into the refinement evaluations below: Eval checks
	// p.ctl, so a cancelled plan stops between candidate evaluations instead
	// of finishing the k searches on a dead request.
	p.ctl = runctl.New(ctx, runctl.Limits{})
	nIdeal := L / opt.H
	best := LinePlan{Continuous: opt, Length: L, Total: math.Inf(1)}
	var lastErr error // the last candidate's failure, wrapped when none is feasible
	for _, n := range []int{int(math.Floor(nIdeal)), int(math.Ceil(nIdeal)), int(math.Round(nIdeal)) + 1} {
		if n < 1 {
			n = 1
		}
		h := L / float64(n)
		// Re-optimize the repeater size for this fixed segment length.
		k, tau, err := optimizeKAtFixedH(p, h, opt.K)
		if err != nil {
			// A stop mid-search surfaces as an infeasible candidate; recover
			// the typed stop so callers see ErrCancelled, not "no plan".
			if e := p.ctl.Check("core.PlanLine"); e != nil {
				return LinePlan{}, e
			}
			lastErr = err
			continue
		}
		total := float64(n) * tau
		if total < best.Total {
			best.Stages = n
			best.H = h
			best.K = k
			best.StageTau = tau
			best.Total = total
		}
	}
	if math.IsInf(best.Total, 1) {
		if lastErr != nil {
			return LinePlan{}, fmt.Errorf("core: PlanLine found no feasible stage count for L=%g: %w", L, lastErr)
		}
		return LinePlan{}, fmt.Errorf("core: PlanLine found no feasible stage count for L=%g", L)
	}
	return best, nil
}

// optimizeKAtFixedH returns the delay-optimal repeater size at segment
// length h and the stage delay there. At fixed h that size is the root of
// the paper's g2 (∂(τ/h)/∂k with the delay equation eliminated), which
// Brent finds inside [kSeed/2, 2·kSeed] to 1e-10 relative. When that
// bracket holds no sign change of g2 from − to +, Brent fails, or the
// root's τ is above a bracket end's, a scan and golden-section search on
// τ answers instead.
func optimizeKAtFixedH(p Problem, h, kSeed float64) (k, tau float64, err error) {
	if k, tau, ok := g2RootK(p, h, kSeed); ok {
		return k, tau, nil
	}
	if err := p.ctl.Check("core.PlanLine"); err != nil {
		return 0, 0, err
	}
	return scanK(p, h, kSeed)
}

// g2Probe carries g2 at fixed h through Brent: the bracket ends and g2
// there, which g2RootK evaluates before Brent asks for them, the latest k
// evaluated and τ there, and a failed evaluation, which ends the search.
type g2Probe struct {
	p         Problem
	h         float64
	a, b      float64
	ga, gb    float64
	last, tau float64
	err       error
}

// g2OfK is g2 at (h, k). A failed evaluation reads zero, which ends Brent
// at once.
func g2OfK(s *g2Probe, k float64) (g2 float64) {
	switch k {
	case s.a:
		return s.ga
	case s.b:
		return s.gb
	}
	if s.err = s.p.Injector.At(diag.Site{Op: "core.stationarity", Step: -3}); s.err == nil {
		_, g2, s.tau, s.err = s.p.stationarity(s.h, k)
		s.last = k
	}
	return g2
}

// g2RootK is optimizeKAtFixedH's primary path; ok reports whether it
// answered. g2 carries the sign of ∂τ/∂k in both damping regimes, so g2 < 0
// at the lower end and g2 > 0 at the upper one bracket a minimum of τ.
func g2RootK(p Problem, h, kSeed float64) (k, tau float64, ok bool) {
	s := g2Probe{p: p, h: h}
	a, b := kSeed/2, 2*kSeed
	ga := g2OfK(&s, a)
	tauA, errA := s.tau, s.err
	gb := g2OfK(&s, b)
	if errA != nil || s.err != nil || !(ga < 0 && gb > 0) {
		return 0, 0, false
	}
	tauB := s.tau
	s.a, s.b, s.ga, s.gb = a, b, ga, gb
	k, err := num.BrentS(g2OfK, &s, a, b, 1e-10*kSeed, 100)
	if err != nil || s.err != nil {
		return 0, 0, false
	}
	tau = s.tau
	if k != s.last {
		_, d, err := p.Eval(h, k)
		if err != nil {
			return 0, 0, false
		}
		tau = d.Tau
	}
	if tau > tauA || tau > tauB {
		return 0, 0, false
	}
	return k, tau, true
}

// scanK minimizes the stage delay over k at fixed h by a coarse scan of
// [kSeed/8, 8·kSeed] and golden-section search around its best sample.
func scanK(p Problem, h, kSeed float64) (k, tau float64, err error) {
	var evalErr error // the last failed evaluation, wrapped when no k is feasible
	obj := func(k float64) float64 {
		_, d, err := p.Eval(h, k)
		if err != nil {
			evalErr = err
			return math.Inf(1)
		}
		return d.Tau
	}
	lo, hi := kSeed/8, kSeed*8
	// Coarse scan to bracket the minimum (the objective is unimodal in k
	// for physical stages, but guard anyway).
	const nScan = 24
	bestK, bestV := kSeed, obj(kSeed)
	for i := 0; i <= nScan; i++ {
		k := lo * math.Pow(hi/lo, float64(i)/nScan)
		if v := obj(k); v < bestV {
			bestK, bestV = k, v
		}
	}
	a, b := bestK/1.5, bestK*1.5
	k = bestK
	// Golden-section refinement.
	const invPhi = 0.6180339887498949
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := obj(x1), obj(x2)
	for i := 0; i < 60 && (b-a) > 1e-6*k; i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = obj(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = obj(x2)
		}
	}
	k = 0.5 * (a + b)
	if tau = obj(k); math.IsInf(tau, 1) {
		if evalErr != nil {
			return 0, 0, fmt.Errorf("core: no feasible k at h=%g: %w", h, evalErr)
		}
		return 0, 0, fmt.Errorf("core: no feasible k at h=%g", h)
	}
	return k, tau, nil
}
