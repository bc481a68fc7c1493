package power

import (
	"context"
	"fmt"
	"math"

	"rlcint/internal/core"
	"rlcint/internal/diag"
	"rlcint/internal/runctl"
)

// PlanOptions configure the mixed-scheme power planner.
type PlanOptions struct {
	// MaxPenalty is the allowed end-to-end delay penalty versus the
	// delay-optimal plan, as a fraction (default 0.05 = 5%, the RIP
	// operating point).
	MaxPenalty float64
	// Front configures the Pareto-front trace the planner draws its
	// candidate schemes from.
	Front FrontOptions
}

func (o PlanOptions) maxPenalty() float64 {
	if o.MaxPenalty > 0 {
		return o.MaxPenalty
	}
	return 0.05
}

// SchemeUse is one contiguous run of identically-sized repeater stages
// inside a mixed plan.
type SchemeUse struct {
	Stages   int
	H        float64 // realized segment length, m
	K        float64 // repeater size
	StageTau float64 // per-stage delay, s
	Stage    Breakdown
}

// Plan is a power-aware realizable repeater plan: at most two repeater
// schemes drawn from the Pareto front, split along the net to minimize
// total power under a bounded delay penalty — the RIP mixed-scheme result.
type Plan struct {
	Length  float64
	Schemes []SchemeUse // 1 or 2 runs, in listed order along the net
	Delay   float64     // end-to-end delay, s
	Power   float64     // total power, W

	// Baseline is the delay-optimal integer-stage plan (core.PlanLine) the
	// penalty and saving are measured against.
	Baseline      core.LinePlan
	BaselinePower float64 // total power of the baseline plan, W
	PowerSaved    float64 // 1 − Power/BaselinePower
	DelayPenalty  float64 // Delay/Baseline.Total − 1 (≤ MaxPenalty)

	// Front is the traced Pareto front the schemes were drawn from.
	Front []FrontPoint
}

// PlanPower builds a power-minimal repeater plan for a net of total length
// L (meters) whose end-to-end delay stays within MaxPenalty of the
// delay-optimal plan. It traces the delay/power Pareto front, then searches
// integer-stage splits of the net across every pair of front schemes (one
// kept at its native segment length, the other stretched to absorb the
// remainder), keeping the feasible split with the least total power.
// Single-scheme plans are members of the search space, so the result never
// loses to plain rounding of one front point.
func PlanPower(ctx context.Context, m Model, f, L float64, opts PlanOptions) (Plan, error) {
	if err := diag.CheckFinite("power.PlanPower", []string{"L"}, []float64{L}); err != nil {
		return Plan{}, err
	}
	if L <= 0 {
		return Plan{}, diag.Domainf("power.PlanPower", "requires positive length, got %g", L)
	}
	if math.IsNaN(opts.MaxPenalty) || math.IsInf(opts.MaxPenalty, 0) || opts.MaxPenalty < 0 {
		return Plan{}, diag.Domainf("power.PlanPower", "max penalty %g must be finite and non-negative", opts.MaxPenalty)
	}
	prob := core.Problem{Device: m.Device, Line: m.Line, F: f, Limits: opts.Front.Limits}
	base, err := core.PlanLineCtx(ctx, prob, L)
	if err != nil {
		return Plan{}, err
	}
	baseStage, err := m.Stage(base.H, base.K)
	if err != nil {
		return Plan{}, err
	}
	basePower := float64(base.Stages) * baseStage.Total()

	if err := opts.Front.validate(); err != nil {
		return Plan{}, err
	}
	// The baseline plan solved the front's delay optimum already: the same
	// problem, cold, on a fresh workspace.
	front, err := paretoFront(ctx, m, f, opts.Front, &base.Continuous)
	if err != nil {
		return Plan{}, err
	}
	ctl := runctl.New(ctx, opts.Front.Limits)
	tMax := (1 + opts.maxPenalty()) * base.Total

	type run struct {
		n    int
		h, k float64
		tau  float64
		br   Breakdown
	}
	bestPower := math.Inf(1)
	bestDelay := math.Inf(1)
	var bestA, bestB run
	thr := prob.Threshold()
	pruneSC := m.Node.VDD >= 2*m.Node.Vt

	consider := func(a, b run) {
		delay := float64(a.n)*a.tau + float64(b.n)*b.tau
		power := float64(a.n)*a.br.Total() + float64(b.n)*b.br.Total()
		if delay > tMax {
			return
		}
		if power < bestPower || (power == bestPower && delay < bestDelay) {
			bestPower, bestDelay = power, delay
			bestA, bestB = a, b
		}
	}

	// The delay-optimal baseline is always in the search space, so the plan
	// is feasible for any penalty budget ≥ 0 and never loses to the
	// baseline on power.
	consider(run{n: base.Stages, h: base.H, k: base.K, tau: base.StageTau, br: baseStage}, run{})

	for i, A := range front {
		if err := ctl.Tick("power.PlanPower"); err != nil {
			return Plan{}, err
		}
		maxNA := int(L / A.H)
		if maxNA > 4096 {
			continue // degenerate scheme, absurd stage count
		}
		for nA := 0; nA <= maxNA; nA++ {
			// Pure-B candidates (nA = 0) are scheme-A independent; visit
			// them once.
			if nA == 0 && i > 0 {
				continue
			}
			runA := run{n: nA, h: A.H, k: A.K, tau: A.Tau, br: A.Stage}
			aDelay := float64(nA) * A.Tau
			aPower := float64(nA) * A.Stage.Total()
			if aDelay > tMax || aPower >= bestPower {
				break // both grow monotonically in nA
			}
			rem := L - float64(nA)*A.H
			if rem <= 1e-9*L {
				// Scheme A alone covers the net (within rounding dust).
				consider(runA, run{})
				continue
			}
			for _, B := range front {
				nIdeal := rem / B.H
				for _, nB := range []int{int(math.Floor(nIdeal)), int(math.Ceil(nIdeal))} {
					if nB < 1 || nB > 4096 {
						continue
					}
					hB := rem / float64(nB)
					// Keep the stretched scheme near its native segment
					// length; far outside, its k is no longer meaningful.
					if hB < B.H/3 || hB > 3*B.H {
						continue
					}
					// A split whose power without the short-circuit term
					// already exceeds the best is out: the term is ≥ 0
					// when VDD ≥ 2·Vt, so no delay solve can save it.
					if pruneSC && aPower+float64(nB)*m.breakdown(hB, B.K, 0).Total() > bestPower {
						continue
					}
					// Infeasible stages are skipped rather than fatal.
					tauB, _, brB, err := m.evalStage(hB, B.K, thr)
					if err != nil {
						continue
					}
					consider(runA, run{n: nB, h: hB, k: B.K, tau: tauB, br: brB})
				}
			}
		}
	}
	if math.IsInf(bestPower, 1) {
		return Plan{}, fmt.Errorf("power: PlanPower found no feasible plan for L=%g within %.1f%% of the delay optimum",
			L, 100*opts.maxPenalty())
	}

	plan := Plan{
		Length: L, Delay: bestDelay, Power: bestPower,
		Baseline: base, BaselinePower: basePower,
		PowerSaved:   1 - bestPower/basePower,
		DelayPenalty: bestDelay/base.Total - 1,
		Front:        front,
	}
	for _, r := range []run{bestA, bestB} {
		if r.n > 0 {
			plan.Schemes = append(plan.Schemes, SchemeUse{
				Stages: r.n, H: r.h, K: r.k, StageTau: r.tau, Stage: r.br,
			})
		}
	}
	return plan, nil
}
