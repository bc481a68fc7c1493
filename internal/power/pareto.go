package power

import (
	"context"
	"fmt"
	"math"

	"rlcint/internal/batch"
	"rlcint/internal/core"
	"rlcint/internal/diag"
	"rlcint/internal/num"
	"rlcint/internal/repeater"
	"rlcint/internal/runctl"
)

// FrontOptions configure the Pareto-front tracer. The zero value is the
// designed default: 17 points, weights up to 4, warm-start continuation
// along each tile, GOMAXPROCS workers.
type FrontOptions struct {
	// Points is the number of front points (≥ 2; default 17). Point i
	// carries weight λ_i = MaxWeight·(i/(Points−1))² — quadratic spacing
	// concentrates points near the delay-optimal end where the front bends.
	Points int
	// MaxWeight is the largest scalarization weight λ (default 4: the
	// power term weighs four times the delay term at the far end).
	MaxWeight float64
	// Workers bounds the worker pool (≤0 → GOMAXPROCS). Never affects
	// results — tile geometry is fixed by TileSize alone.
	Workers int
	// TileSize is the number of consecutive front points one worker owns
	// (≤0 → 8 warm, 1 cold). Part of the result contract in warm mode: it
	// decides which points are continuation-seeded.
	TileSize int
	// Cold disables warm-start continuation: every point solves
	// independently from the delay-optimal start. The cold front agrees
	// with the warm one to ≤1e-9 on the scalarized objective (which is
	// quadratically flat at each front point); the arguments h, k and the
	// individual delay/power coordinates agree to the polish tolerance
	// (~1e-7 relative) and are not bit-identical.
	Cold bool
	// Limits bound the whole trace; MaxIters counts inner optimizer
	// iterations and batch work items.
	Limits runctl.Limits
}

func (o FrontOptions) points() int {
	if o.Points >= 2 {
		return o.Points
	}
	return 17
}

func (o FrontOptions) maxWeight() float64 {
	if o.MaxWeight > 0 {
		return o.MaxWeight
	}
	return 4
}

func (o FrontOptions) tileSize() int {
	if o.TileSize > 0 {
		return o.TileSize
	}
	if o.Cold {
		return 1
	}
	return 8
}

func (o FrontOptions) validate() error {
	if o.Points != 0 && o.Points < 2 {
		return diag.Domainf("power.ParetoFront", "need at least 2 front points, got %d", o.Points)
	}
	if math.IsNaN(o.MaxWeight) || math.IsInf(o.MaxWeight, 0) || o.MaxWeight < 0 {
		return diag.Domainf("power.ParetoFront", "max weight %g must be finite and non-negative", o.MaxWeight)
	}
	return nil
}

// FrontPoint is one point of the delay/power Pareto front.
type FrontPoint struct {
	Weight float64 // scalarization weight λ (0 = delay-optimal end)
	H      float64 // segment length, m
	K      float64 // repeater size
	Tau    float64 // stage delay, s
	Delay  float64 // per-unit delay τ/h, s/m
	Power  float64 // per-unit total power, W/m
	Stage  Breakdown
	// Ratios against the pure delay optimum of the same problem.
	DelayRatio float64 // Delay / delay-optimal per-unit delay (≥ 1)
	PowerRatio float64 // Power / power at the delay optimum (≤ 1)
}

// frontRef holds the per-problem reference quantities every front point
// shares: the delay optimum (λ = 0 anchor and normalizer) and the RC
// optimum frame the solves run in.
type frontRef struct {
	m    Model
	prob core.Problem
	rc   repeater.RCOptimum
	opt  core.Optimum
	d0   float64    // per-unit delay at the delay optimum
	p0   float64    // per-unit power at the delay optimum
	x0   [2]float64 // delay optimum in (log h/h_RC, log k/k_RC)
}

// newFrontRef sets up the reference quantities of problem (m, f). opt is
// the cold delay optimum of that problem when the caller has already
// solved it (PlanPower's baseline plan), or nil to solve it here.
func newFrontRef(ctx context.Context, m Model, f float64, lim runctl.Limits, opt *core.Optimum) (frontRef, error) {
	prob := core.Problem{Device: m.Device, Line: m.Line, F: f, Limits: lim}
	if err := prob.Validate(); err != nil {
		return frontRef{}, err
	}
	rc, err := core.OptimizeRC(prob)
	if err != nil {
		return frontRef{}, err
	}
	if opt == nil {
		o, err := core.OptimizeWS(ctx, prob, core.NewWorkspace())
		if err != nil {
			return frontRef{}, err
		}
		opt = &o
	}
	p0, err := m.PerLength(opt.H, opt.K)
	if err != nil {
		return frontRef{}, err
	}
	return frontRef{
		m: m, prob: prob, rc: rc, opt: *opt,
		d0: opt.PerUnit, p0: p0,
		x0: [2]float64{math.Log(opt.H / rc.H), math.Log(opt.K / rc.K)},
	}, nil
}

// objective is the normalized scalarization D(h,k)/D0 + λ·P(h,k)/P0 over
// x = (log h/h_RC, log k/k_RC); +Inf outside the domain.
func (r *frontRef) objective(lam float64, x []float64) float64 {
	h, k := r.rc.Denormalize(math.Exp(x[0]), math.Exp(x[1]))
	tau, _, b, err := r.m.evalStage(h, k, r.prob.Threshold())
	pu := tau / h
	if err != nil || math.IsInf(pu, 1) {
		return math.Inf(1)
	}
	return pu/r.d0 + lam*(b.Total()/h)/r.p0
}

// frontWS is the per-worker scratch of the front trace: reusable optimizer
// workspaces plus the continuation seed chained from the previous point of
// the current tile.
type frontWS struct {
	nm     num.NelderMeadWS
	newton num.NewtonNDWS
	xs     [6]float64 // probe and start-point scratch
	seed   [2]float64
	has    bool
}

// solveWeighted minimizes the λ-scalarized objective. It first runs a
// damped Newton on the objective's central-difference gradient from the
// seed, and keeps its point when Newton converges, the objective there is
// not above the seed's, and the finite-difference Hessian is positive
// definite (a local minimum, not a saddle). Otherwise it falls back to a
// Nelder–Mead descent from the seed followed by a Newton polish, which
// tightens the stationary point well past the simplex's ~√Tol parameter
// resolution. Deterministic for fixed (λ, seed, warm).
func (r *frontRef) solveWeighted(ctl *runctl.Controller, lam float64, seed [2]float64, warm bool, ws *frontWS) (FrontPoint, error) {
	obj := func(x []float64) float64 { return r.objective(lam, x) }
	// The gradient the Newton solves run on. The FD step 1e-4 (log
	// coordinates) balances the delay solver's evaluation noise against
	// truncation; a polish whose line search stalls on that noise floor
	// still leaves its final iterate as a candidate — the objective
	// comparison decides.
	grad := func(x, out []float64) error {
		const d = 1e-4
		xp := ws.xs[0:2]
		for j := 0; j < 2; j++ {
			xp[0], xp[1] = x[0], x[1]
			xp[j] = x[j] + d
			fp := obj(xp)
			xp[j] = x[j] - d
			fm := obj(xp)
			if math.IsInf(fp, 1) || math.IsInf(fm, 1) {
				return diag.Domainf("power.front", "gradient probe left the feasible domain at x=(%g,%g)", x[0], x[1])
			}
			out[j] = (fp - fm) / (2 * d)
		}
		return nil
	}
	at := func(a, b float64) float64 {
		xp := ws.xs[2:4]
		xp[0], xp[1] = a, b
		return obj(xp)
	}
	x0 := ws.xs[4:6]
	x0[0], x0[1] = seed[0], seed[1]

	// Newton from the seed, converged past the polish's tolerance so a cold
	// and a warm solve of one point agree as closely as the fallback's do.
	var best [2]float64
	nres, nerr := num.NewtonND(grad, x0, num.NewtonNDOptions{
		Tol: 1e-11, MaxIter: 30, Damping: true, Ctl: ctl, WS: &ws.newton,
	})
	if runctl.IsStop(nerr) {
		return FrontPoint{}, nerr
	}
	certified := false
	if nerr == nil && len(nres.X) == 2 {
		best = [2]float64{nres.X[0], nres.X[1]}
		certified = at(best[0], best[1]) <= at(seed[0], seed[1]) &&
			num.HessianPosDef2(at, best[0], best[1], 1e-3)
	}

	if !certified {
		initScale := 0.2
		if warm {
			initScale = 0.04
		}
		xnm, fnm, err := num.NelderMead(obj, x0, num.NelderMeadOptions{
			Tol: 1e-13, MaxIter: 2500, InitScale: initScale, MaxRestart: 3,
			Ctl: ctl, WS: &ws.nm,
		})
		if err != nil {
			if runctl.IsStop(err) {
				return FrontPoint{}, err
			}
			return FrontPoint{}, fmt.Errorf("power: front point λ=%g: %w", lam, err)
		}
		best = [2]float64{xnm[0], xnm[1]}
		pres, perr := num.NewtonND(grad, best[:], num.NewtonNDOptions{
			Tol: 1e-8, MaxIter: 30, Damping: true, Ctl: ctl, WS: &ws.newton,
		})
		if runctl.IsStop(perr) {
			return FrontPoint{}, perr
		}
		if len(pres.X) == 2 && at(pres.X[0], pres.X[1]) <= fnm+1e-11*(1+math.Abs(fnm)) {
			best = [2]float64{pres.X[0], pres.X[1]}
		}
	}

	h, k := r.rc.Denormalize(math.Exp(best[0]), math.Exp(best[1]))
	tau, _, stage, err := r.m.evalStage(h, k, r.prob.Threshold())
	if err != nil {
		return FrontPoint{}, fmt.Errorf("power: front point λ=%g: %w", lam, err)
	}
	pw := stage.Total() / h
	return FrontPoint{
		Weight: lam, H: h, K: k, Tau: tau,
		Delay: tau / h, Power: pw, Stage: stage,
		DelayRatio: tau / h / r.d0, PowerRatio: pw / r.p0,
	}, nil
}

// ParetoFront traces the delay/power Pareto front of the model's buffered
// line at threshold f: Points λ-scalarized solves from the delay-optimal
// end (λ = 0) toward the power-lean end (λ = MaxWeight), evaluated through
// the batched engine. In warm mode (default) each tile's first point seeds
// from the delay optimum and every later point from its neighbor's
// converged solution — the PR 4 continuation applied to the front.
//
// Results are deterministic for fixed FrontOptions: worker count changes
// wall-clock time only, never a bit of the result. On an error or a
// run-control stop the completed prefix of points is returned alongside
// the typed error.
func ParetoFront(ctx context.Context, m Model, f float64, opts FrontOptions) ([]FrontPoint, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return paretoFront(ctx, m, f, opts, nil)
}

// paretoFront is ParetoFront for validated options, with the problem's
// cold delay optimum passed in when the caller has solved it already (see
// newFrontRef).
func paretoFront(ctx context.Context, m Model, f float64, opts FrontOptions, opt *core.Optimum) ([]FrontPoint, error) {
	ctl := runctl.New(ctx, opts.Limits)
	ref, err := newFrontRef(ctx, m, f, opts.Limits, opt)
	if err != nil {
		return nil, err
	}
	n := opts.points()
	maxW := opts.maxWeight()
	weight := func(i int) float64 {
		t := float64(i) / float64(n-1)
		return maxW * t * t
	}
	return batch.Run(ctl, n,
		batch.Options{Workers: opts.Workers, TileSize: opts.tileSize()},
		func() *frontWS { return &frontWS{} },
		func(ws *frontWS, i int, warm bool) (FrontPoint, error) {
			seed := ref.x0
			warmed := false
			if !opts.Cold && warm && ws.has {
				seed, warmed = ws.seed, true
			}
			fp, err := ref.solveWeighted(ctl, weight(i), seed, warmed, ws)
			if err != nil {
				ws.has = false
				return FrontPoint{}, err
			}
			ws.seed = [2]float64{math.Log(fp.H / ref.rc.H), math.Log(fp.K / ref.rc.K)}
			ws.has = true
			return fp, nil
		})
}

// OptimizePowerBudget minimizes the per-unit delay subject to a per-unit
// power ceiling (W/m): the direct constrained counterpart of a ParetoFront
// point. It bisects the scalarization weight λ — per-unit power is
// monotone non-increasing in λ — until the solve's power meets the budget,
// warm-seeding every solve from the previous one. A budget at or above the
// delay optimum's power returns the delay-optimal end of the front; a
// budget below the wire's intrinsic floor is a domain error.
func OptimizePowerBudget(ctx context.Context, m Model, f, budget float64, lim runctl.Limits) (FrontPoint, error) {
	if err := diag.CheckFinite("power.OptimizePowerBudget", []string{"budget"}, []float64{budget}); err != nil {
		return FrontPoint{}, err
	}
	if budget <= 0 {
		return FrontPoint{}, diag.Domainf("power.OptimizePowerBudget", "budget %g W/m must be positive", budget)
	}
	ctl := runctl.New(ctx, lim)
	ref, err := newFrontRef(ctx, m, f, lim, nil)
	if err != nil {
		return FrontPoint{}, err
	}
	ws := &frontWS{}
	solve := func(lam float64, seed [2]float64, warm bool) (FrontPoint, error) {
		fp, err := ref.solveWeighted(ctl, lam, seed, warm, ws)
		if err != nil {
			return FrontPoint{}, err
		}
		return fp, nil
	}
	seedOf := func(fp FrontPoint) [2]float64 {
		return [2]float64{math.Log(fp.H / ref.rc.H), math.Log(fp.K / ref.rc.K)}
	}
	at0, err := solve(0, ref.x0, false)
	if err != nil {
		return FrontPoint{}, err
	}
	if at0.Power <= budget {
		return at0, nil
	}
	// Expand the bracket: find a λ whose power meets the budget.
	lo, hi := 0.0, 1.0
	seed, warm := seedOf(at0), true
	var atHi FrontPoint
	for {
		atHi, err = solve(hi, seed, warm)
		if err != nil {
			return FrontPoint{}, err
		}
		seed, warm = seedOf(atHi), true
		if atHi.Power <= budget {
			break
		}
		lo = hi
		hi *= 2
		if hi > 1e9 {
			return FrontPoint{}, diag.Domainf("power.OptimizePowerBudget",
				"budget %g W/m unreachable (floor ≈ %g W/m)", budget, atHi.Power)
		}
	}
	// Bisect λ until the achieved power matches the budget.
	best := atHi
	for iter := 0; iter < 200 && hi-lo > 1e-12*hi; iter++ {
		if err := ctl.Tick("power.OptimizePowerBudget"); err != nil {
			return best, err
		}
		mid := 0.5 * (lo + hi)
		atMid, err := solve(mid, seed, warm)
		if err != nil {
			return best, err
		}
		seed, warm = seedOf(atMid), true
		if atMid.Power <= budget {
			hi, best = mid, atMid
			if budget-atMid.Power <= 1e-9*budget {
				break
			}
		} else {
			lo = mid
		}
	}
	return best, nil
}
