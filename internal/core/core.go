// Package core implements the paper's primary contribution: repeater
// insertion for distributed RLC interconnects by direct minimization of the
// delay per unit length τ/h over segment length h and repeater size k
// (Section 2.2). The primary path solves the stationarity system
// (g1, g2) = 0 of Eqs. (7)–(8) with Newton's method, using the analytic
// derivatives of the two-pole coefficients and poles with respect to h and
// k; a Nelder–Mead fallback on (log h, log k) handles the near-critically-
// damped region where the pole derivatives are singular, and the two paths
// cross-check each other.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"rlcint/internal/diag"
	"rlcint/internal/num"
	"rlcint/internal/pade"
	"rlcint/internal/repeater"
	"rlcint/internal/runctl"
	"rlcint/internal/tline"
)

// Problem describes one optimization instance.
type Problem struct {
	Device repeater.MinDevice
	Line   tline.Line // per-unit-length r, l, c (SI)
	F      float64    // delay threshold fraction; 0 means 0.5
	// Injector injects optimizer faults for testing (nil in production).
	Injector *diag.Injector
	// Report, when non-nil, records which optimizer ladder rungs ran
	// (Newton cold start, perturbed multi-starts, Nelder–Mead, polish).
	Report *diag.Report
	// Limits bound the optimization; MaxIters counts inner optimizer
	// iterations (Newton and simplex) across all ladder rungs. Enforced by
	// OptimizeCtx; Optimize honours them with a background context.
	Limits runctl.Limits

	// ctl carries the active run controller through the ladder; set by
	// OptimizeCtx.
	ctl *runctl.Controller
	// ws carries the optimizer workspace (scratch buffers + warm delay
	// hint); set by OptimizeSeeded. nil means allocate per call and solve
	// every delay cold.
	ws *Workspace
}

func (p Problem) threshold() float64 {
	if p.F == 0 {
		return 0.5
	}
	return p.F
}

// Validate rejects ill-posed problems; domain violations (including NaN/Inf
// inputs) match diag.ErrDomain.
func (p Problem) Validate() error {
	if err := p.Device.Validate(); err != nil {
		return err
	}
	if err := p.Line.Validate(); err != nil {
		return err
	}
	if f := p.threshold(); !(f > 0) || !(f < 1) {
		return diag.Domainf("core.Optimize", "threshold f=%g outside (0,1)", f)
	}
	return nil
}

// Method names the optimizer path that produced a result.
type Method string

const (
	MethodNewton     Method = "newton-g1g2" // the paper's Eq. (7)/(8) Newton solve
	MethodNelderMead Method = "nelder-mead" // direct τ/h minimization fallback
)

// Optimum is the solution of one instance.
type Optimum struct {
	H          float64    // optimal segment length, m
	K          float64    // optimal repeater size
	Tau        float64    // f×100% segment delay at the optimum, s
	PerUnit    float64    // Tau/H, s/m
	Model      pade.Model // two-pole model at the optimum
	Method     Method
	Iterations int // outer iterations of the reported method
}

// ErrOptimize wraps optimizer failures.
var ErrOptimize = errors.New("core: optimization failed")

// Eval builds the two-pole model and solves the delay for a given (h, k).
func (p Problem) Eval(h, k float64) (pade.Model, pade.DelayResult, error) {
	if err := p.ctl.Check("core.Eval"); err != nil {
		return pade.Model{}, pade.DelayResult{}, err
	}
	if err := p.Injector.At(diag.Site{Op: "core.eval"}); err != nil {
		return pade.Model{}, pade.DelayResult{}, err
	}
	if h <= 0 || k <= 0 || math.IsNaN(h) || math.IsNaN(k) {
		return pade.Model{}, pade.DelayResult{}, diag.Domainf("core.Eval", "requires positive h, k; got h=%g k=%g", h, k)
	}
	st := p.Device.Stage(p.Line, h, k)
	m, err := pade.FromStage(st)
	if err != nil {
		return pade.Model{}, pade.DelayResult{}, err
	}
	var d pade.DelayResult
	if p.ws != nil && p.ws.warm && p.ws.lastTau > 0 {
		d, err = m.DelaySeeded(p.ctl, p.threshold(), p.ws.lastTau)
	} else {
		d, err = m.DelayWith(p.ctl, p.threshold())
	}
	if err == nil && p.ws != nil {
		p.ws.lastTau = d.Tau
	}
	return m, d, err
}

// PerUnitDelay returns τ(h,k)/h, the optimization objective; +Inf outside
// the domain (used directly by the Nelder–Mead fallback).
func (p Problem) PerUnitDelay(h, k float64) float64 {
	_, d, err := p.Eval(h, k)
	if err != nil {
		return math.Inf(1)
	}
	return d.Tau / h
}

// coeffDerivs returns b1, b2 and their analytic partial derivatives with
// respect to h and k for the k-scaled repeater parametrization
// R_S = rs/k, C_P = cp·k, C_L = c0·k.
func (p Problem) coeffDerivs(h, k float64) (b1, b2, db1h, db1k, db2h, db2k float64) {
	r, l, c := p.Line.R, p.Line.L, p.Line.C
	rs, c0, cp := p.Device.Rs, p.Device.C0, p.Device.Cp

	b1 = rs*(cp+c0) + r*c*h*h/2 + rs*c*h/k + c0*r*h*k
	db1h = r*c*h + rs*c/k + c0*r*k
	db1k = -rs*c*h/(k*k) + c0*r*h

	rch2_6 := r * c * h * h / 6
	mid := rs*c*h/k + c0*r*h*k // R_S·c·h + C_L·r·h
	b2 = l*c*h*h/2 + r*r*c*c*h*h*h*h/24 +
		rs*(cp+c0)*r*c*h*h/2 +
		mid*rch2_6 +
		c0*k*l*h + rs*cp*c0*k*r*h
	db2h = l*c*h + r*r*c*c*h*h*h/6 +
		rs*(cp+c0)*r*c*h +
		(rs*c/k+c0*r*k)*rch2_6 + mid*(r*c*h/3) +
		c0*k*l + rs*cp*c0*k*r
	db2k = (-rs*c*h/(k*k)+c0*r*h)*rch2_6 + c0*l*h + rs*cp*c0*r*h
	return
}

// poleDerivs returns the poles s1, s2 and their derivatives with respect to
// h and k, in complex arithmetic so the underdamped case works transparently
// (the paper's expression below Eq. (8)). It errors inside the critical-
// damping band, where 1/√(b1²−4b2) is singular.
func (p Problem) poleDerivs(h, k float64) (s1, s2, ds1h, ds1k, ds2h, ds2k complex128, err error) {
	b1, b2, db1h, db1k, db2h, db2k := p.coeffDerivs(h, k)
	disc := b1*b1 - 4*b2
	if math.Abs(disc) < 1e-12*b1*b1 {
		err = fmt.Errorf("core: pole derivatives singular near critical damping (disc/b1²=%.2e)", disc/(b1*b1))
		return
	}
	sq := cmplx.Sqrt(complex(disc, 0))
	cb1, cb2 := complex(b1, 0), complex(b2, 0)
	s1 = (-cb1 + sq) / (2 * cb2)
	s2 = (-cb1 - sq) / (2 * cb2)
	d := func(db1, db2 float64, sign float64, s complex128) complex128 {
		cdb1, cdb2 := complex(db1, 0), complex(db2, 0)
		t := -cdb1 + complex(sign, 0)*(cb1*cdb1-2*cdb2)/sq
		return t/(2*cb2) - s*cdb2/cb2
	}
	ds1h = d(db1h, db2h, +1, s1)
	ds1k = d(db1k, db2k, +1, s1)
	ds2h = d(db1h, db2h, -1, s2)
	ds2k = d(db1k, db2k, -1, s2)
	return
}

// stationarity evaluates the paper's g1 and g2 (Eqs. (7) and (8)) at (h, k):
// the conditions ∂(τ/h)/∂h = 0 and ∂(τ/h)/∂k = 0 with the delay-equation
// constraint eliminated.
//
// Eq. (3) multiplied by (s2−s1) is real for real poles but purely imaginary
// for a conjugate pair (it has the form z − z̄), and the same holds for its
// parameter derivatives g1 and g2. The meaningful signed residual is
// therefore the real part in the overdamped regime and the imaginary part in
// the underdamped one; poleDerivs already excludes the critical band between
// them.
func (p Problem) stationarity(h, k float64) (g1, g2 float64, err error) {
	s1, s2, ds1h, ds1k, ds2h, ds2k, err := p.poleDerivs(h, k)
	if err != nil {
		return 0, 0, err
	}
	_, dres, err := p.Eval(h, k)
	if err != nil {
		return 0, 0, err
	}
	tau := complex(dres.Tau, 0)
	f := p.threshold()
	e1 := cmplx.Exp(s1 * tau)
	e2 := cmplx.Exp(s2 * tau)
	onemf := complex(1-f, 0)
	ch := complex(h, 0)

	cg1 := onemf*(ds2h-ds1h) - ds2h*e1 + ds1h*e2 -
		s2*tau*(ds1h+s1/ch)*e1 + s1*tau*(ds2h+s2/ch)*e2
	cg2 := onemf*(ds2k-ds1k) - ds2k*e1 - s2*tau*ds1k*e1 +
		ds1k*e2 + s1*tau*ds2k*e2
	if imag(s1) != 0 {
		return imag(cg1), imag(cg2), nil
	}
	return real(cg1), real(cg2), nil
}

// Optimize minimizes τ/h over (h, k). It runs the paper's Newton solve on
// (g1, g2) from the RC optimum, verifies the result, and falls back to (or
// cross-checks against) direct Nelder–Mead minimization; the better feasible
// point wins. Scale invariance is handled by normalizing h and k to their RC
// optima inside the solver.
func Optimize(p Problem) (Optimum, error) {
	return OptimizeCtx(context.Background(), p)
}

// OptimizeCtx is Optimize under run control: ctx cancellation and p.Limits
// are checked at every inner optimizer iteration and objective evaluation.
// A run-control stop is terminal — it aborts the whole ladder immediately
// instead of being retried as a convergence failure on the next rung.
// Panics anywhere in the ladder surface as diag.ErrPanic SolverErrors.
func OptimizeCtx(ctx context.Context, p Problem) (Optimum, error) {
	return OptimizeSeeded(ctx, p, Seed{}, nil)
}

// OptimizeWS is OptimizeCtx with caller-owned scratch state: repeated solves
// reusing one Workspace allocate (almost) nothing. Results are bit-identical
// to OptimizeCtx — the workspace only changes where intermediates live.
func OptimizeWS(ctx context.Context, p Problem, ws *Workspace) (Optimum, error) {
	return OptimizeSeeded(ctx, p, Seed{}, ws)
}

// Package-level read-only ladder constants, hoisted so each solve does not
// re-allocate them.
var (
	lowerHK        = []float64{1e-3, 1e-3}
	coldStart      = [2]float64{1, 1}
	nmStart        = [2]float64{0, 0}
	newtonRestarts = [4][2]float64{{1.25, 0.8}, {0.8, 1.25}, {1.6, 1.6}, {0.6, 0.6}}
)

// OptimizeSeeded is OptimizeCtx with warm-start continuation: when seed is
// valid (taken from a neighboring problem's converged Optimum via AsSeed), a
// leading ladder rung runs the stationarity Newton from the seeded point —
// with the Padé threshold solves seeded from the neighbor's delay — and, on
// clean convergence, skips the cold start, the multi-starts, and the
// Nelder–Mead cross-check entirely. If the warm rung diverges or is
// infeasible, or converges to a per-unit delay outside the ±50% continuation
// band around the seed's, the warm candidate and the warm delay hints are
// discarded and the full cold ladder runs unchanged, so the recovery
// semantics (and diag.Report rungs) of OptimizeCtx are preserved; the warm
// rung records as "warm-start" with fault-injection site Step = -2.
//
// Agreement contract: warm and cold land on the same stationary point to
// within the stationarity tolerance, so the optimized per-unit delay (the
// objective, quadratically flat at the optimum) agrees to ≤1e-12 relative;
// the arguments h, k (and τ, which scales with h) agree only to ~1e-6
// relative — the cold ladder's own ≤1e-7-normalized-residual looseness — and
// are not bit-identical.
//
// ws may be nil (allocate per call). seed may be the zero Seed (pure cold
// start, bit-identical to OptimizeCtx).
func OptimizeSeeded(ctx context.Context, p Problem, seed Seed, ws *Workspace) (opt Optimum, err error) {
	defer diag.RecoverTo(&err, "core.Optimize")
	if err := p.Validate(); err != nil {
		return Optimum{}, err
	}
	p.ctl = runctl.New(ctx, p.Limits)
	if ws != nil {
		p.ws = ws
		ws.warm = seed.Valid() && seed.Tau > 0
		ws.lastTau = seed.Tau
	}
	rc, err := repeater.RCOptimal(p.Device, tline.Line{R: p.Line.R, C: p.Line.C})
	if err != nil {
		return Optimum{}, err
	}

	var cands []cand
	if ws != nil {
		cands = ws.cands[:0]
		defer func() { ws.cands = cands }()
	}
	rep := p.Report

	// The paper's Newton on (g1, g2), variables normalized by the RC
	// optimum so the Jacobian is well-scaled. start indexes the ladder rung
	// for fault-injection sites.
	sysAt := func(start int) num.VecFunc {
		return func(x, out []float64) error {
			if err := p.Injector.At(diag.Site{Op: "core.stationarity", Step: start}); err != nil {
				return err
			}
			g1, g2, err := p.stationarity(rc.Denormalize(x[0], x[1]))
			if err != nil {
				return err
			}
			// Scale the residuals: g has units of ds/dh ~ 1/(s·m); normalize by
			// characteristic magnitudes so Tol is meaningful.
			out[0] = g1 * rc.H * rc.Tau
			out[1] = g2 * rc.K * rc.Tau
			return nil
		}
	}
	// tryNewton runs one Newton start and admits its iterate as a candidate
	// when feasible — even when the line search stalled on the finite-
	// difference noise floor, where the final iterate is usually at the
	// optimum; the objective comparison decides. It reports whether a
	// candidate was admitted.
	tryNewton := func(start int, rung string, x0 []float64, opts num.NewtonNDOptions) (bool, error) {
		nres, nerr := num.NewtonND(sysAt(start), x0, opts)
		if len(nres.X) == 2 && nres.X[0] > 0 && nres.X[1] > 0 {
			h, k := rc.Denormalize(nres.X[0], nres.X[1])
			if pu := p.PerUnitDelay(h, k); !math.IsInf(pu, 1) {
				cands = append(cands, cand{h, k, pu, MethodNewton, nres.Iterations})
				if rep != nil {
					rep.Record("opt-newton", rung, diag.OutcomeOK, fmt.Sprintf("h=%g k=%g", h, k), nerr)
				}
				return true, nerr
			}
		}
		rep.Record("opt-newton", rung, diag.OutcomeFailed, "", nerr)
		return false, nerr
	}
	coldOpts := num.NewtonNDOptions{
		Tol:     1e-7,
		MaxIter: 60,
		Damping: true,
		Lower:   lowerHK,
		Ctl:     p.ctl,
	}
	if ws != nil {
		coldOpts.WS = &ws.newton
	}

	// Rung 0: warm start from the neighboring solution. On clean convergence
	// to a per-unit delay plausibly continuous with the neighbor's, the
	// remaining rungs (including the Nelder–Mead cross-check) are skipped —
	// this is the continuation fast path of batched sweeps. Any doubt
	// (divergence, line-search stall, or a per-unit delay jumping outside
	// the continuation band, which would indicate convergence to a
	// different stationary point) discards the warm candidate and the warm
	// delay hints, so the fallback runs the cold ladder exactly.
	var nerr, nmErr error
	warmed := false
	if seed.Valid() {
		var x0 [2]float64
		x0[0], x0[1] = rc.Normalize(seed.H, seed.K)
		ok, werr := tryNewton(-2, "warm-start", x0[:], coldOpts)
		if runctl.IsStop(werr) {
			return Optimum{}, werr
		}
		warmed = ok && werr == nil
		if warmed && seed.Tau > 0 {
			puSeed := seed.Tau / seed.H
			pu := cands[len(cands)-1].pu
			if !(pu < puSeed*1.5 && pu > puSeed/1.5) {
				warmed = false
			}
		}
		if !warmed {
			cands = cands[:0]
			if ws != nil {
				ws.warm = false
				ws.lastTau = 0
			}
		}
		nerr = werr
	}

	if !warmed {
		// Rung 1: Newton cold start from the RC optimum.
		var coldOK bool
		coldOK, nerr = tryNewton(0, "cold-start", coldStart[:], coldOpts)
		if runctl.IsStop(nerr) {
			return Optimum{}, nerr
		}

		// Rung 2: perturbed multi-starts — retry the paper's Newton from points
		// scattered around the RC optimum before conceding to the derivative-
		// free fallback. Only runs when the cold start yielded no candidate.
		if !coldOK {
			for i, x0 := range newtonRestarts {
				ok, err := tryNewton(i+1, fmt.Sprintf("multi-start(%g,%g)", x0[0], x0[1]), x0[:], coldOpts)
				if runctl.IsStop(err) {
					return Optimum{}, err
				}
				if ok {
					nerr = err
					break
				}
			}
		}

		// Rung 3: direct Nelder–Mead minimization on (log h, log k); immune to
		// the critical-damping singularity and to saddle points of (g1, g2).
		obj := func(x []float64) float64 {
			return p.PerUnitDelay(rc.H*math.Exp(x[0]), rc.K*math.Exp(x[1]))
		}
		nmOpts := num.NelderMeadOptions{
			Tol: 1e-13, MaxIter: 2000, InitScale: 0.25, MaxRestart: 3, Ctl: p.ctl,
		}
		if ws != nil {
			nmOpts.WS = &ws.nm
		}
		var xnm []float64
		xnm, _, nmErr = num.NelderMead(obj, nmStart[:], nmOpts)
		if runctl.IsStop(nmErr) {
			return Optimum{}, nmErr
		}
		if nmErr == nil {
			h, k := rc.H*math.Exp(xnm[0]), rc.K*math.Exp(xnm[1])
			if pu := p.PerUnitDelay(h, k); !math.IsInf(pu, 1) {
				cands = append(cands, cand{h, k, pu, MethodNelderMead, 0})
				if rep != nil {
					rep.Record("opt-nelder-mead", "direct", diag.OutcomeOK, fmt.Sprintf("h=%g k=%g", h, k), nil)
				}
			} else {
				rep.Record("opt-nelder-mead", "direct", diag.OutcomeFailed, "infeasible minimum", nil)
			}
			// Polish: the paper's Newton started from the direct minimum —
			// restores quadratic convergence when the cold start wandered into
			// a flat region of (g1, g2).
			polishOpts := num.NewtonNDOptions{
				Tol: 1e-9, MaxIter: 20, Damping: true, Lower: lowerHK, Ctl: p.ctl,
			}
			if ws != nil {
				polishOpts.WS = &ws.newton
			}
			var px0 [2]float64
			px0[0], px0[1] = rc.Normalize(h, k)
			pres, perr := num.NewtonND(sysAt(-1), px0[:], polishOpts)
			if runctl.IsStop(perr) {
				return Optimum{}, perr
			}
			if perr == nil && len(pres.X) == 2 {
				ph, pk := rc.Denormalize(pres.X[0], pres.X[1])
				if pu := p.PerUnitDelay(ph, pk); !math.IsInf(pu, 1) {
					cands = append(cands, cand{ph, pk, pu, MethodNewton, pres.Iterations})
					if rep != nil {
						rep.Record("opt-newton", "polish", diag.OutcomeOK, fmt.Sprintf("h=%g k=%g", ph, pk), nil)
					}
				}
			} else if perr != nil {
				rep.Record("opt-newton", "polish", diag.OutcomeFailed, "", perr)
			}
		} else {
			rep.Record("opt-nelder-mead", "direct", diag.OutcomeFailed, "", nmErr)
		}
	}
	if len(cands) == 0 {
		de := diag.New(diag.ErrNonConvergence, "core.Optimize")
		de.Detail = "all optimizer rungs failed"
		de.Err = fmt.Errorf("%w: newton: %v; nelder-mead: %v", ErrOptimize, nerr, nmErr)
		return Optimum{}, de
	}
	best := cands[0]
	for _, c := range cands[1:] {
		// Prefer the Newton (paper) path unless it is measurably worse.
		if c.pu < best.pu*(1-1e-9) {
			best = c
		}
	}
	m, d, err := p.Eval(best.h, best.k)
	if err != nil {
		return Optimum{}, fmt.Errorf("%w: final evaluation: %w", ErrOptimize, err)
	}
	return Optimum{
		H: best.h, K: best.k,
		Tau: d.Tau, PerUnit: d.Tau / best.h,
		Model: m, Method: best.method, Iterations: best.iters,
	}, nil
}

// OptimizeRC returns the classical Elmore optimum for the problem's line
// (inductance ignored), for convenience in ratio studies.
func OptimizeRC(p Problem) (repeater.RCOptimum, error) {
	return repeater.RCOptimal(p.Device, tline.Line{R: p.Line.R, C: p.Line.C})
}
