package spice

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rlcint/internal/diag"
	"rlcint/internal/runctl"
)

// AdaptiveOpts configure TransientAdaptive.
type AdaptiveOpts struct {
	TStop float64
	// DTInit is the starting step (default TStop/1000); DTMin and DTMax
	// bound the controller (defaults TStop/1e7 and TStop/50).
	DTInit, DTMin, DTMax float64
	// LTETol is the per-step local-truncation-error target on node voltages
	// (default 1e-4, in the solution's own units).
	LTETol float64
	UseICs bool
	// Newton settings are shared with TranOpts defaults.
	MaxNewton int
	ITol      float64
	Gmin      float64
	// Limits bound the run; see runctl.Limits. MaxIters counts Newton
	// iterations, the inner unit of work.
	Limits runctl.Limits
	// NoFastPath disables the sparse-kernel fast path (see TranOpts).
	NoFastPath bool
	// Report, when non-nil, collects the recovery-ladder attempts of the
	// run (see TranOpts.Report).
	Report *diag.Report
}

// Validate rejects option sets whose window, steps, tolerances or budgets
// are non-finite or negative, the way TranOpts.Validate does; TStop must be
// positive. Zero fields still mean "default".
func (o AdaptiveOpts) Validate() error {
	names := []string{"TStop", "DTInit", "DTMin", "DTMax", "LTETol", "ITol", "Gmin"}
	vals := []float64{o.TStop, o.DTInit, o.DTMin, o.DTMax, o.LTETol, o.ITol, o.Gmin}
	if err := diag.CheckFinite("spice.AdaptiveOpts", names, vals); err != nil {
		return err
	}
	if o.TStop <= 0 {
		return diag.Domainf("spice.AdaptiveOpts", "TStop=%g must be positive", o.TStop)
	}
	for i, v := range vals {
		if v < 0 {
			return diag.Domainf("spice.AdaptiveOpts", "%s=%g must be non-negative", names[i], v)
		}
	}
	if o.MaxNewton < 0 {
		return diag.Domainf("spice.AdaptiveOpts", "negative budget MaxNewton=%d", o.MaxNewton)
	}
	if o.Limits.Timeout < 0 || o.Limits.MaxIters < 0 {
		return diag.Domainf("spice.AdaptiveOpts", "negative run limits Timeout=%v MaxIters=%d", o.Limits.Timeout, o.Limits.MaxIters)
	}
	return nil
}

func (o AdaptiveOpts) withDefaults() (AdaptiveOpts, error) {
	if err := o.Validate(); err != nil {
		return o, err
	}
	if o.DTInit == 0 {
		o.DTInit = o.TStop / 1000
	}
	if o.DTMin == 0 {
		o.DTMin = o.TStop / 1e7
	}
	if o.DTMax == 0 {
		o.DTMax = o.TStop / 50
	}
	if o.DTMin > o.DTMax {
		return o, diag.Domainf("spice.AdaptiveOpts", "DTMin=%g exceeds DTMax=%g", o.DTMin, o.DTMax)
	}
	if o.DTInit > o.DTMax {
		o.DTInit = o.DTMax
	}
	if o.LTETol == 0 {
		o.LTETol = 1e-4
	}
	if o.MaxNewton == 0 {
		o.MaxNewton = 50
	}
	if o.ITol == 0 {
		o.ITol = 1e-9
	}
	if o.Gmin == 0 {
		o.Gmin = 1e-12
	}
	return o, nil
}

// TransientAdaptive runs a trapezoidal transient with local-truncation-error
// step control: each step's LTE is estimated from the deviation of the new
// solution from a quadratic (divided-difference) predictor through the last
// three accepted points, and the step is resized toward the target error
// with the standard third-order rule. The returned Result has a non-uniform
// time axis.
func (c *Circuit) TransientAdaptive(opts AdaptiveOpts, probes ...Probe) (*Result, error) {
	return c.TransientAdaptiveCtx(context.Background(), opts, probes...)
}

// TransientAdaptiveCtx is TransientAdaptive under run control: ctx
// cancellation and opts.Limits are checked at every Newton iteration, and a
// stopped run returns the waveform accumulated so far with Partial set
// alongside the typed stop error. A step that keeps failing until it falls
// below DTMin returns diag.ErrTimestepCollapse under the same
// partial-result contract.
func (c *Circuit) TransientAdaptiveCtx(ctx context.Context, opts AdaptiveOpts, probes ...Probe) (res *Result, err error) {
	defer diag.RecoverTo(&err, "spice.TransientAdaptive")
	if err := c.Validate(); err != nil {
		return nil, err
	}
	opts, err = opts.withDefaults()
	if err != nil {
		return nil, err
	}
	tran := TranOpts{
		TStop: opts.TStop, DT: opts.TStop, UseICs: opts.UseICs, MaxNewton: opts.MaxNewton,
		ITol: opts.ITol, Gmin: opts.Gmin, NoFastPath: opts.NoFastPath,
		Report: opts.Report,
	}
	tran, _ = tran.withDefaults()
	tran.ctl = runctl.New(ctx, opts.Limits)

	ns := newNewtonState(c)
	if err := c.initialState(tran, ns.x); err != nil {
		return nil, fmt.Errorf("spice: adaptive initial point: %w", err)
	}
	full := &fullStep{c: c, ns: ns, opts: tran, probes: probes}
	res = newResult(nil, probes, 0, full)

	// History for the quadratic predictor: last two accepted solutions and
	// their times (the current xPrev is the third point).
	hist1 := make([]float64, ns.n) // x(t_{k-1})
	hist2 := make([]float64, ns.n) // x(t_{k-2})
	var t1, t2 float64
	havePts := 0
	pred := make([]float64, ns.n)

	t := 0.0
	dt := opts.DTInit
	beSteps := 2
	fails := 0
	for t < opts.TStop*(1-1e-12) {
		if t+dt > opts.TStop {
			dt = opts.TStop - t
		}
		trap := beSteps <= 0
		tn := t + dt
		// The adaptive run has no output grid: every solve carries step 0,
		// so the fast path's symbolic refresh schedule never fires mid-run.
		if err := full.solve(t, dt, 0, trap); err != nil {
			if runctl.IsStop(err) {
				// A run-control stop is terminal, not a convergence failure:
				// never retry it with a smaller step.
				res.Partial = true
				res.PartialT = t
				var de *diag.Error
				if errors.As(err, &de) {
					de.Time = t
				}
				return res, err
			}
			fails++
			dt /= 2
			if fails > 30 || dt < opts.DTMin {
				res.Partial = true
				res.PartialT = t
				de := diag.New(diag.ErrTimestepCollapse, "spice.TransientAdaptive")
				de.Time = t
				de.Detail = fmt.Sprintf("dt=%g after %d failed attempts (DTMin=%g)", dt, fails, opts.DTMin)
				de.Err = err
				return res, de
			}
			continue
		}
		fails = 0
		// LTE estimate once enough history exists.
		if havePts >= 2 && trap {
			// Quadratic extrapolation through (t2,hist2), (t1,hist1),
			// (t,xPrev) evaluated at t+dt.
			l2 := (tn - t1) * (tn - t) / ((t2 - t1) * (t2 - t))
			l1 := (tn - t2) * (tn - t) / ((t1 - t2) * (t1 - t))
			l0 := (tn - t2) * (tn - t1) / ((t - t2) * (t - t1))
			errMax := 0.0
			for i := 0; i < ns.nNodes; i++ {
				pred[i] = l2*hist2[i] + l1*hist1[i] + l0*ns.xPrev[i]
				if e := math.Abs(ns.x[i] - pred[i]); e > errMax {
					errMax = e
				}
			}
			// Resize toward the target; reject wild steps.
			if errMax > 8*opts.LTETol && dt > opts.DTMin {
				copy(ns.x, ns.xPrev)
				dt = math.Max(dt/2, opts.DTMin)
				continue
			}
			ratio := math.Pow(opts.LTETol/math.Max(errMax, 1e-300), 1.0/3)
			ratio = math.Min(math.Max(ratio, 0.3), 2)
			dt = math.Min(math.Max(dt*ratio, opts.DTMin), opts.DTMax)
		}
		full.commit()
		// Shift history.
		t2, t1 = t1, t
		copy(hist2, hist1)
		copy(hist1, ns.xPrev)
		if havePts < 2 {
			havePts++
		}
		t = tn
		if beSteps > 0 {
			beSteps--
		}
		res.T = append(res.T, t)
		full.sample(res.Signals)
	}
	return res, nil
}
