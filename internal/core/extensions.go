package core

import (
	"fmt"
	"math"

	"rlcint/internal/awe"
	"rlcint/internal/num"
	"rlcint/internal/repeater"
	"rlcint/internal/tline"
)

// EnergyPerLength returns the switching energy per unit length of a buffered
// line at sizing (h, k), normalized to VDD² (J/m/V²): the wire capacitance
// plus the amortized repeater input and parasitic capacitance.
func (p Problem) EnergyPerLength(h, k float64) float64 {
	return p.Line.C + (p.Device.C0+p.Device.Cp)*k/h
}

// TradeoffOptimum extends Optimum with the energy term of the objective.
type TradeoffOptimum struct {
	Optimum
	EnergyPerLen float64 // F/m (multiply by VDD² for J/m per transition)
	Weight       float64
}

// OptimizeTradeoff minimizes (τ/h)·(E/h-normalized energy)^w: w = 0
// reproduces the paper's pure delay optimization; growing w trades delay for
// switching energy, shrinking the repeaters and stretching the segments.
// This is the natural power-aware extension of the paper's methodology
// (its Section 1 notes glitch power as an inductance casualty; this knob
// addresses the repeater-insertion power overhead).
func OptimizeTradeoff(p Problem, w float64) (TradeoffOptimum, error) {
	if err := p.Validate(); err != nil {
		return TradeoffOptimum{}, err
	}
	if w < 0 {
		return TradeoffOptimum{}, fmt.Errorf("core: negative tradeoff weight %g", w)
	}
	rc, err := repeater.RCOptimal(p.Device, tline.Line{R: p.Line.R, C: p.Line.C})
	if err != nil {
		return TradeoffOptimum{}, err
	}
	obj := func(x []float64) float64 {
		h, k := rc.H*math.Exp(x[0]), rc.K*math.Exp(x[1])
		pu := p.PerUnitDelay(h, k)
		if math.IsInf(pu, 1) {
			return pu
		}
		return pu * math.Pow(p.EnergyPerLength(h, k), w)
	}
	x, _, err := num.NelderMead(obj, []float64{0, 0}, num.NelderMeadOptions{
		Tol: 1e-13, MaxIter: 2500, InitScale: 0.3, MaxRestart: 3,
	})
	if err != nil {
		return TradeoffOptimum{}, fmt.Errorf("%w: tradeoff: %v", ErrOptimize, err)
	}
	h, k := rc.H*math.Exp(x[0]), rc.K*math.Exp(x[1])
	m, d, err := p.Eval(h, k)
	if err != nil {
		return TradeoffOptimum{}, err
	}
	return TradeoffOptimum{
		Optimum: Optimum{
			H: h, K: k, Tau: d.Tau, PerUnit: d.Tau / h,
			Model: m, Method: MethodNelderMead,
		},
		EnergyPerLen: p.EnergyPerLength(h, k),
		Weight:       w,
	}, nil
}

// HigherOrderOptimum is the result of the order-q ablation.
type HigherOrderOptimum struct {
	H, K    float64
	PerUnit float64 // τ/h under the order-q delay model
	Order   int     // the order actually used (after stability fallback)
}

// OptimizeHigherOrder repeats the paper's optimization with an order-q AWE
// delay model in place of the two-pole model — the ablation for the paper's
// approximation #1 (Section 2.2). Unstable fits at a trial point fall back
// to lower orders; the reported Order is the one used at the optimum.
func OptimizeHigherOrder(p Problem, q int) (HigherOrderOptimum, error) {
	if err := p.Validate(); err != nil {
		return HigherOrderOptimum{}, err
	}
	if q < 2 || q > 10 {
		return HigherOrderOptimum{}, fmt.Errorf("core: order %d outside [2,10]", q)
	}
	rc, err := repeater.RCOptimal(p.Device, tline.Line{R: p.Line.R, C: p.Line.C})
	if err != nil {
		return HigherOrderOptimum{}, err
	}
	obj := func(x []float64) float64 {
		h, k := rc.H*math.Exp(x[0]), rc.K*math.Exp(x[1])
		if h <= 0 || k <= 0 {
			return math.Inf(1)
		}
		d, _ := higherOrderDelay(p, h, k, q)
		return d / h
	}
	x, _, err := num.NelderMead(obj, []float64{0, 0}, num.NelderMeadOptions{
		Tol: 1e-11, MaxIter: 900, InitScale: 0.3, MaxRestart: 2,
	})
	if err != nil {
		return HigherOrderOptimum{}, fmt.Errorf("%w: order-%d: %v", ErrOptimize, q, err)
	}
	h, k := rc.H*math.Exp(x[0]), rc.K*math.Exp(x[1])
	d, used := higherOrderDelay(p, h, k, q)
	if math.IsInf(d, 1) {
		return HigherOrderOptimum{}, fmt.Errorf("%w: no stable order-%d model at the optimum", ErrOptimize, q)
	}
	return HigherOrderOptimum{H: h, K: k, PerUnit: d / h, Order: used}, nil
}

// higherOrderDelay evaluates the threshold delay at (h, k) with the highest
// stable AWE order not exceeding q, returning the delay and the order used
// (+Inf, 0 when no order works).
func higherOrderDelay(p Problem, h, k float64, q int) (float64, int) {
	st := p.Device.Stage(p.Line, h, k)
	f := p.Threshold()
	for order := q; order >= 2; order-- {
		fit, err := awe.FromStage(st, order)
		if err != nil || !fit.Stable() {
			continue
		}
		if d, err := fit.Delay(f); err == nil {
			return d, order
		}
	}
	return math.Inf(1), 0
}

// HigherOrderPerUnit evaluates τ/h at (h, k) under the order-q delay model;
// exposed for ablation comparisons against the two-pole optimum.
func HigherOrderPerUnit(p Problem, h, k float64, q int) float64 {
	d, _ := higherOrderDelay(p, h, k, q)
	return d / h
}
