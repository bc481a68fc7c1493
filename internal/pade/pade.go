// Package pade implements the paper's second-order (two-pole) Padé model of
// the driver–interconnect–load stage, Eq. (2):
//
//	H(s) ≈ 1/(1 + b1·s + b2·s²)
//
// with the closed-form coefficients of Section 2.1, its exact step response,
// the numerical f×100% delay solve of Eq. (3), damping classification,
// overshoot/undershoot metrics, and the critical line inductance of Eq. (4).
package pade

import (
	"fmt"
	"math"

	"rlcint/internal/diag"
	"rlcint/internal/num"
	"rlcint/internal/runctl"
	"rlcint/internal/tline"
)

// Damping classifies the second-order response.
type Damping int

const (
	Overdamped Damping = iota
	CriticallyDamped
	Underdamped
)

// String implements fmt.Stringer.
func (d Damping) String() string {
	switch d {
	case Overdamped:
		return "overdamped"
	case CriticallyDamped:
		return "critically damped"
	case Underdamped:
		return "underdamped"
	}
	return fmt.Sprintf("Damping(%d)", int(d))
}

// criticalTol is the relative width of the discriminant band treated as
// critically damped; inside it the confluent step-response formula is used
// to avoid catastrophic cancellation between nearly equal poles.
const criticalTol = 1e-9

// Model is a unit-gain two-pole lowpass 1/(1 + b1 s + b2 s²) with b1, b2 > 0
// (a passive stage always yields positive coefficients).
type Model struct {
	B1, B2 float64
}

// New validates and constructs a Model. Non-physical coefficients (NaN,
// Inf, or non-positive) are rejected with a diag.ErrDomain-matchable error.
func New(b1, b2 float64) (Model, error) {
	if !(b1 > 0) || !(b2 > 0) || math.IsInf(b1, 1) || math.IsInf(b2, 1) {
		return Model{}, fmt.Errorf("pade: non-physical coefficients b1=%g b2=%g: %w", b1, b2, diag.ErrDomain)
	}
	return Model{B1: b1, B2: b2}, nil
}

// FromStage builds the model for a driver–line–load stage using the paper's
// closed-form b1 and b2 (equivalently, the first two moments of the exact
// transfer function). Stages carrying NaN/Inf or non-physical parameters
// (e.g. assembled via StageOf from bad inputs) are rejected with a
// diag.ErrDomain-matchable error.
func FromStage(st tline.Stage) (Model, error) {
	if err := st.Validate(); err != nil {
		return Model{}, err
	}
	var buf [3]float64
	d := st.DenominatorSeriesInto(buf[:], 3)
	return New(d[1], d[2])
}

// Discriminant returns b1² − 4·b2: negative for underdamped responses.
func (m Model) Discriminant() float64 { return m.B1*m.B1 - 4*m.B2 }

// Zeta returns the damping ratio ζ = b1/(2√b2).
func (m Model) Zeta() float64 { return m.B1 / (2 * math.Sqrt(m.B2)) }

// OmegaN returns the natural frequency ωn = 1/√b2 (rad/s).
func (m Model) OmegaN() float64 { return 1 / math.Sqrt(m.B2) }

// Damping classifies the response, treating a small relative band around
// zero discriminant as critically damped.
func (m Model) Damping() Damping {
	d := m.Discriminant()
	band := criticalTol * m.B1 * m.B1
	switch {
	case d > band:
		return Overdamped
	case d < -band:
		return Underdamped
	}
	return CriticallyDamped
}

// Poles returns the two poles s1, s2 (complex conjugate when underdamped).
// The real-pole case returns s1 >= s2 (s1 is the slow pole).
func (m Model) Poles() (complex128, complex128) {
	disc := m.Discriminant()
	if disc >= 0 {
		sq := math.Sqrt(disc)
		s1 := (-m.B1 + sq) / (2 * m.B2)
		s2 := (-m.B1 - sq) / (2 * m.B2)
		return complex(s1, 0), complex(s2, 0)
	}
	re := -m.B1 / (2 * m.B2)
	im := math.Sqrt(-disc) / (2 * m.B2)
	return complex(re, im), complex(re, -im)
}

// Step evaluates the unit step response at time t:
//
//	v(t) = 1 − s2/(s2−s1)·exp(s1 t) + s1/(s2−s1)·exp(s2 t),
//
// using numerically safe real forms in each damping regime and the confluent
// limit v(t) = 1 − (1 − s̄t)·exp(s̄t) near critical damping.
func (m Model) Step(t float64) float64 {
	if t <= 0 {
		return 0
	}
	disc := m.Discriminant()
	band := criticalTol * m.B1 * m.B1
	switch {
	case disc > band: // overdamped: two real poles
		sq := math.Sqrt(disc)
		s1 := (-m.B1 + sq) / (2 * m.B2) // slow pole
		s2 := (-m.B1 - sq) / (2 * m.B2) // fast pole
		d := s2 - s1
		return 1 - s2/d*math.Exp(s1*t) + s1/d*math.Exp(s2*t)
	case disc < -band: // underdamped: complex pair −α ± jβ
		alpha := m.B1 / (2 * m.B2)
		beta := math.Sqrt(-disc) / (2 * m.B2)
		return 1 - math.Exp(-alpha*t)*(math.Cos(beta*t)+alpha/beta*math.Sin(beta*t))
	default: // critically damped (confluent limit)
		s := -m.B1 / (2 * m.B2)
		return 1 - (1-s*t)*math.Exp(s*t)
	}
}

// StepDeriv evaluates dv/dt of the unit step response at time t.
func (m Model) StepDeriv(t float64) float64 {
	if t < 0 {
		return 0
	}
	disc := m.Discriminant()
	band := criticalTol * m.B1 * m.B1
	switch {
	case disc > band:
		sq := math.Sqrt(disc)
		s1 := (-m.B1 + sq) / (2 * m.B2)
		s2 := (-m.B1 - sq) / (2 * m.B2)
		d := s2 - s1
		// v' = s1·s2/(s2−s1)·(exp(s2 t) − exp(s1 t)) ... derived from Step.
		return -s1 * s2 / d * math.Exp(s1*t) * (1 - math.Exp((s2-s1)*t))
	case disc < -band:
		alpha := m.B1 / (2 * m.B2)
		beta := math.Sqrt(-disc) / (2 * m.B2)
		// v' = exp(−αt)·(α²+β²)/β·sin(βt)
		return math.Exp(-alpha*t) * (alpha*alpha + beta*beta) / beta * math.Sin(beta*t)
	default:
		s := -m.B1 / (2 * m.B2)
		return s * s * t * math.Exp(s*t)
	}
}

// DelayResult carries the threshold delay and solver diagnostics.
type DelayResult struct {
	Tau        float64 // time of the first crossing of f
	Iterations int     // Newton iterations used (the paper reports ≤ 4)
}

// ErrThreshold rejects delay thresholds outside [0, 1). It wraps
// diag.ErrDomain, so callers can match either sentinel.
var ErrThreshold = fmt.Errorf("pade: threshold must satisfy 0 <= f < 1: %w", diag.ErrDomain)

// Delay solves the paper's Eq. (3) for the f×100% delay: the first time at
// which the unit step response reaches f. The root is bracketed by scanning
// (so that, for underdamped responses, the first crossing rather than a
// later one is found) and polished with safeguarded Newton.
func (m Model) Delay(f float64) (DelayResult, error) {
	return m.DelayWith(nil, f)
}

// stepState carries (model, threshold) into the package-level residual
// functions below, so the delay solvers avoid a per-call closure allocation
// on the optimizer's hottest path.
type stepState struct {
	m Model
	f float64
}

func stepResidual(s stepState, t float64) float64 { return s.m.Step(t) - s.f }
func stepDeriv(s stepState, t float64) float64    { return s.m.StepDeriv(t) }

// DelayWith is Delay consulting ctl (which may be nil) between bracket-
// growth attempts, so cancelling an optimization aborts even a pathological
// threshold search promptly. It is Crossings with one threshold.
func (m Model) DelayWith(ctl *runctl.Controller, f float64) (DelayResult, error) {
	fs := [1]float64{f}
	var out [1]DelayResult
	err := m.Crossings(ctl, fs[:], out[:])
	return out[0], err
}

// scanSamples is the number of intervals of one scan window.
const scanSamples = 512

// Crossings solves Eq. (3) for several thresholds of one model: out[i]
// receives the fs[i]×100% delay, so out must hold len(fs) results. The
// thresholds must ascend (repeats allowed). One scan of the step response
// serves them all. It samples a window of 4·max(b1, √b2) at 512 intervals
// and grows the window fourfold while a threshold is still uncrossed. At
// each sample it brackets every pending threshold the response has
// reached: the bracket that threshold's own scan would find, since a
// sample at or above a higher threshold is at or above every lower one. It
// polishes each from there, so every result is bit-identical to DelayWith
// at that threshold. On an error, out holds the thresholds solved before
// it. ctl (which may be nil) is consulted before each window.
func (m Model) Crossings(ctl *runctl.Controller, fs []float64, out []DelayResult) error {
	prev := 0.0
	for _, f := range fs {
		if f < 0 || f >= 1 || math.IsNaN(f) {
			return fmt.Errorf("%w: f=%g", ErrThreshold, f)
		}
		if f < prev {
			return fmt.Errorf("pade: thresholds must ascend, got f=%g after %g: %w", f, prev, diag.ErrDomain)
		}
		prev = f
	}
	j := 0
	for ; j < len(fs) && fs[j] == 0; j++ {
		out[j] = DelayResult{}
	}
	// Characteristic time: the larger of the Elmore time and the natural
	// period. Grow the scan window until every crossing is inside.
	tScale := math.Max(m.B1, math.Sqrt(m.B2))
	tmax := 4 * tScale
	for try := 0; j < len(fs); try++ {
		if err := ctl.Check("pade.Delay"); err != nil {
			return err
		}
		var err error
		if j, err = m.scan(fs, out, j, tmax, tScale); err != nil {
			return err
		}
		if j == len(fs) {
			break
		}
		if try == 24 {
			return fmt.Errorf("pade: Delay(f=%g): no crossing found up to t=%g: %w", fs[j], tmax, num.ErrBadBracket)
		}
		tmax *= 4
	}
	return nil
}

// scan walks the grid num.CrossingScanS samples on [0, tmax] once and
// polishes every pending threshold fs[j:] at its first sign change there:
// safeguarded Newton inside the bracket, falling back to Brent, which
// cannot fail once a bracket exists since Step is continuous. It returns
// the index of the first threshold still pending.
func (m Model) scan(fs []float64, out []DelayResult, j int, tmax, tScale float64) (int, error) {
	dt := tmax / scanSamples
	f := fs[j]
	prevT, prevV := 0.0, m.Step(0)
	for i := 1; i <= scanSamples; i++ {
		t := float64(i) * dt
		v := m.Step(t)
		if r := v - f; r != 0 && math.Signbit(r) == math.Signbit(prevV-f) {
			prevT, prevV = t, v
			continue // no crossing of the lowest pending threshold here
		}
		for ; j < len(fs); j++ {
			r := v - fs[j]
			lo := prevT
			if r == 0 {
				lo = t
			} else if math.Signbit(r) == math.Signbit(prevV-fs[j]) {
				break
			}
			g := stepState{m: m, f: fs[j]}
			res, err := num.Newton1DS(stepResidual, stepDeriv, g, lo, t, 0.5*(lo+t), 1e-14*tScale+1e-30, 60)
			if err != nil {
				if res.Root, err = num.BrentS(stepResidual, g, lo, t, 1e-16*tScale, 200); err != nil {
					return j, fmt.Errorf("pade: Delay(f=%g): %w", fs[j], err)
				}
			}
			out[j] = DelayResult{Tau: res.Root, Iterations: res.Iterations}
		}
		if j == len(fs) {
			break
		}
		f, prevT, prevV = fs[j], t, v
	}
	return j, nil
}

// DelaySeeded is DelayWith with a warm-start hint: hint is the converged
// delay of a neighboring solve (an adjacent grid point of a sweep, or the
// previous evaluation of an optimization trajectory). When a tight bracket
// around the hint straddles the threshold crossing — and, for underdamped
// responses, no earlier crossing exists — the solve skips the 512-sample
// scan of the cold path and polishes inside the local bracket. On any doubt
// (bad hint, bracket not confirmed, possible earlier crossing, failed
// polish) it falls back to DelayWith, so it never returns a different
// crossing than the cold solve and agrees with it to the solver tolerance
// (~1e-14 relative).
func (m Model) DelaySeeded(ctl *runctl.Controller, f, hint float64) (DelayResult, error) {
	if !(hint > 0) || math.IsInf(hint, 1) {
		return m.DelayWith(ctl, f)
	}
	if f < 0 || f >= 1 || math.IsNaN(f) {
		return DelayResult{}, fmt.Errorf("%w: f=%g", ErrThreshold, f)
	}
	if f == 0 {
		return DelayResult{}, nil
	}
	if err := ctl.Check("pade.DelaySeeded"); err != nil {
		return DelayResult{}, err
	}
	g := stepState{m: m, f: f}
	lo, hi := 0.75*hint, hint/0.75
	if !(stepResidual(g, lo) < 0 && stepResidual(g, hi) > 0) {
		return m.DelayWith(ctl, f)
	}
	// For underdamped responses the local bracket could straddle a later
	// crossing of an oscillatory tail; confirm no crossing precedes it.
	if m.Damping() == Underdamped {
		if _, _, crosses := num.CrossingScanS(stepResidual, g, 0, lo, 64); crosses {
			return m.DelayWith(ctl, f)
		}
	}
	tScale := math.Max(m.B1, math.Sqrt(m.B2))
	res, err := num.Newton1DS(stepResidual, stepDeriv, g, lo, hi, hint, 1e-14*tScale+1e-30, 60)
	if err != nil {
		return m.DelayWith(ctl, f)
	}
	return DelayResult{Tau: res.Root, Iterations: res.Iterations}, nil
}

// Overshoot returns the peak of the step response relative to the final
// value (v_peak − 1, i.e. 0 for non-underdamped responses) and the time of
// the peak (+Inf when there is no finite peak).
func (m Model) Overshoot() (mag, tPeak float64) {
	if m.Damping() != Underdamped {
		return 0, math.Inf(1)
	}
	alpha := m.B1 / (2 * m.B2)
	beta := math.Sqrt(-m.Discriminant()) / (2 * m.B2)
	tPeak = math.Pi / beta
	return math.Exp(-alpha * tPeak), tPeak
}

// Undershoot returns the depth of the first post-peak minimum below the
// final value (1 − v_min ≥ 0 relative magnitude, 0 for non-underdamped) and
// its time. This is the quantity the paper ties to false switching.
func (m Model) Undershoot() (mag, tMin float64) {
	if m.Damping() != Underdamped {
		return 0, math.Inf(1)
	}
	alpha := m.B1 / (2 * m.B2)
	beta := math.Sqrt(-m.Discriminant()) / (2 * m.B2)
	tMin = 2 * math.Pi / beta
	return math.Exp(-alpha * tMin), tMin
}

// SettleTime returns the time after which the response envelope stays within
// ±tol of the final value (envelope-based, conservative for real poles).
func (m Model) SettleTime(tol float64) float64 {
	if tol <= 0 || tol >= 1 {
		tol = 0.01
	}
	switch m.Damping() {
	case Underdamped, CriticallyDamped:
		alpha := m.B1 / (2 * m.B2)
		// Envelope exp(−αt)·√(1+(α/β)²) ≤ exp(−αt)/ sin(acos ζ); use the
		// standard ζ-corrected bound, clamped for near-critical ζ.
		zeta := math.Min(m.Zeta(), 0.999)
		return -math.Log(tol*math.Sqrt(1-zeta*zeta)) / alpha
	default:
		// Slow pole dominates; include its residue amplitude |s2/(s2−s1)|.
		sq := math.Sqrt(m.Discriminant())
		s1 := (-m.B1 + sq) / (2 * m.B2)
		s2 := (-m.B1 - sq) / (2 * m.B2)
		amp := math.Abs(s2 / (s2 - s1))
		return math.Log(amp/tol) / -s1
	}
}

// LCrit computes the paper's Eq. (4): the per-unit-length line inductance
// that makes the stage critically damped at the given geometry and sizing.
// All other stage parameters are taken from st; st.Line.L is ignored.
// The result may be negative, meaning the stage is underdamped even with a
// zero-inductance line (cannot happen for physical b1², but kept signed for
// diagnostic use).
func LCrit(st tline.Stage) float64 {
	r, c := st.Line.R, st.Line.C
	h := st.H
	rs, cp, cl := st.RS, st.CP, st.CL
	b1 := rs*(cp+cl) + r*c*h*h/2 + rs*c*h + cl*r*h
	num := b1*b1/4 -
		r*r*c*c*h*h*h*h/24 -
		rs*(cp+cl)*r*c*h*h/2 -
		(rs*c*h+cl*r*h)*r*c*h*h/6 -
		rs*cp*cl*r*h
	den := c*h*h/2 + cl*h
	return num / den
}
