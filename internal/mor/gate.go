package mor

import (
	"math"

	"rlcint/internal/diag"
	"rlcint/internal/sparse"
)

// gateReference steps the linearized full system (GGate when present) for w
// output steps at the output timestep, using the same BE/TR schedule — plain
// backward Euler and trapezoidal rule, which the production solver's
// per-element companion models realize algebraically (see Run.Advance). It
// returns w+1 samples per port.
func gateReference(sys *System, opts Options, w int) ([][]float64, error) {
	if opts.Injector != nil {
		if err := opts.Injector.At(diag.Site{Op: "mor.gate"}); err != nil {
			return nil, wrapErr(diag.ErrNonConvergence, "mor.gate", err)
		}
	}
	n := sys.N
	p := len(sys.Ports)
	gvals := sys.GGate
	if gvals == nil {
		gvals = sys.G
	}
	pat := sys.Pattern
	dt := opts.DT

	avals := make([]float64, len(gvals))
	amat := &sparse.CSC{N: n, P: pat.P, I: pat.I, X: avals}
	lu := sparse.Workspace(n)
	factor := func(alpha float64) error {
		for i := range avals {
			avals[i] = gvals[i] + alpha*sys.C[i]
		}
		if err := lu.Factorize(amat, 1); err != nil {
			return wrapErr(diag.ErrSingularJacobian, "mor.gate", err)
		}
		return nil
	}

	x := append([]float64(nil), sys.X0...)
	xNew := make([]float64, n)
	cx := make([]float64, n)
	rr := make([]float64, n)
	up := make([]float64, p)
	upPrev := make([]float64, p)
	ref := make([][]float64, p)
	for pi := range ref {
		ref[pi] = make([]float64, w+1)
		ref[pi][0] = x[sys.Ports[pi]]
	}

	curTR := false
	if err := factor(1 / dt); err != nil {
		return nil, err
	}
	alpha := 1 / dt
	sys.gateSources(0, upPrev)
	for s := 1; s <= w; s++ {
		tr := opts.TR && s > opts.BESteps
		if tr != curTR {
			curTR = tr
			alpha = 1 / dt
			if tr {
				alpha = 2 / dt
			}
			if err := factor(alpha); err != nil {
				return nil, err
			}
		}
		sys.gateSources(float64(s)*dt, up)
		// BE: r = α[C·x] + u'. TR: r = α[C·x] − [G·x] + u_n + u'.
		pat.GaxpyWith(sys.C, x, zero(cx))
		for i := 0; i < n; i++ {
			rr[i] = alpha * cx[i]
		}
		if tr {
			gx := xNew // scratch before it holds the solution
			pat.GaxpyWith(gvals, x, zero(gx))
			for i := 0; i < n; i++ {
				rr[i] -= gx[i]
			}
		}
		for pi, row := range sys.Ports {
			rr[row] += up[pi]
			if tr {
				rr[row] += upPrev[pi]
			}
		}
		lu.SolveInto(xNew, rr)
		x, xNew = xNew, x
		up, upPrev = upPrev, up
		for pi, row := range sys.Ports {
			ref[pi][s] = x[row]
		}
	}
	return ref, nil
}

// gateSources fills dst with the gate's port-local source vector at time t:
// the run's sources plus the constant offset U0 of the nonlinear devices'
// linearization.
func (sys *System) gateSources(t float64, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	if sys.U != nil {
		sys.U(t, dst)
	}
	for i, u := range sys.U0 {
		dst[i] += u
	}
}

func zero(v []float64) []float64 {
	for i := range v {
		v[i] = 0
	}
	return v
}

// gateError runs the reduced model (linearized gate variant) over the
// window of the reference ref and returns its worst per-port relative RMS
// waveform error against it; a reduced step that fails scores +Inf.
func (m *Model) gateError(sys *System, opts Options, ref [][]float64) (float64, error) {
	p := len(m.Ports)
	w := len(ref[0]) - 1
	stBE, err := m.prep(opts.DT, false, true)
	if err != nil {
		return 0, err
	}
	var stTR *Stepper
	if m.tr {
		if stTR, err = m.prep(opts.DT, true, true); err != nil {
			return 0, err
		}
	}

	run := m.NewRun()
	up := make([]float64, p)
	upPrev := make([]float64, p)
	sys.gateSources(0, upPrev)
	vals := make([][]float64, p)
	for pi := range vals {
		vals[pi] = make([]float64, w+1)
		vals[pi][0] = run.v[pi]
	}
	for j := 1; j <= w; j++ {
		t := float64(j) * opts.DT
		st := stBE
		if m.StepIsTR(j) {
			st = stTR
		}
		sys.gateSources(t, up)
		if _, aerr := run.Advance(st, t, up, upPrev, nil, NewtonOpts{}); aerr != nil {
			return math.Inf(1), nil
		}
		up, upPrev = upPrev, up
		for pi := range vals {
			vals[pi][j] = run.v[pi]
		}
	}
	return WorstRelRMS(ref, vals), nil
}

// WorstRelRMS returns the worst per-port relative RMS error of got against
// ref, where ref[pi] and got[pi] hold port pi's samples on one common grid.
// Each port's error is relative to its own RMS level, floored at 1e-6 of the
// loudest port's level so near-silent ports do not dominate; an all-zero
// reference makes the error absolute. A NaN anywhere yields +Inf. Both the
// linearized accuracy gate and the large-signal confirmation window of
// internal/spice judge a reduction with it.
func WorstRelRMS(ref, got [][]float64) float64 {
	rms := make([]float64, len(ref))
	scale := make([]float64, len(ref))
	maxScale := 0.0
	for pi, r := range ref {
		var se, sr float64
		for s, v := range r {
			d := v - got[pi][s]
			se += d * d
			sr += v * v
		}
		rms[pi] = math.Sqrt(se / float64(len(r)))
		scale[pi] = math.Sqrt(sr / float64(len(r)))
		if scale[pi] > maxScale {
			maxScale = scale[pi]
		}
	}
	worst := 0.0
	for pi := range ref {
		den := scale[pi]
		if floor := 1e-6 * maxScale; den < floor {
			den = floor
		}
		if den == 0 {
			den = 1
		}
		e := rms[pi] / den
		if math.IsNaN(e) {
			return math.Inf(1)
		}
		if e > worst {
			worst = e
		}
	}
	return worst
}
