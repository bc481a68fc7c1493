package mor

import (
	"math"

	"rlcint/internal/awe"
	"rlcint/internal/diag"
	"rlcint/internal/sparse"
)

// momK is the number of transfer moments cross-checked by the gate.
const momK = 6

// gateRef holds the full-space linearized reference transient (and its
// initial-condition transfer moments), computed once per Reduce call and
// reused across every gate attempt.
type gateRef struct {
	sys  *System
	opts Options
	w    int         // reference window in output steps
	ref  [][]float64 // per port: w+1 samples on the output DT grid
	mom  [][]float64 // per port: momK IC-response moments (nil: x0 = 0)
}

// newGateRef steps the linearized full system (GGate when present) for the
// gate window at the output timestep, using the same BE/TR schedule — plain
// backward Euler and trapezoidal rule, which the production solver's
// per-element companion models realize algebraically (see Run.Advance).
func newGateRef(sys *System, opts Options) (*gateRef, error) {
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
	if dt <= 0 || opts.GateWindow < 2 {
		return nil, diag.Domainf("mor.gate", "bad gate window (dt=%g, w=%d)", dt, opts.GateWindow)
	}
	g := &gateRef{sys: sys, opts: opts, w: opts.GateWindow}

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
	fillU := func(t float64, dst []float64) {
		for i := range dst {
			dst[i] = 0
		}
		if sys.U != nil {
			sys.U(t, dst)
		}
		if sys.U0 != nil {
			for i := range dst {
				dst[i] += sys.U0[i]
			}
		}
	}
	g.ref = make([][]float64, p)
	for pi := range g.ref {
		g.ref[pi] = make([]float64, g.w+1)
		g.ref[pi][0] = x[sys.Ports[pi]]
	}

	curTR := false
	if err := factor(1 / dt); err != nil {
		return nil, err
	}
	alpha := 1 / dt
	fillU(0, upPrev)
	for s := 1; s <= g.w; s++ {
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
		fillU(float64(s)*dt, up)
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
			g.ref[pi][s] = x[row]
		}
	}

	// IC-response transfer moments: y₀ = x₀, y_{k+1} = −G⁻¹·C·y_k, recorded
	// at the ports. Skipped for zero initial state.
	nz := false
	for _, v := range sys.X0 {
		if v != 0 {
			nz = true
			break
		}
	}
	if nz {
		if err := factor(0); err == nil {
			y := append([]float64(nil), sys.X0...)
			g.mom = make([][]float64, p)
			for pi := range g.mom {
				g.mom[pi] = make([]float64, momK)
			}
			for k := 0; k < momK; k++ {
				pat.GaxpyWith(sys.C, y, zero(rr))
				lu.SolveInto(xNew, rr)
				for i := range y {
					y[i] = -xNew[i]
				}
				for pi, row := range sys.Ports {
					g.mom[pi][k] = y[row]
				}
			}
		}
	}
	return g, nil
}

func zero(v []float64) []float64 {
	for i := range v {
		v[i] = 0
	}
	return v
}

// compare runs the reduced model (linearized gate variant) over the gate
// window and returns its worst per-port relative RMS waveform error against
// the reference.
func (g *gateRef) compare(m *Model) (float64, error) {
	opts := g.opts
	p := len(m.Ports)
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
	fillU := func(t float64, dst []float64) {
		for i := range dst {
			dst[i] = 0
		}
		if g.sys.U != nil {
			g.sys.U(t, dst)
		}
		if g.sys.U0 != nil {
			for i := range dst {
				dst[i] += g.sys.U0[i]
			}
		}
	}
	fillU(0, upPrev)
	vals := make([][]float64, p)
	for pi := range vals {
		vals[pi] = make([]float64, g.w+1)
		vals[pi][0] = run.v[pi]
	}
	for j := 1; j <= g.w; j++ {
		t := float64(j) * opts.DT
		st := stBE
		if m.StepIsTR(j) {
			st = stTR
		}
		fillU(t, up)
		if _, aerr := run.Advance(st, t, up, upPrev, nil, NewtonOpts{}); aerr != nil {
			return math.Inf(1), nil
		}
		up, upPrev = upPrev, up
		for pi := range vals {
			vals[pi][j] = run.v[pi]
		}
	}
	return WorstRelRMS(g.ref, vals), nil
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

// momentError compares the reduced model's IC-response moments against the
// full-space reference in awe-normalized form (time rescaled per port by
// its own characteristic constant so float64 can resolve the series).
func (g *gateRef) momentError(m *Model) float64 {
	if g.mom == nil {
		return 0
	}
	stM, err := m.prep(math.Inf(1), false, true) // α = 0 sentinel: A = G
	if err != nil {
		return 0
	}
	p := len(m.Ports)
	yv := append([]float64(nil), m.x0p...)
	rhsP := make([]float64, p)
	var yz, rhsZ, wtmp [][]float64
	for ci := range m.comps {
		yz = append(yz, append([]float64(nil), m.z0[ci]...))
		rhsZ = append(rhsZ, make([]float64, m.comps[ci].m))
		wtmp = append(wtmp, make([]float64, m.comps[ci].m))
	}
	red := make([][]float64, p)
	for pi := range red {
		red[pi] = make([]float64, momK)
	}
	for k := 0; k < momK; k++ {
		// rhs = C_red · y
		denseMV(m.cpp, p, yv, rhsP)
		for ci, c := range m.comps {
			md, pc := c.m, len(c.ports)
			z := yz[ci]
			for pi, gp := range c.ports {
				s := 0.0
				row := c.cpz[pi*md : (pi+1)*md]
				for kk, zk := range z {
					s += row[kk] * zk
				}
				rhsP[gp] += s
			}
			rz := rhsZ[ci]
			for i := 0; i < md; i++ {
				s := 0.0
				row := c.czz[i*md : (i+1)*md]
				for kk, zk := range z {
					s += row[kk] * zk
				}
				for j := 0; j < pc; j++ {
					s += c.czp[i*pc+j] * yv[c.ports[j]]
				}
				rz[i] = s
			}
		}
		stM.solveCoupled(m, rhsP, rhsZ, yv, yz, wtmp)
		for i := range yv {
			yv[i] = -yv[i]
		}
		for ci := range yz {
			for i := range yz[ci] {
				yz[ci][i] = -yz[ci][i]
			}
		}
		for pi := range red {
			red[pi][k] = yv[pi]
		}
	}
	worst := 0.0
	for pi := 0; pi < p; pi++ {
		fs, T := awe.NormalizeMoments(g.mom[pi])
		den := 0.0
		for _, v := range fs {
			if a := math.Abs(v); a > den {
				den = a
			}
		}
		if den == 0 {
			continue
		}
		tj := 1.0
		for k := 0; k < momK; k++ {
			d := math.Abs(fs[k] - red[pi][k]/tj)
			if e := d / den; e > worst {
				worst = e
			}
			tj *= T
		}
	}
	return worst
}
