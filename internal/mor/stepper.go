package mor

import (
	"math"
	"sync"

	"rlcint/internal/diag"
	"rlcint/internal/lina"
)

// PortEval evaluates the nonlinear port devices at a candidate port vector v:
// it ADDS the residual contribution into res (length p) and the Jacobian into
// jac (p×p row-major), both indexed in the model's port order. Implementations
// must not retain the slices.
type PortEval interface {
	Eval(v, res, jac []float64)
}

// NewtonOpts mirror the spice Newton controls for the reduced port solve.
type NewtonOpts struct {
	MaxNewton           int
	ITol, RelTol, VNTol float64
	MaxStep             float64
}

func (n NewtonOpts) withDefaults() NewtonOpts {
	if n.MaxNewton <= 0 {
		n.MaxNewton = 50
	}
	if n.ITol <= 0 {
		n.ITol = 1e-9
	}
	if n.RelTol <= 0 {
		n.RelTol = 1e-6
	}
	if n.VNTol <= 0 {
		n.VNTol = 1e-9
	}
	if n.MaxStep <= 0 {
		n.MaxStep = 5
	}
	return n
}

type stepperKey struct {
	dtBits   uint64
	tr, gate bool
}

type steppersCache struct {
	mu sync.Mutex
	m  map[stepperKey]*Stepper
}

type compStepper struct {
	lu  lina.LUWS
	x   []float64 // m×pc: Azz⁻¹·Azp
	apz []float64 // pc×m

	// Precomputed step-recursion operators (see Advance). With
	// R = α·Ĉzz − [tr]Ĝzz and Rp = α·Ĉzp − [tr]Ĝzp:
	wa []float64 // m×m:  Âzz⁻¹·R, so w = WA·z + WB·v directly
	wb []float64 // m×pc: Âzz⁻¹·Rp
	qz []float64 // pc×m: (α·Ĉpz − [tr]Ĝpz) − Âpz·WA, the z-coefficient of ρ
}

// Stepper holds the dense factorizations for one (dt, method) configuration
// of a Model: per-component LU of Âzz = Ĝzz + α·Ĉzz, the port-coupling
// solves X = Âzz⁻¹·Âzp, and the factored Schur complement
// S = App − Σ Âpz·X. Construction also folds the step recursion into dense
// operators (WA/WB/QZ per component, QP on the ports) so Advance needs no
// triangular solves and touches each history matrix once per step.
// Immutable after construction; safe to share.
type Stepper struct {
	tr    bool
	comps []compStepper
	s     []float64 // p×p Schur complement (unfactored copy, Newton base)
	slu   lina.LUWS
	qp    []float64 // p×p: (α·Ĉpp − [tr]App) − Σ Âpz·WB, the v-coefficient of ρ
}

// PrepStepper returns (building and caching on first use) the stepper for
// one time step of size dt, trapezoidal when tr is true.
func (m *Model) PrepStepper(dt float64, tr bool) (*Stepper, error) {
	return m.prep(dt, tr, false)
}

// StepIsTR reports whether 1-based step i of a run uses the trapezoidal
// rule (false: backward Euler — either the whole run is BE or i is within
// the BE startup window): the schedule the accuracy gate validates.
func (m *Model) StepIsTR(i int) bool {
	return m.tr && i > m.beSteps
}

func (m *Model) prep(dt float64, tr, gate bool) (*Stepper, error) {
	key := stepperKey{math.Float64bits(dt), tr, gate}
	sc := &m.steppers
	sc.mu.Lock()
	if st, ok := sc.m[key]; ok {
		sc.mu.Unlock()
		return st, nil
	}
	sc.mu.Unlock()
	st, err := m.buildStepper(dt, tr, gate)
	if err != nil {
		return nil, err
	}
	sc.mu.Lock()
	if sc.m == nil {
		sc.m = make(map[stepperKey]*Stepper)
	}
	if len(sc.m) >= 32 {
		sc.m = make(map[stepperKey]*Stepper)
	}
	sc.m[key] = st
	sc.mu.Unlock()
	return st, nil
}

func (m *Model) buildStepper(dt float64, tr, gate bool) (*Stepper, error) {
	if dt <= 0 {
		return nil, diag.Domainf("mor.stepper", "non-positive dt %g", dt)
	}
	// dt = +Inf is the α=0 sentinel: A = G, used for moment recursions.
	alpha := 1 / dt
	if tr {
		alpha = 2 / dt
	}
	p := len(m.Ports)
	st := &Stepper{tr: tr}
	app := m.gpp
	if gate {
		app = m.gppGate
	}
	s := make([]float64, p*p)
	for i := range s {
		s[i] = app[i] + alpha*m.cpp[i]
	}
	st.comps = make([]compStepper, len(m.comps))
	var azz, col, sol []float64
	for ci, c := range m.comps {
		md, pc := c.m, len(c.ports)
		cs := &st.comps[ci]
		azz = growF(azz, md*md)
		for i := 0; i < md*md; i++ {
			azz[i] = c.gzz[i] + alpha*c.czz[i]
		}
		if err := cs.lu.FactorInto(azz[:md*md], md); err != nil {
			return nil, wrapErr(diag.ErrSingularJacobian, "mor.stepper", err)
		}
		cs.x = make([]float64, md*pc)
		cs.apz = make([]float64, pc*md)
		for i := range cs.apz {
			cs.apz[i] = c.gpz[i] + alpha*c.cpz[i]
		}
		col = growF(col, md)
		sol = growF(sol, md)
		for j := 0; j < pc; j++ {
			for i := 0; i < md; i++ {
				col[i] = c.gzp[i*pc+j] + alpha*c.czp[i*pc+j]
			}
			cs.lu.SolveInto(sol[:md], col[:md])
			for i := 0; i < md; i++ {
				cs.x[i*pc+j] = sol[i]
			}
		}
		// S −= Âpz·X, scattered through the component's port map.
		for pi := 0; pi < pc; pi++ {
			gi := c.ports[pi]
			for pj := 0; pj < pc; pj++ {
				acc := 0.0
				for k := 0; k < md; k++ {
					acc += cs.apz[pi*md+k] * cs.x[k*pc+pj]
				}
				s[gi*p+c.ports[pj]] -= acc
			}
		}
	}
	st.s = s
	if err := st.slu.FactorInto(s, p); err != nil {
		return nil, wrapErr(diag.ErrSingularJacobian, "mor.stepper", err)
	}

	// Fold the step recursion into dense operators. With the history matrix
	// R = α·Ĉ − [tr]Ĝ partitioned like A, precompute WA = Âzz⁻¹·Rzz,
	// WB = Âzz⁻¹·Rzp, QZ = Rpz − Âpz·WA and QP = Rpp − Σ Âpz·WB so that a
	// step needs only w = WA·z + WB·v and ρ = QP·v + Σ QZ·z + (sources, f).
	tf := 0.0
	if tr {
		tf = 1
	}
	qp := make([]float64, p*p)
	for i := range qp {
		qp[i] = alpha*m.cpp[i] - tf*app[i]
	}
	for ci, c := range m.comps {
		md, pc := c.m, len(c.ports)
		cs := &st.comps[ci]
		cs.wa = make([]float64, md*md)
		cs.wb = make([]float64, md*pc)
		cs.qz = make([]float64, pc*md)
		col = growF(col, md)
		sol = growF(sol, md)
		for j := 0; j < md; j++ {
			for i := 0; i < md; i++ {
				col[i] = alpha*c.czz[i*md+j] - tf*c.gzz[i*md+j]
			}
			cs.lu.SolveInto(sol[:md], col[:md])
			for i := 0; i < md; i++ {
				cs.wa[i*md+j] = sol[i]
			}
		}
		for j := 0; j < pc; j++ {
			for i := 0; i < md; i++ {
				col[i] = alpha*c.czp[i*pc+j] - tf*c.gzp[i*pc+j]
			}
			cs.lu.SolveInto(sol[:md], col[:md])
			for i := 0; i < md; i++ {
				cs.wb[i*pc+j] = sol[i]
			}
		}
		for pi := 0; pi < pc; pi++ {
			gi := c.ports[pi]
			for j := 0; j < md; j++ {
				acc := alpha*c.cpz[pi*md+j] - tf*c.gpz[pi*md+j]
				for k := 0; k < md; k++ {
					acc -= cs.apz[pi*md+k] * cs.wa[k*md+j]
				}
				cs.qz[pi*md+j] = acc
			}
			for pj := 0; pj < pc; pj++ {
				acc := 0.0
				for k := 0; k < md; k++ {
					acc += cs.apz[pi*md+k] * cs.wb[k*pc+pj]
				}
				qp[gi*p+c.ports[pj]] -= acc
			}
		}
	}
	st.qp = qp
	return st, nil
}

func growF(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// Run is the mutable per-transient state of a reduced model: port values and
// per-component reduced coordinates. The integration scheme is stateless
// beyond x itself — the trapezoidal history term is recovered from the
// previous step's converged residual (see Advance) — so a Run is fully
// described by (T, v, z). Not safe for concurrent use; multiple Runs may
// share one Model.
type Run struct {
	model *Model
	T     float64

	v []float64
	z [][]float64

	// scratch
	rhat, w             [][]float64
	rho                 []float64
	vNew, dv, phi, vOld []float64
	fprev, fnl          []float64
	jac, jtmp           []float64
	nlu                 lina.LUWS

	// fprevFor is the time whose converged nonlinear residual f(x) is cached
	// in fprev (NaN: none). A trapezoidal step at r.T == fprevFor reuses the
	// cache instead of re-evaluating the port devices.
	fprevFor float64
}

// NewRun returns a fresh run positioned at t=0 in the model's initial state.
func (m *Model) NewRun() *Run {
	p := len(m.Ports)
	r := &Run{
		model:    m,
		v:        append([]float64(nil), m.x0p...),
		rho:      make([]float64, p),
		vNew:     make([]float64, p),
		dv:       make([]float64, p),
		phi:      make([]float64, p),
		vOld:     make([]float64, p),
		fprev:    make([]float64, p),
		fnl:      make([]float64, p),
		jac:      make([]float64, p*p),
		jtmp:     make([]float64, p*p),
		fprevFor: math.NaN(),
	}
	for ci, c := range m.comps {
		r.z = append(r.z, append([]float64(nil), m.z0[ci]...))
		r.rhat = append(r.rhat, make([]float64, c.m))
		r.w = append(r.w, make([]float64, c.m))
	}
	return r
}

// PortValues returns the current port-row values (live slice; read-only,
// valid until the next Advance).
func (r *Run) PortValues() []float64 { return r.v }

// ComponentDims returns the reduced dimension of each connected component,
// in component order — diagnostic detail for reports and logs.
func (m *Model) ComponentDims() []int {
	dims := make([]int, len(m.comps))
	for i, c := range m.comps {
		dims[i] = c.m
	}
	return dims
}

// ExpandInto reconstructs the full-space state x = [v; V·z] (length N).
func (r *Run) ExpandInto(x []float64) {
	m := r.model
	for i := range x {
		x[i] = 0
	}
	for pi, row := range m.Ports {
		x[row] = r.v[pi]
	}
	for ci, c := range m.comps {
		z := r.z[ci]
		for col := 0; col < c.m; col++ {
			vc := c.v[col*c.dim : (col+1)*c.dim]
			zc := z[col]
			if zc == 0 {
				continue
			}
			for i, row := range c.rows {
				x[row] += vc[i] * zc
			}
		}
	}
}

// RunState is a serializable snapshot of a Run (checkpoint support). The
// scheme is stateless beyond x, so (T, V, Z) restores bit-exact continuation.
type RunState struct {
	T float64
	V []float64
	Z [][]float64
}

// CaptureState deep-copies the run state.
func (r *Run) CaptureState() RunState {
	s := RunState{
		T: r.T,
		V: append([]float64(nil), r.v...),
	}
	for ci := range r.z {
		s.Z = append(s.Z, append([]float64(nil), r.z[ci]...))
	}
	return s
}

// RestoreState loads a snapshot captured from a run of the same model.
func (r *Run) RestoreState(s RunState) error {
	if len(s.V) != len(r.v) || len(s.Z) != len(r.z) {
		return diag.Domainf("mor.RestoreState", "snapshot shape does not match the model")
	}
	for ci := range r.z {
		if len(s.Z[ci]) != len(r.z[ci]) {
			return diag.Domainf("mor.RestoreState", "snapshot component %d shape mismatch", ci)
		}
	}
	r.T = s.T
	copy(r.v, s.V)
	for ci := range r.z {
		copy(r.z[ci], s.Z[ci])
	}
	r.fprevFor = math.NaN() // snapshot carries no residual cache
	return nil
}

// Advance takes one reduced time step to tNew using the prepared stepper.
// u is the port-local source vector at tNew and uPrev the same vector at the
// run's current time (nil: none; uPrev is only read on trapezoidal steps);
// pe the nonlinear port devices (nil: pure linear solve). It returns the
// Newton iteration count. On error the run state is unchanged.
//
// Integration is plain backward Euler or trapezoidal on the reduced system
// Ĝ·x + f(x) + Ĉ·ẋ = u. The trapezoidal right-hand side
// (αĈ − Ĝ)·x_n − f(x_n) + u_n + u_{n+1} recovers the storage-element history
// from the previous step's converged residual — algebraically identical to
// the full solver's per-element companion recursion, and unconditionally
// stable on the congruence-projected (passive) system — provided the run
// opened with at least one BE step (Reduce enforces this for validated
// models).
func (r *Run) Advance(st *Stepper, tNew float64, u, uPrev []float64, pe PortEval, no NewtonOpts) (int, error) {
	m := r.model
	p := len(m.Ports)

	// Internal history wᵢ = Âzzᵢ⁻¹·r̂ᵢ via the precomputed recursion
	// operators: w = WA·z + WB·v (see buildStepper).
	for ci, c := range m.comps {
		md, pc := c.m, len(c.ports)
		w, z := r.w[ci], r.z[ci]
		cs := &st.comps[ci]
		for i := 0; i < md; i++ {
			s := 0.0
			rowA := cs.wa[i*md : (i+1)*md]
			for k, zk := range z {
				s += rowA[k] * zk
			}
			rowB := cs.wb[i*pc : (i+1)*pc]
			for j, gp := range c.ports {
				s += rowB[j] * r.v[gp]
			}
			w[i] = s
		}
	}

	// Schur-reduced port right-hand side, history folded in at build time:
	// ρ = QP·v + Σ QZᵢ·zᵢ + u' [TR: + u_n − f(x_n)].
	denseMV(st.qp, p, r.v, r.rho)
	for ci, c := range m.comps {
		z := r.z[ci]
		md := c.m
		cs := &st.comps[ci]
		for pi, gp := range c.ports {
			s := 0.0
			row := cs.qz[pi*md : (pi+1)*md]
			for k, zk := range z {
				s += row[k] * zk
			}
			r.rho[gp] += s
		}
	}
	if st.tr && pe != nil && r.fprevFor != r.T {
		pe.Eval(r.v, zero(r.fprev), zero(r.jtmp))
	}
	for i := 0; i < p; i++ {
		s := r.rho[i]
		if st.tr {
			if pe != nil {
				s -= r.fprev[i]
			}
			if uPrev != nil {
				s += uPrev[i]
			}
		}
		if u != nil {
			s += u[i]
		}
		r.rho[i] = s
	}

	// Port solve: direct for linear circuits, Newton otherwise.
	iters := 0
	if pe == nil {
		st.slu.SolveInto(r.vNew, r.rho)
	} else {
		var err error
		iters, err = r.newtonPorts(st, pe, no)
		if err != nil {
			return iters, err
		}
		// newtonPorts left f(v_converged) in fnl; it is the next step's
		// trapezoidal history residual.
		copy(r.fprev, r.fnl)
		r.fprevFor = tNew
	}

	// Back-substitute internals: z′ᵢ = wᵢ − Xᵢ·v′ (into rhat scratch).
	for ci, c := range m.comps {
		cs := &st.comps[ci]
		md, pc := c.m, len(c.ports)
		zn, w := r.rhat[ci], r.w[ci]
		for i := 0; i < md; i++ {
			s := w[i]
			row := cs.x[i*pc : (i+1)*pc]
			for j, gp := range c.ports {
				s -= row[j] * r.vNew[gp]
			}
			zn[i] = s
		}
	}

	// Commit.
	copy(r.v, r.vNew)
	for ci := range m.comps {
		copy(r.z[ci], r.rhat[ci])
	}
	r.T = tNew
	return iters, nil
}

// newtonPorts solves φ(v) = S·v + i_nl(v) − ρ = 0 on the p-dimensional port
// system, mirroring the full solver's convergence criteria (residual below
// ITol and update below VNTol + RelTol·|v|).
func (r *Run) newtonPorts(st *Stepper, pe PortEval, no NewtonOpts) (int, error) {
	no = no.withDefaults()
	p := len(r.model.Ports)
	copy(r.vNew, r.v) // warm start from the previous step
	lastDx := math.Inf(1)
	for it := 1; it <= no.MaxNewton; it++ {
		r.evalPhi(st, pe)
		norm := infNorm(r.phi)
		if math.IsNaN(norm) || math.IsInf(norm, 0) {
			// Retreat halfway toward the last accepted iterate.
			retreated := false
			for h := 0; h < 8 && !retreated; h++ {
				for i := 0; i < p; i++ {
					r.vNew[i] = 0.5 * (r.vNew[i] + r.vOld[i])
				}
				r.evalPhi(st, pe)
				norm = infNorm(r.phi)
				retreated = !math.IsNaN(norm) && !math.IsInf(norm, 0)
			}
			if !retreated {
				return it, diag.New(diag.ErrNonConvergence, "mor.newton")
			}
		}
		vn := infNorm(r.vNew)
		if norm < no.ITol && lastDx < no.VNTol+no.RelTol*vn {
			return it, nil
		}
		if err := r.nlu.FactorInto(r.jac, p); err != nil {
			return it, wrapErr(diag.ErrSingularJacobian, "mor.newton", err)
		}
		r.nlu.SolveInto(r.dv, r.phi)
		copy(r.vOld, r.vNew)
		lastDx = 0
		for i := 0; i < p; i++ {
			d := -r.dv[i]
			if d > no.MaxStep {
				d = no.MaxStep
			} else if d < -no.MaxStep {
				d = -no.MaxStep
			}
			r.vNew[i] += d
			if a := math.Abs(d); a > lastDx {
				lastDx = a
			}
		}
	}
	return no.MaxNewton, diag.New(diag.ErrNonConvergence, "mor.newton")
}

// evalPhi computes φ(vNew) = S·vNew + f(vNew) − ρ into phi, the Jacobian
// S + ∂f/∂v into jac, and leaves f(vNew) alone in fnl (the trapezoidal
// history cache candidate).
func (r *Run) evalPhi(st *Stepper, pe PortEval) {
	p := len(r.model.Ports)
	denseMV(st.s, p, r.vNew, r.phi)
	copy(r.jac, st.s)
	pe.Eval(r.vNew, zero(r.fnl), r.jac)
	for i := 0; i < p; i++ {
		r.phi[i] += r.fnl[i] - r.rho[i]
	}
}

// solveCoupled solves the α-form system [S-structure] for arbitrary
// right-hand sides (rhsP on ports, rhsZ per component): the moment
// recursion of the accuracy gate. Outputs overwrite outV/outZ.
func (st *Stepper) solveCoupled(m *Model, rhsP []float64, rhsZ [][]float64, outV []float64, outZ, wtmp [][]float64) {
	p := len(m.Ports)
	for ci := range m.comps {
		st.comps[ci].lu.SolveInto(wtmp[ci], rhsZ[ci])
	}
	copy(outV, rhsP)
	for ci, c := range m.comps {
		md := c.m
		cs := &st.comps[ci]
		w := wtmp[ci]
		for pi, gp := range c.ports {
			s := 0.0
			row := cs.apz[pi*md : (pi+1)*md]
			for k, wk := range w {
				s += row[k] * wk
			}
			outV[gp] -= s
		}
	}
	v := make([]float64, p)
	st.slu.SolveInto(v, outV)
	copy(outV, v)
	for ci, c := range m.comps {
		cs := &st.comps[ci]
		md, pc := c.m, len(c.ports)
		w, zo := wtmp[ci], outZ[ci]
		for i := 0; i < md; i++ {
			s := w[i]
			row := cs.x[i*pc : (i+1)*pc]
			for j, gp := range c.ports {
				s -= row[j] * outV[gp]
			}
			zo[i] = s
		}
	}
}

// denseMV computes y = A·x for a dense row-major n×n matrix.
func denseMV(a []float64, n int, x, y []float64) {
	for i := 0; i < n; i++ {
		row := a[i*n : (i+1)*n]
		s := 0.0
		for j, xj := range x {
			s += row[j] * xj
		}
		y[i] = s
	}
}

func infNorm(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
