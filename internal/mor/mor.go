// Package mor builds Krylov reduced-order models of the linear partition of
// an MNA system — the PRIMA-style projection framework behind the transient
// fast path for long RLC interconnect ladders (the paper's Fig9–12 class of
// workloads, where time-stepping a few-hundred-unknown ladder for tens of
// thousands of steps dominates everything else).
//
// The caller (internal/spice) partitions the circuit's rows into a small
// retained "port" set — rows stamped or read by nonlinear devices, rows
// carrying independent-source terms, and probe rows — and the internal
// remainder, and hands over the linear-partition matrices G and C (residual
// form res = G·x + C·ẋ − u). This package then:
//
//   - splits the internal rows into connected components (a ring oscillator's
//     five identical ladders reduce independently, keeping the reduced system
//     block-diagonal),
//   - builds, once, a per-component orthonormal basis V for the block-Krylov
//     space K(A₀⁻¹·C_zz, A₀⁻¹·B), A₀ = G_zz + s₀·C_zz, via sparse LU solves
//     and modified Gram–Schmidt, up to saturation or maxCols columns, with
//     the initial state appended as an extra start column so z₀ = Vᵀx₀ is
//     exact,
//   - forms the congruence-projected reduced blocks (VᵀGV, VᵀCV, and the
//     port couplings), the passivity-friendly PRIMA construction,
//   - vetoes a model that leaves no headroom against N, then validates the
//     reduction once with a differential accuracy gate: a full-space linear
//     reference transient versus the reduced stepper, both at the output
//     timestep, compared as relative RMS waveform error at the retained rows
//     — accepting the model or rejecting the reduction outright so the
//     caller falls back to the full solver.
//
// A validated Model is immutable and safe for concurrent use; per-run
// mutable state lives in Run (stepper.go).
package mor

import (
	"fmt"
	"math"
	"slices"

	"rlcint/internal/diag"
	"rlcint/internal/sparse"
)

// System is the linear partition of an MNA system in residual form
// res(x, t) = G·x + C·ẋ − u(t), with u supported only on port rows.
type System struct {
	N       int
	Pattern *sparse.CSC // shared sparsity pattern; Pattern.X is ignored
	G, C    []float64   // linear-partition values on Pattern (len nnz)
	// GGate optionally adds the port-row linearization of the nonlinear
	// devices at X0 to G (same pattern). The accuracy gate steps this
	// closed system; nil means G (fully linear circuit).
	GGate []float64
	// Ports are the retained global rows, in port-index order. Sources,
	// probes, and nonlinear device terminals must all be port rows.
	Ports []int
	// X0 is the initial state (length N).
	X0 []float64
	// U fills the port-local source vector u_p at time t (nil: no sources).
	U func(t float64, up []float64)
	// U0 is a constant port-local source term for the gate's linearized
	// system: i_nl(x0) − J_nl(x0)·v0, the affine offset of the nonlinear
	// devices' linearization (nil: zero).
	U0 []float64
}

// Reduction constants. Each component's basis grows until its Krylov space
// saturates or it reaches maxCols columns; at full dimension the projection
// is exact.
const (
	maxCols = 48
	// GateTol is the accuracy gate's relative RMS waveform-error tolerance.
	GateTol = 1e-4
	// gateWindow is the reference transient's length in output steps (capped
	// at the run's length).
	gateWindow = 1200
	// maxDimFrac vetoes reductions whose total reduced dimension (ports +
	// Σ columns) exceeds this fraction of N: a reduction that barely shrinks
	// the system is all risk, no win.
	maxDimFrac = 0.85
)

// Options describe the run a reduction is built and gated for.
type Options struct {
	// DT and NSteps describe the target run's output grid; TR selects
	// trapezoidal integration with BESteps backward-Euler startup steps.
	DT      float64
	NSteps  int
	TR      bool
	BESteps int
	// Injector injects build faults for testing ("mor.build",
	// "mor.arnoldi", "mor.gate"); Report collects the gate attempt. Both may
	// be nil.
	Injector *diag.Injector
	Report   *diag.Report
}

// wrapErr builds a typed diag error of the given kind wrapping cause.
func wrapErr(kind error, op string, cause error) *diag.Error {
	e := diag.New(kind, op)
	e.Err = cause
	return e
}

// component is one connected block of internal rows with its Krylov basis
// and congruence-projected reduced matrices.
type component struct {
	rows  []int     // global row indices
	ports []int     // port indices (into System.Ports) this component couples to
	dim   int       // len(rows)
	m     int       // reduced order
	v     []float64 // basis, column-major dim×m: v[c*dim+i]

	// Reduced blocks, dense row-major. Suffixes: zz m×m, zp m×pc, pz pc×m.
	gzz, czz []float64
	gzp, czp []float64
	gpz, cpz []float64
}

// Model is a validated reduced-order model: immutable after Reduce, safe to
// share across concurrent runs. Per-timestep factorizations are prepared
// lazily and cached under mu (stepper.go).
type Model struct {
	N     int
	Ports []int
	comps []*component

	gpp, cpp []float64 // p×p dense port blocks (linear partition)
	gppGate  []float64 // port block with the nonlinear linearization folded in

	x0p []float64   // initial port values
	z0  [][]float64 // initial reduced state per component

	// GateErr is the measured relative RMS error of the accuracy gate;
	// Order the total reduced internal dimension Σ mᵢ.
	GateErr float64
	Order   int

	tr      bool
	beSteps int

	steppers steppersCache
}

// TotalOrder returns the reduced internal dimension Σ mᵢ.
func (m *Model) TotalOrder() int { return m.Order }

// NumPorts returns the retained port count.
func (m *Model) NumPorts() int { return len(m.Ports) }

// Reduce builds and gate-validates a reduced-order model of sys for the run
// shape described by opts. A nil model with a non-nil error means the
// reduction was rejected (gate failure, singular internal block, injected
// fault, unfavourable dimensions) and the caller must use the full solver.
// It builds at most one model and records at most one "mor-gate" attempt.
func Reduce(sys *System, opts Options) (*Model, error) {
	m, err := build(sys, opts)
	if err != nil {
		return nil, err
	}
	if m.Order+len(m.Ports) > int(maxDimFrac*float64(sys.N)) {
		de := diag.Domainf("mor.Reduce", "reduced dim %d+%d leaves no headroom against N=%d",
			m.Order, len(m.Ports), sys.N)
		opts.Report.Record("mor-gate", fmt.Sprintf("order=%d", m.Order), diag.OutcomeSkipped, de.Detail, nil)
		return nil, de
	}
	if err := m.gate(sys, opts); err != nil {
		return nil, err
	}
	return m, nil
}

// gate runs the linearized accuracy gate once, records the attempt, and
// sets m.GateErr; it returns a typed error when the model is rejected.
func (m *Model) gate(sys *System, opts Options) error {
	ref, err := gateReference(sys, opts, min(opts.NSteps, gateWindow))
	if err != nil {
		return err
	}
	gerr, err := m.gateError(sys, opts, ref)
	if err != nil {
		return err
	}
	rung := fmt.Sprintf("order=%d", m.Order)
	detail := fmt.Sprintf("relerr=%.3g", gerr)
	if !(gerr <= GateTol) {
		de := diag.New(diag.ErrNonConvergence, "mor.Reduce")
		de.Detail = fmt.Sprintf("accuracy gate rejected the reduction at order %d: %s above tol %g", m.Order, detail, GateTol)
		opts.Report.Record("mor-gate", rung, diag.OutcomeFailed, detail, de)
		return de
	}
	opts.Report.Record("mor-gate", rung, diag.OutcomeOK, detail, nil)
	m.GateErr = gerr
	return nil
}

func validateSystem(sys *System) error {
	if sys == nil || sys.Pattern == nil {
		return diag.Domainf("mor.Reduce", "nil system")
	}
	n := sys.N
	if n <= 0 || sys.Pattern.N != n || len(sys.X0) != n {
		return diag.Domainf("mor.Reduce", "inconsistent system dimensions")
	}
	nnz := sys.Pattern.NNZ()
	if len(sys.G) != nnz || len(sys.C) != nnz || (sys.GGate != nil && len(sys.GGate) != nnz) {
		return diag.Domainf("mor.Reduce", "value arrays do not match the pattern")
	}
	if len(sys.Ports) == 0 || len(sys.Ports) >= n {
		return diag.Domainf("mor.Reduce", "need 1..N-1 ports, have %d of %d", len(sys.Ports), n)
	}
	seen := make(map[int]bool, len(sys.Ports))
	for _, r := range sys.Ports {
		if r < 0 || r >= n || seen[r] {
			return diag.Domainf("mor.Reduce", "bad port row %d", r)
		}
		seen[r] = true
	}
	for _, x := range sys.X0 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return diag.Domainf("mor.Reduce", "non-finite initial state")
		}
	}
	return nil
}

// partition labels the internal rows by connected component of the
// pattern's internal×internal adjacency and records which ports each
// component couples to.
func partition(sys *System) []*component {
	n := sys.N
	isPort := make([]bool, n)
	for _, r := range sys.Ports {
		isPort[r] = true
	}
	label := make([]int, n)
	for i := range label {
		label[i] = -1
	}
	pat := sys.Pattern
	var comps []*component
	stack := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if isPort[s] || label[s] >= 0 {
			continue
		}
		id := len(comps)
		c := &component{}
		stack = append(stack[:0], s)
		label[s] = id
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			c.rows = append(c.rows, r)
			// Neighbours: entries in column r (rows) and row r (columns).
			// The pattern is structurally symmetric for MNA stamps, but walk
			// the column direction both ways to be safe: scan column r for
			// row-neighbours, and scan all columns for row r via the
			// transpose-free fallback below being O(nnz) once per component
			// would be wasteful — MNA stamp patterns are symmetric (every
			// coupling stamps both (i,j) and (j,i)), so column adjacency
			// suffices.
			for p := pat.P[r]; p < pat.P[r+1]; p++ {
				nb := pat.I[p]
				if !isPort[nb] && label[nb] < 0 {
					label[nb] = id
					stack = append(stack, nb)
				}
			}
		}
		c.dim = len(c.rows)
		comps = append(comps, c)
	}
	// Port coupling per component: any entry linking a component row with a
	// port row (either direction).
	portIdx := make([]int, n)
	for i := range portIdx {
		portIdx[i] = -1
	}
	for pi, r := range sys.Ports {
		portIdx[r] = pi
	}
	touch := make(map[int]map[int]bool)
	for j := 0; j < n; j++ {
		for p := pat.P[j]; p < pat.P[j+1]; p++ {
			i := pat.I[p]
			var cid, pid int
			switch {
			case label[i] >= 0 && portIdx[j] >= 0:
				cid, pid = label[i], portIdx[j]
			case label[j] >= 0 && portIdx[i] >= 0:
				cid, pid = label[j], portIdx[i]
			default:
				continue
			}
			if touch[cid] == nil {
				touch[cid] = make(map[int]bool)
			}
			touch[cid][pid] = true
		}
	}
	for cid, c := range comps {
		for pid := range touch[cid] {
			c.ports = append(c.ports, pid)
		}
		slices.Sort(c.ports)
		slices.Sort(c.rows)
	}
	return comps
}

// build validates sys and opts and constructs, in one pass, each connected
// component's Krylov basis (up to saturation or maxCols columns) and the
// reduced blocks. It neither vetoes nor gates the model, and never mutates
// sys.
func build(sys *System, opts Options) (*Model, error) {
	if err := validateSystem(sys); err != nil {
		return nil, err
	}
	if !(opts.DT > 0) || opts.NSteps < 2 {
		return nil, diag.Domainf("mor.Reduce", "bad run grid (dt=%g, steps=%d)", opts.DT, opts.NSteps)
	}
	if opts.TR && opts.BESteps < 1 {
		// The reduced trapezoidal recursion derives its history term from
		// the previous step's converged residual, which requires the run to
		// open with at least one backward-Euler step (the full solver seeds
		// its per-element companion histories the same way).
		return nil, diag.Domainf("mor.Reduce", "trapezoidal runs need >= 1 BE startup step, have %d", opts.BESteps)
	}
	if opts.Injector != nil {
		if err := opts.Injector.At(diag.Site{Op: "mor.build"}); err != nil {
			return nil, wrapErr(diag.ErrNonConvergence, "mor.Reduce", err)
		}
	}
	comps := partition(sys)
	intDim := 0
	for _, c := range comps {
		intDim += c.dim
	}
	if intDim < 8 {
		return nil, diag.Domainf("mor.Reduce", "internal dimension %d too small to be worth reducing", intDim)
	}
	n := sys.N
	p := len(sys.Ports)
	m := &Model{
		N:       n,
		Ports:   append([]int(nil), sys.Ports...),
		comps:   comps,
		tr:      opts.TR,
		beSteps: opts.BESteps,
	}
	// Dense port blocks.
	m.gpp = extractDense(sys.Pattern, sys.G, sys.Ports, sys.Ports)
	m.cpp = extractDense(sys.Pattern, sys.C, sys.Ports, sys.Ports)
	if sys.GGate != nil {
		m.gppGate = extractDense(sys.Pattern, sys.GGate, sys.Ports, sys.Ports)
	} else {
		m.gppGate = m.gpp
	}
	m.x0p = make([]float64, p)
	for pi, r := range sys.Ports {
		m.x0p[pi] = sys.X0[r]
	}
	m.z0 = make([][]float64, len(comps))
	for ci, c := range comps {
		if err := c.buildBasis(sys, opts); err != nil {
			return nil, err
		}
		c.project(sys)
		// z0 = Vᵀ x0 restricted to the component (x0 is in span(V) by
		// construction — it seeds the start block).
		z := make([]float64, c.m)
		for col := 0; col < c.m; col++ {
			s := 0.0
			vc := c.v[col*c.dim : (col+1)*c.dim]
			for i, r := range c.rows {
				s += vc[i] * sys.X0[r]
			}
			z[col] = s
		}
		m.z0[ci] = z
		m.Order += c.m
	}
	return m, nil
}

// extractDense gathers the (rows × cols) block of the pattern into a dense
// row-major matrix.
func extractDense(pat *sparse.CSC, vals []float64, rows, cols []int) []float64 {
	rowIdx := make(map[int]int, len(rows))
	for i, r := range rows {
		rowIdx[r] = i
	}
	out := make([]float64, len(rows)*len(cols))
	for cj, j := range cols {
		for p := pat.P[j]; p < pat.P[j+1]; p++ {
			if ri, ok := rowIdx[pat.I[p]]; ok {
				out[ri*len(cols)+cj] += vals[p]
			}
		}
	}
	return out
}

// buildBasis builds the component's orthonormal Krylov basis of up to
// maxCols columns: start block A₀⁻¹·[G_zp | C_zp] plus the raw initial
// state, then Krylov levels w ← A₀⁻¹·(C_zz·w), modified Gram–Schmidt
// throughout.
func (c *component) buildBasis(sys *System, opts Options) error {
	if opts.Injector != nil {
		if err := opts.Injector.At(diag.Site{Op: "mor.arnoldi", Step: c.dim}); err != nil {
			return wrapErr(diag.ErrNonConvergence, "mor.arnoldi", err)
		}
	}
	dim := c.dim
	order := min(maxCols, dim)
	keep := make([]int, sys.N)
	for i := range keep {
		keep[i] = -1
	}
	for i, r := range c.rows {
		keep[r] = i
	}
	// Expansion matrix A₀ = G_zz + s₀·C_zz: the shifted (frequency-domain)
	// operating point. The mild s₀ = 1/(256·DT) is accuracy-neutral versus
	// classical s₀ = 0 moment matching on damped lines, but keeps A₀
	// factorizable when an internal block is purely reactive (singular
	// G_zz).
	s0 := 1 / (256 * opts.DT)
	avals := make([]float64, len(sys.G))
	for i := range avals {
		avals[i] = sys.G[i] + s0*sys.C[i]
	}
	azz := sys.Pattern.ExtractWith(avals, keep, dim)
	czz := sys.Pattern.ExtractWith(sys.C, keep, dim)
	lu := sparse.Workspace(dim)
	if err := lu.Factorize(azz, 1); err != nil {
		return wrapErr(diag.ErrSingularJacobian, "mor.arnoldi",
			fmt.Errorf("singular internal conductance block (dim %d): %w", dim, err))
	}

	// Start columns: port couplings through G and C, then the initial state.
	var starts [][]float64
	for _, pi := range c.ports {
		col := sys.Ports[pi]
		bg := gatherColumn(sys.Pattern, sys.G, col, keep, dim)
		bc := gatherColumn(sys.Pattern, sys.C, col, keep, dim)
		if bg != nil {
			w := make([]float64, dim)
			lu.SolveInto(w, bg)
			starts = append(starts, w)
		}
		if bc != nil {
			w := make([]float64, dim)
			lu.SolveInto(w, bc)
			starts = append(starts, w)
		}
	}
	x0 := make([]float64, dim)
	nz := false
	for i, r := range c.rows {
		x0[i] = sys.X0[r]
		nz = nz || x0[i] != 0
	}
	if nz {
		starts = append(starts, x0)
	}
	if len(starts) == 0 {
		// A component with no port coupling and zero initial state never
		// moves; represent it with a single unit vector so the bookkeeping
		// stays uniform.
		e := make([]float64, dim)
		e[0] = 1
		starts = append(starts, e)
	}

	c.v = c.v[:0]
	c.m = 0
	level := make([][]float64, 0, len(starts))
	for _, w := range starts {
		if c.mgsAppend(w) && c.m < order {
			level = append(level, c.lastCol())
		}
	}
	tmp := make([]float64, dim)
	for c.m < order && len(level) > 0 {
		next := level[:0:0]
		for _, vcol := range level {
			if c.m >= order {
				break
			}
			for i := range tmp {
				tmp[i] = 0
			}
			czz.GaxpyWith(czz.X, vcol, tmp)
			w := make([]float64, dim)
			lu.SolveInto(w, tmp)
			if c.mgsAppend(w) {
				next = append(next, c.lastCol())
			}
		}
		if len(next) == 0 {
			break // Krylov space saturated below the requested order
		}
		level = next
	}
	return nil
}

// gatherColumn returns the internal-row entries of the pattern's global
// column col as a dense component-local vector, or nil when empty.
func gatherColumn(pat *sparse.CSC, vals []float64, col int, keep []int, dim int) []float64 {
	var out []float64
	for p := pat.P[col]; p < pat.P[col+1]; p++ {
		if i := keep[pat.I[p]]; i >= 0 && vals[p] != 0 {
			if out == nil {
				out = make([]float64, dim)
			}
			out[i] += vals[p]
		}
	}
	return out
}

// mgsAppend orthogonalizes w against the basis (modified Gram–Schmidt, one
// re-orthogonalization pass) and appends it when independent; it reports
// whether a column was added. w is consumed.
func (c *component) mgsAppend(w []float64) bool {
	dim := c.dim
	norm0 := vecNorm(w)
	if norm0 == 0 {
		return false
	}
	for pass := 0; pass < 2; pass++ {
		for col := 0; col < c.m; col++ {
			vc := c.v[col*dim : (col+1)*dim]
			d := 0.0
			for i, x := range vc {
				d += x * w[i]
			}
			for i, x := range vc {
				w[i] -= d * x
			}
		}
	}
	norm := vecNorm(w)
	if norm <= 1e-10*norm0 {
		return false
	}
	inv := 1 / norm
	for i := range w {
		w[i] *= inv
	}
	c.v = append(c.v, w...)
	c.m++
	return true
}

func (c *component) lastCol() []float64 {
	return c.v[(c.m-1)*c.dim : c.m*c.dim]
}

func vecNorm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// project forms the congruence-reduced blocks VᵀMV and the port couplings.
func (c *component) project(sys *System) {
	dim, m, pc := c.dim, c.m, len(c.ports)
	keep := make([]int, sys.N)
	for i := range keep {
		keep[i] = -1
	}
	for i, r := range c.rows {
		keep[r] = i
	}
	gzz := sys.Pattern.ExtractWith(sys.G, keep, dim)
	czz := sys.Pattern.ExtractWith(sys.C, keep, dim)

	c.gzz = make([]float64, m*m)
	c.czz = make([]float64, m*m)
	c.gzp = make([]float64, m*pc)
	c.czp = make([]float64, m*pc)
	c.gpz = make([]float64, pc*m)
	c.cpz = make([]float64, pc*m)

	y := make([]float64, dim)
	// zz blocks: columns are M·v_j projected through Vᵀ.
	projectCols := func(mat *sparse.CSC, vals []float64, out []float64) {
		for j := 0; j < m; j++ {
			vj := c.v[j*dim : (j+1)*dim]
			for i := range y {
				y[i] = 0
			}
			mat.GaxpyWith(vals, vj, y)
			for col := 0; col < m; col++ {
				vc := c.v[col*dim : (col+1)*dim]
				s := 0.0
				for i, x := range vc {
					s += x * y[i]
				}
				out[col*m+j] = s
			}
		}
	}
	projectCols(gzz, gzz.X, c.gzz)
	projectCols(czz, czz.X, c.czz)

	// zp blocks: global port columns restricted to internal rows.
	for pj, pi := range c.ports {
		col := sys.Ports[pi]
		for _, blk := range []struct {
			vals []float64
			out  []float64
		}{
			{sys.G, c.gzp},
			{sys.C, c.czp},
		} {
			b := gatherColumn(sys.Pattern, blk.vals, col, keep, dim)
			if b == nil {
				continue
			}
			for row := 0; row < m; row++ {
				vc := c.v[row*dim : (row+1)*dim]
				s := 0.0
				for i, x := range vc {
					s += x * b[i]
				}
				blk.out[row*pc+pj] = s
			}
		}
	}

	// pz blocks: port-row entries of internal columns, times the basis.
	portIdx := make(map[int]int, pc)
	for pj, pi := range c.ports {
		portIdx[sys.Ports[pi]] = pj
	}
	pat := sys.Pattern
	for j := 0; j < sys.N; j++ {
		cj := keep[j]
		if cj < 0 {
			continue
		}
		for p := pat.P[j]; p < pat.P[j+1]; p++ {
			pj, ok := portIdx[pat.I[p]]
			if !ok {
				continue
			}
			gv, cv := sys.G[p], sys.C[p]
			if gv == 0 && cv == 0 {
				continue
			}
			for col := 0; col < m; col++ {
				x := c.v[col*dim+cj]
				if x == 0 {
					continue
				}
				c.gpz[pj*m+col] += gv * x
				c.cpz[pj*m+col] += cv * x
			}
		}
	}
}
