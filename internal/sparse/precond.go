package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrPrecondBreakdown is returned when a preconditioner cannot be built on
// the given values (a non-positive diagonal or a singular coarsest level of
// the AMG hierarchy, a zero ILU(0) pivot, a missing diagonal entry). It
// signals "this matrix is not a good fit for the iterative path", not
// singularity: the Engine responds by falling back to the direct solver,
// which applies full pivoting.
var ErrPrecondBreakdown = fmt.Errorf("sparse: preconditioner breakdown")

// Smoothed-aggregation AMG constants. They are properties of the method on
// the SPD conductance matrices the CG path serves, not tuning knobs.
const (
	// amgTheta is the strength-of-connection threshold: j is a strong
	// neighbor of i when |a_ij| ≥ amgTheta·√(a_ii·a_jj).
	amgTheta = 0.08
	// amgOmega is the prolongator-smoothing weight in units of 1/ρ(D⁻¹A);
	// ρ is bounded by the Gershgorin row sums of D⁻¹A.
	amgOmega = 4.0 / 3
	// amgCoarseMax is the largest level factored directly: the hierarchy
	// stops coarsening once a level has this many unknowns or fewer.
	amgCoarseMax = 256
)

// amg is a smoothed-aggregation algebraic multigrid V-cycle used as the CG
// preconditioner for symmetric positive-definite matrices. Each level
// aggregates strongly connected unknowns, smooths the piecewise-constant
// tentative prolongator with one damped Jacobi step, and forms the Galerkin
// coarse operator PᵀAP; the coarsest level is factored by the AMD-ordered
// LU. One V-cycle runs a forward Gauss–Seidel sweep before each coarse
// correction and a backward sweep after it, so the preconditioner is
// symmetric positive definite.
//
// Setup fixes the aggregates and every sparsity pattern; Refresh recomputes
// the prolongator and coarse-operator values in place and refactorizes the
// coarsest level through LU.Refactorize, so a simulator's Refactorize
// cadence carries over with no allocation. Setup iterates in index order
// and runs on one goroutine, so the hierarchy and the CG iteration counts
// it yields repeat exactly.
type amg struct {
	levels []amgLevel
	lu     *LU // factors of the coarsest level's operator

	// Refresh scratch, sized for the finest level: w holds A·P[:,J] and
	// acc the aggregate row sums of one coarse column at a time; both are
	// kept zero between columns.
	w, acc []float64
}

// amgLevel is one level of the hierarchy. Every level but the coarsest
// carries the prolongator P (n × nc) from the next coarser level, stored by
// coarse column; restriction applies Pᵀ from the same columns.
type amgLevel struct {
	a    *CSC  // operator: the caller's matrix on level 0, PᵀAP below it
	diag []int // diag[i]: slot of a's diagonal entry in column i

	// mirror[p], for the entries p on or below the diagonal of a coarse
	// operator, is the slot of the transposed entry: the Galerkin product
	// computes the lower triangle and mirrors it, so coarse operators are
	// exactly symmetric.
	mirror []int

	agg    []int     // agg[i]: aggregate (coarse unknown) of unknown i
	mp, mi []int     // aggregate J's members are mi[mp[J]:mp[J+1]]
	pp, pi []int     // P's column J holds rows pi[pp[J]:pp[J+1]] ...
	px     []float64 // ... with values px[pp[J]:pp[J+1]]

	x, b, r []float64 // V-cycle vectors (level 0 uses the caller's x and b)
}

// newAMG builds the hierarchy for a (columns must be row-sorted, as
// Triplet.Compile produces) and computes its first set of values.
func newAMG(a *CSC) (*amg, error) {
	m := &amg{w: make([]float64, a.N), acc: make([]float64, a.N)}
	m.levels = []amgLevel{{a: a}}
	if err := m.levels[0].findDiag(); err != nil {
		return nil, err
	}
	var s amgScratch
	for l := 0; ; l++ {
		lv := &m.levels[l]
		if err := lv.checkDiag(); err != nil {
			return nil, err
		}
		n := lv.a.N
		if n <= amgCoarseMax {
			break
		}
		nc := lv.aggregate()
		if 2*nc > n {
			break // the level barely coarsens: factor it directly
		}
		c := lv.buildPatterns(nc, &s)
		next := amgLevel{a: c, x: make([]float64, nc), b: make([]float64, nc)}
		if err := next.findDiag(); err != nil {
			return nil, err
		}
		next.mirror = make([]int, len(c.I))
		for j := 0; j < nc; j++ {
			for p := next.diag[j]; p < c.P[j+1]; p++ {
				next.mirror[p] = c.slot(j, c.I[p])
			}
		}
		lv.r = make([]float64, n)
		lv.galerkin(c, next.diag, next.mirror, m.w, m.acc)
		m.levels = append(m.levels, next)
	}
	m.lu = Workspace(m.levels[len(m.levels)-1].a.N)
	if err := m.lu.Factorize(m.levels[len(m.levels)-1].a, 1); err != nil {
		return nil, fmt.Errorf("%w: coarsest level: %v", ErrPrecondBreakdown, err)
	}
	return m, nil
}

// findDiag locates the diagonal entry of every column.
func (lv *amgLevel) findDiag() error {
	a := lv.a
	lv.diag = make([]int, a.N)
	for j := 0; j < a.N; j++ {
		p := a.P[j]
		for p < a.P[j+1] && a.I[p] < j {
			p++
		}
		if p == a.P[j+1] || a.I[p] != j {
			return fmt.Errorf("%w: no diagonal entry in column %d", ErrPrecondBreakdown, j)
		}
		lv.diag[j] = p
	}
	return nil
}

// checkDiag rejects a level whose diagonal is not strictly positive and
// finite: such an operator is not SPD and the V-cycle would divide by it.
func (lv *amgLevel) checkDiag() error {
	for j, p := range lv.diag {
		if d := lv.a.X[p]; !(d > 0) || math.IsInf(d, 0) {
			return fmt.Errorf("%w: diagonal %g in column %d", ErrPrecondBreakdown, d, j)
		}
	}
	return nil
}

// strong reports whether entry p of column i, in row j ≠ i, is a strong
// connection.
func (lv *amgLevel) strong(p, i, j int) bool {
	x := lv.a.X
	return math.Abs(x[p]) >= amgTheta*math.Sqrt(x[lv.diag[i]]*x[lv.diag[j]])
}

// aggregate partitions the level's unknowns into aggregates by strength of
// connection, in three passes over the unknowns in index order: a node
// whose strong neighbors are all free seeds an aggregate with them; a
// remaining node joins the aggregate of a strong neighbor seeded in the
// first pass; what is left seeds aggregates with its free strong neighbors
// (alone when it has none). It fills agg and the member lists and returns
// the aggregate count.
func (lv *amgLevel) aggregate() int {
	a := lv.a
	n := a.N
	agg := make([]int, n)
	for i := range agg {
		agg[i] = -1
	}
	nc := 0
	for i := 0; i < n; i++ {
		if agg[i] >= 0 {
			continue
		}
		free, has := true, false
		for p := a.P[i]; p < a.P[i+1] && free; p++ {
			if j := a.I[p]; j != i && lv.strong(p, i, j) {
				has, free = true, agg[j] < 0
			}
		}
		if !has || !free {
			continue
		}
		agg[i] = nc
		for p := a.P[i]; p < a.P[i+1]; p++ {
			if j := a.I[p]; j != i && lv.strong(p, i, j) {
				agg[j] = nc
			}
		}
		nc++
	}
	// Second-pass joins are recorded as -2-J so that they do not seed
	// further joins; they are resolved before the third pass.
	for i := 0; i < n; i++ {
		if agg[i] >= 0 {
			continue
		}
		for p := a.P[i]; p < a.P[i+1]; p++ {
			if j := a.I[p]; j != i && agg[j] >= 0 && lv.strong(p, i, j) {
				agg[i] = -2 - agg[j]
				break
			}
		}
	}
	for i, g := range agg {
		if g <= -2 {
			agg[i] = -2 - g
		}
	}
	for i := 0; i < n; i++ {
		if agg[i] >= 0 {
			continue
		}
		agg[i] = nc
		for p := a.P[i]; p < a.P[i+1]; p++ {
			if j := a.I[p]; j != i && agg[j] < 0 && lv.strong(p, i, j) {
				agg[j] = nc
			}
		}
		nc++
	}
	lv.agg = agg
	lv.mp = make([]int, nc+1)
	for _, g := range agg {
		lv.mp[g+1]++
	}
	for g := 0; g < nc; g++ {
		lv.mp[g+1] += lv.mp[g]
	}
	// mp[g] serves as aggregate g's fill cursor, which leaves it at the
	// start of aggregate g+1; shifting it back restores the pointers.
	lv.mi = make([]int, n)
	for i, g := range agg {
		lv.mi[lv.mp[g]] = i
		lv.mp[g]++
	}
	copy(lv.mp[1:], lv.mp[:nc])
	lv.mp[0] = 0
	return nc
}

// amgScratch is the setup scratch newAMG shares across levels, sized on
// the finest level, which is the largest: marks over fine and coarse
// unknowns, P's row index (row i of P holds the coarse columns
// rj[rp[i]:rp[i+1]]) and the coarse pattern under construction. int32
// halves it and requires P to have fewer than 2³¹ entries; on a mesh
// operator P has about 2.5 per unknown, so that holds up to some 8·10⁸
// unknowns, a finest matrix of about 65 GB.
type amgScratch struct {
	mark, cmark, rp, rj, ci []int32
}

// buildPatterns fixes the sparsity of the smoothed prolongator
// P = (I − ωD⁻¹A)·T, where T is the aggregates' piecewise-constant
// indicator, and returns the coarse operator PᵀAP with its pattern built
// and its values zero. P's column J spans the members of aggregate J and
// their neighbors; the coarse column J spans every aggregate that P
// reaches from the neighbors of that column's rows. Every slice the level
// keeps has its exact size; the rest lives in s.
func (lv *amgLevel) buildPatterns(nc int, s *amgScratch) *CSC {
	a := lv.a
	n := a.N
	if s.mark == nil {
		s.mark, s.cmark, s.rp = make([]int32, n), make([]int32, nc), make([]int32, n+1)
		s.rj = make([]int32, 0, 3*n)
	}
	mark, cmark, rp := s.mark[:n], s.cmark[:nc], s.rp[:n+1]

	// P's columns are gathered in s.rj, counting P's rows into rp on the
	// way, and copied out at their exact size; s.rj then takes P's row
	// index, filled with rp[i] as row i's cursor.
	for i := range mark {
		mark[i] = -1
	}
	clear(rp)
	cols := s.rj[:0]
	lv.pp = make([]int, nc+1)
	for J := 0; J < nc; J++ {
		for _, m := range lv.mi[lv.mp[J]:lv.mp[J+1]] {
			for p := a.P[m]; p < a.P[m+1]; p++ {
				if i := a.I[p]; mark[i] != int32(J) {
					mark[i] = int32(J)
					rp[i+1]++
					cols = append(cols, int32(i))
				}
			}
		}
		lv.pp[J+1] = len(cols)
	}
	lv.pi = make([]int, len(cols))
	for q, i := range cols {
		lv.pi[q] = int(i)
	}
	lv.px = make([]float64, len(lv.pi))
	for i := 0; i < n; i++ {
		rp[i+1] += rp[i]
	}
	rj := cols
	for J := 0; J < nc; J++ {
		for _, i := range lv.pi[lv.pp[J]:lv.pp[J+1]] {
			rj[rp[i]] = int32(J)
			rp[i]++
		}
	}
	copy(rp[1:], rp[:n]) // each cursor stopped at the next row's start
	rp[0] = 0
	s.rj = rj

	// The coarse pattern is gathered in s.ci and copied out at its exact
	// size. The finest level presizes s.ci at P's entry count, which the
	// pattern stays below on mesh operators (about 0.6 of it).
	if s.ci == nil {
		s.ci = make([]int32, 0, len(lv.pi))
	}
	ci := s.ci[:0]
	c := &CSC{N: nc, P: make([]int, nc+1)}
	for I := range cmark {
		cmark[I] = -1
	}
	// Column J tags the fine rows it has visited with nc+J, above every
	// tag P's columns left in mark, so mark needs no second reset.
	for J := 0; J < nc; J++ {
		start, tag := len(ci), int32(nc+J)
		for _, k := range lv.pi[lv.pp[J]:lv.pp[J+1]] {
			for p := a.P[k]; p < a.P[k+1]; p++ {
				m := a.I[p]
				if mark[m] == tag {
					continue
				}
				mark[m] = tag
				for _, I := range rj[rp[m]:rp[m+1]] {
					if cmark[I] != int32(J) {
						cmark[I] = int32(J)
						ci = append(ci, I)
					}
				}
			}
		}
		col := ci[start:]
		for q := 1; q < len(col); q++ {
			for r := q; r > 0 && col[r-1] > col[r]; r-- {
				col[r-1], col[r] = col[r], col[r-1]
			}
		}
		c.P[J+1] = len(ci)
	}
	s.ci = ci
	c.I = make([]int, len(ci))
	for p, I := range ci {
		c.I[p] = int(I)
	}
	c.X = make([]float64, len(c.I))
	return c
}

// galerkin recomputes this level's prolongator values from its operator
// and then the next level's operator c = PᵀAP (cdiag and mirror describe
// c). w and acc are zero on entry and on return. It allocates nothing.
func (lv *amgLevel) galerkin(c *CSC, cdiag, mirror []int, w, acc []float64) {
	a := lv.a
	n := a.N
	rho := 0.0
	for i := 0; i < n; i++ {
		s := 0.0
		for p := a.P[i]; p < a.P[i+1]; p++ {
			s += math.Abs(a.X[p])
		}
		rho = math.Max(rho, s/a.X[lv.diag[i]])
	}
	omega := amgOmega / rho
	for J := 0; J+1 < len(lv.pp); J++ {
		for _, m := range lv.mi[lv.mp[J]:lv.mp[J+1]] {
			for p := a.P[m]; p < a.P[m+1]; p++ {
				acc[a.I[p]] += a.X[p]
			}
		}
		for q := lv.pp[J]; q < lv.pp[J+1]; q++ {
			i := lv.pi[q]
			v := -omega * acc[i] / a.X[lv.diag[i]]
			if lv.agg[i] == J {
				v++
			}
			lv.px[q] = v
			acc[i] = 0
		}
	}
	for J := 0; J < c.N; J++ {
		for q := lv.pp[J]; q < lv.pp[J+1]; q++ {
			k, pk := lv.pi[q], lv.px[q]
			for p := a.P[k]; p < a.P[k+1]; p++ {
				w[a.I[p]] += a.X[p] * pk
			}
		}
		for p := cdiag[J]; p < c.P[J+1]; p++ {
			I := c.I[p]
			s := 0.0
			for q := lv.pp[I]; q < lv.pp[I+1]; q++ {
				s += lv.px[q] * w[lv.pi[q]]
			}
			c.X[p] = s
			c.X[mirror[p]] = s
		}
		for q := lv.pp[J]; q < lv.pp[J+1]; q++ {
			k := lv.pi[q]
			for p := a.P[k]; p < a.P[k+1]; p++ {
				w[a.I[p]] = 0
			}
		}
	}
}

// Refresh recomputes the hierarchy's values for a matrix with the same
// pattern as the one it was built on, keeping the aggregates. It
// allocates nothing unless the coarsest level's stored pivots go unhealthy
// and it must be factored afresh.
func (m *amg) Refresh(a *CSC) error {
	m.levels[0].a = a
	last := len(m.levels) - 1
	for l := range m.levels {
		lv := &m.levels[l]
		if err := lv.checkDiag(); err != nil {
			return err
		}
		if l < last {
			next := &m.levels[l+1]
			lv.galerkin(next.a, next.diag, next.mirror, m.w, m.acc)
		}
	}
	c := m.levels[last].a
	err := m.lu.Refactorize(c)
	if errors.Is(err, ErrRefactorUnhealthy) {
		err = m.lu.Factorize(c, 1)
	}
	if err != nil {
		return fmt.Errorf("%w: coarsest level: %v", ErrPrecondBreakdown, err)
	}
	return nil
}

// Apply runs one V-cycle from a zero guess: z ≈ A⁻¹r. z and r must not
// alias. It allocates nothing.
func (m *amg) Apply(z, r []float64) { m.cycle(0, z, r) }

// cycle runs the V-cycle from level l down, solving approximately
// A_l·x = b.
func (m *amg) cycle(l int, x, b []float64) {
	if l == len(m.levels)-1 {
		m.lu.SolveInto(x, b)
		return
	}
	lv := &m.levels[l]
	a := lv.a
	n := a.N
	// Forward Gauss–Seidel from x = 0 (columns double as rows: a is
	// symmetric). Its residual is minus the strict upper triangle times x.
	for i := 0; i < n; i++ {
		s := b[i]
		for p := a.P[i]; p < lv.diag[i]; p++ {
			s -= a.X[p] * x[a.I[p]]
		}
		x[i] = s / a.X[lv.diag[i]]
	}
	r := lv.r
	for i := 0; i < n; i++ {
		s := 0.0
		for p := lv.diag[i] + 1; p < a.P[i+1]; p++ {
			s -= a.X[p] * x[a.I[p]]
		}
		r[i] = s
	}
	next := &m.levels[l+1]
	for J := range next.b {
		s := 0.0
		for q := lv.pp[J]; q < lv.pp[J+1]; q++ {
			s += lv.px[q] * r[lv.pi[q]]
		}
		next.b[J] = s
	}
	m.cycle(l+1, next.x, next.b)
	for J, xc := range next.x {
		for q := lv.pp[J]; q < lv.pp[J+1]; q++ {
			x[lv.pi[q]] += lv.px[q] * xc
		}
	}
	// Backward Gauss–Seidel, the forward sweep's adjoint.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for p := a.P[i]; p < a.P[i+1]; p++ {
			if j := a.I[p]; j != i {
				s -= a.X[p] * x[j]
			}
		}
		x[i] = s / a.X[lv.diag[i]]
	}
}

// ilu0 is a zero-fill incomplete LU preconditioner: A ≈ L·U where the
// combined factors keep exactly A's pattern. L has an implicit unit
// diagonal; subdiagonal slots hold L, the rest hold U. The pattern is fixed
// at build time and Refresh is allocation-free.
type ilu0 struct {
	n    int
	a    *CSC      // pattern reference (P and I reused; values NOT read after Refresh)
	lux  []float64 // factor values aligned with a's pattern
	diag []int     // diag[j]: index of the diagonal entry in column j

	x    []float64
	mark []int32
	gen  int32
}

// newILU0 builds the ILU(0) preconditioner over a's pattern (columns must be
// row-sorted) and runs the first numeric pass.
func newILU0(a *CSC) (*ilu0, error) {
	n := a.N
	il := &ilu0{
		n:    n,
		a:    a,
		lux:  make([]float64, a.NNZ()),
		diag: make([]int, n),
		x:    make([]float64, n),
		mark: make([]int32, n),
	}
	for j := 0; j < n; j++ {
		lo, hi := a.P[j], a.P[j+1]
		for lo < hi && a.I[lo] < j {
			lo++
		}
		if lo == hi || a.I[lo] != j {
			return nil, fmt.Errorf("%w: no diagonal entry in column %d", ErrPrecondBreakdown, j)
		}
		il.diag[j] = lo
	}
	if err := il.Refresh(a); err != nil {
		return nil, err
	}
	return il, nil
}

// Refresh recomputes the factor values for a matrix with the same pattern as
// the one the preconditioner was built on. It allocates nothing.
func (il *ilu0) Refresh(a *CSC) error {
	n := il.n
	for j := 0; j < n; j++ {
		il.gen++
		gen := il.gen
		for p := a.P[j]; p < a.P[j+1]; p++ {
			i := a.I[p]
			il.x[i] = a.X[p]
			il.mark[i] = gen
		}
		// Left-looking update: the above-diagonal entries of column j name
		// exactly the earlier columns that eliminate into it; rows ascend, so
		// x[k] is final by the time k is consumed.
		for p := a.P[j]; a.I[p] < j; p++ {
			k := a.I[p]
			xk := il.x[k]
			if xk == 0 {
				continue
			}
			for q := il.diag[k] + 1; q < a.P[k+1]; q++ {
				if i := a.I[q]; il.mark[i] == gen {
					il.x[i] -= il.lux[q] * xk
				}
			}
		}
		d := il.x[j]
		if d == 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("%w: ILU(0) pivot %g in column %d", ErrPrecondBreakdown, d, j)
		}
		for p := a.P[j]; p < a.P[j+1]; p++ {
			i := a.I[p]
			if i <= j {
				il.lux[p] = il.x[i]
			} else {
				il.lux[p] = il.x[i] / d
			}
		}
	}
	return nil
}

// Apply solves L·U·z = r (z and r may alias). It allocates nothing.
func (il *ilu0) Apply(z, r []float64) {
	a := il.a
	n := il.n
	if &z[0] != &r[0] {
		copy(z, r)
	}
	// Forward solve L·y = r (unit diagonal).
	for j := 0; j < n; j++ {
		zj := z[j]
		if zj == 0 {
			continue
		}
		for p := il.diag[j] + 1; p < a.P[j+1]; p++ {
			z[a.I[p]] -= il.lux[p] * zj
		}
	}
	// Back solve U·z = y.
	for j := n - 1; j >= 0; j-- {
		zj := z[j] / il.lux[il.diag[j]]
		z[j] = zj
		if zj == 0 {
			continue
		}
		for p := a.P[j]; a.I[p] < j; p++ {
			z[a.I[p]] -= il.lux[p] * zj
		}
	}
}
