package sparse

import (
	"errors"
	"fmt"
	"math"

	"rlcint/internal/diag"
	"rlcint/internal/runctl"
)

// Policy selects how an Engine solves its linear systems.
type Policy int

const (
	// PolicyAuto picks per matrix: direct LU below DirectBelow unknowns,
	// AMG-preconditioned CG for symmetric positive-diagonal structure,
	// ILU(0)-preconditioned restarted GMRES otherwise.
	PolicyAuto Policy = iota
	// PolicyDirect forces the direct sparse LU (with AMD ordering).
	PolicyDirect
	// PolicyCG forces AMG+CG.
	PolicyCG
	// PolicyGMRES forces ILU(0)+GMRES.
	PolicyGMRES
)

// String names the policy for stats and logs.
func (p Policy) String() string {
	switch p {
	case PolicyDirect:
		return "direct"
	case PolicyCG:
		return "cg"
	case PolicyGMRES:
		return "gmres"
	default:
		return "auto"
	}
}

// gmresRestart is the GMRES restart length: the Krylov basis size kept
// between restarts.
const gmresRestart = 30

// EngineOpts configures an Engine. The zero value is usable: auto policy,
// strict pivoting for the direct fallback, 1e-10 relative tolerance.
type EngineOpts struct {
	Policy      Policy
	PivTol      float64 // direct-LU threshold pivoting tolerance (default 1)
	Tol         float64 // iterative relative residual target (default 1e-10)
	MaxIter     int     // iterative iteration budget (default 1000)
	DirectBelow int     // auto policy: direct LU below this many unknowns (default 2048)

	// Injector guards preconditioner construction under Op "sparse.precond";
	// an injected fault is treated exactly like a numeric breakdown and
	// falls back to the direct solver.
	Injector *diag.Injector
	// Report, when non-nil, records iterative→direct fallbacks on the
	// "sparse.engine" ladder.
	Report *diag.Report
	// Control, when non-nil, is ticked once per CG iteration. A stop
	// (cancellation, deadline, budget) ends the solve with the controller's
	// typed error and never falls back to the direct solver.
	Control *runctl.Controller
}

func (o EngineOpts) withDefaults() EngineOpts {
	if o.PivTol <= 0 || o.PivTol > 1 {
		o.PivTol = 1
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.DirectBelow <= 0 {
		o.DirectBelow = 2048
	}
	return o
}

// EngineStats reports what the Engine actually did: which solver is active,
// how the last iterative solve went, and the cumulative fallback count.
type EngineStats struct {
	Solver     string      `json:"solver"`     // "direct", "cg", or "gmres"
	Policy     string      `json:"policy"`     // configured policy
	Iterations int         `json:"iterations"` // iterations of the last iterative solve (0 for direct)
	Residual   float64     `json:"residual"`   // relative residual of the last iterative solve
	Fallbacks  int         `json:"fallbacks"`  // lifetime iterative→direct fallbacks
	Factor     FactorStats `json:"factor"`     // direct-LU factor shape when the direct solver has run
}

// engineMode is the solver currently active for the factorized matrix.
type engineMode int

const (
	modeDirect engineMode = iota
	modeCG
	modeGMRES
)

// Engine solves sparse linear systems behind the same Factorize /
// Refactorize / SolveInto contract as LU, but chooses between the direct
// factorization and preconditioned iterative methods by policy, and
// guarantees an answer by falling back to the direct solver whenever the
// iterative path breaks down or stalls. It is not safe for concurrent use;
// give each worker its own Engine.
type Engine struct {
	n    int
	opts EngineOpts

	mode engineMode
	a    *CSC // matrix of the last Factorize/Refactorize (caller-owned)

	lu      *LU // direct solver, created lazily
	luFresh bool

	amg   *amg
	il    *ilu0
	cg    *cgWork
	gmres *gmresWork

	stats EngineStats
}

// NewEngine returns an Engine for n-unknown systems.
func NewEngine(n int, opts EngineOpts) *Engine {
	return &Engine{n: n, opts: opts.withDefaults()}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	s := e.stats
	s.Policy = e.opts.Policy.String()
	switch e.mode {
	case modeCG:
		s.Solver = "cg"
	case modeGMRES:
		s.Solver = "gmres"
	default:
		s.Solver = "direct"
	}
	if e.lu != nil {
		s.Factor = e.lu.Stats()
	}
	return s
}

// decideMode resolves the configured policy against the matrix structure.
func (e *Engine) decideMode(a *CSC) engineMode {
	switch e.opts.Policy {
	case PolicyDirect:
		return modeDirect
	case PolicyCG:
		return modeCG
	case PolicyGMRES:
		return modeGMRES
	}
	if e.n < e.opts.DirectBelow {
		return modeDirect
	}
	if isSymmetricPosDiag(a) {
		return modeCG
	}
	return modeGMRES
}

// Factorize prepares the engine to solve systems with a: it resolves the
// policy, builds or refreshes the preconditioner on the iterative path, and
// factors directly otherwise. Breakdown anywhere on the iterative path falls
// back to the direct solver; only a genuinely singular matrix returns an
// error.
func (e *Engine) Factorize(a *CSC) error {
	if a.N != e.n {
		return fmt.Errorf("sparse: Engine.Factorize dimension %d != engine %d", a.N, e.n)
	}
	e.a = a
	e.luFresh = false
	e.mode = e.decideMode(a)
	switch e.mode {
	case modeCG:
		if err := e.buildAMG(a); err != nil {
			return e.fallbackToDirect(a, "amg", err)
		}
	case modeGMRES:
		if err := e.buildILU(a); err != nil {
			return e.fallbackToDirect(a, "ilu0", err)
		}
	default:
		return e.factorDirect(a)
	}
	return nil
}

// Refactorize refreshes the engine for new numeric values on the same
// sparsity pattern: preconditioner values are recomputed in place on the
// iterative path (allocation-free in steady state), and the direct path uses
// LU.Refactorize with its usual full-factorization fallback.
func (e *Engine) Refactorize(a *CSC) error {
	if a.N != e.n {
		return fmt.Errorf("sparse: Engine.Refactorize dimension %d != engine %d", a.N, e.n)
	}
	e.a = a
	switch e.mode {
	case modeCG:
		e.luFresh = false
		if err := e.precondFault(); err != nil {
			return e.fallbackToDirect(a, "amg", err)
		}
		if err := e.amg.Refresh(a); err != nil {
			return e.fallbackToDirect(a, "amg", err)
		}
	case modeGMRES:
		e.luFresh = false
		if err := e.precondFault(); err != nil {
			return e.fallbackToDirect(a, "ilu0", err)
		}
		if err := e.il.Refresh(a); err != nil {
			return e.fallbackToDirect(a, "ilu0", err)
		}
	default:
		if e.lu != nil && e.lu.Symbolic() {
			err := e.lu.Refactorize(a)
			if err == nil {
				e.luFresh = true
				return nil
			}
			if !errors.Is(err, ErrRefactorUnhealthy) {
				return err
			}
		}
		return e.factorDirect(a)
	}
	return nil
}

// precondFault consults the configured injector at the preconditioner site.
func (e *Engine) precondFault() error {
	return e.opts.Injector.At(diag.Site{Op: "sparse.precond", Step: e.n})
}

func (e *Engine) buildAMG(a *CSC) error {
	if err := e.precondFault(); err != nil {
		return err
	}
	m, err := newAMG(a)
	if err != nil {
		return err
	}
	e.amg = m
	e.ensureCGWork()
	return nil
}

func (e *Engine) buildILU(a *CSC) error {
	if err := e.precondFault(); err != nil {
		return err
	}
	il, err := newILU0(a)
	if err != nil {
		return err
	}
	e.il = il
	e.ensureGMRESWork()
	return nil
}

func (e *Engine) ensureCGWork() {
	if e.cg == nil {
		e.cg = newCGWork(e.n)
	}
}

func (e *Engine) ensureGMRESWork() {
	if e.gmres == nil {
		e.gmres = newGMRESWork(e.n, gmresRestart)
	}
}

// factorDirect runs (or re-runs) the direct LU on a.
func (e *Engine) factorDirect(a *CSC) error {
	if e.lu == nil {
		e.lu = Workspace(e.n)
	}
	if err := e.lu.Factorize(a, e.opts.PivTol); err != nil {
		return err
	}
	e.luFresh = true
	return nil
}

// fallbackToDirect records an iterative-path breakdown and switches the
// engine to the direct solver for this matrix.
func (e *Engine) fallbackToDirect(a *CSC, rung string, cause error) error {
	e.stats.Fallbacks++
	e.opts.Report.Record("sparse.engine", rung, diag.OutcomeFailed,
		fmt.Sprintf("n=%d; falling back to direct LU", e.n), cause)
	e.mode = modeDirect
	if err := e.factorDirect(a); err != nil {
		return err
	}
	e.opts.Report.Record("sparse.engine", "direct", diag.OutcomeOK,
		fmt.Sprintf("fill %.2fx", e.lu.Stats().FillRatio), nil)
	return nil
}

// solveDirectAfter finishes a solve whose iterative attempt failed.
func (e *Engine) solveDirectAfter(x, b []float64, rung string, cause error) error {
	if err := e.fallbackToDirect(e.a, rung, cause); err != nil {
		return err
	}
	e.lu.SolveInto(x, b)
	return nil
}

// symRelTol is the relative tolerance of the numeric-symmetry test: MNA
// stamping produces exactly equal (i,j)/(j,i) values, so anything beyond
// rounding noise means the matrix is genuinely unsymmetric.
const symRelTol = 1e-12

// isSymmetricPosDiag reports whether a is structurally and numerically
// symmetric with a strictly positive diagonal — the shape AMG+CG is safe
// to attempt on (a conductance / PDN matrix). Columns must be row-sorted.
func isSymmetricPosDiag(a *CSC) bool {
	n := a.N
	for j := 0; j < n; j++ {
		hasDiag := false
		for p := a.P[j]; p < a.P[j+1]; p++ {
			i := a.I[p]
			if i == j {
				if !(a.X[p] > 0) {
					return false
				}
				hasDiag = true
				continue
			}
			// Every off-diagonal entry must have a matching mirror; checking
			// both triangles catches one-sided entries on either side.
			v, ok := findEntry(a, j, i)
			if !ok {
				return false
			}
			d := math.Abs(a.X[p] - v)
			if d > symRelTol*(math.Abs(a.X[p])+math.Abs(v)) {
				return false
			}
		}
		if !hasDiag {
			return false
		}
	}
	return true
}

// findEntry binary-searches for (row, col); columns must be row-sorted.
func findEntry(a *CSC, row, col int) (float64, bool) {
	lo, hi := a.P[col], a.P[col+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if a.I[mid] < row {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < a.P[col+1] && a.I[lo] == row {
		return a.X[lo], true
	}
	return 0, false
}

// SolveInto solves a·x = b for the last factorized matrix. Iterative-path
// stagnation falls back to the direct solver transparently (recorded in
// Stats and the diag report); the returned error is non-nil only when the
// direct solver itself fails or the run controller stops a CG solve.
func (e *Engine) SolveInto(x, b []float64) error {
	switch e.mode {
	case modeCG:
		it, res, err := e.cg.solve(e.a, e.amg, x, b, e.opts.Tol, e.opts.MaxIter, e.opts.Control)
		e.stats.Iterations, e.stats.Residual = it, res
		if err == nil || runctl.IsStop(err) {
			return err
		}
		return e.solveDirectAfter(x, b, "cg", err)
	case modeGMRES:
		it, res, err := e.gmres.solve(e.a, e.il, x, b, e.opts.Tol, e.opts.MaxIter)
		e.stats.Iterations, e.stats.Residual = it, res
		if err == nil {
			return nil
		}
		return e.solveDirectAfter(x, b, "gmres", err)
	default:
		if !e.luFresh {
			if err := e.factorDirect(e.a); err != nil {
				return err
			}
		}
		e.stats.Iterations, e.stats.Residual = 0, 0
		e.lu.SolveInto(x, b)
		return nil
	}
}
