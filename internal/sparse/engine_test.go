package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rlcint/internal/diag"
	"rlcint/internal/runctl"
)

// meshEngineOpts lowers the auto-policy direct threshold so small test
// meshes exercise the iterative path.
func meshEngineOpts() EngineOpts {
	return EngineOpts{DirectBelow: 16}
}

func residual(a *CSC, x, b []float64) float64 {
	r := a.MulVec(x)
	worst := 0.0
	for i := range r {
		if d := math.Abs(r[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestEngineCGSolvesMesh checks that the auto policy picks CG for the
// symmetric positive-diagonal mesh and converges to the configured
// tolerance.
func TestEngineCGSolvesMesh(t *testing.T) {
	a, b := meshSystem(24, 24)
	e := NewEngine(a.N, meshEngineOpts())
	if err := e.Factorize(a); err != nil {
		t.Fatalf("factorize: %v", err)
	}
	x := make([]float64, a.N)
	if err := e.SolveInto(x, b); err != nil {
		t.Fatalf("solve: %v", err)
	}
	st := e.Stats()
	if st.Solver != "cg" {
		t.Errorf("auto policy picked %q for a mesh, want cg", st.Solver)
	}
	if st.Iterations == 0 {
		t.Error("stats report zero CG iterations")
	}
	if st.Fallbacks != 0 {
		t.Errorf("unexpected fallbacks: %d", st.Fallbacks)
	}
	if r := residual(a, x, b); r > 1e-8 {
		t.Errorf("CG residual too large: %g", r)
	}
}

// TestEngineGMRESSolvesUnsymmetric checks that a structurally unsymmetric
// system routes to GMRES and still converges.
func TestEngineGMRESSolvesUnsymmetric(t *testing.T) {
	// A mesh plus a one-way coupling entry: breaks symmetry, keeps sparsity.
	n := 20 * 20
	tr := NewTriplet(n)
	a0, b := meshSystem(20, 20)
	for j := 0; j < n; j++ {
		for p := a0.P[j]; p < a0.P[j+1]; p++ {
			tr.Add(a0.I[p], j, a0.X[p])
		}
	}
	tr.Add(3, n-2, 0.25)
	a := tr.Compile()

	e := NewEngine(n, meshEngineOpts())
	if err := e.Factorize(a); err != nil {
		t.Fatalf("factorize: %v", err)
	}
	x := make([]float64, n)
	if err := e.SolveInto(x, b); err != nil {
		t.Fatalf("solve: %v", err)
	}
	st := e.Stats()
	if st.Solver != "gmres" {
		t.Errorf("auto policy picked %q for an unsymmetric system, want gmres", st.Solver)
	}
	if r := residual(a, x, b); r > 1e-7 {
		t.Errorf("GMRES residual too large: %g", r)
	}
}

// TestEngineMatchesDirect compares iterative solutions against the direct
// solver on the same systems.
func TestEngineMatchesDirect(t *testing.T) {
	a, b := meshSystem(30, 30)
	lu := Workspace(a.N)
	if err := lu.Factorize(a, 1); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.N)
	lu.SolveInto(want, b)

	for _, pol := range []Policy{PolicyCG, PolicyGMRES} {
		opts := meshEngineOpts()
		opts.Policy = pol
		opts.Tol = 1e-12
		e := NewEngine(a.N, opts)
		if err := e.Factorize(a); err != nil {
			t.Fatalf("%v factorize: %v", pol, err)
		}
		got := make([]float64, a.N)
		if err := e.SolveInto(got, b); err != nil {
			t.Fatalf("%v solve: %v", pol, err)
		}
		for i := range want {
			scale := math.Max(math.Abs(want[i]), 1)
			if math.Abs(got[i]-want[i]) > 1e-8*scale {
				t.Fatalf("%v differs from direct at %d: %g vs %g", pol, i, got[i], want[i])
			}
		}
	}
}

// TestEnginePrecondFaultFallsBack is the fault-injection satellite: a
// deterministic injector at the "sparse.precond" site must divert the
// engine onto the direct path with no caller-visible failure, counted in
// Stats and recorded on the diag report.
func TestEnginePrecondFaultFallsBack(t *testing.T) {
	a, b := meshSystem(24, 24)
	boom := errors.New("injected precond fault")
	rep := &diag.Report{}
	opts := meshEngineOpts()
	opts.Injector = diag.FaultEvery("sparse.precond", 1, boom)
	opts.Report = rep
	e := NewEngine(a.N, opts)
	if err := e.Factorize(a); err != nil {
		t.Fatalf("factorize should absorb the injected fault, got %v", err)
	}
	x := make([]float64, a.N)
	if err := e.SolveInto(x, b); err != nil {
		t.Fatalf("solve after fallback: %v", err)
	}
	st := e.Stats()
	if st.Solver != "direct" {
		t.Errorf("solver after fault = %q, want direct", st.Solver)
	}
	if st.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", st.Fallbacks)
	}
	if last, ok := rep.Last("sparse.engine"); !ok || last.Outcome != diag.OutcomeOK {
		t.Errorf("report does not end with a successful direct rung: %v", rep.Summary())
	}
	if r := residual(a, x, b); r > 1e-9 {
		t.Errorf("fallback residual too large: %g", r)
	}
}

// TestEngineBreakdownFallsBack drives a numeric preconditioner breakdown
// (an indefinite symmetric matrix under a forced CG policy) and checks the
// engine silently completes on the direct path.
func TestEngineBreakdownFallsBack(t *testing.T) {
	n := 32
	tr := NewTriplet(n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, -2) // negative diagonal: AMG must refuse
		if i+1 < n {
			tr.Add(i, i+1, 1)
			tr.Add(i+1, i, 1)
		}
	}
	a := tr.Compile()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	opts := meshEngineOpts()
	opts.Policy = PolicyCG
	e := NewEngine(n, opts)
	if err := e.Factorize(a); err != nil {
		t.Fatalf("factorize should fall back, got %v", err)
	}
	if st := e.Stats(); st.Solver != "direct" || st.Fallbacks != 1 {
		t.Errorf("stats after breakdown = %+v, want direct with 1 fallback", st)
	}
	x := make([]float64, n)
	if err := e.SolveInto(x, b); err != nil {
		t.Fatalf("solve: %v", err)
	}
	if r := residual(a, x, b); r > 1e-9 {
		t.Errorf("residual too large: %g", r)
	}
}

// TestEngineRefactorizeAllocFree is the alloc-guard satellite: on a 64×64
// mesh (4096 unknowns — the CG path under the default policy), repeated
// Refactorize and SolveInto must allocate nothing in steady state.
func TestEngineRefactorizeAllocFree(t *testing.T) {
	a, b := meshSystem(64, 64)
	e := NewEngine(a.N, EngineOpts{})
	if err := e.Factorize(a); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.N)
	if err := e.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Solver != "cg" {
		t.Fatalf("64×64 mesh solver = %q, want cg under default policy", st.Solver)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := e.Refactorize(a); err != nil {
			t.Fatal(err)
		}
		if err := e.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Engine Refactorize+SolveInto allocates %.0f objects/op, want 0", allocs)
	}
}

// TestEngineRefactorizeTracksValues checks the preconditioner refresh
// actually follows the matrix: solve, scale the values, refresh, solve
// again, and verify both answers against the direct solver.
func TestEngineRefactorizeTracksValues(t *testing.T) {
	nx, ny := 20, 20
	build := func(scale float64) *CSC {
		a, _ := meshSystem(nx, ny)
		// Copy with scaled values (same pattern).
		tr := NewTriplet(a.N)
		for j := 0; j < a.N; j++ {
			for p := a.P[j]; p < a.P[j+1]; p++ {
				tr.Add(a.I[p], j, a.X[p]*scale)
			}
		}
		return tr.Compile()
	}
	_, b := meshSystem(nx, ny)
	a1 := build(1)
	a2 := build(3.5)

	opts := meshEngineOpts()
	opts.Tol = 1e-12
	e := NewEngine(a1.N, opts)
	if err := e.Factorize(a1); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a1.N)
	if err := e.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	if err := e.Refactorize(a2); err != nil {
		t.Fatal(err)
	}
	if err := e.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	if r := residual(a2, x, b); r > 1e-8 {
		t.Errorf("post-refresh residual too large: %g", r)
	}
}

// TestEngineStallFallsBack forces a hopeless iteration budget so the
// iterative solve stalls, and checks the solve still lands on the direct
// path with the stall recorded.
func TestEngineStallFallsBack(t *testing.T) {
	a, b := meshSystem(24, 24)
	rep := &diag.Report{}
	opts := meshEngineOpts()
	opts.MaxIter = 1
	opts.Tol = 1e-14
	opts.Report = rep
	e := NewEngine(a.N, opts)
	if err := e.Factorize(a); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.N)
	if err := e.SolveInto(x, b); err != nil {
		t.Fatalf("solve: %v", err)
	}
	if st := e.Stats(); st.Solver != "direct" || st.Fallbacks != 1 {
		t.Errorf("stats after stall = %+v, want direct with 1 fallback", st)
	}
	if rep.Tried("sparse.engine") == 0 {
		t.Error("stall was not recorded on the diag report")
	}
	if r := residual(a, x, b); r > 1e-9 {
		t.Errorf("residual too large: %g", r)
	}
}

// TestEngineZeroRHS covers the trivial-but-easy-to-break case.
func TestEngineZeroRHS(t *testing.T) {
	a, _ := meshSystem(12, 12)
	for _, pol := range []Policy{PolicyCG, PolicyGMRES, PolicyDirect} {
		opts := meshEngineOpts()
		opts.Policy = pol
		e := NewEngine(a.N, opts)
		if err := e.Factorize(a); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		x := make([]float64, a.N)
		b := make([]float64, a.N)
		if err := e.SolveInto(x, b); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for i, v := range x {
			if v != 0 {
				t.Fatalf("%v: x[%d] = %g for zero rhs", pol, i, v)
			}
		}
	}
}

// TestPolicyStrings pins the names used in metrics and logs.
func TestPolicyStrings(t *testing.T) {
	cases := map[Policy]string{
		PolicyAuto: "auto", PolicyDirect: "direct", PolicyCG: "cg", PolicyGMRES: "gmres",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
	if s := fmt.Sprint(OrderAuto, OrderNatural, OrderAMD); s != "auto natural amd" {
		t.Errorf("ordering strings = %q", s)
	}
}

// TestAMGIterationsMeshIndependent is the point of the multigrid
// preconditioner: CG's iteration count must not grow with the mesh, where
// a zero-fill incomplete factorization needs about √n iterations. 316² is
// the 10⁵-node mesh of the pdn package's largest solve benchmark.
func TestAMGIterationsMeshIndependent(t *testing.T) {
	edges := []int{32, 64, 128, 316}
	iters := map[int]int{}
	for _, edge := range edges {
		a, b := meshSystem(edge, edge)
		e := NewEngine(a.N, meshEngineOpts())
		if err := e.Factorize(a); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.N)
		if err := e.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.Solver != "cg" || st.Fallbacks != 0 {
			t.Fatalf("%d² mesh: stats %+v, want cg with no fallback", edge, st)
		}
		if st.Iterations > 20 {
			t.Errorf("%d² mesh: %d CG iterations, want ≤ 20", edge, st.Iterations)
		}
		iters[edge] = st.Iterations
	}
	for _, edge := range edges[1:] {
		if d := iters[edge] - iters[32]; d > 3 || d < -3 {
			t.Errorf("CG iterations 32² → %d²: %d → %d, want within 3", edge, iters[32], iters[edge])
		}
	}
}

// TestAMGSymmetricPositive checks the property CG relies on: one V-cycle is
// a symmetric positive-definite operator M, tested on seeded vectors.
func TestAMGSymmetricPositive(t *testing.T) {
	a, _ := meshSystem(48, 48)
	m, err := newAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.levels) < 3 {
		t.Fatalf("48² mesh built %d levels, want a multilevel hierarchy", len(m.levels))
	}
	r := rand.New(rand.NewSource(7))
	n := a.N
	u, v := make([]float64, n), make([]float64, n)
	mu, mv := make([]float64, n), make([]float64, n)
	for trial := 0; trial < 5; trial++ {
		for i := 0; i < n; i++ {
			u[i], v[i] = r.NormFloat64(), r.NormFloat64()
		}
		m.Apply(mu, u)
		m.Apply(mv, v)
		if d, tol := math.Abs(dot(mu, v)-dot(u, mv)), 1e-12*norm2(mu)*norm2(v); d > tol {
			t.Errorf("trial %d: |<Mu,v> - <u,Mv>| = %g > %g", trial, d, tol)
		}
		if q := dot(mu, u); !(q > 0) {
			t.Errorf("trial %d: <Mu,u> = %g, want > 0", trial, q)
		}
	}
}

// TestEngineCGStopsOnControl checks run control on the CG path: a stopped
// controller ends the solve with its typed error, and the engine does not
// fall back to the direct solver.
func TestEngineCGStopsOnControl(t *testing.T) {
	a, b := meshSystem(32, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := meshEngineOpts()
	opts.Control = runctl.New(ctx, runctl.Limits{})
	e := NewEngine(a.N, opts)
	if err := e.Factorize(a); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.N)
	err := e.SolveInto(x, b)
	if !runctl.IsStop(err) || !errors.Is(err, diag.ErrCancelled) {
		t.Fatalf("solve under a cancelled controller: err = %v, want a cancellation stop", err)
	}
	if st := e.Stats(); st.Solver != "cg" || st.Fallbacks != 0 {
		t.Errorf("stats after stop = %+v, want cg with 0 fallbacks", st)
	}
}
