package pdn

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"rlcint/internal/diag"
	"rlcint/internal/runctl"
	"rlcint/internal/sparse"
)

func testSpec(nx, ny int) Spec {
	return Spec{NX: nx, NY: ny, Tech: "100nm"}
}

// denseSolve solves the complex nodal system of a small mesh by Gaussian
// elimination — the independent reference for the sparse AC path.
func denseSolve(a [][]complex128, b []complex128) []complex128 {
	n := len(b)
	for k := 0; k < n; k++ {
		// Partial pivoting.
		piv := k
		for i := k + 1; i < n; i++ {
			if cmplx.Abs(a[i][k]) > cmplx.Abs(a[piv][k]) {
				piv = i
			}
		}
		a[k], a[piv] = a[piv], a[k]
		b[k], b[piv] = b[piv], b[k]
		for i := k + 1; i < n; i++ {
			f := a[i][k] / a[k][k]
			for j := k; j < n; j++ {
				a[i][j] -= f * a[k][j]
			}
			b[i] -= f * b[k]
		}
	}
	x := make([]complex128, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x
}

// denseImpedance computes |Z(f)| at the probe of mesh m with a dense
// complex build that shares no code with the sparse path.
func denseImpedance(m *Mesh, f float64) float64 {
	n := m.N
	w := 2 * math.Pi * f
	a := make([][]complex128, n)
	for i := range a {
		a[i] = make([]complex128, n)
	}
	s := m.Spec
	zSeg := complex(m.RSeg, w*m.LSeg)
	ySeg := 1 / zSeg
	stamp := func(u, v int, y complex128) {
		a[u][u] += y
		if v >= 0 {
			a[v][v] += y
			a[u][v] -= y
			a[v][u] -= y
		}
	}
	for y := 0; y < s.NY; y++ {
		for x := 0; x < s.NX; x++ {
			i := y*s.NX + x
			if x+1 < s.NX {
				stamp(i, i+1, ySeg)
			}
			if y+1 < s.NY {
				stamp(i, i+s.NX, ySeg)
			}
		}
	}
	for i := 0; i < n; i++ {
		stamp(i, -1, complex(0, w*s.CNode))
	}
	yBump := 1 / complex(s.RBump, w*s.LBump)
	for _, i := range m.bumps {
		stamp(i, -1, yBump)
	}
	b := make([]complex128, n)
	probe := s.HotY*s.NX + s.HotX
	b[probe] = 1
	x := denseSolve(a, b)
	return cmplx.Abs(x[probe])
}

func TestBuildValidation(t *testing.T) {
	for name, s := range map[string]Spec{
		"1-wide grid":                 {NX: 1, NY: 5},
		"unknown tech":                {NX: 4, NY: 4, Tech: "13nm"},
		"bump array larger than grid": {NX: 4, NY: 4, BumpNX: 9},
		"hotspot outside grid":        {NX: 4, NY: 4, HotX: 7, HotY: 1},
	} {
		if _, err := Build(s); !errors.Is(err, diag.ErrDomain) {
			t.Errorf("%s: err = %v, want a diag domain error", name, err)
		}
	}
	m, err := Build(testSpec(8, 6))
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]ImpedanceOpts{
		"reversed range": {FStart: 1e9, FStop: 1e6},
		"negative start": {FStart: -5},
		"one point":      {Points: 1},
		"probe off grid": {ProbeX: 9, ProbeY: 2},
	} {
		if _, err := m.ImpedanceProfile(nil, o); !errors.Is(err, diag.ErrDomain) {
			t.Errorf("%s: err = %v, want a diag domain error", name, err)
		}
	}
	if m.N != 48 {
		t.Errorf("N = %d, want 48", m.N)
	}
	if len(m.Bumps()) != 16 {
		t.Errorf("bumps = %d, want 16 (4x4 default)", len(m.Bumps()))
	}
	if m.Spec.VDD != 1.2 {
		t.Errorf("VDD default = %g, want 1.2 (100nm)", m.Spec.VDD)
	}
}

// TestIRDropPhysics checks the DC solution behaves like a power grid: every
// node sits below VDD, the worst drop is at least the average, and the
// hotspot region is the worst spot on a uniform grid.
func TestIRDropPhysics(t *testing.T) {
	m, err := Build(testSpec(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.SolveIR()
	if err != nil {
		t.Fatal(err)
	}
	if res.VMax >= m.Spec.VDD {
		t.Errorf("VMax %g not below VDD %g", res.VMax, m.Spec.VDD)
	}
	if res.VMin <= 0 || res.WorstDrop <= 0 {
		t.Errorf("implausible VMin %g / WorstDrop %g", res.VMin, res.WorstDrop)
	}
	if res.WorstDrop < res.AvgDrop {
		t.Errorf("worst drop %g below average %g", res.WorstDrop, res.AvgDrop)
	}
	// The hotspot draws 500x the per-node load; the worst drop must be there.
	if res.WorstX != m.Spec.HotX || res.WorstY != m.Spec.HotY {
		t.Errorf("worst drop at (%d,%d), hotspot at (%d,%d)",
			res.WorstX, res.WorstY, m.Spec.HotX, m.Spec.HotY)
	}
	if res.Solver.Solver == "" {
		t.Error("solver stats not populated")
	}
}

// TestIRKirchhoff verifies the DC solution satisfies the assembled system
// (residual check against the mesh's own conductance matrix).
func TestIRKirchhoff(t *testing.T) {
	m, err := Build(testSpec(12, 9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.SolveIR()
	if err != nil {
		t.Fatal(err)
	}
	r := m.g.MulVec(res.V)
	for i := range r {
		if math.Abs(r[i]-m.bDC[i]) > 1e-8 {
			t.Fatalf("KCL residual %g at node %d", r[i]-m.bDC[i], i)
		}
	}
}

// TestIRSolverPolicies cross-checks the iterative and direct answers on the
// same mesh.
func TestIRSolverPolicies(t *testing.T) {
	m, err := Build(testSpec(20, 20))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := m.solveIR(sparse.EngineOpts{Policy: sparse.PolicyDirect})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := m.solveIR(sparse.EngineOpts{Policy: sparse.PolicyCG, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if cg.Solver.Solver != "cg" || cg.Solver.Fallbacks != 0 {
		t.Fatalf("CG policy did not run CG: %+v", cg.Solver)
	}
	for i := range direct.V {
		if math.Abs(direct.V[i]-cg.V[i]) > 1e-9 {
			t.Fatalf("CG and direct differ at node %d: %g vs %g", i, direct.V[i], cg.V[i])
		}
	}
}

// TestIRMultigridMatchesDirect checks the CG path at the scale it serves:
// on a 141×141 mesh the auto policy runs AMG-preconditioned CG, answers
// within 1e-9 V of the direct LU, and needs no more than 20 iterations.
func TestIRMultigridMatchesDirect(t *testing.T) {
	m, err := Build(testSpec(141, 141))
	if err != nil {
		t.Fatal(err)
	}
	auto, err := m.SolveIR()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := m.solveIR(sparse.EngineOpts{Policy: sparse.PolicyDirect})
	if err != nil {
		t.Fatal(err)
	}
	if st := auto.Solver; st.Solver != "cg" || st.Fallbacks != 0 || st.Iterations > 20 {
		t.Fatalf("auto policy stats %+v, want cg in ≤ 20 iterations with no fallback", st)
	}
	for i := range direct.V {
		if d := math.Abs(direct.V[i] - auto.V[i]); d > 1e-9 {
			t.Fatalf("CG and direct differ by %g V at node %d", d, i)
		}
	}
}

// TestImpedanceMatchesDense validates the sparse real-equivalent AC solve
// against an independent dense complex reference on a small mesh.
func TestImpedanceMatchesDense(t *testing.T) {
	m, err := Build(testSpec(6, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.ImpedanceProfile(nil, ImpedanceOpts{FStart: 1e6, FStop: 1e9, Points: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 7 {
		t.Fatalf("got %d points, want 7", len(res.Points))
	}
	for _, p := range res.Points {
		want := denseImpedance(m, p.F)
		if d := math.Abs(p.Z - want); d > 1e-6*math.Max(want, 1e-12) {
			t.Errorf("|Z(%g)| = %g, dense reference %g", p.F, p.Z, want)
		}
	}
	if res.Peak.Z <= 0 {
		t.Error("no resonance peak found")
	}
}

// TestImpedanceWorkerIndependence pins the batch contract: worker count
// never changes the answer.
func TestImpedanceWorkerIndependence(t *testing.T) {
	m, err := Build(testSpec(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	one, err := m.ImpedanceProfile(nil, ImpedanceOpts{Points: 12, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := m.ImpedanceProfile(nil, ImpedanceOpts{Points: 12, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range one.Points {
		if one.Points[i] != many.Points[i] {
			t.Fatalf("point %d differs across worker counts: %+v vs %+v",
				i, one.Points[i], many.Points[i])
		}
	}
}

// TestImpedanceCancellation checks the sweep honors run control.
func TestImpedanceCancellation(t *testing.T) {
	m, err := Build(testSpec(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	ctl := runctl.New(nil, runctl.Limits{MaxIters: 3})
	_, err = m.ImpedanceProfile(ctl, ImpedanceOpts{Points: 64})
	if err == nil {
		t.Fatal("iteration-budget exhaustion did not surface")
	}
}
