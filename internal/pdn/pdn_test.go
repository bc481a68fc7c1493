package pdn

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"
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
		"negative inductance":         {NX: 4, NY: 4, LPerM: -1e-6},
		"negative decap":              {NX: 4, NY: 4, CNode: -1e-15},
		"NaN pitch":                   {NX: 4, NY: 4, PitchMM: math.NaN()},
		"infinite load":               {NX: 4, NY: 4, ILoad: math.Inf(1)},
		"NaN supply":                  {NX: 4, NY: 4, VDD: math.NaN()},
		"infinite bump inductance":    {NX: 4, NY: 4, LBump: math.Inf(-1)},
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

// stampedDC assembles m's DC conductance matrix the way a netlist would:
// four triplet entries per segment, the bump conductances last, then
// Compile. It is the oracle for buildDC's direct CSC assembly.
func stampedDC(m *Mesh) *sparse.CSC {
	s := m.Spec
	tr := sparse.NewTriplet(m.N)
	gSeg := 1 / m.RSeg
	for y := 0; y < s.NY; y++ {
		for x := 0; x < s.NX; x++ {
			i := m.node(x, y)
			if x+1 < s.NX {
				j := m.node(x+1, y)
				tr.Add(i, i, gSeg)
				tr.Add(j, j, gSeg)
				tr.Add(i, j, -gSeg)
				tr.Add(j, i, -gSeg)
			}
			if y+1 < s.NY {
				j := m.node(x, y+1)
				tr.Add(i, i, gSeg)
				tr.Add(j, j, gSeg)
				tr.Add(i, j, -gSeg)
				tr.Add(j, i, -gSeg)
			}
		}
	}
	for _, i := range m.bumps {
		tr.Add(i, i, 1/s.RBump)
	}
	return tr.Compile()
}

// TestBuildMatchesStampedOracle pins the direct CSC assembly to the stamped
// one: the same column pointers and row indices, and bitwise-equal values,
// so every voltage and CG iteration count downstream is unchanged.
func TestBuildMatchesStampedOracle(t *testing.T) {
	for _, s := range []Spec{
		{NX: 2, NY: 2, BumpNX: 1, BumpNY: 1},
		{NX: 3, NY: 7, BumpNX: 2, BumpNY: 3},
		{NX: 12, NY: 9},
		{NX: 64, NY: 64},
		{NX: 10, NY: 6, BumpNX: 10, BumpNY: 2},
		{NX: 316, NY: 316},
	} {
		m, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		want, got := stampedDC(m), m.g
		name := fmt.Sprintf("%dx%d mesh, %dx%d bumps", s.NX, s.NY, m.Spec.BumpNX, m.Spec.BumpNY)
		if got.N != want.N || !slices.Equal(got.P, want.P) || !slices.Equal(got.I, want.I) {
			t.Errorf("%s: pattern differs from the stamped oracle", name)
			continue
		}
		for p := range want.X {
			if math.Float64bits(got.X[p]) != math.Float64bits(want.X[p]) {
				t.Errorf("%s: value %d (row %d) = %v, oracle %v", name, p, got.I[p], got.X[p], want.X[p])
				break
			}
		}
	}
}

// TestIRKirchhoff checks the DC solution against the mesh's circuit
// equations, computed here from the segments, bumps and loads without
// reading the assembled matrix: at every node the currents out through the
// incident segments and the bump branch must equal the load it draws. The
// 12×9 mesh solves by direct LU, the 64×48 one by CG, which stops at a
// residual of 1e-10·‖b‖ (b is dominated by the bump sources): about 3e-8
// of the total load per node at worst, so the bound is 1e-7.
func TestIRKirchhoff(t *testing.T) {
	for _, c := range []struct {
		nx, ny int
		solver string
	}{{12, 9, "direct"}, {64, 48, "cg"}} {
		m, err := Build(testSpec(c.nx, c.ny))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.SolveIR()
		if err != nil {
			t.Fatal(err)
		}
		s, v := m.Spec, res.V
		out := make([]float64, m.N)
		seg := func(i, j int) {
			cur := (v[i] - v[j]) / m.RSeg
			out[i] += cur
			out[j] -= cur
		}
		for y := 0; y < s.NY; y++ {
			for x := 0; x < s.NX; x++ {
				i := y*s.NX + x
				if x+1 < s.NX {
					seg(i, i+1)
				}
				if y+1 < s.NY {
					seg(i, i+s.NX)
				}
			}
		}
		for _, i := range m.Bumps() {
			out[i] += (v[i] - s.VDD) / s.RBump
		}
		out[s.HotY*s.NX+s.HotX] += s.IHot
		worst := 0.0
		for i := range out {
			worst = math.Max(worst, math.Abs(out[i]+s.ILoad))
		}
		if r := worst / (float64(m.N)*s.ILoad + s.IHot); r > 1e-7 {
			t.Errorf("%dx%d mesh (%s): worst KCL residual %.3g of the total load",
				s.NX, s.NY, res.Solver.Solver, r)
		}
		if res.Solver.Solver != c.solver {
			t.Errorf("%dx%d mesh solved by %q, want %q", s.NX, s.NY, res.Solver.Solver, c.solver)
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
