package pdn

import (
	"math"
	"testing"

	"rlcint/internal/sparse"
)

// Benchmark grid edges for the canonical mesh scales: 1e3 → 32×32 (1024
// nodes), 1e4 → 100×100, 1e5 → 316×316 (99 856 nodes). The 1e5 case is the
// acceptance bar: it must solve in seconds through the engine's CG path
// where natural-order direct LU is infeasible.
const (
	benchEdge1e3 = 32
	benchEdge1e4 = 100
	benchEdge1e5 = 316
)

func benchMesh(b *testing.B, edge int) *Mesh {
	b.Helper()
	m, err := Build(Spec{NX: edge, NY: edge, Tech: "100nm"})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchBuild measures Build at the given scale: defaults, the bump layout,
// and the DC system's direct CSC assembly.
func benchBuild(b *testing.B, edge int) {
	s := Spec{NX: edge, NY: edge, Tech: "100nm"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPDNBuild1e3(b *testing.B) { benchBuild(b, benchEdge1e3) }
func BenchmarkPDNBuild1e4(b *testing.B) { benchBuild(b, benchEdge1e4) }
func BenchmarkPDNBuild1e5(b *testing.B) { benchBuild(b, benchEdge1e5) }

// benchFactor measures a cold engine Factorize at the given scale: AMD
// ordering + numeric LU below the direct threshold, AMG hierarchy
// construction on the CG path above it. Custom metrics record the factor
// shape so BENCH snapshots carry the fill story, not just the time.
func benchFactor(b *testing.B, edge int) {
	m := benchMesh(b, edge)
	var eng *sparse.Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng = sparse.NewEngine(m.N, sparse.EngineOpts{})
		if err := eng.Factorize(m.g); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := eng.Stats(); st.Solver == "direct" {
		b.ReportMetric(st.Factor.FillRatio, "fill-ratio")
		b.ReportMetric(float64(st.Factor.NNZL+st.Factor.NNZU), "nnz(L+U)")
	}
}

// benchSolve measures the steady-state DC IR-drop solve with the
// factorization already in place — the per-solve cost a sweep or server pays.
func benchSolve(b *testing.B, edge int) {
	m := benchMesh(b, edge)
	eng := sparse.NewEngine(m.N, sparse.EngineOpts{})
	if err := eng.Factorize(m.g); err != nil {
		b.Fatal(err)
	}
	x := make([]float64, m.N)
	if err := eng.SolveInto(x, m.bDC); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.SolveInto(x, m.bDC); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := eng.Stats(); st.Iterations > 0 {
		b.ReportMetric(float64(st.Iterations), "iters")
	}
}

func BenchmarkPDNFactor1e3(b *testing.B) { benchFactor(b, benchEdge1e3) }
func BenchmarkPDNFactor1e4(b *testing.B) { benchFactor(b, benchEdge1e4) }
func BenchmarkPDNFactor1e5(b *testing.B) { benchFactor(b, benchEdge1e5) }

func BenchmarkPDNSolve1e3(b *testing.B) { benchSolve(b, benchEdge1e3) }
func BenchmarkPDNSolve1e4(b *testing.B) { benchSolve(b, benchEdge1e4) }
func BenchmarkPDNSolve1e5(b *testing.B) { benchSolve(b, benchEdge1e5) }

// benchDirectFactor pins the ordering comparison the AMD pass exists for:
// full direct LU (symbolic + numeric) on the 1e4 mesh under the requested
// ordering. The natural-order case is benchmarked at 1e4 only — at 1e5 its
// fill makes a single factorization take minutes, which is exactly the
// regime the ordering and iterative paths remove.
func benchDirectFactor(b *testing.B, ord sparse.Ordering) {
	m := benchMesh(b, benchEdge1e4)
	var lu *sparse.LU
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lu = sparse.Workspace(m.N)
		lu.SetOrdering(ord)
		if err := lu.Factorize(m.g, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := lu.Stats()
	b.ReportMetric(st.FillRatio, "fill-ratio")
	b.ReportMetric(float64(st.NNZL+st.NNZU), "nnz(L+U)")
}

func BenchmarkPDNFactorDirectAMD1e4(b *testing.B) { benchDirectFactor(b, sparse.OrderAMD) }
func BenchmarkPDNFactorDirectNatural1e4(b *testing.B) {
	benchDirectFactor(b, sparse.OrderNatural)
}

// BenchmarkPDNImpedancePoint1e3 measures one AC frequency point on the 32×32
// mesh: frozen-triplet restamp, preconditioner/factor refresh, and the
// 2n-unknown real-equivalent solve — the unit of work an impedance sweep
// repeats per frequency.
func BenchmarkPDNImpedancePoint1e3(b *testing.B) {
	m := benchMesh(b, benchEdge1e3)
	probe := m.node(m.Spec.HotX, m.Spec.HotY)
	ws := &acScratch{
		m:     m,
		probe: probe,
		tr:    sparse.NewTriplet(2 * m.N),
		x:     make([]float64, 2*m.N),
		b:     make([]float64, 2*m.N),
		eng:   sparse.NewEngine(2*m.N, sparse.EngineOpts{Tol: 1e-9}),
	}
	ws.b[probe] = 1
	if _, err := ws.solveAt(1e8); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Walk a 16-point frequency comb so every refresh sees new values.
		f := 1e6 * math.Exp(float64(i%16)*0.45)
		if _, err := ws.solveAt(f); err != nil {
			b.Fatal(err)
		}
	}
}
