package main

import (
	"fmt"
	"math"

	"rlcint/internal/pdn"
)

// pdnCycle is one cycle of mesh analyses (grid side, repetitions): both
// sides of the engine's 2048-unknown direct/CG switch, up to a ~10⁵-node
// mesh, 29 analyses plus one impedance sweep. The mix puts the median (rank
// 15 of 30) in the middle of the eight 44² direct solves (ranks 10–17) and
// the p90 tail (rank 27) in the middle of the six 141² CG solves (ranks
// 23–29, wherever the impedance sweep falls), so neither jumps between mesh
// sizes from run to run, and each rests on many solves.
var pdnCycle = []struct{ side, reps int }{
	{32, 9}, {44, 8}, {64, 3}, {100, 2}, {141, 6}, {316, 1},
}

// pdnMesh builds meshes and solves their DC IR drop through the sparse
// engine's auto policy, plus an impedance sweep on a ~10³-node mesh. Each
// solution is checked against the mesh's circuit equations (KCL residual),
// and fixed anchor meshes against committed direct-LU references.
func pdnMesh(r *run) {
	spec := func(side int) pdn.Spec {
		// Seeded load and hotspot; the geometry (and so the work) is fixed.
		return pdn.Spec{NX: side, NY: side,
			ILoad: uniform(r.rng, 0.05e-3, 0.15e-3), IHot: uniform(r.rng, 20e-3, 80e-3),
			HotX: 1 + r.rng.Intn(side-2), HotY: 1 + r.rng.Intn(side-2)}
	}
	r.timeSetup(5, func(int) {
		for _, side := range []int{32, 64, 100} {
			m, err := pdn.Build(spec(side))
			if err == nil {
				_, err = m.SolveIR()
			}
			if err != nil {
				r.fail("setup mesh %d: %v", side, err)
			}
		}
	})

	solvers := map[string]int{}
	var cgIters []float64
	resMax, fallbacks := 0.0, 0
	analyze := func(side int) {
		var m *pdn.Mesh
		var res *pdn.IRResult
		// Child spans: the ~10⁵-node mesh's build and solve, the direct
		// solves, and the other CG solves are reported apart.
		build, solve := "pdn.build_small", "pdn.solve_ir_cg"
		switch {
		case side == 316:
			build, solve = "pdn.build", "pdn.solve_ir"
		case side*side < 2048:
			solve = "pdn.solve_ir_direct"
		}
		err := r.op(fmt.Sprintf("pdn.ir_%d", side), func() (err error) {
			id := r.tr.begin(build, r.cur, 0)
			m, err = pdn.Build(spec(side))
			r.tr.end(id)
			if err != nil {
				return err
			}
			id = r.tr.begin(solve, r.cur, 0)
			res, err = m.SolveIR()
			r.tr.end(id)
			return err
		})
		if err != nil {
			return
		}
		st := res.Solver
		solvers[st.Solver]++
		fallbacks += st.Fallbacks
		if st.Solver == "cg" {
			cgIters = append(cgIters, float64(st.Iterations))
		}
		kcl := kclResidual(m, res.V)
		resMax = math.Max(resMax, kcl)
		r.check(kcl < 1e-6 && res.WorstDrop > 0 && res.WorstDrop < res.VDD,
			"mesh %d: KCL residual %.3g, worst drop %.4g V", side, kcl, res.WorstDrop)
	}
	impedance := func() {
		m, err := pdn.Build(spec(32))
		if err != nil {
			r.fail("impedance mesh: %v", err)
			return
		}
		var prof *pdn.ImpedanceResult
		const points = 16
		if r.op("pdn.impedance", func() (err error) {
			prof, err = m.ImpedanceProfile(nil, pdn.ImpedanceOpts{Points: points, FStart: 1e6, FStop: 1e10})
			return
		}) == nil {
			ok := len(prof.Points) == points
			for _, p := range prof.Points {
				ok = ok && p.Z > 0 && finite(p.Z)
			}
			r.check(ok && prof.Peak.Z > 0, "impedance profile: %d points, peak %.4g Ω", len(prof.Points), prof.Peak.Z)
		}
	}
	// Five cycles are 150 ops, enough to keep the tail at p90.
	r.measure(5, func(int) {
		for _, c := range pdnCycle {
			for i := 0; i < c.reps; i++ {
				analyze(c.side)
			}
		}
		impedance()
	})
	r.check(solvers["direct"] > 0 && solvers["cg"] > 0, "solver mix %v: want both direct and CG solves", solvers)
	r.note("solves by solver: %v, CG iterations mean %.1f, fallbacks %d", solvers, mean(cgIters), fallbacks)
	if r.tr != nil {
		r.setLayer("pdn.build_ms", r.tr.medianMS("pdn.build"))
		r.setLayer("pdn.solve_ir_ms", r.tr.medianMS("pdn.solve_ir"))
		r.setLayer("pdn.solve_ir_direct_ms", r.tr.medianMS("pdn.solve_ir_direct"))
		r.setLayer("pdn.impedance_point_ms", r.tr.medianMS("pdn.impedance")/16)
		r.setLayer("sparse.cg_iters", mean(cgIters))
		for _, s := range []string{"direct", "cg", "gmres"} {
			r.setLayer("sparse.solver."+s, float64(solvers[s]))
		}
		r.setLayer("sparse.fallbacks", float64(fallbacks))
		r.setLayer("sparse.residual_max", resMax)
	}

	// Anchors: auto-policy answers against the committed direct-LU ones.
	for _, n := range anchorMeshN {
		m, err := pdn.Build(pdn.Spec{NX: n, NY: n})
		var res *pdn.IRResult
		if err == nil {
			res, err = m.SolveIR()
		}
		r.check(err == nil, "anchor mesh %d: %v", n, err)
		if err == nil {
			key := fmt.Sprint(n)
			r.ref("mesh "+key+" worst drop (mV)", res.WorstDrop*1e3, r.refs.PDNWorstDropMV[key], 1e-6)
			r.ref("mesh "+key+" mean drop (mV)", res.AvgDrop*1e3, r.refs.PDNAvgDropMV[key], 1e-6)
		}
	}
}
