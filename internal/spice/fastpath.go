package spice

// The sparse-kernel fast path. Three cooperating layers make the transient
// hot loop cheap without changing what it computes:
//
//  1. Symbolic caching (internal/sparse): the first Newton iteration of each
//     solve runs a full Factorize (symbolic DFS + threshold pivoting); every
//     later iteration replays the stored pattern and pivot sequence with a
//     numeric-only Refactorize, falling back to a full factorization when
//     the pivot-health guard trips. The symbolic analysis is refreshed at
//     the start of every solve so a checkpoint resume — which rebuilds the
//     solver state from scratch at a grid boundary — reproduces the
//     uninterrupted run bit-exactly.
//
//  2. Partitioned stamping: elements are classified once per analysis into
//     linear (R, C, L, K, independent sources — constant stamps for a fixed
//     timestep configuration) and nonlinear (inverter cores, MOSFETs). Each
//     solve pre-stamps the linear partition once — Jacobian values into
//     linX, the affine residual-at-zero into linRes — and each Newton
//     iteration/damping trial rebuilds the system as
//     X = linX + nonlinear stamps, res = linRes + A_lin·x + nonlinear terms,
//     touching only the handful of nonlinear devices.
//
//  3. Linear-circuit bypass: with no nonlinear devices the Jacobian is
//     independent of the iterate, so each unique (dt, method, dc, gmin)
//     configuration is factored exactly once per run and reused across all
//     steps; iterations re-evaluate only the residual (loader with nil jac).
//     Because the bypass runs the same Newton loop, the same residual
//     assembly arithmetic, and factors numerically identical to what the
//     legacy path would compute, its waveforms are bit-exact with the
//     legacy path.
//
// TranOpts.NoFastPath disables all three layers and restores the legacy
// per-iteration full-restamp/full-factorize behaviour (the differential
// test suite runs both and compares).

import (
	"errors"
	"fmt"

	"rlcint/internal/diag"
	"rlcint/internal/sparse"
)

// fastPivTol is the relaxed threshold-pivoting tolerance used by the fast
// path's full factorizations: MNA diagonals are almost always acceptable
// pivots, and preferring them preserves sparsity and keeps the pivot
// sequence stable across refactorizations (the relaxation lu.go's own
// documentation recommends for MNA systems).
const fastPivTol = 1e-3

// maxCachedFactors bounds the linear-bypass factorization cache. A grid
// step's dt, tTarget − t, varies in its last bits from step to step, so a
// plain run already keys 11 entries at 200 steps (14 at 2500), and a
// recovery ladder adds its halvings; on overflow the cache is dropped and
// rebuilt with whatever configurations are now in play.
const maxCachedFactors = 12

// luKey identifies a timestep configuration with an x-independent Jacobian:
// for a linear circuit the assembled matrix depends on exactly these four
// values (source ramp and time scale only the right-hand side).
type luKey struct {
	dt, gmin float64
	trap, dc bool
}

// fastAssembly is the per-analysis state of the fast path, owned by
// newtonState.
type fastAssembly struct {
	ready      bool   // pattern frozen, buffers sized
	linearOnly bool   // no nonlinear devices: the bypass applies
	starts     []int  // per-element start index in the stamp sequence
	isNL       []bool // per-element nonlinearity flag
	nlIdx      []int  // indices of nonlinear elements
	csc        *sparse.CSC
	linX       []float64            // linear-partition Jacobian values, len nnz
	linRes     []float64            // linear-partition residual at x = 0
	zero       []float64            // all-zero iterate for the linear pre-stamp
	factors    map[luKey]*sparse.LU // linear-bypass factorization cache
}

// classify partitions the circuit's elements for the fast path; called once
// from newNewtonState.
func (f *fastAssembly) classify(c *Circuit) {
	f.starts = make([]int, len(c.elems))
	f.isNL = make([]bool, len(c.elems))
	for i, e := range c.elems {
		if _, ok := e.(nonlinearDevice); ok {
			f.isNL[i] = true
			f.nlIdx = append(f.nlIdx, i)
		}
	}
	f.linearOnly = len(f.nlIdx) == 0
}

// prepareFast readies the fast path for one solve: on first use it records
// the stamping pattern (via a throwaway full assembly) and sizes the
// buffers, then it pre-stamps the linear partition for the solve's timestep
// configuration — Jacobian values into linX, the residual evaluated at
// x = 0 (sources, companion-model history, xPrev terms) into linRes. Both
// stay valid for every Newton iteration and damping trial of the solve
// because linear stamps depend only on (dt, method, gmin, srcRamp, t,
// xPrev, element history), all fixed within it.
func (ns *newtonState) prepareFast(ld *loader) {
	f := &ns.fast
	if !f.ready {
		if !ns.trip.Frozen() {
			ns.assemble(ld) // records per-element stamp ranges as a side effect
		}
		f.csc = ns.trip.Compile()
		f.linX = make([]float64, f.csc.NNZ())
		f.linRes = make([]float64, ns.n)
		f.zero = make([]float64, ns.n)
		f.ready = true
	}
	ns.trip.Reset()
	for i := range f.linRes {
		f.linRes[i] = 0
	}
	ld.nNodes = ns.nNodes
	ld.jac = ns.trip
	ld.res = f.linRes
	ld.x = f.zero
	for i, e := range ns.c.elems {
		if !f.isNL[i] {
			ns.trip.Seek(f.starts[i])
			e.load(ld)
		}
	}
	copy(f.linX, f.csc.X)
	ld.x = ns.x
	ld.res = ns.res
}

// assembleFast rebuilds the Jacobian and residual for the iterate in ld.x
// from the cached linear partition: copy linX into the matrix values, start
// the residual from linRes plus the linear matvec A_lin·x, then restamp
// only the nonlinear devices. For a segmented RLC ladder with a handful of
// repeaters this replaces a walk over every element with a memcpy, a sparse
// matvec, and a few device evaluations; it allocates nothing.
func (ns *newtonState) assembleFast(ld *loader) {
	f := &ns.fast
	copy(f.csc.X, f.linX)
	copy(ns.res, f.linRes)
	f.csc.GaxpyWith(f.linX, ld.x, ns.res)
	ld.nNodes = ns.nNodes
	ld.jac = ns.trip
	ld.res = ns.res
	for _, k := range f.nlIdx {
		ns.trip.Seek(f.starts[k])
		ns.c.elems[k].load(ld)
	}
}

// assembleRes evaluates only the residual at ld.x, walking every element
// with a nil Jacobian target. The arithmetic (element order, accumulation
// order) is identical to a full assembly, so the resulting residual is
// bit-identical to what the legacy path computes — the property the
// linear-circuit bypass's exactness rests on.
func (ns *newtonState) assembleRes(ld *loader) {
	for i := range ns.res {
		ns.res[i] = 0
	}
	ld.nNodes = ns.nNodes
	ld.jac = nil
	ld.res = ns.res
	for _, e := range ns.c.elems {
		e.load(ld)
	}
}

// linearFactor returns the cached factorization for the solve's timestep
// configuration, assembling and factoring it on first use. The returned
// flag reports whether a full assembly ran (its residual is already valid
// for the current iterate). Factorization uses strict partial pivoting on
// values that are independent of the iterate, so the factors — and hence
// every solve using them — are numerically identical to the legacy path's
// per-iteration factorizations.
func (ns *newtonState) linearFactor(ld *loader) (lu *sparse.LU, assembled bool, err error) {
	f := &ns.fast
	key := luKey{dt: ld.dt, gmin: ld.gmin, trap: ld.trap, dc: ld.dc}
	if lu, ok := f.factors[key]; ok {
		return lu, false, nil
	}
	ns.assemble(ld)
	csc := ns.trip.Compile()
	lu = sparse.Workspace(ns.n)
	if ferr := lu.Factorize(csc, 1); ferr != nil {
		return nil, true, ferr
	}
	if f.factors == nil {
		f.factors = make(map[luKey]*sparse.LU)
	}
	if len(f.factors) >= maxCachedFactors {
		clear(f.factors)
	}
	f.factors[key] = lu
	return lu, true, nil
}

// factorizeFast produces factors for the current fast-path Jacobian: a full
// symbolic+pivotal factorization on a fixed refresh schedule, numeric-only
// refactorization everywhere else, with a transparent fallback to a full
// factorization when the pivot-health guard — or an injected
// "spice.refactorize/<rung>" fault — reports the reused pivot sequence
// degraded.
//
// The refresh schedule is what keeps checkpoint resumes bit-exact. A resumed
// run starts from a fresh solver at grid step cp.Step+1, so its first solve
// necessarily runs a full factorization; checkpoints land only on steps
// divisible by CheckpointEvery (or the final step, from which no resume
// marches). Refreshing the symbolic analysis at the first solve of every
// grid step s with (s−1) mod CheckpointEvery == 0 therefore puts the
// uninterrupted run's full factorizations at exactly the solves where any
// resumed run performs its own — from identical state, with identical
// inputs — and every solve in between refactorizes identically in both.
func (ns *newtonState) factorizeFast(ld *loader, opts TranOpts, csc *sparse.CSC, iter int) error {
	if !ns.lu.Symbolic() || (iter == 1 && ld.step != ns.symStep && (ld.step-1)%opts.CheckpointEvery == 0) {
		if err := ns.lu.Factorize(csc, fastPivTol); err != nil {
			return err
		}
		ns.symStep = ld.step
		return nil
	}
	var rerr error
	if opts.Injector != nil {
		rerr = opts.Injector.At(diag.Site{Op: "spice.refactorize/" + ld.op,
			Time: ld.t, Step: ld.step, Iteration: iter, Gmin: ld.gmin})
	}
	if rerr == nil {
		rerr = ns.lu.Refactorize(csc)
		if rerr == nil {
			return nil
		}
		if !errors.Is(rerr, sparse.ErrRefactorUnhealthy) {
			return rerr
		}
	}
	opts.Report.Record("newton-fast", "refactor-fallback", diag.OutcomeOK,
		fmt.Sprintf("t=%g iter=%d", ld.t, iter), rerr)
	return ns.lu.Factorize(csc, fastPivTol)
}
