package spice

// The Krylov reduced-order-model fast path. For transient workloads whose
// runtime is dominated by time-stepping a large, mostly linear MNA system
// (the paper's Fig9–12 ring oscillators and buffered lines: a few nonlinear
// repeaters driving hundreds of linear RLC unknowns for tens of thousands of
// steps), the full sparse solve per step is overkill: the linear partition's
// response lives in a low-dimensional Krylov subspace.
//
// This file bridges the circuit representation to internal/mor:
//
//  1. classifyReduction picks the retained "port" rows — nonlinear device
//     terminals, source rows, probe rows — and refuses circuits containing
//     element or probe types it does not know how to classify.
//  2. extractSystem recovers (G, C) of the linear partition from the
//     element stamps themselves, with no per-element knowledge: stamping
//     the linear elements at two timesteps gives A(dt) = G + C/dt at
//     dt = 1 and dt = ½, so C = A(½) − A(1) and G = 2·A(1) − A(½). The
//     nonlinear devices' Jacobian at the initial state (stamped into the
//     same frozen pattern) yields the gate's closed linearized system, and
//     branch rows are sign-flipped into the passivity-friendly orientation
//     (making C symmetric positive semidefinite and G + Gᵀ PSD, which is
//     what keeps the projected reduced system stable).
//  3. mor.Reduce builds and gate-validates the projection; for circuits
//     with nonlinear devices a confirmation gate then compares a window of
//     REAL full-solver steps against the reduced nonlinear run, because the
//     linearized accuracy gate cannot see large-signal behaviour.
//  4. Validated models are cached under a content fingerprint (pattern,
//     values, ports, initial state, run shape, sampled source waveforms) so
//     repeated runs of the same circuit — benchmark iterations, parameter
//     sweeps revisiting a configuration — skip the build entirely.
//     Rejections are cached too.
//  5. reducedStep replaces the full Newton step in the fixed-grid loop
//     (march): it advances the reduced system one output step at a time,
//     solves the p-dimensional Newton port system per step (p = a few
//     dozen ≪ N), and bails out to the full solver from t = 0 on any error.
//
// TranOpts.NoReduction disables the whole path; runs with NoFastPath set
// skip it too, since that flag promises the legacy solver's bit-exact
// arithmetic.

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"rlcint/internal/diag"
	"rlcint/internal/mor"
	"rlcint/internal/runctl"
	"rlcint/internal/sparse"
)

// reduceMinUnknowns and reduceMinSteps gate when the reduction is even
// attempted: small systems or short windows cannot amortize the build.
const (
	reduceMinUnknowns = 24
	reduceMinSteps    = 64
)

// confirmTol is the relative RMS waveform tolerance of the large-signal
// confirmation gate for nonlinear circuits, ten times the linearized gate's
// mor.GateTol: real full-vs-reduced comparisons include Newton tolerance
// noise and, for oscillators, phase drift.
const (
	confirmTol    = 1e-3
	confirmWindow = 1500
)

// classification is the port/row analysis of a circuit for reduction.
type classification struct {
	ports   []int // sorted retained global rows
	portIdx []int // global row → port index, -1 elsewhere
	nlIdx   []int // indices of nonlinear elements
	srcIdx  []int // indices of independent sources (u support)
	probePI []int // per probe: port index, or -1 for ground probes
}

// classifyReduction maps the circuit onto the reduction's port structure, or
// explains why it cannot (unknown element or probe types, ports covering the
// whole system).
func classifyReduction(c *Circuit, probes []Probe) (*classification, error) {
	nNodes := c.NumNodes()
	n := c.NumUnknowns()
	portSet := make(map[int]bool)
	addNode := func(id NodeID) {
		if id != Ground {
			portSet[int(id)] = true
		}
	}
	cl := &classification{}
	for i, e := range c.elems {
		switch el := e.(type) {
		case *resistor, *capacitor, *Inductor, *mutual:
			// Linear, stateless rows: fully internal.
		case *VSource:
			cl.srcIdx = append(cl.srcIdx, i)
			portSet[nNodes+el.bidx] = true
		case *isource:
			cl.srcIdx = append(cl.srcIdx, i)
			addNode(el.a)
			addNode(el.b)
		case *inverterCore:
			cl.nlIdx = append(cl.nlIdx, i)
			addNode(el.in)
			addNode(el.out)
		case *mosfet:
			cl.nlIdx = append(cl.nlIdx, i)
			addNode(el.d)
			addNode(el.g)
			addNode(el.s)
		default:
			return nil, diag.Domainf("spice.reduce", "element type %T has no reduction classification", e)
		}
	}
	for _, p := range probes {
		switch pr := p.(type) {
		case NodeProbe:
			addNode(pr.ID)
		case BranchProbe:
			portSet[nNodes+pr.L.bidx] = true
		case SourceCurrentProbe:
			portSet[nNodes+pr.V.bidx] = true
		default:
			return nil, diag.Domainf("spice.reduce", "probe type %T has no reduction classification", p)
		}
	}
	cl.portIdx = make([]int, n)
	for i := range cl.portIdx {
		cl.portIdx[i] = -1
	}
	for row := 0; row < n; row++ {
		if portSet[row] {
			cl.ports = append(cl.ports, row)
		}
	}
	for pi, row := range cl.ports {
		cl.portIdx[row] = pi
	}
	for _, p := range probes {
		pi := -1
		switch pr := p.(type) {
		case NodeProbe:
			if pr.ID != Ground {
				pi = cl.portIdx[int(pr.ID)]
			}
		case BranchProbe:
			pi = cl.portIdx[nNodes+pr.L.bidx]
		case SourceCurrentProbe:
			pi = cl.portIdx[nNodes+pr.V.bidx]
		}
		cl.probePI = append(cl.probePI, pi)
	}
	if len(cl.ports) == 0 || len(cl.ports) >= n-reduceMinUnknowns/3 {
		return nil, diag.Domainf("spice.reduce", "%d ports leave no internal rows worth reducing (n=%d)", len(cl.ports), n)
	}
	return cl, nil
}

// extracted bundles the mor system with the scratch the per-run source
// evaluation and port Newton callbacks need.
type extracted struct {
	sys    *mor.System
	cl     *classification
	nNodes int
}

// extractSystem recovers the linear partition (and the nonlinear Jacobian at
// x0 for the gate) from the element stamps via the two-timestep identity
// A(dt) = G + C/dt. It never mutates element state: load() only reads, and
// the zero-state source evaluation uses a residual-only loader.
func extractSystem(c *Circuit, cl *classification, x0 []float64, gmin float64) (*extracted, error) {
	n := c.NumUnknowns()
	nNodes := c.NumNodes()
	isNL := make([]bool, len(c.elems))
	for _, i := range cl.nlIdx {
		isNL[i] = true
	}

	trip := sparse.NewTriplet(n)
	res := make([]float64, n)
	starts := make([]int, len(c.elems))
	ld := &loader{nNodes: nNodes, x: x0, xPrev: x0, jac: trip, res: res, t: 0, dt: 1, gmin: gmin, op: "reduce"}
	for i, e := range c.elems {
		starts[i] = trip.Mark()
		e.load(ld)
	}
	csc := trip.Compile()
	nnz := csc.NNZ()

	replay := func(dt float64, nlOnly bool) []float64 {
		trip.Reset()
		for i := range res {
			res[i] = 0
		}
		ld.dt = dt
		for i, e := range c.elems {
			if isNL[i] == nlOnly {
				trip.Seek(starts[i])
				e.load(ld)
			}
		}
		return append([]float64(nil), csc.X...)
	}
	a1 := replay(1, false)
	a2 := replay(0.5, false)
	jnl := replay(1, true)
	inl0 := append([]float64(nil), res...) // nonlinear residual at x0

	g := make([]float64, nnz)
	cv := make([]float64, nnz)
	ggate := make([]float64, nnz)
	for i := range g {
		g[i] = 2*a1[i] - a2[i]
		cv[i] = a2[i] - a1[i]
		ggate[i] = g[i] + jnl[i]
	}
	// Flip branch rows into the passive orientation (see package comment).
	for j := 0; j < n; j++ {
		for p := csc.P[j]; p < csc.P[j+1]; p++ {
			if csc.I[p] >= nNodes {
				g[p] = -g[p]
				cv[p] = -cv[p]
				ggate[p] = -ggate[p]
			}
		}
	}
	hasNL := len(cl.nlIdx) > 0
	if !hasNL {
		ggate = nil
	}

	// U0 = J_nl·x0 − i_nl(x0): the affine offset of the gate's linearization.
	var u0 []float64
	if hasNL {
		jx0 := make([]float64, n)
		csc.GaxpyWith(jnl, x0, jx0)
		u0 = make([]float64, len(cl.ports))
		for pi, row := range cl.ports {
			v := jx0[row] - inl0[row]
			if row >= nNodes {
				v = -v
			}
			u0[pi] = v
		}
	}

	ex := &extracted{cl: cl, nNodes: nNodes}
	ex.sys = &mor.System{
		N:       n,
		Pattern: csc,
		G:       g,
		C:       cv,
		GGate:   ggate,
		Ports:   append([]int(nil), cl.ports...),
		X0:      append([]float64(nil), x0...),
		U:       ex.sourceEval(c),
		U0:      u0,
	}
	return ex, nil
}

// sourceEval returns the port-local source closure u(t): the negated
// zero-state residual of the independent sources, with branch rows flipped
// to match the extracted orientation. Allocation-free after construction.
func (ex *extracted) sourceEval(c *Circuit) func(t float64, up []float64) {
	n := c.NumUnknowns()
	zeroX := make([]float64, n)
	resU := make([]float64, n)
	srcElems := make([]element, 0, len(ex.cl.srcIdx))
	for _, i := range ex.cl.srcIdx {
		srcElems = append(srcElems, c.elems[i])
	}
	ports := ex.cl.ports
	nNodes := ex.nNodes
	ldU := &loader{nNodes: nNodes, x: zeroX, xPrev: zeroX, jac: nil, res: resU, dt: 1, op: "reduce-u"}
	return func(t float64, up []float64) {
		for _, row := range ports {
			resU[row] = 0
		}
		ldU.t = t
		for _, e := range srcElems {
			e.load(ldU)
		}
		for pi, row := range ports {
			if row >= nNodes {
				up[pi] = resU[row] // flipped branch row
			} else {
				up[pi] = -resU[row]
			}
		}
	}
}

// nlPortEval adapts the circuit's nonlinear devices to mor.PortEval: residual
// and Jacobian contributions on the port rows, stamped through a private
// frozen triplet whose (tiny) pattern is mapped onto the dense p×p Jacobian
// once at construction.
type nlPortEval struct {
	elems  []element
	starts []int
	trip   *sparse.Triplet
	csc    *sparse.CSC
	x, res []float64
	ports  []int
	// jmap[k] = dense p×p index of the k-th pattern entry, or -1 when the
	// entry falls off the port block (never in practice: nonlinear devices
	// stamp only their own terminals, which are all ports).
	jmap   []int
	nNodes int
	ld     loader
}

func newNLPortEval(c *Circuit, cl *classification, n int) (*nlPortEval, error) {
	pe := &nlPortEval{
		trip:   sparse.NewTriplet(n),
		x:      make([]float64, n),
		res:    make([]float64, n),
		ports:  cl.ports,
		nNodes: c.NumNodes(),
	}
	pe.ld = loader{nNodes: pe.nNodes, dt: 1, op: "reduce-nl"}
	pe.ld.jac = pe.trip
	pe.ld.res = pe.res
	pe.ld.x = pe.x
	pe.ld.xPrev = pe.x
	for _, i := range cl.nlIdx {
		pe.elems = append(pe.elems, c.elems[i])
		pe.starts = append(pe.starts, pe.trip.Mark())
		c.elems[i].load(&pe.ld)
	}
	pe.csc = pe.trip.Compile()
	p := len(cl.ports)
	for j := 0; j < n; j++ {
		for k := pe.csc.P[j]; k < pe.csc.P[j+1]; k++ {
			ri, ci := cl.portIdx[pe.csc.I[k]], cl.portIdx[j]
			if ri < 0 || ci < 0 {
				return nil, diag.Domainf("spice.reduce", "nonlinear stamp at (%d,%d) escapes the port set", pe.csc.I[k], j)
			}
			pe.jmap = append(pe.jmap, ri*p+ci)
		}
	}
	return pe, nil
}

// Eval implements mor.PortEval.
func (pe *nlPortEval) Eval(v, res, jac []float64) {
	for pi, row := range pe.ports {
		pe.x[row] = v[pi]
		pe.res[row] = 0
	}
	pe.trip.Reset()
	for k, e := range pe.elems {
		pe.trip.Seek(pe.starts[k])
		e.load(&pe.ld)
	}
	for pi, row := range pe.ports {
		res[pi] += pe.res[row]
	}
	for k, di := range pe.jmap {
		jac[di] += pe.csc.X[k]
	}
}

// --- model cache ---

type morCacheEntry struct {
	model *mor.Model // nil: the reduction was rejected for this fingerprint
}

var morCache struct {
	mu sync.Mutex
	m  map[uint64]*morCacheEntry
}

const morCacheMax = 16

func morCacheGet(fp uint64) (*morCacheEntry, bool) {
	morCache.mu.Lock()
	defer morCache.mu.Unlock()
	e, ok := morCache.m[fp]
	return e, ok
}

func morCachePut(fp uint64, e *morCacheEntry) {
	morCache.mu.Lock()
	defer morCache.mu.Unlock()
	if morCache.m == nil {
		morCache.m = make(map[uint64]*morCacheEntry)
	}
	if len(morCache.m) >= morCacheMax {
		clear(morCache.m)
	}
	morCache.m[fp] = e
}

// fnv1a64 accumulates FNV-64a over raw uint64 words.
type fnv1a64 uint64

func newFNV() fnv1a64 { return 0xcbf29ce484222325 }

func (h *fnv1a64) word(w uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= w & 0xff
		x *= 0x100000001b3
		w >>= 8
	}
	*h = fnv1a64(x)
}

func (h *fnv1a64) float(f float64) { h.word(math.Float64bits(f)) }

func (h *fnv1a64) ints(v []int) {
	for _, x := range v {
		h.word(uint64(x))
	}
}

func (h *fnv1a64) floats(v []float64) {
	for _, x := range v {
		h.float(x)
	}
}

// fingerprint identifies a (system, run shape) pair for the model cache.
// Source waveforms cannot be hashed structurally, so they are sampled on a
// coarse grid over the window — two runs that differ only in source content
// the sampling misses would share a model, which the gate has not validated
// against; 64 samples across the window makes that practically impossible
// for physical drive waveforms.
func (ex *extracted) fingerprint(opts mor.Options, tstop float64) uint64 {
	h := newFNV()
	sys := ex.sys
	h.word(uint64(sys.N))
	h.ints(sys.Pattern.P)
	h.ints(sys.Pattern.I)
	h.floats(sys.G)
	h.floats(sys.C)
	if sys.GGate != nil {
		h.floats(sys.GGate)
	}
	h.ints(sys.Ports)
	h.floats(sys.X0)
	if sys.U0 != nil {
		h.floats(sys.U0)
	}
	h.float(opts.DT)
	h.word(uint64(opts.NSteps))
	if opts.TR {
		h.word(1)
	}
	h.word(uint64(opts.BESteps))
	h.word(1 << 8) // format marker; keeps the fingerprints in existing checkpoint files valid
	h.float(mor.GateTol)
	up := make([]float64, len(sys.Ports))
	for s := 0; s <= 64; s++ {
		sys.U(tstop*float64(s)/64, up)
		h.floats(up)
	}
	return uint64(h)
}

// --- reduced transient run ---

// reducedRun is a validated reduced model with the per-run pieces its
// steps need.
type reducedRun struct {
	model  *mor.Model
	ex     *extracted
	pe     mor.PortEval // nil for linear circuits
	newton mor.NewtonOpts
	fp     uint64
}

// tryReduce attempts to build (or fetch) a validated reduced model for a
// fixed-grid run starting from x0. A nil return with nil error means "not
// applicable" — the caller proceeds with the full solver. Element state is
// left untouched. beSteps is the run's initial BE-startup count (the
// schedule the model is validated against).
func (c *Circuit) tryReduce(opts TranOpts, x0 []float64, probes []Probe, nSteps, beSteps int) (*reducedRun, error) {
	if opts.NoReduction || opts.NoFastPath {
		return nil, nil
	}
	if nSteps < reduceMinSteps || c.NumUnknowns() < reduceMinUnknowns {
		return nil, nil
	}
	tr := opts.Method == Trapezoidal
	if tr && beSteps < 1 {
		return nil, nil // the reduced TR recursion needs a BE seed step
	}
	cl, err := classifyReduction(c, probes)
	if err != nil {
		morStatRejected.Add(1)
		opts.Report.Record("mor", "classify", diag.OutcomeSkipped, err.Error(), nil)
		return nil, nil
	}
	ex, err := extractSystem(c, cl, x0, opts.Gmin)
	if err != nil {
		morStatRejected.Add(1)
		opts.Report.Record("mor", "extract", diag.OutcomeSkipped, err.Error(), nil)
		return nil, nil
	}
	mopts := mor.Options{
		DT:       opts.DT,
		NSteps:   nSteps,
		TR:       tr,
		BESteps:  beSteps,
		Injector: opts.Injector,
		Report:   opts.Report,
	}
	fp := ex.fingerprint(mopts, opts.TStop)
	var model *mor.Model
	e, cached := morCacheGet(fp)
	if cached {
		if e.model == nil {
			return nil, nil
		}
		model = e.model
	} else if model, err = mor.Reduce(ex.sys, mopts); err != nil {
		morStatRejected.Add(1)
		opts.Report.Record("mor", "reduce", diag.OutcomeSkipped, err.Error(), nil)
		if !runctl.IsStop(err) {
			morCachePut(fp, &morCacheEntry{})
		}
		return nil, nil
	}
	rr := &reducedRun{
		model: model,
		ex:    ex,
		fp:    fp,
		newton: mor.NewtonOpts{
			MaxNewton: opts.MaxNewton,
			ITol:      opts.ITol,
			RelTol:    opts.RelTol,
			VNTol:     opts.VNTol,
			MaxStep:   opts.MaxStep,
		},
	}
	if len(cl.nlIdx) > 0 {
		pe, err := newNLPortEval(c, cl, c.NumUnknowns())
		if err != nil {
			opts.Report.Record("mor", "porteval", diag.OutcomeSkipped, err.Error(), nil)
			return nil, nil
		}
		rr.pe = pe
	}
	// Large-signal confirmation for nonlinear circuits (a cached model passed
	// it when it was built): the linearized gate cannot see rail-to-rail
	// behaviour.
	if !cached && rr.pe != nil {
		cerr, err := c.confirmReduced(rr, opts, nSteps, beSteps)
		if runctl.IsStop(err) {
			return nil, err
		}
		outcome, detail := diag.OutcomeOK, fmt.Sprintf("relerr=%.3g", cerr)
		if err != nil {
			outcome, detail = diag.OutcomeSkipped, err.Error()
		} else if cerr > confirmTol {
			outcome = diag.OutcomeFailed
			detail = fmt.Sprintf("large-signal relerr=%.3g above %g", cerr, confirmTol)
		}
		opts.Report.Record("mor", "confirm", outcome, detail, nil)
		if outcome != diag.OutcomeOK {
			morStatRejected.Add(1)
			morCachePut(fp, &morCacheEntry{})
			return nil, nil
		}
	}
	morStatEngaged.Add(1)
	detail := fmt.Sprintf("order=%d comps=%v ports=%d gate=%.3g",
		model.TotalOrder(), model.ComponentDims(), model.NumPorts(), model.GateErr)
	if cached {
		morStatCacheHits.Add(1)
		detail += " (cached)"
	} else {
		morCachePut(fp, &morCacheEntry{model: model})
	}
	opts.Report.Record("mor", "accept", diag.OutcomeOK, detail, nil)
	return rr, nil
}

// confirmReduced marches a window of the run with BOTH the full solver and
// the reduced model, probing the port rows, and returns the worst per-port
// relative RMS error. Full-solver element state (capacitor histories) is
// restored afterwards, so the production run starts clean either way.
func (c *Circuit) confirmReduced(rr *reducedRun, opts TranOpts, nSteps, beSteps int) (float64, error) {
	w := min(nSteps, confirmWindow)
	opts.CheckpointPath = ""
	ports := rr.ex.cl.ports
	probes := make([]Probe, len(ports))
	portPI := make([]int, len(ports))
	for pi, row := range ports {
		probes[pi] = rowProbe(row)
		portPI[pi] = pi
	}

	// A dedicated newtonState keeps the production solver untouched;
	// capacitor companion histories are snapshotted.
	savedCaps := c.capStates()
	defer func() {
		_ = c.restoreCapStates(savedCaps)
	}()
	ns := newNewtonState(c)
	copy(ns.x, rr.ex.sys.X0)
	red, err := c.newReducedStep(opts, rr, rr.model.NewRun(), portPI)
	if err != nil {
		return 0, err
	}
	var runs [2]*Result
	for i, st := range []stepper{&fullStep{c: c, ns: ns, opts: opts, probes: probes}, red} {
		runs[i] = newResult(nil, probes, w, st)
		if _, err := c.march(opts, st, runs[i], 1, w, beSteps); err != nil {
			return 0, err
		}
	}
	return mor.WorstRelRMS(runs[0].Signals, runs[1].Signals), nil
}

// rowProbe records one MNA row: the confirmation window probes the port
// rows.
type rowProbe int

// Label implements Probe.
func (p rowProbe) Label() string { return fmt.Sprintf("row%d", int(p)) }

func (p rowProbe) sample(x []float64, nNodes int) float64 { return x[p] }

// bailout is a reduced step's failure: the run restarts on the full solver
// (the reduced run touches no element state, so that is always legal).
type bailout struct {
	detail string
	err    error
}

func (b *bailout) Error() string {
	return "spice: reduced run bailed out: " + b.detail + ": " + b.err.Error()
}

func (b *bailout) Unwrap() error { return b.err }

// reducedStep advances the reduced model by one output grid step. It never
// sub-steps: every failure is a *bailout, so the dt march passes is always
// the grid step the steppers were prepared for.
type reducedStep struct {
	c          *Circuit
	rr         *reducedRun
	run        *mor.Run
	opts       TranOpts
	stBE, stTR *mor.Stepper
	u, uPrev   []float64
	probePI    []int // per signal: port index, or -1 for ground probes
	// x and xPrev are the expanded full-space states at the current and the
	// previous grid point, kept by checkpointing runs only (see snapshot).
	x, xPrev []float64
}

// newReducedStep prepares run for marching: the BE (and, for trapezoidal
// runs, TR) steppers at the output dt.
func (c *Circuit) newReducedStep(opts TranOpts, rr *reducedRun, run *mor.Run, probePI []int) (*reducedStep, error) {
	p := rr.model.NumPorts()
	s := &reducedStep{c: c, rr: rr, run: run, opts: opts, probePI: probePI,
		u: make([]float64, p), uPrev: make([]float64, p)}
	var err error
	if s.stBE, err = rr.model.PrepStepper(opts.DT, false); err != nil {
		return nil, &bailout{"preparing the BE stepper", err}
	}
	if opts.Method == Trapezoidal {
		if s.stTR, err = rr.model.PrepStepper(opts.DT, true); err != nil {
			return nil, &bailout{"preparing the TR stepper", err}
		}
	}
	if opts.CheckpointPath != "" {
		s.x = make([]float64, rr.model.N)
		s.xPrev = make([]float64, rr.model.N)
		run.ExpandInto(s.x)
	}
	return s, nil
}

func (s *reducedStep) advance(t, dt float64, step int, trap bool) error {
	if err := s.opts.ctl.Tick("spice.mor"); err != nil {
		return err
	}
	tNew := t + dt
	if s.opts.Injector != nil {
		if err := s.opts.Injector.At(diag.Site{Op: "spice.mor/step", Time: tNew, Step: step}); err != nil {
			return &bailout{"injected reduced-step fault", err}
		}
	}
	st := s.stBE
	if trap {
		st = s.stTR
	}
	s.rr.ex.sys.U(t, s.uPrev)
	s.rr.ex.sys.U(tNew, s.u)
	if _, err := s.run.Advance(st, tNew, s.u, s.uPrev, s.rr.pe, s.rr.newton); err != nil {
		return &bailout{fmt.Sprintf("reduced step failed at t=%g", tNew), err}
	}
	if s.x != nil {
		s.x, s.xPrev = s.xPrev, s.x
		s.run.ExpandInto(s.x)
	}
	return nil
}

func (s *reducedStep) sample(signals [][]float64) {
	pv := s.run.PortValues()
	for i, pi := range s.probePI {
		v := 0.0
		if pi >= 0 {
			v = pv[pi]
		}
		signals[i] = append(signals[i], v)
	}
}

// snapshot stores the expanded full-space state in X and backward-Euler
// estimates of the capacitor companion currents from the last step's
// expanded states in CapI — informative: a resume restores the reduced
// coordinates from the MOR blob, and only a full-solver continuation reads
// CapI.
func (s *reducedStep) snapshot(cp *Checkpoint) {
	nodeV := func(x []float64, id NodeID) float64 {
		if id == Ground {
			return 0
		}
		return x[id]
	}
	for _, e := range s.c.elems {
		if cap, ok := e.(*capacitor); ok {
			dv := (nodeV(s.x, cap.a) - nodeV(s.x, cap.b)) -
				(nodeV(s.xPrev, cap.a) - nodeV(s.xPrev, cap.b))
			cp.CapI = append(cp.CapI, cap.c*dv/s.opts.DT)
		}
	}
	st := s.run.CaptureState()
	cp.X = s.x
	cp.MOR = &MORCheckpoint{Fingerprint: s.rr.fp, T: st.T, V: st.V, Z: st.Z}
}

// runReduced marches rr over output grid steps from..to. bailed reports a
// *bailout: res is then cut back to its first `from` samples and the caller
// continues with the full solver. Otherwise the result and error are
// march's — a run-control stop or checkpoint I/O failure honours the
// partial-result contract.
func (c *Circuit) runReduced(opts TranOpts, rr *reducedRun, run *mor.Run, res *Result, from, to, beSteps int) (out *Result, err error, bailed bool) {
	st, err := c.newReducedStep(opts, rr, run, rr.ex.cl.probePI)
	if err == nil {
		out, err = c.march(opts, st, res, from, to, beSteps)
	}
	var b *bailout
	if !errors.As(err, &b) {
		return out, err, false
	}
	morStatFallback.Add(1)
	opts.Report.Record("mor", "bailout", diag.OutcomeFailed, b.detail, b.err)
	res.T = res.T[:from]
	for i := range res.Signals {
		res.Signals[i] = res.Signals[i][:from]
	}
	return nil, nil, true
}
