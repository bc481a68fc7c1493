package spice

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rlcint/internal/diag"
	"rlcint/internal/runctl"
	"rlcint/internal/sparse"
)

// Method selects the integration scheme.
type Method int

const (
	// Trapezoidal is second-order accurate; the first two steps of any run
	// use backward Euler to damp inconsistent initial conditions (the
	// standard "TR with BE start").
	Trapezoidal Method = iota
	// BackwardEuler is first-order and strongly damping.
	BackwardEuler
)

// TranOpts configure a transient run.
type TranOpts struct {
	TStop  float64 // end time, s
	DT     float64 // output/base timestep, s
	Method Method
	// UseICs starts from Circuit.SetIC values (inductor currents zero)
	// instead of a DC operating point — required for circuits with no
	// stable DC point, like ring oscillators.
	UseICs    bool
	MaxNewton int     // per-step Newton budget (default 50)
	ITol      float64 // residual tolerance (default 1e-9; A for KCL rows, V for branch rows)
	RelTol    float64 // relative solution-update tolerance (default 1e-6)
	VNTol     float64 // absolute solution-update tolerance (default 1e-9)
	Gmin      float64 // structural minimum conductance (default 1e-12 S)
	// MaxHalvings bounds internal step subdivision when Newton fails
	// (default 8 → the base step may shrink 256×).
	MaxHalvings int
	// MaxStep clamps each component of a Newton update (default 5; volts
	// for node rows, amperes for branch rows). This is the classic remedy
	// for the flat Jacobian of a saturated transistor, where a raw Newton
	// step can jump by kilovolts.
	MaxStep float64
	// NoBEStart disables the two backward-Euler startup steps; use only
	// when the initial conditions are exactly consistent.
	NoBEStart bool
	// NoFastPath disables the sparse-kernel fast path (symbolic-cache
	// refactorization, partitioned linear/nonlinear stamping, and the
	// linear-circuit factorization bypass — see fastpath.go) and restores
	// the legacy full-restamp/full-factorize Newton iteration. The fast
	// path produces bit-identical waveforms for linear circuits and agrees
	// to solver tolerance for nonlinear ones; this switch exists for the
	// differential test suite and as an escape hatch.
	NoFastPath bool
	// NoReduction disables the Krylov reduced-order transient fast path
	// (see reduce.go): the full per-step sparse solver runs regardless of
	// circuit structure. Reduced and full runs agree to the reduction
	// tolerance (1e-4 relative RMS waveform error), not bit-exactly — this
	// switch exists for differential testing, for resuming checkpoints
	// written by full-solver runs, and as an escape hatch.
	NoReduction bool
	// Injector injects solver faults for testing (nil in production).
	Injector *diag.Injector
	// Report, when non-nil, collects the recovery-ladder attempts of the
	// run (gmin rungs, TR→BE fallbacks, step halvings).
	Report *diag.Report
	// Limits bound the run in wall-clock time and total Newton iterations;
	// combined with the context passed to TransientCtx they make the run
	// cancellable at every iteration boundary. The zero value imposes no
	// bounds.
	Limits runctl.Limits
	// CheckpointPath, when non-empty, makes the run write a resumable
	// snapshot of the solver state (time, step, node voltages, element
	// history, recorded waveform) to this file — atomically, via temp file
	// and rename — every CheckpointEvery output grid steps, so a killed run
	// can be restarted bit-exactly with TransientResume.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in output grid steps
	// (default 64 when CheckpointPath is set).
	CheckpointEvery int
	// ResultBuf, when non-nil, is reset and used as the run's Result so its
	// backing waveform arrays are recycled — the returned *Result is
	// ResultBuf itself. Sweeps that only keep scalar metrics per run (e.g.
	// the Figure 11 period sweep) pass the same buffer to every run to
	// avoid re-allocating the waveform storage. The previous run's samples
	// are invalid once the buffer is passed back in.
	ResultBuf *Result

	// ctl is the per-run controller built by TransientCtx from the caller's
	// context and Limits; it flows to every nested solve of the run.
	ctl *runctl.Controller
}

// Validate rejects option sets whose tolerances or budgets are negative or
// non-finite — values a plain `== 0` default check would let through and
// silently corrupt the convergence tests. Zero fields still mean "default".
func (o TranOpts) Validate() error {
	if err := diag.CheckFinite("spice.TranOpts",
		[]string{"TStop", "DT", "ITol", "RelTol", "VNTol", "Gmin", "MaxStep"},
		[]float64{o.TStop, o.DT, o.ITol, o.RelTol, o.VNTol, o.Gmin, o.MaxStep}); err != nil {
		return err
	}
	names := []string{"ITol", "RelTol", "VNTol", "Gmin", "MaxStep"}
	vals := []float64{o.ITol, o.RelTol, o.VNTol, o.Gmin, o.MaxStep}
	for i, v := range vals {
		if v < 0 {
			return diag.Domainf("spice.TranOpts", "%s=%g must be non-negative", names[i], v)
		}
	}
	if o.MaxNewton < 0 || o.MaxHalvings < 0 {
		return diag.Domainf("spice.TranOpts", "negative budget MaxNewton=%d MaxHalvings=%d", o.MaxNewton, o.MaxHalvings)
	}
	if o.Limits.Timeout < 0 || o.Limits.MaxIters < 0 {
		return diag.Domainf("spice.TranOpts", "negative run limits Timeout=%v MaxIters=%d", o.Limits.Timeout, o.Limits.MaxIters)
	}
	if o.CheckpointEvery < 0 {
		return diag.Domainf("spice.TranOpts", "negative CheckpointEvery=%d", o.CheckpointEvery)
	}
	return nil
}

func (o TranOpts) withDefaults() (TranOpts, error) {
	if err := o.Validate(); err != nil {
		return o, err
	}
	if o.TStop <= 0 || o.DT <= 0 || o.DT > o.TStop {
		return o, diag.Domainf("spice.Transient", "invalid transient window tstop=%g dt=%g", o.TStop, o.DT)
	}
	if o.MaxNewton == 0 {
		o.MaxNewton = 50
	}
	if o.ITol == 0 {
		o.ITol = 1e-9
	}
	if o.RelTol == 0 {
		o.RelTol = 1e-6
	}
	if o.VNTol == 0 {
		o.VNTol = 1e-9
	}
	if o.Gmin == 0 {
		o.Gmin = 1e-12
	}
	if o.MaxHalvings == 0 {
		o.MaxHalvings = 8
	}
	if o.MaxStep == 0 {
		o.MaxStep = 5
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 64
	}
	return o, nil
}

// gridSteps is the number of output grid steps of the window.
func (o TranOpts) gridSteps() int {
	return int(math.Ceil(o.TStop/o.DT + 1e-9))
}

// beStart is the number of backward-Euler startup steps a run opens with.
func (o TranOpts) beStart() int {
	if o.NoBEStart {
		return 0
	}
	return 2
}

// Probe selects a signal to record during a transient run.
type Probe interface {
	Label() string
	sample(x []float64, nNodes int) float64
}

// NodeProbe records a node voltage.
type NodeProbe struct {
	Name string
	ID   NodeID
}

// Label implements Probe.
func (p NodeProbe) Label() string { return p.Name }

func (p NodeProbe) sample(x []float64, nNodes int) float64 {
	if p.ID == Ground {
		return 0
	}
	return x[p.ID]
}

// ProbeNode builds a NodeProbe for a named node.
func (c *Circuit) ProbeNode(name string) NodeProbe {
	return NodeProbe{Name: name, ID: c.Node(name)}
}

// BranchProbe records an inductor's branch current.
type BranchProbe struct {
	Name string
	L    *Inductor
}

// Label implements Probe.
func (p BranchProbe) Label() string { return p.Name }

func (p BranchProbe) sample(x []float64, nNodes int) float64 {
	return x[nNodes+p.L.bidx]
}

// SourceCurrentProbe records a voltage source's branch current (positive
// from the + terminal through the source to the − terminal).
type SourceCurrentProbe struct {
	Name string
	V    *VSource
}

// Label implements Probe.
func (p SourceCurrentProbe) Label() string { return p.Name }

func (p SourceCurrentProbe) sample(x []float64, nNodes int) float64 {
	return x[nNodes+p.V.bidx]
}

// Result holds sampled transient waveforms on the uniform output grid.
//
// Partial-result contract: when Transient aborts mid-run (timestep
// collapse, cancellation, deadline, or budget exhaustion), it returns the
// Result it has built so far ALONGSIDE the typed error — T and Signals
// preserve every sample recorded up to the last completed output grid
// point, Partial is true, and PartialT is the simulation time the solver
// reached before giving up.
type Result struct {
	T       []float64
	Signals [][]float64 // Signals[i][j] = probe i at T[j]
	Labels  []string
	// Partial marks a run that aborted before TStop; the samples up to the
	// abort point are valid.
	Partial bool
	// PartialT is the simulation time reached when a partial run aborted
	// (0 for complete runs).
	PartialT float64
	// Factor is the shape of the full solver's last LU factorization (zero
	// when the run never factored — e.g. a purely reduced-order run). It is
	// what spicesim -diag prints.
	Factor sparse.FactorStats
}

// Signal returns the waveform of the probe with the given label.
func (r *Result) Signal(label string) ([]float64, error) {
	for i, l := range r.Labels {
		if l == label {
			return r.Signals[i], nil
		}
	}
	return nil, fmt.Errorf("spice: no probe labelled %q", label)
}

// newtonState bundles the assembly/solve machinery shared by DC and
// transient analyses.
type newtonState struct {
	c      *Circuit
	n      int // total unknowns
	nNodes int
	trip   *sparse.Triplet
	lu     *sparse.LU
	res    []float64
	x      []float64
	xPrev  []float64
	dx     []float64
	xTry   []float64
	fast   fastAssembly
	// symStep is the grid step whose first solve last refreshed the symbolic
	// factorization (see factorizeFast's refresh schedule); -1 before any.
	symStep int
	// ld is the reusable per-sub-step loader of the transient loop; keeping
	// it here (rather than allocating one per sub-step) makes steady-state
	// transient steps allocation-free.
	ld loader
}

func newNewtonState(c *Circuit) *newtonState {
	n := c.NumUnknowns()
	ns := &newtonState{
		c:       c,
		n:       n,
		nNodes:  c.NumNodes(),
		trip:    sparse.NewTriplet(n),
		lu:      sparse.Workspace(n),
		res:     make([]float64, n),
		x:       make([]float64, n),
		xPrev:   make([]float64, n),
		dx:      make([]float64, n),
		xTry:    make([]float64, n),
		symStep: -1,
	}
	ns.fast.classify(c)
	return ns
}

// factorStats reports the shape of the run's LU factorization: the shared
// Newton workspace when it factored, else one of the linear bypass's cached
// per-configuration factors (they all share the circuit's pattern). Zero
// when nothing factored — a purely reduced-order run.
func (ns *newtonState) factorStats() sparse.FactorStats {
	if st := ns.lu.Stats(); st.N > 0 {
		return st
	}
	for _, lu := range ns.fast.factors {
		return lu.Stats()
	}
	return sparse.FactorStats{}
}

// assemble loads all elements for iterate x into the Jacobian and residual.
// While the stamping pattern is still unfrozen (the first assembly of the
// analysis) it records each element's start position in the stamp sequence,
// which the fast path later uses to restamp elements selectively.
func (ns *newtonState) assemble(ld *loader) {
	ns.trip.Reset()
	for i := range ns.res {
		ns.res[i] = 0
	}
	ld.nNodes = ns.nNodes
	ld.jac = ns.trip
	ld.res = ns.res
	if !ns.trip.Frozen() {
		for i, e := range ns.c.elems {
			ns.fast.starts[i] = ns.trip.Mark()
			e.load(ld)
		}
		return
	}
	for _, e := range ns.c.elems {
		e.load(ld)
	}
}

func infNorm(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Assembly strategies of solveNewton. The fast modes are selected
// automatically unless TranOpts.NoFastPath holds; both preserve the legacy
// mode's iteration structure, run-control ticks, and fault-injection sites
// exactly — they change how the system is (re)built and factored, not what
// the Newton loop does with it.
const (
	asmLegacy int = iota // full restamp + strict full factorization per iteration
	asmFast              // partitioned restamp + symbolic-cache refactorization
	asmLinear            // residual-only restamp + per-config cached factors
)

// newtonFail builds the typed diagnostic for a failed Newton solve.
func newtonFail(kind error, ld *loader, iter int, rnorm float64, cause error, detail string) *diag.Error {
	de := diag.New(kind, "spice.solveNewton")
	de.Time = ld.t
	de.Step = ld.step
	de.Iteration = iter
	de.Residual = rnorm
	de.Gmin = ld.gmin
	de.Detail = detail
	de.Err = cause
	return de
}

// reassemble rebuilds the system for the iterate in ld.x under the selected
// assembly strategy (the per-damping-trial hot call).
func (ns *newtonState) reassemble(ld *loader, mode int) {
	switch mode {
	case asmFast:
		ns.assembleFast(ld)
	case asmLinear:
		ns.assembleRes(ld)
	default:
		ns.assemble(ld)
	}
}

// solveNewton iterates the residual Newton loop for the configured loader
// until converged, returning the iteration count.
func (ns *newtonState) solveNewton(ld *loader, opts TranOpts) (int, error) {
	ld.x = ns.x
	ld.xPrev = ns.xPrev
	mode := asmLegacy
	if !opts.NoFastPath {
		if ns.fast.linearOnly {
			mode = asmLinear
		} else {
			mode = asmFast
		}
	}
	var csc *sparse.CSC
	var cachedLU *sparse.LU
	var cachedFerr error
	switch mode {
	case asmFast:
		ns.prepareFast(ld)
		csc = ns.fast.csc
		ns.assembleFast(ld)
	case asmLinear:
		var assembled bool
		cachedLU, assembled, cachedFerr = ns.linearFactor(ld)
		if !assembled {
			ns.assembleRes(ld)
		}
	default:
		ns.assemble(ld)
		csc = ns.trip.Compile()
	}
	rnorm := infNorm(ns.res)
	for iter := 1; iter <= opts.MaxNewton; iter++ {
		// Run control: every Newton iteration is a cancellation point and
		// consumes one unit of the iteration budget, so a cancelled or
		// over-budget solve unwinds within one iteration. Free when the run
		// is uncontrolled (nil controller).
		if err := opts.ctl.Tick("spice.newton"); err != nil {
			return iter, err
		}
		// Fault-injection sites: "spice.newton/<rung>" simulates a Newton
		// stall or residual blow-up; "spice.factorize/<rung>" a singular
		// system; "spice.refactorize/<rung>" (fast mode, consulted in
		// factorizeFast) a degraded refactorization that must fall back to a
		// full factorization. The nil-injector production path skips even the
		// site construction — the op-string concatenations would otherwise be
		// the only allocations in a steady-state iteration.
		var ferr error
		if opts.Injector != nil {
			site := diag.Site{Op: "spice.newton/" + ld.op, Time: ld.t, Step: ld.step, Iteration: iter, Gmin: ld.gmin}
			if err := opts.Injector.At(site); err != nil {
				return iter, newtonFail(diag.ErrNonConvergence, ld, iter, rnorm, err, "injected Newton fault")
			}
			site.Op = "spice.factorize/" + ld.op
			ferr = opts.Injector.At(site)
		}
		if ferr == nil {
			switch mode {
			case asmFast:
				ferr = ns.factorizeFast(ld, opts, csc, iter)
			case asmLinear:
				ferr = cachedFerr
			default:
				ferr = ns.lu.Factorize(csc, 1)
			}
		}
		if ferr != nil {
			return iter, newtonFail(diag.ErrSingularJacobian, ld, iter, rnorm, ferr, ld.op)
		}
		lu := ns.lu
		if mode == asmLinear {
			lu = cachedLU
		}
		lu.SolveInto(ns.dx, ns.res)
		// Per-component step limiting (the saturated-transistor guard).
		for i := range ns.dx {
			if ns.dx[i] > opts.MaxStep {
				ns.dx[i] = opts.MaxStep
			} else if ns.dx[i] < -opts.MaxStep {
				ns.dx[i] = -opts.MaxStep
			}
		}
		// Damped update: prefer a candidate whose residual does not blow up
		// (strict decrease is too strong for non-smooth devices); if every
		// damping level fails, take the most-damped step anyway — limiting
		// plus MaxNewton bound the damage, and refusing to move guarantees
		// a stall.
		lambda := 1.0
		var newNorm float64
		for h := 0; ; h++ {
			for i := range ns.x {
				ns.xTry[i] = ns.x[i] - lambda*ns.dx[i]
			}
			save := ns.x
			ns.x = ns.xTry
			ns.xTry = save
			ld.x = ns.x
			ns.reassemble(ld, mode)
			newNorm = infNorm(ns.res)
			if newNorm <= rnorm*1.01 || newNorm < opts.ITol || h >= 8 {
				break
			}
			ns.x, ns.xTry = ns.xTry, ns.x
			ld.x = ns.x
			lambda /= 2
		}
		// Convergence: small residual and small last update.
		dxn := lambda * infNorm(ns.dx)
		xn := infNorm(ns.x)
		if newNorm < opts.ITol && dxn < opts.VNTol+opts.RelTol*xn {
			return iter, nil
		}
		rnorm = newNorm
	}
	return opts.MaxNewton, newtonFail(diag.ErrNonConvergence, ld, opts.MaxNewton, rnorm, nil, "Newton budget exhausted")
}

// DCOpts configure DCOperatingPointWith: an optional fault injector, a
// recovery-ladder report collector, and run-control limits.
type DCOpts struct {
	Injector *diag.Injector
	Report   *diag.Report
	// Limits bound the solve in wall-clock time and Newton iterations.
	Limits runctl.Limits
	// NoFastPath disables the sparse-kernel fast path (see TranOpts).
	NoFastPath bool
}

// DCOperatingPoint solves the DC operating point (capacitors open,
// inductors shorted) with a two-rung recovery ladder: gmin stepping first,
// then source (supply) ramping when the gmin ladder cannot converge. Node
// initial conditions set via SetIC seed the Newton iteration.
func (c *Circuit) DCOperatingPoint() ([]float64, error) {
	return c.DCOperatingPointWith(DCOpts{})
}

// DCOperatingPointWith is DCOperatingPoint with explicit diagnostics
// plumbing. Terminal failures carry diag.ErrNonConvergence (or the more
// specific kind of the last rung's failure cause) and o.Report records
// every ladder rung tried.
func (c *Circuit) DCOperatingPointWith(o DCOpts) ([]float64, error) {
	return c.DCOperatingPointCtx(context.Background(), o)
}

// DCOperatingPointCtx is DCOperatingPointWith with cooperative
// cancellation: the solve checks ctx (and o.Limits) at every Newton
// iteration and returns a diag.ErrCancelled / ErrDeadline / ErrBudget
// failure when stopped. Panics in device evals surface as typed
// diag.ErrPanic errors.
func (c *Circuit) DCOperatingPointCtx(ctx context.Context, o DCOpts) (x []float64, err error) {
	defer diag.RecoverTo(&err, "spice.DCOperatingPoint")
	return c.dcOperatingPoint(runctl.New(ctx, o.Limits), o)
}

func (c *Circuit) dcOperatingPoint(ctl *runctl.Controller, o DCOpts) ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	opts, _ := TranOpts{TStop: 1, DT: 1}.withDefaults()
	opts.Injector = o.Injector
	opts.Report = o.Report
	opts.NoFastPath = o.NoFastPath
	opts.ctl = ctl
	ns := newNewtonState(c)
	seedICs := func() {
		for i := range ns.x {
			ns.x[i] = 0
		}
		for id, v := range c.ics {
			ns.x[id] = v
		}
	}
	seedICs()
	x, gminErr := c.dcGminLadder(ns, opts, o.Report)
	if gminErr == nil {
		return x, nil
	}
	// A run-control stop is terminal — retrying the ladder cannot help and
	// would ignore the caller's cancellation.
	if runctl.IsStop(gminErr) {
		return nil, gminErr
	}
	// Rung 2: source ramping. Restart from the IC seed — the all-sources-off
	// system is trivially solvable, and continuation walks the solution to
	// full supply strength.
	seedICs()
	x, rampErr := c.dcSourceRamp(ns, opts, o.Report)
	if rampErr == nil {
		return x, nil
	}
	de := diag.New(diag.ErrNonConvergence, "spice.DCOperatingPoint")
	de.Time = 0
	de.Detail = fmt.Sprintf("gmin ladder failed (%v); source ramp failed", gminErr)
	de.Err = rampErr
	return nil, de
}

// dcGminLadder walks gmin from 1e-3 down to the target 1e-12. A rung that
// fails after an earlier rung converged restores the last converged iterate
// and skips to the next gmin instead of aborting the whole solve; the
// ladder succeeds only when the final (target) rung converges.
func (c *Circuit) dcGminLadder(ns *newtonState, opts TranOpts, rep *diag.Report) ([]float64, error) {
	gmins := []float64{1e-3, 1e-5, 1e-7, 1e-9, 1e-12}
	conv := make([]float64, ns.n) // last converged iterate
	solvedAny := false
	finalOK := false
	var lastErr error
	for i, g := range gmins {
		rung := fmt.Sprintf("gmin=%g", g)
		ld := &loader{dc: true, gmin: g, t: 0, dt: 1, op: "dc-gmin", step: i}
		if _, err := ns.solveNewton(ld, opts); err != nil {
			if runctl.IsStop(err) {
				return nil, err
			}
			lastErr = err
			if solvedAny {
				// A mid-ladder stumble must not discard converged progress:
				// restore the last converged solution and try the next rung
				// from there.
				copy(ns.x, conv)
				rep.Record("dc-gmin", rung, diag.OutcomeSkipped, "restored last converged iterate", err)
			} else {
				rep.Record("dc-gmin", rung, diag.OutcomeFailed, "", err)
			}
			continue
		}
		solvedAny = true
		finalOK = i == len(gmins)-1
		copy(conv, ns.x)
		rep.Record("dc-gmin", rung, diag.OutcomeOK, "", nil)
	}
	if !finalOK {
		if lastErr == nil {
			lastErr = fmt.Errorf("spice: gmin ladder did not reach target gmin")
		}
		return nil, lastErr
	}
	out := make([]float64, ns.n)
	copy(out, ns.x)
	return out, nil
}

// dcSourceRamp performs source stepping: independent sources are attenuated
// to zero (a trivially solvable system), then ramped back to full strength
// in continuation steps, finishing with a full-strength polish at the
// target gmin.
func (c *Circuit) dcSourceRamp(ns *newtonState, opts TranOpts, rep *diag.Report) ([]float64, error) {
	ramps := []float64{1, 0.75, 0.5, 0.25, 0.1, 0}
	for i, ramp := range ramps {
		rung := fmt.Sprintf("scale=%g", 1-ramp)
		ld := &loader{dc: true, gmin: 1e-9, srcRamp: ramp, t: 0, dt: 1, op: "dc-ramp", step: i}
		if _, err := ns.solveNewton(ld, opts); err != nil {
			if !runctl.IsStop(err) {
				rep.Record("dc-ramp", rung, diag.OutcomeFailed, "", err)
			}
			return nil, err
		}
		rep.Record("dc-ramp", rung, diag.OutcomeOK, "", nil)
	}
	// Full sources converged at the stabilizing gmin; polish at the target.
	ld := &loader{dc: true, gmin: 1e-12, t: 0, dt: 1, op: "dc-ramp", step: len(ramps)}
	if _, err := ns.solveNewton(ld, opts); err != nil {
		rep.Record("dc-ramp", "polish", diag.OutcomeFailed, "", err)
		return nil, err
	}
	rep.Record("dc-ramp", "polish", diag.OutcomeOK, "", nil)
	out := make([]float64, ns.n)
	copy(out, ns.x)
	return out, nil
}

// Transient runs a fixed-grid transient analysis and records the probes.
func (c *Circuit) Transient(opts TranOpts, probes ...Probe) (*Result, error) {
	return c.TransientCtx(context.Background(), opts, probes...)
}

// TransientCtx is Transient with cooperative run control: the solve checks
// ctx (and opts.Limits) at every Newton iteration, so cancellation, an
// expired deadline, or an exhausted iteration budget returns within one
// integration step with the partial waveform recorded so far and a typed
// diag.ErrCancelled / ErrDeadline / ErrBudget failure carrying elapsed
// time and step context. Panics anywhere below (device evals included)
// surface as typed diag.ErrPanic errors, not process crashes.
func (c *Circuit) TransientCtx(ctx context.Context, opts TranOpts, probes ...Probe) (res *Result, err error) {
	defer diag.RecoverTo(&err, "spice.Transient")
	if err := c.Validate(); err != nil {
		return nil, err
	}
	opts, err = opts.withDefaults()
	if err != nil {
		return nil, err
	}
	opts.ctl = runctl.New(ctx, opts.Limits)
	ns := newNewtonState(c)

	if err := c.initialState(opts, ns.x); err != nil {
		return nil, fmt.Errorf("spice: Transient initial point: %w", err)
	}

	nSteps := opts.gridSteps()
	full := &fullStep{c: c, ns: ns, opts: opts, probes: probes}
	res = newResult(opts.ResultBuf, probes, nSteps, full)
	// Record the factor shape on every exit path (partial runs included) so
	// -diag output always reflects what the solver actually built; a purely
	// reduced-order run never factors.
	defer func() { res.Factor = ns.factorStats() }()
	beSteps := opts.beStart()

	// Krylov reduced-order fast path: when the circuit's linear partition
	// admits a gate-validated projection, march the reduced system instead
	// of the full one and fall back here on any reduced-step failure (the
	// reduced run touches no element state, so a full rerun from t=0 is
	// always legal).
	if rr, rerr := c.tryReduce(opts, ns.x, probes, nSteps, beSteps); rerr != nil {
		res.Partial = true
		return res, rerr
	} else if rr != nil {
		out, lerr, bailed := c.runReduced(opts, rr, rr.model.NewRun(), res, 1, nSteps, beSteps)
		if !bailed {
			return out, lerr
		}
		opts.Report.Record("mor", "fallback", diag.OutcomeSkipped,
			"reduced run bailed out; rerunning with the full solver", nil)
	}
	return c.march(opts, full, res, 1, nSteps, beSteps)
}

// initialState fills x with the run's t = 0 state: the SetIC values when
// opts.UseICs holds, else the DC operating point.
func (c *Circuit) initialState(opts TranOpts, x []float64) error {
	if opts.UseICs {
		for id, v := range c.ics {
			x[id] = v
		}
		return nil
	}
	x0, err := c.dcOperatingPoint(opts.ctl, DCOpts{Injector: opts.Injector, Report: opts.Report, NoFastPath: opts.NoFastPath})
	copy(x, x0)
	return err
}

// newResult returns buf (or a fresh Result) reset for a run of n output grid
// steps over probes, holding st's t = 0 sample.
func newResult(buf *Result, probes []Probe, n int, st stepper) *Result {
	res := buf
	if res == nil {
		res = &Result{}
	}
	res.Partial, res.PartialT = false, 0
	res.T = growCapF(res.T, n+1)
	if len(res.Signals) != len(probes) {
		res.Signals = make([][]float64, len(probes))
	}
	if len(res.Labels) != len(probes) {
		res.Labels = make([]string, len(probes))
	}
	for i, p := range probes {
		res.Labels[i] = p.Label()
		res.Signals[i] = growCapF(res.Signals[i], n+1)
	}
	res.T = append(res.T, 0)
	st.sample(res.Signals)
	return res
}

// growCapF returns b emptied, with capacity for at least n samples.
func growCapF(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, 0, n)
	}
	return b[:0]
}

// stepper advances a transient's solver state by one step. fullStep solves
// the whole MNA system; reducedStep (reduce.go) steps the reduced-order
// model. march, the fixed-grid loop, drives either; the adaptive loop drives
// fullStep.
type stepper interface {
	// advance moves the state from t to t+dt on output grid step `step`,
	// trapezoidal when trap holds and backward Euler otherwise. On error the
	// state is unchanged and the error is a run-control stop, a *bailout
	// (reducedStep only), or a Newton failure that a smaller step or the BE
	// scheme may cure.
	advance(t, dt float64, step int, trap bool) error
	// sample appends the current probe values, one per signal.
	sample(signals [][]float64)
	// snapshot fills the solver-state fields of a checkpoint: X, CapI and,
	// for a reduced run, MOR.
	snapshot(cp *Checkpoint)
}

// fullStep is the Newton step of the whole MNA system; solveNewton picks the
// legacy, symbolic-cache refactorization or linear-bypass assembly from the
// options and the circuit.
type fullStep struct {
	c      *Circuit
	ns     *newtonState
	opts   TranOpts
	probes []Probe
}

// solve runs the Newton solve from t to t+dt, leaving the converged iterate
// in ns.x; on failure ns.x is restored to the step's start.
func (s *fullStep) solve(t, dt float64, step int, trap bool) error {
	op := "tran-be"
	if trap {
		op = "tran-tr"
	}
	ns := s.ns
	ld := &ns.ld
	*ld = loader{t: t + dt, dt: dt, trap: trap, gmin: s.opts.Gmin, op: op, step: step}
	copy(ns.xPrev, ns.x)
	if _, err := ns.solveNewton(ld, s.opts); err != nil {
		copy(ns.x, ns.xPrev)
		return err
	}
	return nil
}

// commit accepts the solved step into the element state. The loader is
// reused as-is: solveNewton leaves ld.x on the converged iterate and
// ld.xPrev on the previous step's solution, exactly what accept needs.
func (s *fullStep) commit() {
	ld := &s.ns.ld
	ld.x = s.ns.x
	ld.xPrev = s.ns.xPrev
	for _, e := range s.c.elems {
		e.accept(ld)
	}
}

func (s *fullStep) advance(t, dt float64, step int, trap bool) error {
	if err := s.solve(t, dt, step, trap); err != nil {
		return err
	}
	s.commit()
	return nil
}

func (s *fullStep) sample(signals [][]float64) {
	for i, p := range s.probes {
		signals[i] = append(signals[i], p.sample(s.ns.x, s.ns.nNodes))
	}
}

func (s *fullStep) snapshot(cp *Checkpoint) {
	cp.X = s.ns.x
	cp.CapI = s.c.capStates()
}

// march is the fixed-grid loop: it advances st over output grid steps
// from..to, recording every grid point into res and writing checkpoints on
// the CheckpointEvery cadence. Fresh runs, checkpoint resumes, the full
// rerun after a reduced bail-out and both halves of the reduced model's
// confirmation window all march here. Because every per-grid-step
// controller variable (sub-step size, halving count, BE-fallback count)
// resets at each grid boundary, a resume from a boundary reproduces the
// uninterrupted run bit-exactly.
func (c *Circuit) march(opts TranOpts, st stepper, res *Result, from, to, beSteps int) (*Result, error) {
	t := float64(from-1) * opts.DT
	for step := from; step <= to; step++ {
		tTarget := float64(step) * opts.DT
		// March to the grid point, recovering from Newton failures with a
		// two-rung ladder: (1) retry the failing sub-interval with the
		// strongly damping backward-Euler scheme, then (2) halve the step,
		// until MaxHalvings is exhausted and the step declares collapse.
		dt := tTarget - t
		halvings := 0
		forceBE := 0
		for t < tTarget-1e-15*opts.TStop {
			if dt > tTarget-t {
				dt = tTarget - t
			}
			trap := opts.Method == Trapezoidal && beSteps <= 0 && forceBE == 0
			if err := st.advance(t, dt, step, trap); err != nil {
				// A run-control stop is not a convergence failure: skip the
				// recovery ladder, keep the waveform recorded so far, and
				// unwind with the typed stop carrying step context. A
				// bail-out goes straight back to the caller too.
				var b *bailout
				if runctl.IsStop(err) {
					res.Partial = true
					res.PartialT = t
					var de *diag.Error
					if errors.As(err, &de) {
						de.Time = t
						de.Step = step
					}
					return res, err
				} else if errors.As(err, &b) {
					return res, err
				}
				if trap {
					// Rung 1: auto-switch TR→BE for this sub-interval before
					// shrinking the step; BE's damping often absorbs the
					// transient that defeated the trapezoidal solve.
					forceBE = 2
					opts.Report.Record("tran-step", "be-fallback", diag.OutcomeOK,
						fmt.Sprintf("t=%g dt=%g", t+dt, dt), err)
					continue
				}
				// Rung 2: halve the step.
				halvings++
				if halvings > opts.MaxHalvings {
					res.Partial = true
					res.PartialT = t
					de := diag.New(diag.ErrTimestepCollapse, "spice.Transient")
					de.Time = t
					de.Step = step
					de.Detail = fmt.Sprintf("dt=%g after %d halvings", dt, halvings-1)
					de.Err = err
					opts.Report.Record("tran-step", "collapse", diag.OutcomeFailed,
						fmt.Sprintf("t=%g", t), de)
					return res, de
				}
				opts.Report.Record("tran-step", "halve", diag.OutcomeOK,
					fmt.Sprintf("t=%g dt=%g", t+dt, dt/2), err)
				dt /= 2
				continue
			}
			t += dt
			if beSteps > 0 {
				beSteps--
			}
			if forceBE > 0 {
				forceBE--
			}
			// Gently re-expand after successful sub-steps.
			if halvings > 0 {
				dt *= 2
				halvings--
			}
		}
		t = tTarget
		res.T = append(res.T, float64(len(res.T))*opts.DT)
		st.sample(res.Signals)
		if opts.CheckpointPath != "" && (step%opts.CheckpointEvery == 0 || step == to) {
			if err := c.writeCheckpoint(opts, step, beSteps, st, res); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}
