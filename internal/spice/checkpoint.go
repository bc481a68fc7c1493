package spice

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rlcint/internal/diag"
	"rlcint/internal/mor"
	"rlcint/internal/runctl"
)

// checkpointVersion is bumped whenever the serialized layout changes;
// LoadCheckpoint rejects mismatches with a typed domain error instead of
// silently resuming from an incompatible state.
const checkpointVersion = 1

// Checkpoint is a resumable snapshot of a fixed-grid transient run taken at
// an output grid boundary. It captures everything the solver needs to
// continue bit-exactly: the window and method (to verify the resume
// matches), the last completed grid step, the MNA solution vector, the
// per-capacitor companion-model history, the backward-Euler startup
// counter, and the waveform recorded so far.
//
// Floating-point fields survive the JSON round trip exactly: Go marshals
// float64 with the shortest representation that parses back to the same
// bits.
type Checkpoint struct {
	Version   int     `json:"version"`
	TStop     float64 `json:"tstop"`
	DT        float64 `json:"dt"`
	Method    int     `json:"method"`
	NUnknowns int     `json:"n_unknowns"`
	NCaps     int     `json:"n_caps"`

	Step    int       `json:"step"`     // last completed output grid step; t = Step·DT
	BESteps int       `json:"be_steps"` // remaining backward-Euler startup steps
	X       []float64 `json:"x"`        // MNA solution at the boundary [v; ibranch]
	CapI    []float64 `json:"cap_i"`    // capacitor companion currents, element order

	T       []float64   `json:"t"`
	Labels  []string    `json:"labels"`
	Signals [][]float64 `json:"signals"`

	// MOR, when non-nil, marks a checkpoint written by the reduced-order
	// fast path (reduce.go). X still carries the expanded full-space state,
	// but bit-exact continuation requires restoring the reduced recursion:
	// resume rebuilds the model (deterministic), verifies Fingerprint, and
	// restores (T, V, Z). Resuming such a checkpoint with NoReduction or
	// NoFastPath set is refused — it could not reproduce the original run.
	MOR *MORCheckpoint `json:"mor,omitempty"`
}

// MORCheckpoint is the reduced-order solver state inside a Checkpoint: the
// model-content fingerprint and the reduced coordinates (port values V and
// per-component Krylov coordinates Z) at the boundary.
type MORCheckpoint struct {
	Fingerprint uint64      `json:"fingerprint"`
	T           float64     `json:"t"`
	V           []float64   `json:"v"`
	Z           [][]float64 `json:"z"`
}

// capStates collects the trapezoidal companion history of every capacitor
// in element order — the only element-internal state a transient run
// mutates (inductors and sources keep their history in the branch rows of
// X).
func (c *Circuit) capStates() []float64 {
	var out []float64
	for _, e := range c.elems {
		if cap, ok := e.(*capacitor); ok {
			out = append(out, cap.iPrev)
		}
	}
	return out
}

func (c *Circuit) restoreCapStates(v []float64) error {
	i := 0
	for _, e := range c.elems {
		if cap, ok := e.(*capacitor); ok {
			if i >= len(v) {
				return diag.Domainf("spice.TransientResume", "checkpoint has %d capacitor states, circuit needs more", len(v))
			}
			cap.iPrev = v[i]
			i++
		}
	}
	if i != len(v) {
		return diag.Domainf("spice.TransientResume", "checkpoint has %d capacitor states, circuit has %d capacitors", len(v), i)
	}
	return nil
}

// writeCheckpoint snapshots the run at the current grid boundary, with st
// supplying the solver state, and writes it atomically (temp file in the
// same directory, fsync, rename) so a kill mid-write leaves the previous
// checkpoint intact.
func (c *Circuit) writeCheckpoint(opts TranOpts, step, beSteps int, st stepper, res *Result) error {
	cp := &Checkpoint{
		Version:   checkpointVersion,
		TStop:     opts.TStop,
		DT:        opts.DT,
		Method:    int(opts.Method),
		NUnknowns: c.NumUnknowns(),
		Step:      step,
		BESteps:   beSteps,
		T:         res.T,
		Labels:    res.Labels,
		Signals:   res.Signals,
	}
	st.snapshot(cp)
	cp.NCaps = len(cp.CapI)
	return cp.WriteFile(opts.CheckpointPath)
}

// WriteFile serializes the checkpoint atomically to path.
func (cp *Checkpoint) WriteFile(path string) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("spice: checkpoint encode: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("spice: checkpoint write: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("spice: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("spice: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("spice: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("spice: checkpoint rename: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file written by a
// transient run with TranOpts.CheckpointPath set.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spice: checkpoint read: %w", err)
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("spice: checkpoint decode: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, diag.Domainf("spice.LoadCheckpoint", "checkpoint version %d, this build reads version %d", cp.Version, checkpointVersion)
	}
	if len(cp.X) != cp.NUnknowns || len(cp.CapI) != cp.NCaps || len(cp.Signals) != len(cp.Labels) {
		return nil, diag.Domainf("spice.LoadCheckpoint", "inconsistent checkpoint: |X|=%d n=%d |CapI|=%d caps=%d", len(cp.X), cp.NUnknowns, len(cp.CapI), cp.NCaps)
	}
	return cp, nil
}

// TransientResume continues a transient run from a checkpoint.
func (c *Circuit) TransientResume(cp *Checkpoint, opts TranOpts, probes ...Probe) (*Result, error) {
	return c.TransientResumeCtx(context.Background(), cp, opts, probes...)
}

// TransientResumeCtx restarts a checkpointed transient run on the same
// circuit, window, and probes, and marches it to completion; the final
// Result is bit-identical to the uninterrupted run's. The checkpoint must
// match the circuit (unknown and capacitor counts), the window (TStop, DT,
// Method), and the probe labels; mismatches fail with typed domain errors
// rather than resuming into garbage. The resumed run honours ctx,
// opts.Limits, and opts.CheckpointPath like a fresh TransientCtx run.
func (c *Circuit) TransientResumeCtx(ctx context.Context, cp *Checkpoint, opts TranOpts, probes ...Probe) (res *Result, err error) {
	defer diag.RecoverTo(&err, "spice.TransientResume")
	if cp == nil {
		return nil, diag.Domainf("spice.TransientResume", "nil checkpoint")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	opts, err = opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if cp.TStop != opts.TStop || cp.DT != opts.DT || cp.Method != int(opts.Method) {
		return nil, diag.Domainf("spice.TransientResume",
			"checkpoint window (tstop=%g dt=%g method=%d) does not match options (tstop=%g dt=%g method=%d)",
			cp.TStop, cp.DT, cp.Method, opts.TStop, opts.DT, int(opts.Method))
	}
	if cp.NUnknowns != c.NumUnknowns() {
		return nil, diag.Domainf("spice.TransientResume", "checkpoint has %d unknowns, circuit has %d", cp.NUnknowns, c.NumUnknowns())
	}
	if len(cp.Labels) != len(probes) {
		return nil, diag.Domainf("spice.TransientResume", "checkpoint has %d probes, resume requests %d", len(cp.Labels), len(probes))
	}
	for i, p := range probes {
		if p.Label() != cp.Labels[i] {
			return nil, diag.Domainf("spice.TransientResume", "probe %d is %q, checkpoint recorded %q", i, p.Label(), cp.Labels[i])
		}
	}
	if cp.Step < 1 || len(cp.T) != cp.Step+1 {
		return nil, diag.Domainf("spice.TransientResume", "checkpoint at step %d carries %d samples", cp.Step, len(cp.T))
	}

	ns := newNewtonState(c)
	copy(ns.x, cp.X)
	if err := c.restoreCapStates(cp.CapI); err != nil {
		return nil, err
	}

	// Rebuild the Result from the checkpoint, copying so the caller's
	// Checkpoint stays immutable while the run appends.
	nSteps := opts.gridSteps()
	res = &Result{
		T:       append(make([]float64, 0, nSteps+1), cp.T...),
		Signals: make([][]float64, len(cp.Signals)),
		Labels:  append([]string(nil), cp.Labels...),
	}
	for i, s := range cp.Signals {
		res.Signals[i] = append(make([]float64, 0, nSteps+1), s...)
	}
	if cp.Step >= nSteps {
		return res, nil // the checkpoint already covers the full window
	}
	opts.ctl = runctl.New(ctx, opts.Limits)
	defer func() {
		if res != nil {
			res.Factor = ns.factorStats()
		}
	}()

	if cp.MOR != nil {
		if opts.NoReduction || opts.NoFastPath {
			return nil, diag.Domainf("spice.TransientResume",
				"checkpoint was written by the reduced-order fast path; resuming with NoReduction/NoFastPath cannot reproduce the run")
		}
		out, rerr, resumed := c.resumeReduced(opts, cp, res, probes, nSteps)
		if resumed {
			return out, rerr
		}
		// The model could not be rebuilt or the reduced continuation bailed
		// out: continue with the full solver from the expanded state. The
		// waveform stays within the reduction tolerance but is no longer
		// bit-identical to the uninterrupted run.
		opts.Report.Record("mor", "resume-fallback", diag.OutcomeSkipped,
			"continuing a reduced checkpoint with the full solver", nil)
	}
	return c.march(opts, &fullStep{c: c, ns: ns, opts: opts, probes: probes}, res, cp.Step+1, nSteps, cp.BESteps)
}

// resumeReduced rebuilds the reduced model for a MOR checkpoint, verifies
// the content fingerprint, restores the reduced state, and continues the
// reduced run. resumed=false means the caller should fall back to the full
// solver.
func (c *Circuit) resumeReduced(opts TranOpts, cp *Checkpoint, res *Result, probes []Probe, nSteps int) (*Result, error, bool) {
	// The model was built from the run's INITIAL state, not the checkpoint
	// state — reconstruct it exactly as TransientCtx did (both paths are
	// deterministic, so the rebuilt model matches the original bit for bit).
	x0 := make([]float64, c.NumUnknowns())
	if err := c.initialState(opts, x0); err != nil {
		return nil, nil, false
	}
	rr, rerr := c.tryReduce(opts, x0, probes, nSteps, opts.beStart())
	if rerr != nil {
		res.Partial = true
		return res, rerr, true
	}
	if rr == nil {
		return nil, nil, false
	}
	if rr.fp != cp.MOR.Fingerprint {
		return nil, diag.Domainf("spice.TransientResume",
			"checkpoint fingerprint %x does not match the rebuilt reduced model %x — circuit or options changed",
			cp.MOR.Fingerprint, rr.fp), true
	}
	run := rr.model.NewRun()
	if err := run.RestoreState(mor.RunState{T: cp.MOR.T, V: cp.MOR.V, Z: cp.MOR.Z}); err != nil {
		return nil, nil, false
	}
	out, err, bailed := c.runReduced(opts, rr, run, res, cp.Step+1, nSteps, cp.BESteps)
	return out, err, !bailed
}
