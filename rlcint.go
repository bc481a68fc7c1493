// Package rlcint is a library for analyzing on-chip inductance effects and
// optimizing repeater insertion for distributed RLC interconnects. It
// reproduces the methodology of Banerjee & Mehrotra, "Analysis of On-Chip
// Inductance Effects using a Novel Performance Optimization Methodology for
// Distributed RLC Interconnects" (DAC 2001):
//
//   - a rigorous two-pole delay model of the driver–line–load stage derived
//     from the exact ABCD transfer function (no curve fitting), with the
//     numerically solved f×100% delay of the paper's Eq. (3);
//   - repeater insertion by direct minimization of delay per unit length
//     over segment length h and repeater size k (Eqs. (7)–(8));
//   - the classical Elmore/RC optimum, critical inductance (Eq. (4)), and
//     the Kahng–Muddu and Ismail–Friedman baselines;
//   - a transient MNA circuit simulator with a calibrated repeater model
//     for the ring-oscillator, false-switching and reliability experiments;
//   - geometry-based r/l/c extraction (closed forms and a 2-D BEM solver).
//
// The package root re-exports the stable public surface; the implementation
// lives under internal/. Start with Optimize:
//
//	opt, err := rlcint.Optimize(rlcint.Tech100(), 2*rlcint.NHPerMM, 0.5)
package rlcint

import (
	"context"

	"rlcint/internal/baseline"
	"rlcint/internal/core"
	"rlcint/internal/diag"
	"rlcint/internal/extract"
	"rlcint/internal/pade"
	"rlcint/internal/relia"
	"rlcint/internal/repeater"
	"rlcint/internal/ringosc"
	"rlcint/internal/runctl"
	"rlcint/internal/tech"
	"rlcint/internal/tline"
)

// Typed solver diagnostics: every iterative routine in the library reports
// failures that wrap exactly one of these sentinels, matchable with
// errors.Is; the structured context travels in a *SolverError extractable
// with errors.As.
var (
	// ErrNonConvergence marks an iterative solve that exhausted its budget
	// or stalled without meeting its tolerance.
	ErrNonConvergence = diag.ErrNonConvergence
	// ErrSingularJacobian marks a linear(ized) system with no usable pivot.
	ErrSingularJacobian = diag.ErrSingularJacobian
	// ErrTimestepCollapse marks transient step control that halved past its
	// floor without recovering; the accompanying result is partial.
	ErrTimestepCollapse = diag.ErrTimestepCollapse
	// ErrDomain marks an input outside a routine's domain (NaN/Inf values,
	// negative tolerances, thresholds outside their interval, ...).
	ErrDomain = diag.ErrDomain
	// ErrCancelled marks a solve stopped by context cancellation; the
	// accompanying result (where the API returns one) holds the work
	// completed before the stop.
	ErrCancelled = diag.ErrCancelled
	// ErrDeadline marks a solve stopped by an expired context deadline or
	// an exhausted RunLimits.Timeout wall-clock budget.
	ErrDeadline = diag.ErrDeadline
	// ErrBudget marks a solve stopped by an exhausted RunLimits.MaxIters
	// iteration budget.
	ErrBudget = diag.ErrBudget
	// ErrPanic marks a panic inside the solver stack, contained at the
	// public API boundary; the *SolverError carries the stack trace.
	ErrPanic = diag.ErrPanic
)

// RunLimits bound a single solve: Timeout is a wall-clock budget and
// MaxIters an iteration budget (the iteration unit is each solver's inner
// loop — Newton iterations, simplex steps, Monte-Carlo trials). The zero
// value imposes no bounds. Limits compose with context cancellation: every
// long-running solver checks both at iteration boundaries and returns a
// typed ErrCancelled / ErrDeadline / ErrBudget failure within one step.
type RunLimits = runctl.Limits

// IsRunStop reports whether err is a terminal run-control stop
// (ErrCancelled, ErrDeadline, or ErrBudget) rather than a convergence
// failure — the distinction recovery logic must make: stops should never
// be retried.
func IsRunStop(err error) bool { return runctl.IsStop(err) }

// SolverError is a typed solver failure carrying structured context (time,
// iteration, residual norm, gmin level, damping level).
type SolverError = diag.Error

// DiagReport collects the recovery-ladder attempts of one solver run; pass
// one to OptimizeWithReport (or spice.TranOpts.Report) and inspect or print
// it afterwards.
type DiagReport = diag.Report

// DiagAttempt is one recorded rung of a recovery ladder.
type DiagAttempt = diag.Attempt

// DiagString renders an error for human consumption: typed solver failures
// get a multi-line breakdown of their context, and a non-nil report appends
// the recovery attempts. Plain errors render as themselves.
func DiagString(err error, rep *DiagReport) string { return diag.Describe(err, rep) }

// Unit conversion constants (the paper's engineering units to SI).
const (
	OhmPerMM = tech.OhmPerMM // Ω/mm → Ω/m
	PFPerM   = tech.PFPerM   // pF/m → F/m
	NHPerMM  = tech.NHPerMM  // nH/mm → H/m
	MM       = tech.MM       // mm → m
	UM       = tech.UM       // µm → m
	FF       = tech.FF       // fF → F
	KOhm     = tech.KOhm     // kΩ → Ω
	PS       = tech.PS       // ps → s
)

// Technology bundles a node's interconnect and device parameters (Table 1).
type Technology = tech.Node

// Tech250 returns the paper's 250 nm node (metal 6).
func Tech250() Technology { return tech.Node250() }

// Tech100 returns the paper's 100 nm node (metal 8).
func Tech100() Technology { return tech.Node100() }

// Tech100Eps250 returns the paper's control: the 100 nm node with the
// 250 nm dielectric (identical capacitance per unit length).
func Tech100Eps250() Technology { return tech.Node100WithEps250() }

// Technologies returns the two primary nodes.
func Technologies() []Technology { return tech.Nodes() }

// TechByName looks a node up ("250nm", "100nm", "100nm-eps250").
func TechByName(name string) (Technology, error) { return tech.ByName(name) }

// Line holds per-unit-length r, l, c of a uniform interconnect (SI).
type Line = tline.Line

// Stage is a driver–line–load configuration (the paper's Figure 1).
type Stage = tline.Stage

// Device is a minimum-sized repeater (r_s, c_0, c_p).
type Device = repeater.MinDevice

// DeviceOf extracts the repeater device of a technology.
func DeviceOf(t Technology) Device { return repeater.FromTech(t) }

// LineOf builds the technology's top-metal line with inductance l (H/m).
func LineOf(t Technology, l float64) Line { return Line{R: t.R, L: l, C: t.C} }

// StageOf assembles the stage for a size-k repeater driving h meters of the
// technology's line with inductance l, loaded by an identical repeater.
func StageOf(t Technology, l, h, k float64) Stage {
	return DeviceOf(t).Stage(LineOf(t, l), h, k)
}

// TwoPole is the paper's second-order delay model (Eq. (2)).
type TwoPole = pade.Model

// TwoPoleOf builds the two-pole model of a stage from the exact transfer
// function's first two moments.
func TwoPoleOf(st Stage) (TwoPole, error) { return pade.FromStage(st) }

// Delay solves the paper's Eq. (3): the time at which the stage's step
// response first reaches fraction f (0 < f < 1) of the final value.
func Delay(st Stage, f float64) (tau float64, err error) {
	defer diag.RecoverTo(&err, "rlcint.Delay")
	m, err := pade.FromStage(st)
	if err != nil {
		return 0, err
	}
	d, err := m.Delay(f)
	if err != nil {
		return 0, err
	}
	return d.Tau, nil
}

// LCrit evaluates the paper's Eq. (4): the line inductance per unit length
// that would make the stage critically damped (st.Line.L is ignored).
func LCrit(st Stage) float64 { return pade.LCrit(st) }

// Optimum is a repeater-insertion solution.
type Optimum = core.Optimum

// RCOptimum is the classical Elmore-delay solution.
type RCOptimum = repeater.RCOptimum

// Optimize minimizes the delay per unit length over segment length and
// repeater size for the technology's line with inductance l (H/m) at
// threshold f (0 → 50%). This is the paper's core methodology.
func Optimize(t Technology, l, f float64) (Optimum, error) {
	return core.Optimize(core.Problem{Device: DeviceOf(t), Line: LineOf(t, l), F: f})
}

// OptimizeCtx is Optimize under run control: the optimizer ladder checks
// ctx and lim at every inner iteration, so cancellation or an exhausted
// budget aborts promptly with a typed stop error (match with IsRunStop).
func OptimizeCtx(ctx context.Context, t Technology, l, f float64, lim RunLimits) (Optimum, error) {
	return core.OptimizeCtx(ctx, core.Problem{Device: DeviceOf(t), Line: LineOf(t, l), F: f, Limits: lim})
}

// OptimizeWithReport is Optimize with a recovery-ladder report collector:
// rep records which optimizer rungs ran (Newton cold start from the
// closed form, a certificate that rejected its point, Nelder–Mead
// fallback, polish) and how each fared.
func OptimizeWithReport(t Technology, l, f float64, rep *DiagReport) (Optimum, error) {
	return core.Optimize(core.Problem{Device: DeviceOf(t), Line: LineOf(t, l), F: f, Report: rep})
}

// OptimizeRC returns the closed-form Elmore/RC optimum (h_optRC, k_optRC,
// τ_optRC) for the technology.
func OptimizeRC(t Technology) (RCOptimum, error) {
	return repeater.RCOptimal(DeviceOf(t), Line{R: t.R, C: t.C})
}

// ExtractDevice recovers (r_s, c_0, c_p) from measured RC-optimal h, k and
// segment delay — the procedure behind Table 1.
func ExtractDevice(line Line, h, k, tau float64) (Device, error) {
	return repeater.Extract(line, h, k, tau)
}

// SweepPoint carries the Figure 4–8 quantities at one inductance.
type SweepPoint = core.SweepPoint

// SweepOptions configure the batched sweep engine: worker count, tile size,
// and warm-start continuation. See core.SweepOptions for the determinism
// contract.
type SweepOptions = core.SweepOptions

// NodeSweep pairs a technology node with its sweep row.
type NodeSweep = core.NodeSweep

// Sweep runs the paper's Section 3 study over per-unit-length inductances
// (H/m) at threshold f. Points evaluate concurrently through the batched
// engine with cold-start defaults, so results are bit-identical to the
// serial reference at any worker count; use SweepBatch for warm-start
// continuation or explicit worker/tile control.
func Sweep(t Technology, ls []float64, f float64) ([]SweepPoint, error) {
	return core.SweepBatchCtx(context.Background(), core.SweepOptions{}, t, ls, f)
}

// SweepBatch is Sweep with explicit engine options (workers, tile size,
// warm-start continuation, limits).
func SweepBatch(ctx context.Context, opts SweepOptions, t Technology, ls []float64, f float64) ([]SweepPoint, error) {
	return core.SweepBatchCtx(ctx, opts, t, ls, f)
}

// SweepNodes runs the study for several technology nodes concurrently —
// the engine behind cmd/figures' Figures 4–8 — returning one row per node.
// On a stop or error the completed prefix of rows (last possibly partial)
// is returned alongside the typed error.
func SweepNodes(ctx context.Context, opts SweepOptions, ts []Technology, ls []float64, f float64) ([]NodeSweep, error) {
	return core.SweepNodesCtx(ctx, opts, ts, ls, f)
}

// SweepCtx is Sweep under run control; a stopped sweep returns the
// completed prefix of points alongside the typed stop error. It runs the
// serial reference path (one point at a time, cold starts) — the batched
// engine's workers=1 cold mode is bit-identical to it.
func SweepCtx(ctx context.Context, t Technology, ls []float64, f float64, lim RunLimits) ([]SweepPoint, error) {
	return core.SweepCtx(ctx, lim, t, ls, f)
}

// IFOptimum is the Ismail–Friedman curve-fitted baseline solution.
type IFOptimum = baseline.IFOptimum

// OptimizeIF evaluates the Ismail–Friedman fitted repeater formulas.
func OptimizeIF(t Technology, l float64) (IFOptimum, error) {
	return baseline.IFOptimal(DeviceOf(t), LineOf(t, l))
}

// KMDelay evaluates the Kahng–Muddu analytical delay approximation for a
// two-pole model; the returned regime identifies the branch used.
func KMDelay(m TwoPole, f float64) (float64, baseline.KMRegime, error) {
	return baseline.KMDelay(m, f)
}

// RingConfig configures a ring-oscillator or buffered-line experiment.
type RingConfig = ringosc.Config

// RingWaves are the monitored waveforms of a transient experiment.
type RingWaves = ringosc.Waves

// RingMetrics are the scalar measurements of a transient experiment.
type RingMetrics = ringosc.Metrics

// RunRing simulates the paper's five-stage ring oscillator (Figures 9–11).
func RunRing(cfg RingConfig) (w RingWaves, m RingMetrics, err error) {
	defer diag.RecoverTo(&err, "rlcint.RunRing")
	return ringosc.RunRing(cfg)
}

// RunBufferedLine simulates the square-wave-driven buffered line the paper
// uses to show false switching is not a ring artifact.
func RunBufferedLine(cfg RingConfig) (w RingWaves, m RingMetrics, err error) {
	defer diag.RecoverTo(&err, "rlcint.RunBufferedLine")
	return ringosc.RunBufferedLine(cfg)
}

// PeriodPoint is one point of the Figure 11 period-versus-inductance sweep.
type PeriodPoint = ringosc.PeriodPoint

// SweepRingPeriod sweeps the ring oscillator over line inductances and
// flags period collapse (false switching).
func SweepRingPeriod(cfg RingConfig, ls []float64) (pts []PeriodPoint, err error) {
	defer diag.RecoverTo(&err, "rlcint.SweepRingPeriod")
	return ringosc.SweepPeriod(cfg, ls)
}

// OxideReport assesses gate-oxide overstress from inductive overshoot.
type OxideReport = relia.OxideReport

// CheckOxide evaluates oxide stress given the measured overshoot above VDD
// at a repeater input (Section 3.3.2).
func CheckOxide(t Technology, overshootV float64) (OxideReport, error) {
	return relia.CheckOxide(t, overshootV)
}

// WireReport screens wire current densities against electromigration and
// Joule-heating limits.
type WireReport = relia.WireReport

// CheckWire screens peak and rms current densities (A/m²).
func CheckWire(peakJ, rmsJ float64) (WireReport, error) {
	return relia.CheckWire(peakJ, rmsJ)
}

// ExtractResistance returns r (Ω/m) for a copper wire cross-section at the
// given temperature (°C).
func ExtractResistance(width, thickness, tempC float64) (float64, error) {
	return extract.ResistancePUL(extract.RhoAtTemp(extract.RhoCu, extract.TCRCu, tempC), width, thickness)
}

// ExtractCapacitance returns the victim line's total capacitance per unit
// length (F/m) for the standard three-line-over-substrate cross-section,
// using the 2-D BEM extractor.
func ExtractCapacitance(width, thickness, pitch, tIns, epsr float64) (float64, error) {
	return extract.TotalCap2D(extract.Table1Geometry(width, thickness, pitch, tIns), 0, epsr, 14)
}

// ExtractLoopInductance returns the line's loop inductance per unit length
// (H/m) for a current return at distance returnDist, for a wire of the
// given length (the partial-inductance composition depends weakly on it).
func ExtractLoopInductance(width, thickness, length, returnDist float64) (float64, error) {
	return extract.LoopLPUL(length, width, thickness, returnDist)
}
