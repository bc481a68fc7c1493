// Package power models the power drawn by a buffered RLC interconnect and
// optimizes the delay/power tradeoff the paper's delay-only methodology
// leaves on the table.
//
// Per repeater stage it composes three standard terms:
//
//   - dynamic switching power α·C·V²·f over the stamped stage capacitance
//     (the line segment plus the repeater input and parasitic capacitance —
//     exactly the capacitance the delay model stamps);
//   - short-circuit power from the input slew via Veendrick's formula, the
//     slew taken from the same two-pole step response the delay optimizer
//     uses (a repeater's input transition is the previous identical stage's
//     output transition);
//   - subthreshold leakage from the technology table's minimum-device
//     off-current, scaled by the repeater size.
//
// On top of the estimator, pareto.go traces the delay/power Pareto front
// with warm-start continuation and plan.go builds mixed-scheme repeater
// plans that trade a bounded delay penalty for power (the RIP result).
package power

import (
	"math"

	"rlcint/internal/diag"
	"rlcint/internal/pade"
	"rlcint/internal/repeater"
	"rlcint/internal/tech"
	"rlcint/internal/tline"
)

// Params are the workload parameters of the power model: how often the net
// switches. They are inputs a technology table cannot supply.
type Params struct {
	// Alpha is the switching activity factor: the probability that the net
	// completes a full charge/discharge cycle in a clock period. In (0, 1]
	// (1 = clock-like toggling).
	Alpha float64
	// Freq is the clock frequency, Hz.
	Freq float64
}

// Validate rejects out-of-domain workload parameters (including NaN/Inf)
// with a diag.ErrDomain-matchable error.
func (p Params) Validate() error {
	if err := diag.CheckFinite("power.Params",
		[]string{"alpha", "freq"}, []float64{p.Alpha, p.Freq}); err != nil {
		return err
	}
	if !(p.Alpha > 0) || p.Alpha > 1 {
		return diag.Domainf("power.Params", "activity factor alpha=%g outside (0,1]", p.Alpha)
	}
	if !(p.Freq > 0) {
		return diag.Domainf("power.Params", "frequency f=%g must be positive", p.Freq)
	}
	return nil
}

// Breakdown is the power drawn by one repeater stage (the size-k repeater
// plus its length-h line segment), in watts.
type Breakdown struct {
	Dynamic      float64 // α·C_stage·V²·f switching power, W
	ShortCircuit float64 // Veendrick crowbar power, W
	Leakage      float64 // subthreshold leakage k·Ioff·VDD, W
}

// Total is the stage's total power, W.
func (b Breakdown) Total() float64 { return b.Dynamic + b.ShortCircuit + b.Leakage }

// Model binds a technology node, a line, and the workload parameters into a
// per-stage power estimator. Build with New, which validates.
type Model struct {
	Node   tech.Node
	Line   tline.Line
	Device repeater.MinDevice
	Params Params
}

// New builds a power model for the node's top-metal line with per-unit-
// length inductance l (H/m). The node must carry power parameters (Vt,
// Ioff); the paper's tabulated nodes do.
func New(node tech.Node, l float64, prm Params) (Model, error) {
	if err := node.Validate(); err != nil {
		return Model{}, err
	}
	if err := diag.CheckFinite("power.New", []string{"l"}, []float64{l}); err != nil {
		return Model{}, err
	}
	if l < 0 {
		return Model{}, diag.Domainf("power.New", "negative line inductance l=%g", l)
	}
	if node.Vt <= 0 {
		return Model{}, diag.Domainf("power.New", "node %s lacks power parameters (Vt=0)", node.Name)
	}
	if err := prm.Validate(); err != nil {
		return Model{}, err
	}
	return Model{
		Node:   node,
		Line:   tline.Line{R: node.R, L: l, C: node.C},
		Device: repeater.FromTech(node),
		Params: prm,
	}, nil
}

// SwitchedCap returns the capacitance one stage charges and discharges per
// switching cycle: the line segment plus the repeater input and parasitic
// capacitance — the same capacitance the two-pole delay model stamps.
func (m Model) SwitchedCap(h, k float64) float64 {
	return m.Line.C*h + (m.Device.C0+m.Device.Cp)*k
}

// Beta returns the effective transconductance (A/V²) of a size-k repeater,
// inferred from the minimum device's output resistance: in saturation the
// drive current Rs models is ≈ β0/2·(VDD−Vt)², so β0 ≈ 1/(Rs·(VDD−Vt))
// reproduces the tabulated Rs at full gate drive. Scales linearly with k.
func (m Model) Beta(k float64) float64 {
	return k / (m.Device.Rs * (m.Node.VDD - m.Node.Vt))
}

// Slew returns the 10–90% output transition time of one (h, k) stage from
// its two-pole step response — the input slew seen by the next identical
// repeater.
func (m Model) Slew(h, k float64) (float64, error) {
	_, slew, _, err := m.evalStage(h, k, 0.9)
	return slew, err
}

// Stage estimates the power of one repeater stage at sizing (h, k).
//
// Dynamic: α·f·C_stage·VDD² (one full charge/discharge cycle dissipates
// C·V²). Short-circuit: Veendrick's E_sc = (β/12)·(VDD−2Vt)³·t_slew per
// transition, two transitions per cycle, with t_slew the 10–90% output
// transition of the preceding identical stage. Leakage: k·Ioff·VDD,
// independent of activity.
func (m Model) Stage(h, k float64) (Breakdown, error) {
	_, _, b, err := m.evalStage(h, k, 0.9)
	return b, err
}

// PerLength returns the total power per unit line length at sizing (h, k),
// W/m — the power counterpart of the optimizer's τ/h objective.
func (m Model) PerLength(h, k float64) (float64, error) {
	b, err := m.Stage(h, k)
	if err != nil {
		return 0, err
	}
	return b.Total() / h, nil
}

// evalStage evaluates one (h, k) stage from a single two-pole model and
// one scan of its step response: the f×100% delay τ, the 10–90% slew and
// the power breakdown. τ is bit-identical to core.Problem.Eval's at
// threshold f, and a threshold of 10% or 90% shares that point's solve.
func (m Model) evalStage(h, k, f float64) (tau, slew float64, b Breakdown, err error) {
	if !(h > 0) || !(k > 0) {
		return 0, 0, Breakdown{}, diag.Domainf("power.Stage", "requires positive h, k; got h=%g k=%g", h, k)
	}
	tp, err := pade.FromStage(m.Device.Stage(m.Line, h, k))
	if err != nil {
		return 0, 0, Breakdown{}, err
	}
	// The thresholds ascending, and where the 10%, 90% and f delays land.
	fs, n := [3]float64{0.1, 0.9, f}, 3
	i10, i90, iF := 0, 1, 2
	switch {
	case f < 0.1:
		fs, i10, i90, iF = [3]float64{f, 0.1, 0.9}, 1, 2, 0
	case f == 0.1:
		n, iF = 2, 0
	case f < 0.9:
		fs, i90, iF = [3]float64{0.1, f, 0.9}, 2, 1
	case f == 0.9:
		n, iF = 2, 1
	}
	var d [3]pade.DelayResult
	if err := tp.Crossings(nil, fs[:n], d[:n]); err != nil {
		return 0, 0, Breakdown{}, err
	}
	slew = d[i90].Tau - d[i10].Tau
	return d[iF].Tau, slew, m.breakdown(h, k, slew), nil
}

// breakdown composes the stage's power terms for a given input slew.
func (m Model) breakdown(h, k, slew float64) Breakdown {
	v := m.Node.VDD
	af := m.Params.Alpha * m.Params.Freq
	esc := m.Beta(k) / 12 * math.Pow(v-2*m.Node.Vt, 3) * slew
	return Breakdown{
		Dynamic:      af * m.SwitchedCap(h, k) * v * v,
		ShortCircuit: af * 2 * esc,
		Leakage:      k * m.Node.Ioff * v,
	}
}

// EnergyFromWave integrates instantaneous power v·i over a sampled waveform
// by the trapezoidal rule, returning joules. It is the measurement half of
// the model-vs-transient differential validation: integrate the source
// energy of a simulated switching transition and compare against
// SwitchedCap·VDD².
func EnergyFromWave(t, v, i []float64) float64 {
	n := len(t)
	if len(v) < n {
		n = len(v)
	}
	if len(i) < n {
		n = len(i)
	}
	e := 0.0
	for j := 1; j < n; j++ {
		e += 0.5 * (v[j]*i[j] + v[j-1]*i[j-1]) * (t[j] - t[j-1])
	}
	return e
}
