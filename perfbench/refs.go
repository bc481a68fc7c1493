package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"rlcint"
	"rlcint/internal/num"
	"rlcint/internal/pdn"
	"rlcint/internal/sparse"
	"rlcint/internal/spice"
)

// refs are the committed reference values the workloads check against. They
// come from the repository's slow oracle paths (cold sweeps, the full
// transient solver, the fallback-free direct sparse solver, cold Pareto
// fronts) and are regenerated with
//
//	bash perfbench/run.sh --regen-refs
//
// which also checks them against the EXPERIMENTS.md anchors before writing.
type refs struct {
	Command string `json:"command"`

	Table1TauPS map[string]float64 `json:"table1_tau_ps"` // RC-optimal stage delay per node, ps

	// Fig4–8 grid: cold (Warm: false) per-unit delay at each grid point.
	GridLs      []float64            `json:"grid_ls"`
	GridPerUnit map[string][]float64 `json:"grid_per_unit"` // s/m, per node

	// RIP mixed-scheme plan (100 nm, l = 2 nH/mm, 90% threshold, 30 mm,
	// α = 0.15, 1 GHz) from a cold front.
	RIPPowerSaved   float64 `json:"rip_power_saved"`
	RIPDelayPenalty float64 `json:"rip_delay_penalty"`

	Fig9PeriodNS      float64            `json:"fig9_period_ns"`      // 100 nm, l = 1.8 nH/mm, full solver
	Fig11Collapsed2p8 bool               `json:"fig11_collapsed_2p8"` // 100 nm, l = 2.8 nH/mm false switching
	Ring250PeriodNS   float64            `json:"ring250_period_ns"`   // 250 nm, l = 1.8 nH/mm, full solver
	DeckPeakV         float64            `json:"deck_peak_v"`         // anchor deck, legacy full-restamp solver
	PDNWorstDropMV    map[string]float64 `json:"pdn_worst_drop_mv"`   // forced direct LU, per mesh size
	PDNAvgDropMV      map[string]float64 `json:"pdn_avg_drop_mv"`
}

const refsCommand = "bash perfbench/run.sh --regen-refs"

// Anchor configurations shared by the oracle and the workloads.
var (
	ripParams   = rlcint.PowerParams{Alpha: 0.15, Freq: 1e9}
	anchorMeshN = []int{32, 64, 100}
	fig11Ls     = []float64{1.8e-6, 2.8e-6} // Fig9's clean point, then past the collapse onset
)

func gridLs() []float64 { return num.Linspace(0.1e-6, 4.9e-6, 13) }

func loadRefs(path string) (*refs, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read references: %w", err)
	}
	var rf refs
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &rf, nil
}

// regenRefs recomputes every reference from the oracle paths, checks them
// against the paper anchors recorded in EXPERIMENTS.md, and writes path.
func regenRefs(path string) error {
	rf := refs{Command: refsCommand, Table1TauPS: map[string]float64{},
		GridPerUnit: map[string][]float64{}, PDNWorstDropMV: map[string]float64{}, PDNAvgDropMV: map[string]float64{}}
	var bad []string
	anchor := func(name string, got, want, tol float64) {
		if math.Abs(got-want) > tol {
			bad = append(bad, fmt.Sprintf("%s = %.6g, EXPERIMENTS.md anchor %.6g ± %g", name, got, want, tol))
		}
	}

	for _, name := range []string{"250nm", "100nm"} {
		t, _ := rlcint.TechByName(name)
		rc, err := rlcint.OptimizeRC(t)
		if err != nil {
			return err
		}
		rf.Table1TauPS[name] = rc.Tau / rlcint.PS
	}
	anchor("Table 1 tau 100nm (ps)", rf.Table1TauPS["100nm"], 105.96, 0.005)
	anchor("Table 1 tau 250nm (ps)", rf.Table1TauPS["250nm"], 305.18, 0.005)

	rf.GridLs = gridLs()
	rows, err := rlcint.SweepNodes(context.Background(), rlcint.SweepOptions{Warm: false, Workers: 1},
		[]rlcint.Technology{rlcint.Tech250(), rlcint.Tech100()}, rf.GridLs, 0.5)
	if err != nil {
		return err
	}
	for _, row := range rows {
		for _, p := range row.Points {
			rf.GridPerUnit[row.Node.Name] = append(rf.GridPerUnit[row.Node.Name], p.Opt.PerUnit)
		}
	}

	plan, err := rlcint.PlanPower(rlcint.Tech100(), 2e-6, 0.9, 30*rlcint.MM, ripParams,
		rlcint.PowerPlanOptions{Front: rlcint.ParetoOptions{Cold: true}})
	if err != nil {
		return err
	}
	rf.RIPPowerSaved, rf.RIPDelayPenalty = plan.PowerSaved, plan.DelayPenalty
	anchor("RIP power saved", rf.RIPPowerSaved, 0.2224, 0.0001)
	anchor("RIP delay penalty", rf.RIPDelayPenalty, 0.0440, 0.0001)

	pts, err := rlcint.SweepRingPeriod(rlcint.RingConfig{Node: rlcint.Tech100(), NoReduction: true}, fig11Ls)
	if err != nil {
		return err
	}
	rf.Fig9PeriodNS = pts[0].Metrics.Period * 1e9
	anchor("Fig9 period (ns)", rf.Fig9PeriodNS, 2.203, 0.0005)
	rf.Fig11Collapsed2p8 = pts[1].Collapsed
	if pts[0].Collapsed || !pts[1].Collapsed {
		bad = append(bad, "Fig11: 100nm ring must run clean at 1.8 nH/mm and collapse at 2.8 nH/mm")
	}
	_, m250, err := rlcint.RunRing(rlcint.RingConfig{Node: rlcint.Tech250(), LineL: 1.8e-6, NoReduction: true})
	if err != nil {
		return err
	}
	rf.Ring250PeriodNS = m250.Period * 1e9

	rf.DeckPeakV, err = runDeck(anchorDeck(), spice.TranOpts{NoFastPath: true, NoReduction: true})
	if err != nil {
		return err
	}

	for _, n := range anchorMeshN {
		m, err := pdn.Build(pdn.Spec{NX: n, NY: n})
		if err != nil {
			return err
		}
		v, err := directIR(m)
		if err != nil {
			return err
		}
		worst, avg := drops(m, v)
		key := fmt.Sprint(n)
		rf.PDNWorstDropMV[key], rf.PDNAvgDropMV[key] = worst*1e3, avg*1e3
	}

	if len(bad) > 0 {
		return fmt.Errorf("references disagree with the paper anchors:\n  %s", strings.Join(bad, "\n  "))
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// directIR solves a mesh's DC system with a forced direct LU on a matrix the
// benchmark assembles itself from the mesh's published geometry — an oracle
// independent of pdn's own stamping and of the iterative solvers.
func directIR(m *pdn.Mesh) ([]float64, error) {
	s := m.Spec
	tr := sparse.NewTriplet(m.N)
	b := make([]float64, m.N)
	forEachEdge(m, func(i, j int, g float64) {
		tr.Add(i, i, g)
		tr.Add(j, j, g)
		tr.Add(i, j, -g)
		tr.Add(j, i, -g)
	})
	for _, i := range m.Bumps() {
		tr.Add(i, i, 1/s.RBump)
		b[i] += s.VDD / s.RBump
	}
	for i := range b {
		b[i] -= loadAt(m, i)
	}
	eng := sparse.NewEngine(m.N, sparse.EngineOpts{Policy: sparse.PolicyDirect})
	if err := eng.Factorize(tr.Compile()); err != nil {
		return nil, err
	}
	v := make([]float64, m.N)
	return v, eng.SolveInto(v, b)
}

// forEachEdge visits every grid segment with its conductance.
func forEachEdge(m *pdn.Mesh, fn func(i, j int, g float64)) {
	nx, ny, g := m.Spec.NX, m.Spec.NY, 1/m.RSeg
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := y*nx + x
			if x+1 < nx {
				fn(i, i+1, g)
			}
			if y+1 < ny {
				fn(i, i+nx, g)
			}
		}
	}
}

// loadAt is the current node i sinks.
func loadAt(m *pdn.Mesh, i int) float64 {
	s := m.Spec
	if i == s.HotY*s.NX+s.HotX {
		return s.ILoad + s.IHot
	}
	return s.ILoad
}

// kclResidual is max_i |KCL imbalance at node i| / total load current: how
// far a solution is from satisfying the mesh's circuit equations.
func kclResidual(m *pdn.Mesh, v []float64) float64 {
	s := m.Spec
	r := make([]float64, m.N)
	forEachEdge(m, func(i, j int, g float64) {
		r[i] += g * (v[i] - v[j])
		r[j] += g * (v[j] - v[i])
	})
	for _, i := range m.Bumps() {
		r[i] += (v[i] - s.VDD) / s.RBump
	}
	total, worst := 0.0, 0.0
	for i := range r {
		l := loadAt(m, i)
		total += l
		worst = math.Max(worst, math.Abs(r[i]+l))
	}
	return worst / total
}

// drops returns the worst and mean IR drop of a solution.
func drops(m *pdn.Mesh, v []float64) (worst, avg float64) {
	for _, vi := range v {
		d := m.Spec.VDD - vi
		worst = math.Max(worst, d)
		avg += d
	}
	return worst, avg / float64(len(v))
}
