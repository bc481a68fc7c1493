// Package pdn models an on-chip power-delivery network as a 2-D distributed
// RLC mesh — the large-mesh workload the sparse engine's fill-reducing
// ordering and iterative solvers exist for. The model follows the
// distributed-PDN structure of Gupta et al. (DATE 2007): a power grid of
// NX×NY nodes joined by RL segments, per-node decoupling capacitance, and a
// sparse array of C4 bumps tying the grid to the package supply through an
// RL branch. Two analyses run on the mesh: a DC IR-drop solve (conductances
// only — the symmetric positive-definite shape the CG path eats, assembled
// straight into CSC because the grid is regular) and an AC impedance-profile
// sweep over log-spaced frequencies (a complex system solved in its real
// 2n×2n equivalent through the batched sweep engine).
package pdn

import (
	"fmt"
	"math"

	"rlcint/internal/diag"
	"rlcint/internal/runctl"
	"rlcint/internal/sparse"
	"rlcint/internal/tech"
)

// Spec parameterizes a PDN mesh. The zero value of any field takes the
// documented default; Build validates the result.
type Spec struct {
	NX int `json:"nx"` // grid nodes per row (required, ≥ 2)
	NY int `json:"ny"` // grid rows (required, ≥ 2)

	// Tech names the technology node supplying per-length R and C (and the
	// default VDD). Default "100nm".
	Tech string `json:"tech,omitempty"`

	// PitchMM is the grid segment length in millimeters. Default 0.1.
	PitchMM float64 `json:"pitch_mm,omitempty"`

	// LPerM overrides the per-length inductance (H/m). Default: the paper's
	// worst-case 5 nH/mm bound — PDN grids ride the thick top metal where
	// inductance matters most.
	LPerM float64 `json:"l_per_m,omitempty"`

	// C4 bump array: BumpNX×BumpNY sites spread evenly over the grid, each
	// tied to the supply through RBump + jω·LBump. Defaults: 4×4 bumps,
	// 40 mΩ, 72 pH (the DATE 2007 package model).
	BumpNX int     `json:"bump_nx,omitempty"`
	BumpNY int     `json:"bump_ny,omitempty"`
	RBump  float64 `json:"r_bump,omitempty"` // Ω
	LBump  float64 `json:"l_bump,omitempty"` // H

	// CNode is the per-node decoupling capacitance. Default: the technology
	// node's per-length capacitance times the segment length — the wire's
	// own capacitance standing in for distributed decap.
	CNode float64 `json:"c_node,omitempty"` // F

	// Load model for the IR-drop analysis: every node draws ILoad, and the
	// hotspot node at (HotX, HotY) draws IHot extra. Defaults: 0.1 mA per
	// node, 50 mA hotspot at the grid center.
	ILoad float64 `json:"i_load,omitempty"` // A per node
	IHot  float64 `json:"i_hot,omitempty"`  // A extra at the hotspot
	HotX  int     `json:"hot_x,omitempty"`
	HotY  int     `json:"hot_y,omitempty"`

	// VDD overrides the technology node's supply voltage.
	VDD float64 `json:"vdd,omitempty"` // V
}

// Mesh is a built PDN ready for analysis. Build assembles the DC
// conductance matrix once, at its exact size; the AC sweep stamps its own
// (larger) systems into frozen triplets in per-worker scratch.
type Mesh struct {
	Spec Spec
	N    int // NX*NY unknowns

	// Derived electrical values.
	SegLen float64 // segment length, m
	RSeg   float64 // per-segment resistance, Ω
	LSeg   float64 // per-segment inductance, H

	bumps []int // node indices of C4 bump sites

	// DC IR-drop system G·v = i.
	g   *sparse.CSC
	bDC []float64
}

// node maps grid coordinates to an unknown index.
func (m *Mesh) node(x, y int) int { return y*m.Spec.NX + x }

// Bumps returns the node indices of the C4 bump sites.
func (m *Mesh) Bumps() []int { return m.bumps }

// IRResult reports a DC IR-drop analysis.
type IRResult struct {
	V []float64 `json:"-"` // node voltages (omitted from JSON: O(N))

	VDD       float64 `json:"vdd"`        // supply, V
	VMin      float64 `json:"v_min"`      // worst node voltage, V
	VMax      float64 `json:"v_max"`      // best node voltage, V
	WorstDrop float64 `json:"worst_drop"` // VDD - VMin, V
	AvgDrop   float64 `json:"avg_drop"`   // mean IR drop, V
	WorstX    int     `json:"worst_x"`    // grid location of the worst drop
	WorstY    int     `json:"worst_y"`

	Solver sparse.EngineStats `json:"solver"`
}

// SolveIR runs the DC IR-drop analysis through the sparse engine (auto
// policy: direct LU for small grids, AMG+CG at scale).
func (m *Mesh) SolveIR() (*IRResult, error) {
	return m.solveIR(sparse.EngineOpts{})
}

// SolveIRWith is SolveIR under run control: ctl is ticked once per CG
// iteration, and a stop (cancellation, deadline, budget) returns its typed
// error. A nil ctl never stops.
func (m *Mesh) SolveIRWith(ctl *runctl.Controller) (*IRResult, error) {
	return m.solveIR(sparse.EngineOpts{Control: ctl})
}

// solveIR is SolveIR with caller-controlled engine options (tests force
// policies; SolveIRWith sets the run controller). A controller that has
// already stopped ends the analysis before the engine's setup runs.
func (m *Mesh) solveIR(opts sparse.EngineOpts) (*IRResult, error) {
	if err := opts.Control.Check("pdn.solve_ir"); err != nil {
		return nil, err
	}
	eng := sparse.NewEngine(m.N, opts)
	if err := eng.Factorize(m.g); err != nil {
		return nil, fmt.Errorf("pdn: IR factorize: %w", err)
	}
	v := make([]float64, m.N)
	if err := eng.SolveInto(v, m.bDC); err != nil {
		return nil, fmt.Errorf("pdn: IR solve: %w", err)
	}
	res := &IRResult{V: v, VDD: m.Spec.VDD, VMin: math.Inf(1), VMax: math.Inf(-1)}
	sum := 0.0
	worst := -1
	for i, vi := range v {
		if vi < res.VMin {
			res.VMin, worst = vi, i
		}
		if vi > res.VMax {
			res.VMax = vi
		}
		sum += m.Spec.VDD - vi
	}
	res.WorstDrop = m.Spec.VDD - res.VMin
	res.AvgDrop = sum / float64(m.N)
	res.WorstX = worst % m.Spec.NX
	res.WorstY = worst / m.Spec.NX
	res.Solver = eng.Stats()
	return res, nil
}

// buildDC assembles the DC conductance system: segment conductances between
// grid neighbors and bump conductances to the supply. The regular grid's
// 5-point matrix is written straight into CSC of exact size, one column per
// node with rows j−NX, j−1, j, j+1, j+NX in ascending order (those on the
// grid). A diagonal sums its segments in that order and then its bump
// conductance, the order in which compiling the equivalent triplet stamps
// would sum them, so the values match that compile bit for bit. The result
// is symmetric positive definite, so the engine's auto policy routes large
// meshes to AMG-preconditioned CG.
func (m *Mesh) buildDC() {
	s := m.Spec
	nx := s.NX
	gSeg := 1 / m.RSeg
	nnz := m.N + 2*((nx-1)*s.NY+nx*(s.NY-1))
	g := &sparse.CSC{N: m.N, P: make([]int, m.N+1), I: make([]int, nnz), X: make([]float64, nnz)}
	k := 0
	for y := 0; y < s.NY; y++ {
		for x := 0; x < nx; x++ {
			j := m.node(x, y)
			d := 0.0
			if y > 0 {
				g.I[k], g.X[k] = j-nx, -gSeg
				d += gSeg
				k++
			}
			if x > 0 {
				g.I[k], g.X[k] = j-1, -gSeg
				d += gSeg
				k++
			}
			dk := k
			k++
			if x+1 < nx {
				g.I[k], g.X[k] = j+1, -gSeg
				d += gSeg
				k++
			}
			if y+1 < s.NY {
				g.I[k], g.X[k] = j+nx, -gSeg
				d += gSeg
				k++
			}
			g.I[dk], g.X[dk] = j, d
			g.P[j+1] = k
		}
	}
	gBump := 1 / s.RBump
	for _, i := range m.bumps {
		p := g.P[i]
		for g.I[p] < i {
			p++
		}
		g.X[p] += gBump
	}
	m.g = g

	// RHS: bump sites source VDD through their conductance; every node
	// sinks its load current.
	m.bDC = make([]float64, m.N)
	for _, i := range m.bumps {
		m.bDC[i] += s.VDD * gBump
	}
	for i := range m.bDC {
		m.bDC[i] -= s.ILoad
	}
	m.bDC[m.node(s.HotX, s.HotY)] -= s.IHot
}

// withDefaults validates s and fills defaulted fields. NaN and ±Inf, which
// the sign tests below would let through, are rejected first.
func (s Spec) withDefaults() (Spec, error) {
	if s.NX < 2 || s.NY < 2 {
		return s, diag.Domainf("pdn.Spec", "grid must be at least 2x2, got %dx%d", s.NX, s.NY)
	}
	if err := diag.CheckFinite("pdn.Spec",
		[]string{"pitch_mm", "l_per_m", "r_bump", "l_bump", "c_node", "i_load", "i_hot", "vdd"},
		[]float64{s.PitchMM, s.LPerM, s.RBump, s.LBump, s.CNode, s.ILoad, s.IHot, s.VDD}); err != nil {
		return s, err
	}
	if s.LPerM < 0 || s.CNode < 0 {
		return s, diag.Domainf("pdn.Spec", "negative inductance or decap (l_per_m=%g, c_node=%g)", s.LPerM, s.CNode)
	}
	if s.Tech == "" {
		s.Tech = "100nm"
	}
	node, err := tech.ByName(s.Tech)
	if err != nil {
		return s, diag.Domainf("pdn.Spec", "%v", err)
	}
	if s.PitchMM == 0 {
		s.PitchMM = 0.1
	}
	if s.PitchMM < 0 {
		return s, diag.Domainf("pdn.Spec", "negative pitch %g mm", s.PitchMM)
	}
	if s.LPerM == 0 {
		s.LPerM = tech.WorstCaseInductance
	}
	if s.BumpNX == 0 {
		s.BumpNX = 4
	}
	if s.BumpNY == 0 {
		s.BumpNY = 4
	}
	if s.BumpNX < 1 || s.BumpNY < 1 || s.BumpNX > s.NX || s.BumpNY > s.NY {
		return s, diag.Domainf("pdn.Spec", "bump array %dx%d does not fit grid %dx%d",
			s.BumpNX, s.BumpNY, s.NX, s.NY)
	}
	if s.RBump == 0 {
		s.RBump = 40e-3
	}
	if s.LBump == 0 {
		s.LBump = 72e-12
	}
	if s.RBump < 0 || s.LBump < 0 {
		return s, diag.Domainf("pdn.Spec", "negative bump impedance (R=%g, L=%g)", s.RBump, s.LBump)
	}
	seg := s.PitchMM * tech.MM
	if s.CNode == 0 {
		s.CNode = node.C * seg
	}
	if s.ILoad == 0 {
		s.ILoad = 0.1e-3
	}
	if s.IHot == 0 {
		s.IHot = 50e-3
	}
	if s.HotX == 0 && s.HotY == 0 {
		s.HotX, s.HotY = s.NX/2, s.NY/2
	}
	if s.HotX < 0 || s.HotX >= s.NX || s.HotY < 0 || s.HotY >= s.NY {
		return s, diag.Domainf("pdn.Spec", "hotspot (%d,%d) outside grid %dx%d", s.HotX, s.HotY, s.NX, s.NY)
	}
	if s.VDD == 0 {
		s.VDD = node.VDD
	}
	return s, nil
}

// Canonical validates s and returns it with every defaulted field made
// explicit — the form cache keys and logs should use, so two specs that
// build identical meshes canonicalize identically.
func (s Spec) Canonical() (Spec, error) { return s.withDefaults() }

// Build validates s and assembles the mesh and its DC system.
func Build(s Spec) (*Mesh, error) {
	s, err := s.withDefaults()
	if err != nil {
		return nil, err
	}
	node, err := tech.ByName(s.Tech)
	if err != nil {
		return nil, err
	}
	m := &Mesh{Spec: s, N: s.NX * s.NY}
	m.SegLen = s.PitchMM * tech.MM
	m.RSeg = node.R * m.SegLen
	m.LSeg = s.LPerM * m.SegLen

	// Spread the bump array evenly: bump (i, j) sits at the center of its
	// cell of the BumpNX×BumpNY partition.
	m.bumps = make([]int, 0, s.BumpNX*s.BumpNY)
	for j := 0; j < s.BumpNY; j++ {
		for i := 0; i < s.BumpNX; i++ {
			bx := ((2*i + 1) * s.NX) / (2 * s.BumpNX)
			by := ((2*j + 1) * s.NY) / (2 * s.BumpNY)
			m.bumps = append(m.bumps, m.node(bx, by))
		}
	}

	m.buildDC()
	return m, nil
}
