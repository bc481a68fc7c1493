package pdn

import (
	"fmt"
	"math"

	"rlcint/internal/batch"
	"rlcint/internal/diag"
	"rlcint/internal/runctl"
	"rlcint/internal/sparse"
)

// ImpedanceOpts configure an AC impedance-profile sweep.
type ImpedanceOpts struct {
	FStart float64 `json:"f_start"` // Hz (default 1e5)
	FStop  float64 `json:"f_stop"`  // Hz (default 1e9)
	Points int     `json:"points"`  // log-spaced samples (default 60)

	// Probe is where the 1 A AC test current is injected and the voltage
	// observed. (0,0) and negative coordinates select the hotspot node,
	// mirroring the Spec.HotX/HotY convention.
	ProbeX int `json:"probe_x"`
	ProbeY int `json:"probe_y"`

	Workers int `json:"workers,omitempty"` // batch workers (≤0 → GOMAXPROCS)
}

func (o ImpedanceOpts) withDefaults(m *Mesh) (ImpedanceOpts, error) {
	if o.FStart == 0 {
		o.FStart = 1e5
	}
	if o.FStop == 0 {
		o.FStop = 1e9
	}
	if o.FStart <= 0 || o.FStop <= o.FStart {
		return o, diag.Domainf("pdn.ImpedanceOpts", "bad frequency range [%g, %g]", o.FStart, o.FStop)
	}
	if o.Points == 0 {
		o.Points = 60
	}
	if o.Points < 2 {
		return o, diag.Domainf("pdn.ImpedanceOpts", "impedance sweep needs at least 2 points, got %d", o.Points)
	}
	if o.ProbeX < 0 || o.ProbeY < 0 || (o.ProbeX == 0 && o.ProbeY == 0) {
		o.ProbeX, o.ProbeY = m.Spec.HotX, m.Spec.HotY
	}
	if o.ProbeX >= m.Spec.NX || o.ProbeY >= m.Spec.NY {
		return o, diag.Domainf("pdn.ImpedanceOpts", "probe (%d,%d) outside grid %dx%d",
			o.ProbeX, o.ProbeY, m.Spec.NX, m.Spec.NY)
	}
	return o, nil
}

// ImpedancePoint is one sample of the impedance profile.
type ImpedancePoint struct {
	F float64 `json:"f"` // Hz
	Z float64 `json:"z"` // |Z(f)| at the probe node, Ω
}

// ImpedanceResult is the full profile plus its resonance peak — the number
// PDN design actually optimizes against.
type ImpedanceResult struct {
	Points []ImpedancePoint `json:"points"`
	Peak   ImpedancePoint   `json:"peak"`
}

// acScratch is the per-worker state of an impedance sweep: one frozen
// real-equivalent system and one sparse engine, refactorized (not rebuilt)
// as the sweep walks the frequency axis.
type acScratch struct {
	m     *Mesh
	probe int
	tr    *sparse.Triplet
	a     *sparse.CSC
	eng   *sparse.Engine
	x, b  []float64
	ready bool
}

// stampY stamps the complex admittance g + j·b between nodes u and v (v < 0
// means ground) into the real 2n×2n equivalent
//
//	[ Gr  -Gi ] [Vr]   [Ir]
//	[ Gi   Gr ] [Vi] = [Ii]
//
// so one real factorization solves the complex system.
func (ws *acScratch) stampY(u, v int, g, b float64) {
	n := ws.m.N
	// Zero-valued stamps still shape the frozen pattern on the first pass,
	// which keeps every frequency on one shared structure.
	at := func(r, c int, val float64) {
		ws.tr.Add(r, c, val)     // Gr block
		ws.tr.Add(r+n, c+n, val) // Gr block (imaginary row)
	}
	atIm := func(r, c int, val float64) {
		ws.tr.Add(r, c+n, -val) // -Gi block
		ws.tr.Add(r+n, c, val)  // +Gi block
	}
	at(u, u, g)
	atIm(u, u, b)
	if v >= 0 {
		at(v, v, g)
		atIm(v, v, b)
		at(u, v, -g)
		at(v, u, -g)
		atIm(u, v, -b)
		atIm(v, u, -b)
	}
}

// assemble stamps the full mesh admittance at angular frequency w. The
// stamp sequence is identical at every frequency, so after the first
// Compile the frozen triplet replays in place with no allocation.
func (ws *acScratch) assemble(w float64) {
	m := ws.m
	s := m.Spec
	ws.tr.Reset()
	// RL segments: y = 1/(R + jwL).
	den := m.RSeg*m.RSeg + w*w*m.LSeg*m.LSeg
	gSeg := m.RSeg / den
	bSeg := -w * m.LSeg / den
	for y := 0; y < s.NY; y++ {
		for x := 0; x < s.NX; x++ {
			i := m.node(x, y)
			if x+1 < s.NX {
				ws.stampY(i, m.node(x+1, y), gSeg, bSeg)
			}
			if y+1 < s.NY {
				ws.stampY(i, m.node(x, y+1), gSeg, bSeg)
			}
		}
	}
	// Per-node decap to ground: y = jwC.
	for i := 0; i < m.N; i++ {
		ws.stampY(i, -1, 0, w*s.CNode)
	}
	// C4 bumps to the (AC-grounded) supply: y = 1/(RBump + jwLBump).
	denB := s.RBump*s.RBump + w*w*s.LBump*s.LBump
	for _, i := range m.bumps {
		ws.stampY(i, -1, s.RBump/denB, -w*s.LBump/denB)
	}
}

// solveAt assembles and solves one frequency point, returning |Z| at the
// probe.
func (ws *acScratch) solveAt(f float64) (ImpedancePoint, error) {
	w := 2 * math.Pi * f
	ws.assemble(w)
	if !ws.ready {
		ws.a = ws.tr.Compile()
		if err := ws.eng.Factorize(ws.a); err != nil {
			return ImpedancePoint{}, fmt.Errorf("pdn: impedance factorize at %g Hz: %w", f, err)
		}
		ws.ready = true
	} else if err := ws.eng.Refactorize(ws.a); err != nil {
		return ImpedancePoint{}, fmt.Errorf("pdn: impedance refactorize at %g Hz: %w", f, err)
	}
	if err := ws.eng.SolveInto(ws.x, ws.b); err != nil {
		return ImpedancePoint{}, fmt.Errorf("pdn: impedance solve at %g Hz: %w", f, err)
	}
	n := ws.m.N
	return ImpedancePoint{F: f, Z: math.Hypot(ws.x[ws.probe], ws.x[ws.probe+n])}, nil
}

// ImpedanceProfile sweeps |Z(f)| at the probe node over log-spaced
// frequencies through the batched sweep engine: each worker owns one frozen
// system + engine pair and walks its tile refactorizing in place.
func (m *Mesh) ImpedanceProfile(ctl *runctl.Controller, o ImpedanceOpts) (*ImpedanceResult, error) {
	o, err := o.withDefaults(m)
	if err != nil {
		return nil, err
	}
	probe := m.node(o.ProbeX, o.ProbeY)
	logStep := math.Log(o.FStop/o.FStart) / float64(o.Points-1)

	newScratch := func() *acScratch {
		ws := &acScratch{
			m:     m,
			probe: probe,
			tr:    sparse.NewTriplet(2 * m.N),
			x:     make([]float64, 2*m.N),
			b:     make([]float64, 2*m.N),
			// The real 2n×2n equivalent is structurally unsymmetric in the
			// Gi blocks, so auto policy routes large systems to ILU(0)+GMRES.
			eng: sparse.NewEngine(2*m.N, sparse.EngineOpts{Tol: 1e-9}),
		}
		ws.b[probe] = 1 // 1 A test current, real phase
		return ws
	}
	pts, err := batch.Run(ctl, o.Points, batch.Options{Workers: o.Workers},
		newScratch,
		func(ws *acScratch, i int, warm bool) (ImpedancePoint, error) {
			if err := ctl.Tick("pdn.impedance"); err != nil {
				return ImpedancePoint{}, err
			}
			f := o.FStart * math.Exp(float64(i)*logStep)
			return ws.solveAt(f)
		})
	if err != nil {
		return nil, err
	}
	res := &ImpedanceResult{Points: pts}
	for _, p := range pts {
		if p.Z > res.Peak.Z {
			res.Peak = p
		}
	}
	return res, nil
}
