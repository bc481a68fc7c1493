package power

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"rlcint/internal/core"
	"rlcint/internal/diag"
	"rlcint/internal/pade"
	"rlcint/internal/repeater"
	"rlcint/internal/spice"
	"rlcint/internal/tech"
	"rlcint/internal/tline"
)

func testModel(t *testing.T) Model {
	t.Helper()
	m, err := New(tech.Node100(), 2e-6, Params{Alpha: 0.15, Freq: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParamsValidate(t *testing.T) {
	good := Params{Alpha: 0.2, Freq: 2e9}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Alpha: 0, Freq: 1e9},
		{Alpha: -0.1, Freq: 1e9},
		{Alpha: 1.5, Freq: 1e9},
		{Alpha: math.NaN(), Freq: 1e9},
		{Alpha: math.Inf(1), Freq: 1e9},
		{Alpha: 0.2, Freq: 0},
		{Alpha: 0.2, Freq: -1e9},
		{Alpha: 0.2, Freq: math.NaN()},
		{Alpha: 0.2, Freq: math.Inf(1)},
	}
	for _, p := range bad {
		if err := p.Validate(); !errors.Is(err, diag.ErrDomain) {
			t.Errorf("params %+v: want ErrDomain, got %v", p, err)
		}
	}
}

func TestNewValidates(t *testing.T) {
	prm := Params{Alpha: 0.2, Freq: 1e9}
	if _, err := New(tech.Node100(), -1e-6, prm); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("negative inductance: want ErrDomain, got %v", err)
	}
	if _, err := New(tech.Node100(), math.NaN(), prm); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("NaN inductance: want ErrDomain, got %v", err)
	}
	if _, err := New(tech.Node100(), 2e-6, Params{Alpha: 2, Freq: 1e9}); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("bad params: want ErrDomain, got %v", err)
	}
	bare := tech.Node100()
	bare.Vt = 0 // hand-built node without power parameters
	if _, err := New(bare, 2e-6, prm); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("Vt-less node: want ErrDomain, got %v", err)
	}
}

func TestNodesCarryPowerParams(t *testing.T) {
	for _, n := range []tech.Node{tech.Node250(), tech.Node100(), tech.Node100WithEps250()} {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
		if n.Vt <= 0 || 2*n.Vt >= n.VDD || n.Ioff <= 0 {
			t.Errorf("%s: power params Vt=%g Ioff=%g inconsistent with VDD=%g", n.Name, n.Vt, n.Ioff, n.VDD)
		}
	}
	// The interpolated trajectory must carry them too.
	n, err := tech.InterpolateNode(150e-9)
	if err != nil {
		t.Fatal(err)
	}
	if n.Vt <= 0 || n.Ioff <= 0 {
		t.Errorf("interpolated node lacks power params: Vt=%g Ioff=%g", n.Vt, n.Ioff)
	}
}

func TestStageBreakdown(t *testing.T) {
	m := testModel(t)
	h, k := 0.015, 200.0
	b, err := m.Stage(h, k)
	if err != nil {
		t.Fatal(err)
	}
	if b.Dynamic <= 0 || b.ShortCircuit <= 0 || b.Leakage <= 0 {
		t.Fatalf("non-positive power terms: %+v", b)
	}
	// Dynamic and leakage have closed forms the estimator must reproduce
	// exactly.
	v := m.Node.VDD
	wantDyn := m.Params.Alpha * m.Params.Freq * (m.Line.C*h + (m.Device.C0+m.Device.Cp)*k) * v * v
	if math.Abs(b.Dynamic-wantDyn) > 1e-12*wantDyn {
		t.Errorf("dynamic = %g, want %g", b.Dynamic, wantDyn)
	}
	wantLeak := k * m.Node.Ioff * v
	if math.Abs(b.Leakage-wantLeak) > 1e-12*wantLeak {
		t.Errorf("leakage = %g, want %g", b.Leakage, wantLeak)
	}
	if tot := b.Total(); math.Abs(tot-(b.Dynamic+b.ShortCircuit+b.Leakage)) > 1e-15*tot {
		t.Errorf("total mismatch")
	}
	// Dynamic power is the dominant term for a realistic global wire.
	if b.Dynamic < b.ShortCircuit || b.Dynamic < b.Leakage {
		t.Errorf("dynamic should dominate: %+v", b)
	}
	// Per-length consistency.
	pl, err := m.PerLength(h, k)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pl-b.Total()/h) > 1e-12*pl {
		t.Errorf("PerLength = %g, want %g", pl, b.Total()/h)
	}
	// Domain rejection.
	if _, err := m.Stage(-1, k); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("negative h: want ErrDomain, got %v", err)
	}
	if _, err := m.Stage(h, math.NaN()); !errors.Is(err, diag.ErrDomain) {
		t.Errorf("NaN k: want ErrDomain, got %v", err)
	}
}

func TestSlewShrinksWithDriveStrength(t *testing.T) {
	m := testModel(t)
	s1, err := m.Slew(0.015, 100)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Slew(0.015, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !(s1 > 0 && s2 > 0 && s2 < s1) {
		t.Errorf("slew should be positive and shrink with k: k=100 → %g, k=300 → %g", s1, s2)
	}
}

// TestEnergyMatchesTransient is the model-vs-simulation differential: the
// dynamic term's switched capacitance claims one full charge/discharge cycle
// of a stage draws SwitchedCap·VDD² from the rail. Build the Fig10-class
// stage circuit (switching rail behind the repeater's output resistance,
// its parasitic capacitance, the discretized RLC ladder, and the identical
// receiver's input capacitance), simulate a settled square-wave cycle with
// the full transient solver, and integrate the source energy.
func TestEnergyMatchesTransient(t *testing.T) {
	node := tech.Node100()
	m, err := New(node, 2e-6, Params{Alpha: 1, Freq: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := repeater.RCOptimal(m.Device, tline.Line{R: node.R, C: node.C})
	if err != nil {
		t.Fatal(err)
	}
	h, k := rc.H, rc.K
	rs, cpk, clk := m.Device.Scaled(k)

	tau, err := m.Slew(h, k)
	if err != nil {
		t.Fatal(err)
	}
	period := 50 * tau // full settle at both rails each half-cycle
	dt := period / 12000

	ckt := spice.New()
	src := ckt.Node("src")
	out := ckt.Node("out")
	end := ckt.Node("end")
	vs, err := ckt.AddV(src, spice.Ground, spice.Pulse{
		V0: 0, V1: node.VDD,
		Rise: dt / 10, Fall: dt / 10,
		Width: period/2 - dt/10, Period: period,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ckt.AddR(src, out, rs); err != nil {
		t.Fatal(err)
	}
	if err := ckt.AddC(out, spice.Ground, cpk); err != nil {
		t.Fatal(err)
	}
	const sections = 24
	ln := tline.Line{R: node.R, L: 2e-6, C: node.C}
	prev := out
	for i, s := range ln.Ladder(h, sections) {
		var next spice.NodeID
		if i == sections-1 {
			next = end
		} else {
			next = ckt.Node("n" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		}
		mid := ckt.Node("m" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		if err := ckt.AddR(prev, mid, s.R); err != nil {
			t.Fatal(err)
		}
		if _, err := ckt.AddL(mid, next, s.L); err != nil {
			t.Fatal(err)
		}
		if err := ckt.AddC(next, spice.Ground, s.C); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	if err := ckt.AddC(end, spice.Ground, clk); err != nil {
		t.Fatal(err)
	}

	res, err := ckt.Transient(spice.TranOpts{
		TStop: 3 * period, DT: dt, NoReduction: true,
	},
		spice.NodeProbe{Name: "vsrc", ID: src},
		spice.SourceCurrentProbe{Name: "isrc", V: vs},
	)
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Signal("vsrc")
	if err != nil {
		t.Fatal(err)
	}
	i, err := res.Signal("isrc")
	if err != nil {
		t.Fatal(err)
	}
	// Integrate the settled cycle [2T, 3T).
	lo, hi := 0, len(res.T)
	for j, tt := range res.T {
		if tt < 2*period {
			lo = j + 1
		}
	}
	eCycle := math.Abs(EnergyFromWave(res.T[lo:hi], v[lo:hi], i[lo:hi]))

	want := m.SwitchedCap(h, k) * node.VDD * node.VDD
	if rel := math.Abs(eCycle-want) / want; rel > 0.02 {
		t.Errorf("transient cycle energy %.4e J vs model %.4e J (rel %.3f > 2%%)", eCycle, want, rel)
	}
}

func TestEnergyFromWave(t *testing.T) {
	// Constant 2 V · 3 A over 5 s = 30 J.
	ts := []float64{0, 1, 2.5, 5}
	v := []float64{2, 2, 2, 2}
	i := []float64{3, 3, 3, 3}
	if e := EnergyFromWave(ts, v, i); math.Abs(e-30) > 1e-12 {
		t.Errorf("EnergyFromWave = %g, want 30", e)
	}
	if e := EnergyFromWave(nil, nil, nil); e != 0 {
		t.Errorf("empty waveform: %g", e)
	}
}

// TestEvalStageMatchesSeparateSolves: the one-model, one-scan stage
// evaluation returns exactly the bits of the separate solves it replaces:
// τ from core.Problem.Eval, and the slew and breakdown from 10% and 90%
// delay solves of their own, on random (h, k, f) including thresholds equal
// to, below and above 10% and 90%.
func TestEvalStageMatchesSeparateSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, node := range []tech.Node{tech.Node100(), tech.Node250()} {
		for _, l := range []float64{0, 1e-6, 2e-6, 4e-6} {
			m, err := New(node, l, Params{Alpha: 0.15, Freq: 1e9})
			if err != nil {
				t.Fatal(err)
			}
			prob := core.Problem{Device: m.Device, Line: m.Line}
			for i := 0; i < 40; i++ {
				h := 1e-3 * math.Pow(40, rng.Float64())
				k := 10 * math.Pow(100, rng.Float64())
				f := []float64{0.1, 0.9, 0.05, 0.95, 0.05 + 0.9*rng.Float64()}[i%5]
				tau, slew, b, err := m.evalStage(h, k, f)
				if err != nil {
					t.Fatal(err)
				}
				prob.F = f
				_, d, err := prob.Eval(h, k)
				if err != nil {
					t.Fatal(err)
				}
				tp, err := pade.FromStage(m.Device.Stage(m.Line, h, k))
				if err != nil {
					t.Fatal(err)
				}
				d10, err := tp.Delay(0.1)
				if err != nil {
					t.Fatal(err)
				}
				d90, err := tp.Delay(0.9)
				if err != nil {
					t.Fatal(err)
				}
				wantSlew := d90.Tau - d10.Tau
				v := m.Node.VDD
				af := m.Params.Alpha * m.Params.Freq
				want := Breakdown{
					Dynamic:      af * m.SwitchedCap(h, k) * v * v,
					ShortCircuit: af * 2 * (m.Beta(k) / 12 * math.Pow(v-2*m.Node.Vt, 3) * wantSlew),
					Leakage:      k * m.Node.Ioff * v,
				}
				stage, err := m.Stage(h, k)
				if err != nil {
					t.Fatal(err)
				}
				if tau != d.Tau || slew != wantSlew || b != want || stage != want {
					t.Errorf("%s l=%g h=%g k=%g f=%g: evalStage (τ %v, slew %v, %+v), Stage %+v; separate solves (τ %v, slew %v, %+v)",
						node.Name, l, h, k, f, tau, slew, b, stage, d.Tau, wantSlew, want)
				}
			}
		}
	}
}
