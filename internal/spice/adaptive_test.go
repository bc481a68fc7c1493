package spice

import (
	"errors"
	"math"
	"testing"

	"rlcint/internal/diag"
)

func rcCircuit() (*Circuit, NodeID) {
	c := New()
	in, out := c.Node("in"), c.Node("out")
	c.AddV(in, Ground, DC(1))
	c.AddR(in, out, 1)
	c.AddC(out, Ground, 1)
	c.SetIC(out, 0)
	return c, out
}

func TestAdaptiveRCAccuracy(t *testing.T) {
	c, _ := rcCircuit()
	res, err := c.TransientAdaptive(AdaptiveOpts{TStop: 5, UseICs: true, LTETol: 1e-5},
		c.ProbeNode("out"))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Signal("out")
	if len(res.T) < 10 {
		t.Fatalf("only %d samples", len(res.T))
	}
	for i, tt := range res.T {
		want := 1 - math.Exp(-tt)
		if math.Abs(v[i]-want) > 5e-4 {
			t.Fatalf("t=%v: v=%v, want %v", tt, v[i], want)
		}
	}
	// Time axis strictly increasing and ends at TStop.
	for i := 1; i < len(res.T); i++ {
		if res.T[i] <= res.T[i-1] {
			t.Fatalf("non-monotone time axis at %d", i)
		}
	}
	if math.Abs(res.T[len(res.T)-1]-5) > 1e-9 {
		t.Errorf("final time %v, want 5", res.T[len(res.T)-1])
	}
}

func TestAdaptiveUsesFewerStepsThanFixed(t *testing.T) {
	// For a settling exponential, the controller must stretch the step as
	// the solution flattens: far fewer points than a fixed grid of equal
	// worst-case accuracy.
	c, _ := rcCircuit()
	res, err := c.TransientAdaptive(AdaptiveOpts{TStop: 20, UseICs: true, LTETol: 1e-5},
		c.ProbeNode("out"))
	if err != nil {
		t.Fatal(err)
	}
	// Fixed grid achieving ~5e-4 needs dt ≈ 0.02 → 1000 steps over [0,20].
	if len(res.T) > 600 {
		t.Errorf("adaptive run used %d steps; expected well under a fixed grid's 1000", len(res.T))
	}
	// Steps near the end must be much larger than the early ones.
	early := res.T[3] - res.T[2]
	n := len(res.T)
	late := res.T[n-2] - res.T[n-3]
	if late < 3*early {
		t.Errorf("controller did not stretch: early dt %v, late dt %v", early, late)
	}
}

func TestAdaptiveOscillatorTracksRinging(t *testing.T) {
	// Underdamped series RLC: the adaptive run must track the ringing
	// (accuracy against the closed form) while still varying its step.
	c := New()
	in, mid, out := c.Node("in"), c.Node("mid"), c.Node("out")
	c.AddV(in, Ground, DC(1))
	c.AddR(in, mid, 0.5)
	c.AddL(mid, out, 1)
	c.AddC(out, Ground, 1)
	c.SetIC(out, 0)
	res, err := c.TransientAdaptive(AdaptiveOpts{TStop: 12, UseICs: true, LTETol: 3e-5},
		c.ProbeNode("out"))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Signal("out")
	alpha, beta := 0.25, math.Sqrt(1-0.0625)
	for i, tt := range res.T {
		want := 1 - math.Exp(-alpha*tt)*(math.Cos(beta*tt)+alpha/beta*math.Sin(beta*tt))
		if math.Abs(v[i]-want) > 5e-3 {
			t.Fatalf("t=%v: v=%v, want %v", tt, v[i], want)
		}
	}
}

func TestAdaptiveValidation(t *testing.T) {
	c, _ := rcCircuit()
	for _, o := range []AdaptiveOpts{
		{TStop: -1},
		{TStop: 0},
		{TStop: math.NaN()},
		{TStop: math.Inf(1)},
		{TStop: 1, DTMin: -1e-9},
		{TStop: 1, DTInit: math.NaN()},
		{TStop: 1, LTETol: -1e-4},
		{TStop: 1, MaxNewton: -1},
		{TStop: 1, DTMin: 0.5, DTMax: 0.1},
	} {
		if _, err := c.TransientAdaptive(o, c.ProbeNode("out")); !errors.Is(err, diag.ErrDomain) {
			t.Errorf("%+v: got %v, want ErrDomain", o, err)
		}
	}
	if _, err := New().TransientAdaptive(AdaptiveOpts{TStop: 1}); err == nil {
		t.Error("empty circuit must fail")
	}

	// Step collapse: one Newton iteration per step converges only while the
	// circuit sits at its steady state, so the run advances to the source
	// edge, then halves the step below DTMin and must return a typed
	// collapse alongside the waveform recorded so far.
	c = New()
	in, out := c.Node("in"), c.Node("out")
	c.AddV(in, Ground, Pulse{V0: 1, V1: 0, Delay: 2, Rise: 0.1, Width: 10, Fall: 0.1})
	c.AddR(in, out, 1)
	c.AddC(out, Ground, 1)
	c.SetIC(in, 1)
	c.SetIC(out, 1)
	res, err := c.TransientAdaptive(AdaptiveOpts{TStop: 5, UseICs: true, MaxNewton: 1}, c.ProbeNode("out"))
	if !errors.Is(err, diag.ErrTimestepCollapse) {
		t.Fatalf("got %v, want ErrTimestepCollapse", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("collapsed run must return a partial result")
	}
	if res.PartialT <= 0 || res.PartialT > 2.1 {
		t.Errorf("PartialT = %v, want the source edge near t=2", res.PartialT)
	}
	if last := res.T[len(res.T)-1]; len(res.T) < 2 || last != res.PartialT {
		t.Errorf("recorded %d samples ending at t=%v, want samples up to PartialT=%v", len(res.T), last, res.PartialT)
	}
}
