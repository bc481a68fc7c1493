package spice

import (
	"fmt"
	"testing"
)

// benchLadder is a 24-section RLC ladder with inverter repeaters every
// fourth section — MNA-wise comparable to the paper's buffered-line
// experiments.
func benchLadder(b *testing.B) *Circuit {
	b.Helper()
	c := New()
	in := c.Node("in")
	if _, err := c.AddV(in, Ground, Pulse{V0: 0, V1: 1, Delay: 20e-12, Rise: 30e-12, Width: 350e-12, Fall: 30e-12, Period: 800e-12}); err != nil {
		b.Fatal(err)
	}
	prev := in
	for i := 0; i < 24; i++ {
		mid := c.Node(fmt.Sprintf("m%d", i))
		out := c.Node(fmt.Sprintf("n%d", i))
		if err := c.AddR(prev, mid, 12); err != nil {
			b.Fatal(err)
		}
		if _, err := c.AddL(mid, out, 8e-11); err != nil {
			b.Fatal(err)
		}
		if err := c.AddC(out, Ground, 6e-15); err != nil {
			b.Fatal(err)
		}
		prev = out
		if i%4 == 3 {
			buf := c.Node(fmt.Sprintf("b%d", i))
			if _, err := c.AddInverter(prev, buf, InverterParams{VDD: 1, ROut: 250, CIn: 2e-15, COut: 2e-15}); err != nil {
				b.Fatal(err)
			}
			prev = buf
		}
	}
	return c
}

// BenchmarkTransientStep measures one steady-state transient sub-step
// (Newton solve + element accepts) of a warmed-up nonlinear solver — the
// unit of work the sparse-kernel fast path optimizes. Steady-state steps
// must report 0 B/op (pinned by TestTransientStepAllocFree).
func BenchmarkTransientStep(b *testing.B) {
	benchTransientStep(b, false)
}

// BenchmarkTransientStepLegacy is BenchmarkTransientStep with the fast path
// disabled, so the pair quantifies the per-step speedup directly.
func BenchmarkTransientStepLegacy(b *testing.B) {
	benchTransientStep(b, true)
}

func benchTransientStep(b *testing.B, noFastPath bool) {
	b.ReportAllocs()
	c := benchLadder(b)
	opts, err := TranOpts{TStop: 1e-9, DT: 5e-12, NoFastPath: noFastPath}.withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	ns := newNewtonState(c)
	x0, err := c.DCOperatingPointWith(DCOpts{NoFastPath: noFastPath})
	if err != nil {
		b.Fatal(err)
	}
	copy(ns.x, x0)
	st := &fullStep{c: c, ns: ns, opts: opts}
	step := 1
	runStep := func() {
		if err := st.advance(float64(step-1)*opts.DT, opts.DT, step, true); err != nil {
			b.Fatalf("step %d: %v", step, err)
		}
		step++
	}
	for i := 0; i < 8; i++ {
		runStep()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runStep()
	}
}
