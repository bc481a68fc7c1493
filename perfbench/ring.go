package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"rlcint"
	"rlcint/internal/spice"
)

// ringTransient is the Fig9–12 workload at the figures tool's default
// resolution (16 sections, 2500 points per cycle): seeded-l ring runs and
// period sweeps on 100 nm, where the reduced-order gate rejects the circuit
// and the full solver marches, and on 250 nm, where the reduction engages;
// coupled-pair crosstalk; and small parsed decks below the 24-unknown
// reduction threshold. Every circuit is distinct (fresh l per run), so the
// 16-entry model cache never hides a build.
//
// A cycle is 56 decks, 20 crosstalk runs, and one ring run and one
// two-point period sweep per node (5% of the ops, most of the time): the
// median falls inside the decks and the p90 tail inside the crosstalk runs,
// each with dozens of samples, so neither rests on a handful of ring runs.
// At least three cycles run.
func ringTransient(r *run) {
	r.timeSetup(5, func(int) {
		if _, err := rlcint.RunCrosstalk(xtalkConfig(r)); err != nil {
			r.fail("setup crosstalk: %v", err)
		}
		if _, err := runDeck(seededDeck(r), spice.TranOpts{}); err != nil {
			r.fail("setup deck: %v", err)
		}
	})
	stats0 := spice.ReductionStats()

	// Every circuit draws a fresh inductance, from bands that keep one
	// cycle's circuits of a node apart.
	var ringSteps, ringSec float64
	cycle := func(c int) {
		l := func(lo, hi float64) float64 { return uniform(r.rng, lo, hi) * 1e-6 }
		for i := 0; i < 56; i++ {
			d := seededDeck(r)
			var peak float64
			if r.op("spice.deck", func() (err error) { peak, err = runDeck(d, spice.TranOpts{}); return }) == nil {
				r.check(peak > 0.5 && peak < 2, "deck peak %.4g V outside (0.5, 2)", peak)
			}
		}
		for i := 0; i < 20; i++ {
			cfg := xtalkConfig(r)
			var res rlcint.XtalkResult
			if r.op("xtalk.run", func() (err error) { res, err = rlcint.RunCrosstalk(cfg); return }) == nil {
				r.check(finite(res.NearPeak, res.FarPeak) && math.Abs(res.NearPeak) < 1,
					"crosstalk near-end noise %.4g V", res.NearPeak)
			}
		}
		ring := func(name string, node rlcint.Technology, l float64) {
			var w rlcint.RingWaves
			var m rlcint.RingMetrics
			t0 := time.Now()
			if r.op(name, func() (err error) { w, m, err = rlcint.RunRing(rlcint.RingConfig{Node: node, LineL: l}); return }) == nil {
				ringSteps += float64(len(w.T))
				ringSec += time.Since(t0).Seconds()
				r.check(m.Period > 0.5e-9 && m.Period < 10e-9, "%s l=%g: period %g s", name, l, m.Period)
			}
		}
		ring("ringosc.run_reduced", rlcint.Tech250(), l(1.5, 2.0))
		ring("ringosc.run_full", rlcint.Tech100(), l(1.5, 2.0))
		sweep := func(name string, node rlcint.Technology, ls []float64) {
			var pts []rlcint.PeriodPoint
			if r.op(name, func() (err error) { pts, err = rlcint.SweepRingPeriod(rlcint.RingConfig{Node: node}, ls); return }) == nil {
				for _, p := range pts {
					r.check(p.Metrics.Period > 0 && !p.Collapsed, "%s l=%g: period %g collapsed=%v", name, p.L, p.Metrics.Period, p.Collapsed)
				}
			}
		}
		sweep("ringosc.sweep_250nm", rlcint.Tech250(), []float64{l(0.8, 1.2), l(2.0, 2.4)})
		sweep("ringosc.sweep_100nm", rlcint.Tech100(), []float64{l(0.8, 1.2), l(2.0, 2.4)})
	}
	r.measure(3, cycle)
	st := spice.ReductionStats()
	d := spice.MORStats{Engaged: st.Engaged - stats0.Engaged, CacheHits: st.CacheHits - stats0.CacheHits,
		Fallbacks: st.Fallbacks - stats0.Fallbacks, Rejected: st.Rejected - stats0.Rejected}
	engaged := float64(d.Engaged) / float64(d.Engaged+d.Rejected)
	r.check(engaged > 0 && engaged < 1, "reduction engaged on %.3g of gated runs; want both sides of the gate", engaged)
	r.note("reduced-order gate: engaged %d, rejected %d, fallbacks %d, cache hits %d", d.Engaged, d.Rejected, d.Fallbacks, d.CacheHits)
	if r.tr != nil {
		r.setLayer("ringosc.run_reduced_ms", r.tr.medianMS("ringosc.run_reduced"))
		r.setLayer("ringosc.run_full_ms", r.tr.medianMS("ringosc.run_full"))
		r.setLayer("spice.deck_ms", r.tr.medianMS("spice.deck"))
		r.setLayer("xtalk.run_ms", r.tr.medianMS("xtalk.run"))
		r.setLayer("mor.engaged_frac", engaged)
		r.setLayer("mor.rejected", float64(d.Rejected))
		r.setLayer("mor.fallbacks", float64(d.Fallbacks))
		r.setLayer("mor.cache_hits", float64(d.CacheHits))
		r.setLayer("spice.steps_per_s", ringSteps/ringSec)
	}

	// Anchors against the committed full-solver references.
	pts, err := rlcint.SweepRingPeriod(rlcint.RingConfig{Node: rlcint.Tech100()}, fig11Ls)
	r.check(err == nil, "Fig9/Fig11 anchor sweep: %v", err)
	if err == nil {
		r.ref("Fig9 period (ns)", pts[0].Metrics.Period*1e9, r.refs.Fig9PeriodNS, 1e-6)
		r.check(pts[1].Collapsed == r.refs.Fig11Collapsed2p8 && !pts[0].Collapsed,
			"Fig11: collapse flags %v/%v, want false/%v", pts[0].Collapsed, pts[1].Collapsed, r.refs.Fig11Collapsed2p8)
	}
	_, m250, err := rlcint.RunRing(rlcint.RingConfig{Node: rlcint.Tech250(), LineL: 1.8e-6})
	r.check(err == nil, "250nm anchor ring: %v", err)
	if err == nil {
		// The reduced model is accurate to 1e-4 relative RMS waveform error.
		r.ref("250nm reduced ring period (ns)", m250.Period*1e9, r.refs.Ring250PeriodNS, 1e-3)
	}
	peak, err := runDeck(anchorDeck(), spice.TranOpts{})
	r.check(err == nil, "anchor deck: %v", err)
	if err == nil {
		r.ref("anchor deck peak (V)", peak, r.refs.DeckPeakV, 1e-9)
	}
}

// xtalkConfig is the crosstalk benchmark's coupled pair with a seeded line
// resistance: every circuit is distinct while the window, and so the work,
// stays fixed.
func xtalkConfig(r *run) rlcint.XtalkConfig {
	return rlcint.XtalkConfig{
		Pair:     rlcint.CoupledPair{R: uniform(r.rng, 4000, 4800), L: 2e-6, Cg: 8e-11, Cm: 2e-11, Lm: 1.4e-6},
		H:        3 * rlcint.MM,
		Sections: 12,
	}
}

// deckText renders a four-section RLC ladder driven by a step: 15 unknowns,
// below the reduced-order threshold, so the full sparse fast path runs.
func deckText(rs, ls, cs, rDrive float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rlc ladder\nV1 in 0 PULSE(0 1 0 20p 20p 10n 20n)\nR0 in n0 %g\n", rDrive)
	for i := 1; i <= 4; i++ {
		fmt.Fprintf(&b, "L%d n%d m%d %g\nR%d m%d n%d %g\nC%d n%d 0 %g\n", i, i-1, i, ls, i, i, i, rs, i, i, cs)
	}
	b.WriteString(".tran 1p 2n\n.end\n")
	return b.String()
}

func anchorDeck() string { return deckText(20, 0.5e-9, 50e-15, 25) }

func seededDeck(r *run) string {
	return deckText(uniform(r.rng, 10, 40), uniform(r.rng, 0.3e-9, 0.8e-9), uniform(r.rng, 30e-15, 80e-15), uniform(r.rng, 15, 40))
}

// runDeck parses and simulates a deck and returns the peak far-end voltage.
func runDeck(deck string, opts spice.TranOpts) (float64, error) {
	p, err := rlcint.ParseNetlist(strings.NewReader(deck))
	if err != nil {
		return 0, err
	}
	opts.TStop, opts.DT = p.Tran.TStop, p.Tran.DT
	res, err := p.Circuit.Transient(opts, p.Circuit.ProbeNode("n4"))
	if err != nil {
		return 0, err
	}
	peak := math.Inf(-1)
	for _, v := range res.Signals[0] {
		peak = math.Max(peak, v)
	}
	return peak, nil
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
