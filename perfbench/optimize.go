package main

import (
	"context"
	"time"

	"rlcint"
	"rlcint/internal/core"
	"rlcint/internal/diag"
)

// optTuple is one seeded optimizer input.
type optTuple struct {
	t      rlcint.Technology
	l, f   float64
	length float64 // net length for PlanLine, m
}

// optimizeSweep drives the library's optimizer stack from one closed-loop
// caller: cold Optimize and PlanLine over seeded (node, l, f, length)
// tuples, two-pole delay solves at the optima, warm SweepNodes on the
// Fig4–8 grid, and a Pareto front plus an RIP power plan per cycle. No
// serving or transient code runs.
//
// One cycle is 20 delays, 20 optimizations, 10 plans, 2 grid sweeps, one
// front and one power plan: the median falls inside the optimizations and
// the p99 tail inside the power plans.
func optimizeSweep(r *run) {
	ctx := context.Background()
	nodes := []rlcint.Technology{rlcint.Tech250(), rlcint.Tech100()}
	ls := gridLs()
	tuple := func() optTuple {
		t, _ := rlcint.TechByName(techNames[r.rng.Intn(len(techNames))])
		f := 0.5
		if r.rng.Intn(4) == 0 {
			f = 0.9
		}
		return optTuple{t: t, l: uniform(r.rng, 0.1, 4.9) * 1e-6, f: f, length: uniform(r.rng, 5, 40) * rlcint.MM}
	}
	var iters []float64
	cycle := func(int) {
		opts := make([]rlcint.Optimum, 20)
		tuples := make([]optTuple, 20)
		for i := range tuples {
			tu := tuple()
			tuples[i] = tu
			var o rlcint.Optimum
			if r.op("core.optimize", func() (err error) { o, err = rlcint.Optimize(tu.t, tu.l, tu.f); return }) == nil {
				opts[i] = o
				iters = append(iters, float64(o.Iterations))
				r.check(o.H > 0 && o.K > 0 && o.PerUnit > 0 && finite(o.Tau), "optimize %s l=%g: %+v", tu.t.Name, tu.l, o)
			}
		}
		for i, tu := range tuples {
			if opts[i].H == 0 {
				continue
			}
			st := rlcint.StageOf(tu.t, tu.l, opts[i].H, opts[i].K)
			var tau float64
			if r.op("pade.delay", func() (err error) { tau, err = rlcint.Delay(st, tu.f); return }) == nil {
				r.check(relErr(tau, opts[i].Tau) < 1e-6, "delay at the optimum %.6g s, optimizer reported %.6g s", tau, opts[i].Tau)
			}
		}
		for i, tu := range tuples[:10] {
			var p rlcint.LinePlan
			if r.op("core.planline", func() (err error) { p, err = rlcint.PlanLine(tu.t, tu.l, tu.f, tu.length); return }) == nil {
				r.check(p.Stages >= 1 && relErr(p.Continuous.PerUnit, opts[i].PerUnit) < 1e-9 && p.Total >= p.Length*p.Continuous.PerUnit*(1-1e-9),
					"plan %s l=%g len=%g: %d stages, total %g s", tu.t.Name, tu.l, tu.length, p.Stages, p.Total)
			}
		}
		for i := 0; i < 2; i++ {
			var rows []rlcint.NodeSweep
			if r.op("core.sweep_nodes", func() (err error) {
				rows, err = rlcint.SweepNodes(ctx, rlcint.SweepOptions{Warm: true}, nodes, ls, 0.5)
				return
			}) == nil {
				checkGrid(r, rows)
			}
		}
		prm := rlcint.PowerParams{Alpha: uniform(r.rng, 0.1, 0.3), Freq: uniform(r.rng, 0.5e9, 2e9)}
		l := uniform(r.rng, 0.5, 4) * 1e-6
		m, err := rlcint.NewPowerModel(rlcint.Tech100(), l, prm)
		if err != nil {
			r.fail("power model: %v", err)
			return
		}
		var front []rlcint.ParetoPoint
		if r.op("power.front", func() (err error) { front, err = rlcint.ParetoFront(ctx, m, 0.5, rlcint.ParetoOptions{}); return }) == nil {
			ok := len(front) > 1
			for i := 1; i < len(front); i++ {
				ok = ok && front[i].Power <= front[i-1].Power*(1+1e-9) && front[i].Delay >= front[i-1].Delay*(1-1e-9)
			}
			r.check(ok, "Pareto front of %d points is not monotone", len(front))
		}
		var plan rlcint.PowerPlan
		length := uniform(r.rng, 10, 40) * rlcint.MM
		if r.op("power.plan", func() (err error) {
			plan, err = rlcint.PlanPower(rlcint.Tech100(), l, 0.9, length, prm, rlcint.PowerPlanOptions{})
			return
		}) == nil {
			r.check(plan.PowerSaved >= 0 && plan.DelayPenalty <= 0.05+1e-12 && plan.Power > 0,
				"power plan: saved %.4g at penalty %.4g", plan.PowerSaved, plan.DelayPenalty)
		}
	}
	r.timeSetup(5, func(int) { cycle(-1) })
	iters = iters[:0]
	// 19 cycles are 1026 ops, the fewest that keep the tail at p99.
	r.measure(19, cycle)

	if r.tr != nil {
		r.setLayer("core.optimize_ms", r.tr.medianMS("core.optimize"))
		r.setLayer("core.planline_ms", r.tr.medianMS("core.planline"))
		r.setLayer("core.sweep_point_ms", r.tr.medianMS("core.sweep_nodes")/float64(len(nodes)*len(ls)))
		r.setLayer("core.outer_iters_mean", mean(iters))
		r.setLayer("pade.delay_us", 1e3*r.tr.medianMS("pade.delay"))
		r.setLayer("power.front_ms", r.tr.medianMS("power.front"))
		r.setLayer("power.plan_ms", r.tr.medianMS("power.plan"))
		r.setLayer("core.warm_method_frac", warmFrac(r, ls))
		r.setLayer("batch.speedup", batchSpeedup(r, nodes, ls))
	}

	// Anchors against the committed oracle references.
	for _, name := range []string{"250nm", "100nm"} {
		t, _ := rlcint.TechByName(name)
		rc, err := rlcint.OptimizeRC(t)
		r.check(err == nil, "Table 1 %s: %v", name, err)
		if err == nil {
			r.ref("Table 1 tau "+name+" (ps)", rc.Tau/rlcint.PS, r.refs.Table1TauPS[name], 1e-9)
		}
	}
	plan, err := rlcint.PlanPower(rlcint.Tech100(), 2e-6, 0.9, 30*rlcint.MM, ripParams, rlcint.PowerPlanOptions{})
	r.check(err == nil, "RIP plan: %v", err)
	if err == nil {
		r.ref("RIP power saved", plan.PowerSaved, r.refs.RIPPowerSaved, 1e-6)
		r.ref("RIP delay penalty", plan.DelayPenalty, r.refs.RIPDelayPenalty, 1e-6)
	}
}

// checkGrid compares a warm Fig4–8 sweep with the committed cold one: the
// warm-start contract holds the per-unit delay (the objective) to 1e-12.
func checkGrid(r *run, rows []rlcint.NodeSweep) {
	for _, row := range rows {
		want := r.refs.GridPerUnit[row.Node.Name]
		if len(want) != len(row.Points) {
			r.fail("grid %s: %d points, reference has %d", row.Node.Name, len(row.Points), len(want))
			continue
		}
		for i, p := range row.Points {
			r.ref("grid "+row.Node.Name+" per-unit delay", p.Opt.PerUnit, want[i], 1e-9)
		}
	}
}

// warmFrac is the share of a warm 100 nm grid sweep's points answered by the
// warm-start rung. Optimum.Method does not tell warm from cold Newton, so it
// is read from the optimizer's fault-injection sites, which every ladder
// rung passes. With one worker the points solve in order; each opens on the
// warm rung (Step −2), and a point that falls back to the cold ladder moves
// straight on to Step ≥ 0 — so each −2 → ≥0 transition is one fallback.
func warmFrac(r *run, ls []float64) float64 {
	fellBack, prev := 0, 0
	spy := &diag.Injector{Fault: func(s diag.Site) error {
		if s.Op == "core.stationarity" {
			if prev == -2 && s.Step >= 0 {
				fellBack++
			}
			prev = s.Step
		}
		return nil
	}}
	if _, err := core.SweepBatchCtx(context.Background(), core.SweepOptions{Warm: true, Workers: 1, Injector: spy},
		rlcint.Tech100(), ls, 0.5); err != nil {
		r.fail("warm-rung sweep: %v", err)
		return 0
	}
	return 1 - float64(fellBack)/float64(len(ls))
}

// batchSpeedup times warm SweepNodes with two workers against one (median
// of five each).
func batchSpeedup(r *run, nodes []rlcint.Technology, ls []float64) float64 {
	timeIt := func(workers int) float64 {
		var ds []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := rlcint.SweepNodes(context.Background(), rlcint.SweepOptions{Warm: true, Workers: workers}, nodes, ls, 0.5); err != nil {
				r.fail("speedup sweep: %v", err)
				return 0
			}
			ds = append(ds, time.Since(t0).Seconds())
		}
		return median(ds)
	}
	one, two := timeIt(1), timeIt(2)
	if two == 0 {
		return 0
	}
	return one / two
}
