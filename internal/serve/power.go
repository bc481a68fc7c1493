package serve

import (
	"context"
	"strconv"

	"rlcint/internal/core"
	"rlcint/internal/power"
	"rlcint/internal/tech"
)

// This file serves the power-aware optimization subsystem: /v1/plan-power
// (unary, cached/coalesced/breaker-protected, with a degraded-mode estimate)
// and /v1/pareto (the delay/power front trace, streamed as NDJSON).

// frontReq is the delay/power problem /v1/plan-power and /v1/pareto share:
// one (technology, inductance, threshold) point under a workload — Alpha
// and Freq, the switching activity and clock frequency, whose domain the
// power model enforces — and the sampling of its Pareto front.
type frontReq struct {
	Tech      string  `json:"tech"`
	L         float64 `json:"l"` // line inductance, H/m
	F         float64 `json:"f"`
	Alpha     float64 `json:"alpha"` // switching activity ∈ (0,1]
	Freq      float64 `json:"freq"`  // clock frequency, Hz
	Points    int     `json:"points,omitempty"`
	MaxWeight float64 `json:"max_weight,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	node      tech.Node
	model     power.Model
}

func (q *frontReq) validate(*Config) error {
	if q.Points < 0 || (q.Points > 0 && q.Points < 2) || q.Points > 512 {
		return badRequestf("points=%d outside [2, 512]", q.Points)
	}
	// The workload domain (α ∈ (0,1], f > 0, finite) is the power model's
	// contract; checking it here turns the diag domain error into the same
	// 400 before any cache or breaker state is touched.
	prm := power.Params{Alpha: q.Alpha, Freq: q.Freq}
	err := prm.Validate()
	if err == nil {
		err = lookupTech(q.Tech, &q.node)
	}
	if err == nil {
		q.model, err = power.New(q.node, q.L, prm)
	}
	return err
}

// planPowerReq drives /v1/plan-power: a power-minimal mixed-scheme repeater
// plan for a net of Length meters under a bounded delay penalty. Workload
// domain errors map to 400 like every other domain error.
type planPowerReq struct {
	frontReq
	Length     float64 `json:"length"`                // total net length, m
	MaxPenalty float64 `json:"max_penalty"`           // delay penalty budget; 0 → 0.05
	NoDegraded bool    `json:"no_degraded,omitempty"` // see optimizeReq.NoDegraded
}

func (q *planPowerReq) key() string {
	return "plan-power|" + q.Tech + "|" + canonF(q.L) + "|" + canonF(threshold(q.F)) +
		"|" + canonF(q.Length) + "|" + canonF(q.Alpha) + "|" + canonF(q.Freq) +
		"|" + canonF(q.MaxPenalty) + "|" + strconv.Itoa(q.Points) + "|" + canonF(q.MaxWeight)
}

// paretoReq drives /v1/pareto: the delay/power Pareto front of one
// (technology, inductance, workload) problem, streamed as NDJSON points.
type paretoReq struct{ frontReq }

func (q *paretoReq) key() string {
	return "pareto|" + q.Tech + "|" + canonF(q.L) + "|" + canonF(threshold(q.F)) +
		"|" + canonF(q.Alpha) + "|" + canonF(q.Freq) +
		"|" + strconv.Itoa(q.Points) + "|" + canonF(q.MaxWeight)
}

// powerBreakdownResp serializes a power.Breakdown (watts).
type powerBreakdownResp struct {
	Dynamic      float64 `json:"dynamic"`
	ShortCircuit float64 `json:"short_circuit"`
	Leakage      float64 `json:"leakage"`
	Total        float64 `json:"total"`
}

func breakdownOf(b power.Breakdown) powerBreakdownResp {
	return powerBreakdownResp{
		Dynamic: b.Dynamic, ShortCircuit: b.ShortCircuit,
		Leakage: b.Leakage, Total: b.Total(),
	}
}

// powerSchemeResp serializes one scheme run of a mixed plan.
type powerSchemeResp struct {
	Stages   int                `json:"stages"`
	H        float64            `json:"h"`
	K        float64            `json:"k"`
	StageTau float64            `json:"stage_tau"`
	Stage    powerBreakdownResp `json:"stage_power"`
}

// planPowerResp serializes a power.Plan (the front trace is served by
// /v1/pareto, not duplicated here).
type planPowerResp struct {
	Length        float64           `json:"length"`
	Schemes       []powerSchemeResp `json:"schemes"`
	Delay         float64           `json:"delay"`
	Power         float64           `json:"power"`
	Baseline      planResp          `json:"baseline"`
	BaselinePower float64           `json:"baseline_power"`
	PowerSaved    float64           `json:"power_saved"`
	DelayPenalty  float64           `json:"delay_penalty"`
}

func planPowerOf(p power.Plan) planPowerResp {
	resp := planPowerResp{
		Length: p.Length, Delay: p.Delay, Power: p.Power,
		Baseline: planOf(p.Baseline), BaselinePower: p.BaselinePower,
		PowerSaved: p.PowerSaved, DelayPenalty: p.DelayPenalty,
	}
	for _, sc := range p.Schemes {
		resp.Schemes = append(resp.Schemes, powerSchemeResp{
			Stages: sc.Stages, H: sc.H, K: sc.K, StageTau: sc.StageTau,
			Stage: breakdownOf(sc.Stage),
		})
	}
	return resp
}

func (q *planPowerReq) plan(s *Server) reply {
	opts := power.PlanOptions{
		MaxPenalty: q.MaxPenalty,
		Front:      power.FrontOptions{Points: q.Points, MaxWeight: q.MaxWeight, Workers: s.cfg.MaxWorkers},
	}
	return reply{
		key:        q.key(),
		region:     regionOf("plan-power", q.Tech, q.L),
		timeoutMS:  q.TimeoutMS,
		noDegraded: q.NoDegraded,
		compute: func(ctx context.Context) (any, error) {
			plan, err := power.PlanPower(ctx, q.model, threshold(q.F), q.Length, opts)
			if err != nil {
				return nil, err
			}
			return planPowerOf(plan), nil
		},
		estimate: func() (any, error) {
			// Degraded answer: the closed-form delay-optimal plan with its
			// power attached — a valid (zero-saving) member of the search
			// space, never a fabricated tradeoff.
			base, err := core.EstimatePlan(problemOf(q.node, q.L, threshold(q.F)), q.Length)
			if err != nil {
				return nil, err
			}
			br, err := q.model.Stage(base.H, base.K)
			if err != nil {
				return nil, err
			}
			basePower := float64(base.Stages) * br.Total()
			return planPowerResp{
				Length: q.Length,
				Schemes: []powerSchemeResp{{
					Stages: base.Stages, H: base.H, K: base.K,
					StageTau: base.StageTau, Stage: breakdownOf(br),
				}},
				Delay: base.Total, Power: basePower,
				Baseline: planOf(base), BaselinePower: basePower,
			}, nil
		},
	}
}

// paretoPointLine is one NDJSON record of a streamed front trace.
type paretoPointLine struct {
	Type       string             `json:"type"` // "point"
	Weight     float64            `json:"weight"`
	H          float64            `json:"h"`
	K          float64            `json:"k"`
	Tau        float64            `json:"tau"`
	Delay      float64            `json:"delay"` // per-unit delay, s/m
	Power      float64            `json:"power"` // per-unit power, W/m
	DelayRatio float64            `json:"delay_ratio"`
	PowerRatio float64            `json:"power_ratio"`
	Stage      powerBreakdownResp `json:"stage_power"`
}

// plan streams the delay/power Pareto front as NDJSON: one "point" record
// per front point. The whole trace is one chunk — unlike a sweep, the
// warm-start continuation makes the trace a single unit of work.
func (q *paretoReq) plan(s *Server) reply {
	opts := power.FrontOptions{Points: q.Points, MaxWeight: q.MaxWeight, Workers: s.cfg.MaxWorkers}
	produce := func(ctx context.Context) ([]byte, error) {
		front, err := power.ParetoFront(ctx, q.model, threshold(q.F), opts)
		if err != nil {
			return nil, err
		}
		return ndjson(front, func(fp power.FrontPoint) any {
			return paretoPointLine{
				Type: "point", Weight: fp.Weight,
				H: fp.H, K: fp.K, Tau: fp.Tau,
				Delay: fp.Delay, Power: fp.Power,
				DelayRatio: fp.DelayRatio, PowerRatio: fp.PowerRatio,
				Stage: breakdownOf(fp.Stage),
			}
		})
	}
	return reply{timeoutMS: q.TimeoutMS, tech: q.node.Name, chunks: []chunk{{key: q.key(), produce: produce}}}
}
