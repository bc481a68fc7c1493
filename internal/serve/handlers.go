package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"

	"rlcint/internal/core"
	"rlcint/internal/diag"
	"rlcint/internal/pade"
	"rlcint/internal/relia"
	"rlcint/internal/repeater"
	"rlcint/internal/runctl"
	"rlcint/internal/tech"
	"rlcint/internal/tline"
)

// sweepChunk is the number of grid points streamed (and cached, and
// coalesced) as one NDJSON unit. Fixed server-wide so chunk cache keys are
// stable; in warm mode chunk boundaries act as extra tile boundaries.
const sweepChunk = 32

// optimumResp serializes a core.Optimum.
type optimumResp struct {
	H          float64 `json:"h"`        // optimal segment length, m
	K          float64 `json:"k"`        // optimal repeater size
	Tau        float64 `json:"tau"`      // segment delay at the optimum, s
	PerUnit    float64 `json:"per_unit"` // tau/h, s/m
	B1         float64 `json:"b1"`       // two-pole coefficients at the optimum
	B2         float64 `json:"b2"`
	Method     string  `json:"method"`
	Iterations int     `json:"iterations"`
}

func optimumOf(o core.Optimum) optimumResp {
	return optimumResp{
		H: o.H, K: o.K, Tau: o.Tau, PerUnit: o.PerUnit,
		B1: o.Model.B1, B2: o.Model.B2,
		Method: string(o.Method), Iterations: o.Iterations,
	}
}

func problemOf(node tech.Node, l, f float64) core.Problem {
	return core.Problem{
		Device: repeater.FromTech(node),
		Line:   tline.Line{R: node.R, L: l, C: node.C},
		F:      f,
	}
}

func stageOf(node tech.Node, l, h, k float64) tline.Stage {
	return repeater.FromTech(node).Stage(tline.Line{R: node.R, L: l, C: node.C}, h, k)
}

// cacheGet/cachePut respect the cache-disabled configuration (CacheEntries
// < 0) so benchmarks and tests can exercise the cold path. cacheGet counts
// its hits (the one count /metrics shows as xcache.hit and cache.hits); fill
// counts every miss.
func (s *Server) cacheGet(key string) (*cached, bool) {
	if s.cfg.CacheEntries < 0 {
		return nil, false
	}
	e, ok := s.cache.get(key)
	if ok {
		s.metrics.counts.Add("xcache.hit", 1)
	}
	return e, ok
}

func (s *Server) cachePut(e *cached) {
	if s.cfg.CacheEntries >= 0 {
		s.cache.put(e)
	}
}

func writeCachedBody(w http.ResponseWriter, e *cached, src string) {
	w.Header().Set("Content-Type", e.ctype)
	w.Header().Set("X-Cache", src)
	_, _ = w.Write(e.body)
}

// ladder runs one optimizer solve with a fresh recovery-ladder report and
// the server's fault injector, folding the report into /metrics and
// attaching it to a failure so coalesced followers render the same 422.
func (s *Server) ladder(p core.Problem, solve func(core.Problem) (any, error)) (any, error) {
	rep := &diag.Report{}
	p.Report = rep
	p.Injector = s.cfg.Injector
	v, err := solve(p)
	s.metrics.recordLadder(rep)
	if err != nil {
		return nil, &solveError{err: err, report: rep}
	}
	return v, nil
}

// workers clamps a request's worker hint to the server's cap.
func (s *Server) workers(hint int) int {
	if hint <= 0 || hint > s.cfg.MaxWorkers {
		return s.cfg.MaxWorkers
	}
	return hint
}

func (q *optimizeReq) plan(s *Server) reply {
	return reply{
		key:        q.key(),
		region:     regionOf("optimize", q.Tech, q.L),
		timeoutMS:  q.TimeoutMS,
		noDegraded: q.NoDegraded,
		compute: func(ctx context.Context) (any, error) {
			return s.ladder(problemOf(q.node, q.L, q.F), func(p core.Problem) (any, error) {
				opt, err := core.OptimizeCtx(ctx, p)
				return optimumOf(opt), err
			})
		},
		estimate: func() (any, error) {
			est, err := core.EstimateOptimum(problemOf(q.node, q.L, q.F))
			if err != nil {
				return nil, err
			}
			return optimumOf(est), nil
		},
	}
}

func (q *delayReq) plan(s *Server) reply {
	return reply{
		key:        q.key(),
		region:     regionOf("delay", q.Tech, q.L),
		timeoutMS:  q.TimeoutMS,
		noDegraded: q.NoDegraded,
		compute: func(ctx context.Context) (any, error) {
			m, err := pade.FromStage(stageOf(q.node, q.L, q.H, q.K))
			if err != nil {
				return nil, err
			}
			d, err := m.DelayWith(runctl.New(ctx, runctl.Limits{}), threshold(q.F))
			if err != nil {
				return nil, err
			}
			return delayResp{Tau: d.Tau, Iterations: d.Iterations}, nil
		},
		estimate: func() (any, error) {
			tau, err := core.EstimateDelay(stageOf(q.node, q.L, q.H, q.K), q.F)
			if err != nil {
				return nil, err
			}
			return delayResp{Tau: tau}, nil
		},
	}
}

// delayResp serializes a /v1/delay answer (Iterations is 0 for closed-form
// estimates — nothing iterated).
type delayResp struct {
	Tau        float64 `json:"tau"`
	Iterations int     `json:"iterations"`
}

func (q *planReq) plan(s *Server) reply {
	return reply{
		key:        q.key(),
		region:     regionOf("plan", q.Tech, q.L),
		timeoutMS:  q.TimeoutMS,
		noDegraded: q.NoDegraded,
		compute: func(ctx context.Context) (any, error) {
			return s.ladder(problemOf(q.node, q.L, q.F), func(p core.Problem) (any, error) {
				plan, err := core.PlanLineCtx(ctx, p, q.Length)
				return planOf(plan), err
			})
		},
		estimate: func() (any, error) {
			plan, err := core.EstimatePlan(problemOf(q.node, q.L, q.F), q.Length)
			if err != nil {
				return nil, err
			}
			return planOf(plan), nil
		},
	}
}

// planResp serializes a core.LinePlan.
type planResp struct {
	Length     float64     `json:"length"`
	Stages     int         `json:"stages"`
	H          float64     `json:"h"`
	K          float64     `json:"k"`
	StageTau   float64     `json:"stage_tau"`
	Total      float64     `json:"total"`
	Continuous optimumResp `json:"continuous"`
}

func planOf(plan core.LinePlan) planResp {
	return planResp{
		Length: plan.Length, Stages: plan.Stages, H: plan.H, K: plan.K,
		StageTau: plan.StageTau, Total: plan.Total,
		Continuous: optimumOf(plan.Continuous),
	}
}

func (q *rcReq) plan(*Server) reply {
	return reply{key: q.key(), compute: func(context.Context) (any, error) {
		rc, err := core.OptimizeRC(problemOf(q.node, 0, 0.5))
		if err != nil {
			return nil, err
		}
		return rcResp{H: rc.H, K: rc.K, Tau: rc.Tau}, nil
	}}
}

// The remaining response shapes are named (rather than anonymous literals)
// so snapshotSchema can fingerprint every type a cached body may hold. The
// reliability shapes mirror relia's reports field for field, so a report
// converts directly and a new report field cannot go unserved silently.
type rcResp struct {
	H   float64 `json:"h"`
	K   float64 `json:"k"`
	Tau float64 `json:"tau"`
}

type lcritResp struct {
	LCrit float64 `json:"lcrit"` // H/m
}

type oxideResp struct {
	VGateMax  float64 `json:"v_gate_max"`
	Field     float64 `json:"field"`
	FieldVDD  float64 `json:"field_vdd"`
	Margin    float64 `json:"margin"`
	OverLimit bool    `json:"over_limit"`
	Critical  bool    `json:"critical"`
}

type wireResp struct {
	PeakJ      float64 `json:"peak_j"`
	RMSJ       float64 `json:"rms_j"`
	PeakMargin float64 `json:"peak_margin"`
	RMSMargin  float64 `json:"rms_margin"`
	PeakOver   bool    `json:"peak_over"`
	RMSOver    bool    `json:"rms_over"`
}

func (q *lcritReq) plan(*Server) reply {
	return reply{key: q.key(), compute: func(context.Context) (any, error) {
		return lcritResp{LCrit: pade.LCrit(stageOf(q.node, q.L, q.H, q.K))}, nil
	}}
}

func (q *oxideReq) plan(*Server) reply {
	return reply{key: q.key(), compute: func(context.Context) (any, error) {
		rep, err := relia.CheckOxide(q.node, q.OvershootV)
		if err != nil {
			return nil, err
		}
		return oxideResp(rep), nil
	}}
}

func (q *wireReq) plan(*Server) reply {
	return reply{key: q.key(), compute: func(context.Context) (any, error) {
		rep, err := relia.CheckWire(q.PeakJ, q.RMSJ)
		if err != nil {
			return nil, err
		}
		return wireResp(rep), nil
	}}
}

// sweepPointLine is one NDJSON record of a streamed sweep.
type sweepPointLine struct {
	Type       string    `json:"type"` // "point"
	L          jsonFloat `json:"l"`
	H          jsonFloat `json:"h"`
	K          jsonFloat `json:"k"`
	Tau        jsonFloat `json:"tau"`
	PerUnit    jsonFloat `json:"per_unit"`
	LCrit      jsonFloat `json:"lcrit"`
	HRatio     jsonFloat `json:"h_ratio"`
	KRatio     jsonFloat `json:"k_ratio"`
	DelayRatio jsonFloat `json:"delay_ratio"`
	Penalty    jsonFloat `json:"penalty"`
	Method     string    `json:"method"`
}

// jsonFloat is a float64 that encodes NaN and ±Inf as JSON null, which
// encoding/json would otherwise refuse mid-stream (a sweep point's Penalty
// is +Inf when the delay at the RC-optimal sizing fails to evaluate);
// finite values encode exactly as float64 does.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// plan splits the Section 3 study into fixed chunks, streamed as NDJSON:
// one "point" record per grid point. Each chunk runs on the batched engine
// and is independently cached and coalesced, so concurrent identical sweeps
// share work chunk by chunk and both stream as chunks complete.
func (q *sweepReq) plan(s *Server) reply {
	if q.Warm && q.TileSize == 0 {
		q.TileSize = 8 // the engine's warm default, pinned for the cache key
	}
	opts := core.SweepOptions{Workers: s.workers(q.Workers), TileSize: q.TileSize, Warm: q.Warm, Injector: s.cfg.Injector}
	base := q.keyBase()
	spec := reply{timeoutMS: q.TimeoutMS, tech: q.node.Name}
	for lo := 0; lo < len(q.Ls); lo += sweepChunk {
		ls := q.Ls[lo:min(lo+sweepChunk, len(q.Ls))]
		spec.chunks = append(spec.chunks, chunk{key: chunkKey(base, ls), produce: func(ctx context.Context) ([]byte, error) {
			pts, err := core.SweepBatchCtx(ctx, opts, q.node, ls, q.F)
			if err != nil {
				return nil, err
			}
			return ndjson(pts, func(pt core.SweepPoint) any {
				return sweepPointLine{
					Type: "point", L: jsonFloat(pt.L),
					H: jsonFloat(pt.Opt.H), K: jsonFloat(pt.Opt.K), Tau: jsonFloat(pt.Opt.Tau), PerUnit: jsonFloat(pt.Opt.PerUnit),
					LCrit: jsonFloat(pt.LCrit), HRatio: jsonFloat(pt.HRatio), KRatio: jsonFloat(pt.KRatio),
					DelayRatio: jsonFloat(pt.DelayRatio), Penalty: jsonFloat(pt.Penalty),
					Method: string(pt.Opt.Method),
				}
			})
		}})
	}
	return spec
}
