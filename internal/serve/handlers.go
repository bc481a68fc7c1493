package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"time"

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
// < 0) so benchmarks and tests can exercise the cold path.
func (s *Server) cacheGet(key string) (*cached, bool) {
	if s.cfg.CacheEntries < 0 {
		return nil, false
	}
	return s.cache.get(key)
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

// serveCached is the plain unary-endpoint pipeline — cache lookup →
// singleflight coalescing → admission control → compute → marshal → cache
// fill — for endpoints with no breaker region and no degraded mode. It is
// serveResilient with the resilience features switched off. These endpoints
// are closed-form (microseconds), so they are never fleet-forwarded: a hop
// would cost more than the compute.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string,
	timeout time.Duration, compute func(ctx context.Context) (any, error)) {
	s.serveResilient(w, r, resilient{key: key, timeout: timeout, compute: compute})
}

// decodeOrFail decodes + validates; on failure it writes the 400 and
// reports false.
func (s *Server) decodeOrFail(w http.ResponseWriter, r *http.Request, q any, validate func() error) bool {
	if err := decodeJSON(w, r, q); err != nil {
		writeError(w, mapError(err))
		return false
	}
	if validate != nil {
		if err := validate(); err != nil {
			writeError(w, mapError(err))
			return false
		}
	}
	return true
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var q optimizeReq
	if !s.decodeOrFail(w, r, &q, q.validate) {
		return
	}
	node, err := techOf(q.Tech)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	s.serveResilient(w, r, resilient{
		key:        q.key(),
		region:     regionOf("optimize", q.Tech, q.L),
		timeout:    s.timeoutFor(q.TimeoutMS),
		noDegraded: q.NoDegraded,
		fwdPath:    "/v1/optimize",
		fwdReq:     &q,
		compute: func(ctx context.Context) (any, error) {
			rep := &diag.Report{}
			p := problemOf(node, q.L, q.F)
			p.Report = rep
			p.Injector = s.cfg.Injector
			opt, err := core.OptimizeCtx(ctx, p)
			s.metrics.recordLadder(rep)
			if err != nil {
				return nil, &solveError{err: err, report: rep}
			}
			return optimumOf(opt), nil
		},
		estimate: func() (any, error) {
			est, err := core.EstimateOptimum(problemOf(node, q.L, q.F))
			if err != nil {
				return nil, err
			}
			return optimumOf(est), nil
		},
	})
}

func (s *Server) handleDelay(w http.ResponseWriter, r *http.Request) {
	var q delayReq
	if !s.decodeOrFail(w, r, &q, q.validate) {
		return
	}
	node, err := techOf(q.Tech)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	s.serveResilient(w, r, resilient{
		key:        q.key(),
		region:     regionOf("delay", q.Tech, q.L),
		timeout:    s.timeoutFor(q.TimeoutMS),
		noDegraded: q.NoDegraded,
		fwdPath:    "/v1/delay",
		fwdReq:     &q,
		compute: func(ctx context.Context) (any, error) {
			m, err := pade.FromStage(stageOf(node, q.L, q.H, q.K))
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
			tau, err := core.EstimateDelay(stageOf(node, q.L, q.H, q.K), q.F)
			if err != nil {
				return nil, err
			}
			return delayResp{Tau: tau}, nil
		},
	})
}

// delayResp serializes a /v1/delay answer (Iterations is 0 for closed-form
// estimates — nothing iterated).
type delayResp struct {
	Tau        float64 `json:"tau"`
	Iterations int     `json:"iterations"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var q planReq
	if !s.decodeOrFail(w, r, &q, q.validate) {
		return
	}
	node, err := techOf(q.Tech)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	s.serveResilient(w, r, resilient{
		key:        q.key(),
		region:     regionOf("plan", q.Tech, q.L),
		timeout:    s.timeoutFor(q.TimeoutMS),
		noDegraded: q.NoDegraded,
		fwdPath:    "/v1/plan",
		fwdReq:     &q,
		compute: func(ctx context.Context) (any, error) {
			rep := &diag.Report{}
			p := problemOf(node, q.L, q.F)
			p.Report = rep
			p.Injector = s.cfg.Injector
			plan, err := core.PlanLineCtx(ctx, p, q.Length)
			s.metrics.recordLadder(rep)
			if err != nil {
				return nil, &solveError{err: err, report: rep}
			}
			return planOf(plan), nil
		},
		estimate: func() (any, error) {
			plan, err := core.EstimatePlan(problemOf(node, q.L, q.F), q.Length)
			if err != nil {
				return nil, err
			}
			return planOf(plan), nil
		},
	})
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

func (s *Server) handleOptimizeRC(w http.ResponseWriter, r *http.Request) {
	var q rcReq
	if !s.decodeOrFail(w, r, &q, nil) {
		return
	}
	node, err := techOf(q.Tech)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	s.serveCached(w, r, q.key(), s.cfg.DefaultTimeout, func(ctx context.Context) (any, error) {
		rc, err := core.OptimizeRC(problemOf(node, 0, 0.5))
		if err != nil {
			return nil, err
		}
		return rcResp{H: rc.H, K: rc.K, Tau: rc.Tau}, nil
	})
}

// The remaining response shapes are named (rather than anonymous literals)
// so snapshotSchema can fingerprint every type a cached body may hold.
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

func (s *Server) handleLCrit(w http.ResponseWriter, r *http.Request) {
	var q lcritReq
	if !s.decodeOrFail(w, r, &q, q.validate) {
		return
	}
	node, err := techOf(q.Tech)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	s.serveCached(w, r, q.key(), s.cfg.DefaultTimeout, func(ctx context.Context) (any, error) {
		return lcritResp{LCrit: pade.LCrit(stageOf(node, q.L, q.H, q.K))}, nil
	})
}

func (s *Server) handleCheckOxide(w http.ResponseWriter, r *http.Request) {
	var q oxideReq
	if !s.decodeOrFail(w, r, &q, q.validate) {
		return
	}
	node, err := techOf(q.Tech)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	s.serveCached(w, r, q.key(), s.cfg.DefaultTimeout, func(ctx context.Context) (any, error) {
		rep, err := relia.CheckOxide(node, q.OvershootV)
		if err != nil {
			return nil, err
		}
		return oxideResp{
			VGateMax: rep.VGateMax, Field: rep.Field, FieldVDD: rep.FieldVDD,
			Margin: rep.Margin, OverLimit: rep.OverLimit, Critical: rep.Critical,
		}, nil
	})
}

func (s *Server) handleCheckWire(w http.ResponseWriter, r *http.Request) {
	var q wireReq
	if !s.decodeOrFail(w, r, &q, q.validate) {
		return
	}
	s.serveCached(w, r, q.key(), s.cfg.DefaultTimeout, func(ctx context.Context) (any, error) {
		rep, err := relia.CheckWire(q.PeakJ, q.RMSJ)
		if err != nil {
			return nil, err
		}
		return wireResp{
			PeakJ: rep.PeakJ, RMSJ: rep.RMSJ,
			PeakMargin: rep.PeakMargin, RMSMargin: rep.RMSMargin,
			PeakOver: rep.PeakOver, RMSOver: rep.RMSOver,
		}, nil
	})
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

// handleSweep streams the Section 3 study as NDJSON: one "point" record per
// grid point, a final "done" record, or — after the longest error-free
// prefix — a single "error" record mirroring the library's partial-result
// contract. The grid is split into fixed chunks; each chunk runs on the
// batched engine and is independently cached and coalesced, so concurrent
// identical sweeps share work chunk by chunk and both stream as chunks
// complete. Sweeps always run locally, even in fleet mode: a sweep's chunks
// would shard across many owners, and relaying a partially failed stream
// through another instance would blur the terminal-record contract.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var q sweepReq
	if !s.decodeOrFail(w, r, &q, func() error { return q.validate(s.cfg.MaxSweepPoints) }) {
		return
	}
	node, err := techOf(q.Tech)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	workers := q.Workers
	if workers <= 0 || workers > s.cfg.MaxWorkers {
		workers = s.cfg.MaxWorkers
	}
	if q.Warm && q.TileSize == 0 {
		q.TileSize = 8 // the engine's warm default, pinned for the cache key
	}
	opts := core.SweepOptions{Workers: workers, TileSize: q.TileSize, Warm: q.Warm, Injector: s.cfg.Injector}
	deadline := time.Now().Add(s.timeoutFor(q.TimeoutMS))
	reqCtx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	base := q.keyBase()

	flusher, _ := w.(http.Flusher)
	wrote, points := false, 0
	for lo := 0; lo < len(q.Ls); lo += sweepChunk {
		hi := min(lo+sweepChunk, len(q.Ls))
		ls := q.Ls[lo:hi]
		key := chunkKey(base, ls)
		e, ok := s.cacheGet(key)
		src := "hit"
		if !ok {
			var err error
			var shared bool
			e, err, shared = s.flights.do(reqCtx, key, time.Until(deadline), func(ctx context.Context) (*cached, error) {
				if err := s.limiter.acquire(ctx); err != nil {
					return nil, err
				}
				defer s.limiter.release()
				pts, err := core.SweepBatchCtx(ctx, opts, node, ls, q.F)
				if err != nil {
					return nil, err
				}
				var body []byte
				for _, pt := range pts {
					line, err := json.Marshal(sweepPointLine{
						Type: "point", L: jsonFloat(pt.L),
						H: jsonFloat(pt.Opt.H), K: jsonFloat(pt.Opt.K), Tau: jsonFloat(pt.Opt.Tau), PerUnit: jsonFloat(pt.Opt.PerUnit),
						LCrit: jsonFloat(pt.LCrit), HRatio: jsonFloat(pt.HRatio), KRatio: jsonFloat(pt.KRatio),
						DelayRatio: jsonFloat(pt.DelayRatio), Penalty: jsonFloat(pt.Penalty),
						Method: string(pt.Opt.Method),
					})
					if err != nil {
						return nil, err
					}
					body = append(body, line...)
					body = append(body, '\n')
				}
				e := &cached{key: key, ctype: "application/x-ndjson", body: body}
				s.cachePut(e)
				return e, nil
			})
			src = "miss"
			if shared {
				src = "coalesced"
			}
			if err != nil {
				s.metrics.xcache.Add(src, 1)
				ae := s.mapErrorWithRetry(err, "")
				if !wrote {
					writeError(w, ae)
				} else {
					// The terminal "error" record carries the error-free
					// prefix length, so a consumer can tell how much of the
					// stream is trustworthy without counting records.
					line, _ := json.Marshal(struct {
						Type    string `json:"type"`
						Status  int    `json:"status"`
						Kind    string `json:"kind"`
						Message string `json:"message"`
						Points  int    `json:"points"`
					}{"error", ae.Status, ae.Kind, ae.Message, points})
					_, _ = w.Write(append(line, '\n'))
					if flusher != nil {
						flusher.Flush()
					}
				}
				return
			}
		}
		s.metrics.xcache.Add(src, 1)
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Cache", src)
			wrote = true
		}
		_, _ = w.Write(e.body)
		points += hi - lo
		if flusher != nil {
			flusher.Flush()
		}
	}
	line, _ := json.Marshal(struct {
		Type   string `json:"type"`
		Points int    `json:"points"`
		Tech   string `json:"tech"`
	}{"done", points, node.Name})
	_, _ = w.Write(append(line, '\n'))
}
