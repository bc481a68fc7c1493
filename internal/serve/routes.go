package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"time"

	"rlcint/internal/pdn"
)

// request is the decoded body of one POST route.
type request interface {
	// validate rejects malformed input (cfg bounds its size) and resolves the
	// technology node the request names, plus anything built from it.
	validate(cfg *Config) error
	// plan turns a validated request into its answer; every failure a
	// request can cause before its computation runs is validate's to report.
	plan(s *Server) reply
}

// reply is what a plan answers with: one unary computation — its cache key,
// compute, the closed-form estimate behind degraded answers (nil → no
// degraded mode), and its breaker region ("" → no breaker) — or the chunks
// of an NDJSON stream.
type reply struct {
	key        string
	region     string
	timeoutMS  int64
	noDegraded bool // request opted out via no_degraded
	compute    func(ctx context.Context) (any, error)
	estimate   func() (any, error)

	chunks []chunk // non-empty → an NDJSON stream
	tech   string  // node named in the stream's terminal "done" record
}

// chunk is one independently cached and coalesced unit of a stream.
type chunk struct {
	key     string
	produce func(ctx context.Context) ([]byte, error) // newline-terminated records
}

// route is one POST endpoint: its path, the request type its body decodes
// into, the response shape a cached body holds, and whether fleet mode
// forwards its cache misses to the key's ring owner.
type route struct {
	path    string
	req     func() request
	shape   any
	forward bool
}

// routeTable is every POST endpoint. A new endpoint is one request type and
// one row, appended at the end: table order is snapshotSchema's walk order,
// so reordering rows changes the fingerprint and cold-starts every existing
// snapshot. Only the solver endpoints forward; the closed-form ones answer
// faster than a network hop, and streams always run locally — their chunk
// keys shard across many owners, and relaying a partially failed stream
// through another instance would blur the terminal-record contract.
var routeTable = []route{
	{"/v1/optimize", func() request { return new(optimizeReq) }, optimumResp{}, true},
	{"/v1/delay", func() request { return new(delayReq) }, delayResp{}, true},
	{"/v1/plan", func() request { return new(planReq) }, planResp{}, true},
	{"/v1/sweep", func() request { return new(sweepReq) }, sweepPointLine{}, false},
	{"/v1/optimize-rc", func() request { return new(rcReq) }, rcResp{}, false},
	{"/v1/lcrit", func() request { return new(lcritReq) }, lcritResp{}, false},
	{"/v1/check/oxide", func() request { return new(oxideReq) }, oxideResp{}, false},
	{"/v1/check/wire", func() request { return new(wireReq) }, wireResp{}, false},
	{"/v1/pdn/ir", func() request { return new(pdnIRReq) }, pdn.IRResult{}, false},
	{"/v1/pdn/impedance", func() request { return new(pdnImpReq) }, pdn.ImpedanceResult{}, false},
	{"/v1/plan-power", func() request { return new(planPowerReq) }, planPowerResp{}, true},
	{"/v1/pareto", func() request { return new(paretoReq) }, paretoPointLine{}, false},
}

// serve is the handler every route shares: decode → validate → plan, then
// the unary pipeline or the NDJSON stream.
func (s *Server) serve(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := rt.req()
		err := decodeJSON(w, r, q)
		if err == nil {
			err = q.validate(&s.cfg)
		}
		if err != nil {
			writeError(w, mapError(err))
			return
		}
		if spec := q.plan(s); len(spec.chunks) > 0 {
			s.serveStream(w, r, spec)
		} else {
			s.serveResilient(w, r, rt, q, spec)
		}
	}
}

// fill answers a cache miss: singleflight coalescing → admission control →
// produce → cache fill, counting the miss as "miss" or "coalesced" (the
// source it returns). With a breaker region the outcome is recorded once
// per computation, inside the flight, so coalesced bursts count as one
// attempt — and exactly once per closure run, so a half-open probe always
// resolves: admission rejects record an ineligible failure, and a panic
// unwinding out of produce records via the deferred catch-all.
func (s *Server) fill(ctx context.Context, key, region, ctype string, timeout time.Duration,
	produce func(context.Context) ([]byte, error)) (e *cached, src string, err error) {
	e, err, shared := s.flights.do(ctx, key, timeout, func(ctx context.Context) (*cached, error) {
		recorded := region == ""
		record := func(ok, eligible bool, cause string) {
			if !recorded {
				recorded = true
				s.breakers.onResult(region, ok, eligible, cause)
			}
		}
		// The only path that can skip the explicit records below is a panic
		// out of produce (contained one layer up, in the flight); fold it in
		// here so it still counts and a probe never wedges.
		defer record(false, true, "panic")
		if err := s.limiter.acquire(ctx); err != nil {
			record(false, false, mapError(err).Kind)
			return nil, err
		}
		defer s.limiter.release()
		body, err := produce(ctx)
		if err != nil {
			record(false, breakerEligible(err), mapError(err).Kind)
			return nil, err
		}
		record(true, false, "")
		e := &cached{key: key, ctype: ctype, body: body}
		s.cachePut(e)
		return e, nil
	})
	src = "miss"
	if shared {
		src = "coalesced"
	}
	s.metrics.counts.Add("xcache."+src, 1)
	return e, src, err
}

// serveStream writes a stream's chunks as NDJSON as they complete, each one
// cached and coalesced through fill, then a terminal "done" record — or,
// after the longest error-free prefix, a single "error" record mirroring the
// library's partial-result contract.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, spec reply) {
	deadline := time.Now().Add(s.timeoutFor(spec.timeoutMS))
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	rc := http.NewResponseController(w)
	points := 0
	for i, c := range spec.chunks {
		e, ok := s.cacheGet(c.key)
		src := "hit"
		var err error
		if !ok {
			e, src, err = s.fill(ctx, c.key, "", "application/x-ndjson", time.Until(deadline), c.produce)
		}
		if err != nil {
			ae := s.mapErrorWithRetry(err, "")
			if i == 0 {
				writeError(w, ae)
				return
			}
			// The terminal "error" record carries the error-free prefix
			// length, so a consumer can tell how much of the stream is
			// trustworthy without counting records.
			_ = json.NewEncoder(w).Encode(struct {
				Type string `json:"type"`
				apiError
				Points int `json:"points"`
			}{"error", ae, points})
			_ = rc.Flush()
			return
		}
		if i == 0 {
			writeCachedBody(w, e, src)
		} else {
			_, _ = w.Write(e.body)
		}
		points += bytes.Count(e.body, []byte{'\n'})
		_ = rc.Flush()
	}
	_ = json.NewEncoder(w).Encode(struct {
		Type   string `json:"type"`
		Points int    `json:"points"`
		Tech   string `json:"tech"`
	}{"done", points, spec.tech})
}

// ndjson marshals one newline-terminated record per item.
func ndjson[T any](items []T, record func(T) any) ([]byte, error) {
	var body []byte
	for _, it := range items {
		line, err := json.Marshal(record(it))
		if err != nil {
			return nil, err
		}
		body = append(append(body, line...), '\n')
	}
	return body, nil
}
