// Package serve is the HTTP serving subsystem: it exposes the library's
// public facade — Optimize, Delay, PlanLine, Sweep, OptimizeRC, LCrit, and
// the reliability checks — as a JSON API hardened for heavy traffic.
//
// Three layers sit between a request and a solver:
//
//   - Result caching: requests are canonicalized into exact cache keys
//     (float bit patterns, normalized defaults) and successful responses are
//     kept in a bounded LRU (entry and byte bounds), so repeated identical
//     queries cost a map lookup.
//   - Request coalescing: concurrent identical requests share one
//     computation (singleflight). The computation runs on a context owned by
//     the group, cancelled only when every interested client has gone — one
//     impatient client cannot kill a shared solve, and a fully abandoned
//     solve stops promptly with no orphaned Newton iterations.
//   - Admission control: a concurrency limiter bounds simultaneous solves, a
//     bounded queue absorbs bursts, and anything beyond is rejected with 503
//     before it can claim memory or CPU. Per-request deadlines ride the
//     request context into the runctl layer.
//
// On top of those sit the resilience layers:
//
//   - Persistent cache snapshots: the result LRU is periodically (and on
//     drain) written to a versioned, checksummed snapshot file with the
//     checkpoint discipline (temp + fsync + atomic rename), and restored on
//     startup — a restarted daemon serves warm hits immediately. A corrupt
//     or version-skewed snapshot is detected and skipped: always a cold
//     start, never a crash.
//   - Per-region circuit breakers: solver failures are keyed by a coarse
//     quantization of the request region (endpoint × tech × half-decade of
//     inductance); after a threshold of consecutive failures the region's
//     breaker opens and requests skip the expensive recovery ladder, going
//     straight to degraded mode, with half-open probes restoring full
//     service.
//   - Graceful degradation: when the full solve fails, times out, or hits
//     an open breaker, the response is the closed-form RC-optimal /
//     Ismail–Friedman estimate, marked "degraded": true with the ladder
//     report attached and an X-Degraded header — never a bare 422/504 when
//     an estimate exists. Clients opt out per request with no_degraded.
//
// Sweeps stream as NDJSON, chunk by chunk, with each chunk independently
// cached and coalesced; every stream ends with a terminal status record
// ("done" or "error", both carrying the error-free prefix length), so a
// completed stream is always distinguishable from a dropped connection.
// Typed diag errors map onto documented HTTP statuses (see mapError). The
// observability surface is /healthz, /metrics, /statusz, and /debug/pprof.
package serve

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rlcint/internal/diag"
	"rlcint/internal/fleet"
)

// Config sizes the serving layers. The zero value of any field selects the
// default noted on it.
type Config struct {
	// MaxInflight bounds concurrently running solves (0 → GOMAXPROCS).
	MaxInflight int
	// MaxQueue bounds requests waiting for a solve slot (0 → 64; <0
	// disables queueing: a request either gets a slot immediately or is
	// rejected).
	MaxQueue int
	// DefaultTimeout is the per-request compute budget when the request does
	// not name one (0 → 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeout_ms (0 → 2m).
	MaxTimeout time.Duration
	// CacheEntries bounds the result cache's entry count (0 → 4096; <0
	// disables caching).
	CacheEntries int
	// CacheBytes bounds the result cache's memory (0 → 64 MiB).
	CacheBytes int64
	// MaxSweepPoints bounds one sweep request's grid (0 → 65536).
	MaxSweepPoints int
	// MaxWorkers caps the per-request sweep worker hint (0 → GOMAXPROCS).
	MaxWorkers int
	// SnapshotPath, when non-empty, enables persistent cache snapshots:
	// loaded at startup, saved every SnapshotInterval and on drain.
	SnapshotPath string
	// SnapshotInterval is the periodic save cadence (0 → 30s; <0 disables
	// periodic saves, leaving only the on-drain save).
	SnapshotInterval time.Duration
	// BreakerThreshold is the consecutive eligible-failure count that opens
	// a request region's circuit breaker (0 → 5; <0 disables breakers).
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay (0 → 10s).
	BreakerCooldown time.Duration
	// DisableDegraded turns off degraded-mode answers server-wide: solver
	// failures surface as their mapped errors, as if no estimate existed.
	DisableDegraded bool
	// Fleet, when non-nil, enables fleet mode: cache-missed unary requests
	// are forwarded to their key's ring owner (see internal/fleet). The
	// fleet's Gate, Logger, and Injector default to this server's.
	Fleet *fleet.Config
	// Injector injects solver faults for chaos testing (nil in production).
	// It reaches the optimizer solves only: /v1/optimize and /v1/plan
	// (degraded on failure) and /v1/sweep; /v1/delay, /v1/plan-power,
	// /v1/pareto, /v1/pdn/* and the closed-form rows never consult it (see
	// TestRouteFaults).
	Injector *diag.Injector
	// Logger receives one structured access-log line per request (nil →
	// stderr).
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	} else if c.MaxQueue < 0 {
		c.MaxQueue = 0 // negative disables queueing entirely, like CacheEntries
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 65536
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	}
	return c
}

// Server is one serving instance. Create with New, mount Handler on an
// http.Server, and Close during shutdown to cancel and drain in-flight
// solves.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *lruCache
	flights  *flightGroup
	limiter  *limiter
	metrics  *metrics
	breakers *breakerSet
	fleet    *fleet.Fleet
	snap     snapStats
	snapWG   sync.WaitGroup
	base     context.Context
	abort    context.CancelFunc

	// readyCh closes once the snapshot replay (if any) finishes; together
	// with draining it backs /readyz, which fleet peers and load balancers
	// probe. Liveness (/healthz) stays 200 through both phases.
	readyCh  chan struct{}
	draining atomic.Bool
}

// New builds a Server from cfg (zero value → all defaults). When
// cfg.SnapshotPath is set the cache is warmed from the snapshot file in the
// background (a missing or corrupt snapshot is a cold start, never an
// error); /readyz answers 503 until the replay finishes, then a background
// goroutine persists the cache every SnapshotInterval until Close. When
// cfg.Fleet is set, the server joins the peer ring and forwards cache-missed
// unary requests to their key's owner shard.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, abort := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   newLRUCache(cfg.CacheEntries, cfg.CacheBytes),
		flights: newFlightGroup(base),
		limiter: newLimiter(cfg.MaxInflight, cfg.MaxQueue),
		metrics: newMetrics(),
		base:    base,
		abort:   abort,
		readyCh: make(chan struct{}),
	}
	s.breakers = newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown, s.metrics.counts)
	if cfg.Fleet != nil {
		fc := *cfg.Fleet
		if fc.Gate == nil {
			fc.Gate = &peerGate{s: s}
		}
		if fc.Logger == nil {
			fc.Logger = cfg.Logger
		}
		if fc.Injector == nil {
			fc.Injector = cfg.Injector
		}
		fl, err := fleet.New(fc)
		if err != nil {
			// A misconfigured fleet must not keep the daemon from answering:
			// run standalone. rlcd validates flags up front, so this is only
			// reachable through the library API.
			cfg.Logger.Printf("fleet: disabled: %v", err)
		}
		s.fleet = fl
	}
	if cfg.SnapshotPath != "" {
		// The replay runs off the request path: a daemon with a large snapshot
		// accepts liveness checks immediately and signals readiness when warm.
		s.snapWG.Add(1)
		go func() {
			defer s.snapWG.Done()
			s.loadCacheSnapshot()
			close(s.readyCh)
			if cfg.SnapshotInterval > 0 {
				s.snapshotLoop(cfg.SnapshotInterval)
			}
		}()
	} else {
		close(s.readyCh)
	}
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	for _, rt := range routeTable {
		s.mux.HandleFunc("POST "+rt.path, s.serve(rt))
	}
	// Process-global expvar page (memstats, cmdline); the server's own
	// counters live unpublished behind /metrics so multiple Servers in one
	// process never collide in the global namespace.
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns the fully instrumented HTTP handler: access logging,
// request/latency metrics, and panic containment wrap the route mux.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		startAt := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		func() {
			defer func() {
				if p := recover(); p != nil {
					// A handler bug must not take the daemon down; solver
					// panics are already contained below this layer.
					if !rec.wrote {
						writeError(rec, apiError{
							Status:  http.StatusInternalServerError,
							Kind:    "panic",
							Message: fmt.Sprintf("serve: handler panic: %v", p),
						})
					}
				}
			}()
			s.mux.ServeHTTP(rec, r)
		}()
		d := time.Since(startAt)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		s.metrics.observe(r.URL.Path, status, d)
		s.cfg.Logger.Printf("method=%s path=%s status=%d bytes=%d dur_ms=%.3f cache=%s",
			r.Method, r.URL.Path, status, rec.bytes, float64(d)/float64(time.Millisecond),
			orDash(rec.Header().Get("X-Cache")))
	})
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// Close cancels every in-flight computation, waits for the compute
// goroutines to drain, and — when snapshots are configured — persists a
// final cache snapshot so the next start is warm. Call after (or instead
// of) http.Server.Shutdown; it is what turns a stuck drain into a prompt
// one — solvers observe the cancellation at their next runctl tick.
func (s *Server) Close() {
	s.BeginDrain()
	s.fleet.Close()
	s.abort()
	s.flights.wait()
	s.snapWG.Wait()
	if s.cfg.SnapshotPath != "" {
		if err := s.SaveSnapshot(); err != nil {
			s.cfg.Logger.Printf("snapshot: drain save failed: %v", err)
		}
	}
}

// EffectiveConfig returns the configuration after defaulting — what this
// server actually runs with, for boot logs and diagnostics.
func (s *Server) EffectiveConfig() Config { return s.cfg }

// timeoutFor resolves a request's compute budget from its timeout_ms field.
func (s *Server) timeoutFor(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// handleHealthz is liveness: the process is up and serving HTTP. It stays
// 200 while the snapshot replays and while draining — restarting a daemon
// for being not-yet-ready or deliberately-shutting-down would be wrong.
// Orchestrators gate traffic on /readyz instead.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":   "ok",
		"ready":    s.Ready(),
		"uptime_s": time.Since(s.metrics.start).Seconds(),
	})
}

// handleReadyz is readiness: 200 only when the server should receive
// traffic. 503 while the startup snapshot replay is still running and after
// BeginDrain — fleet peers probe this, so a replaying or draining instance
// drops out of the candidate sets instead of answering cold or dying
// mid-request.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	reason := ""
	select {
	case <-s.readyCh:
	default:
		reason = "replaying snapshot"
	}
	if s.draining.Load() {
		reason = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	if reason != "" {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"ready": false, "reason": reason})
		return
	}
	_ = json.NewEncoder(w).Encode(map[string]any{"ready": true})
}

// Ready reports whether /readyz would answer 200 right now.
func (s *Server) Ready() bool {
	select {
	case <-s.readyCh:
		return !s.draining.Load()
	default:
		return false
	}
}

// BeginDrain flips readiness to 503 without interrupting in-flight work —
// the first step of a graceful shutdown, called by rlcd on the first
// SIGINT/SIGTERM (and by Close). Load balancers and fleet probes see the
// instance leave rotation while http.Server.Shutdown lets live requests
// finish.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// WaitReady blocks until the startup snapshot replay finishes or ctx ends.
// Tests and embedders use it to avoid racing cold reads against the replay.
func (s *Server) WaitReady(ctx context.Context) error {
	select {
	case <-s.readyCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// statusRecorder captures the status and byte count for logs and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if !r.wrote {
		r.status = http.StatusOK
		r.wrote = true
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards streaming flushes so NDJSON chunks reach the client as
// they complete.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
