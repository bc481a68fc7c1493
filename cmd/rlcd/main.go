// Command rlcd is the rlcint serving daemon: an HTTP/JSON API over the
// library's public facade with result caching, request coalescing,
// admission control, persistent cache snapshots, per-region circuit
// breakers, and degraded-mode answers.
//
// Usage:
//
//	rlcd [-addr :8080] [-inflight N] [-queue N] [-timeout 30s]
//	     [-cache-entries 4096] [-cache-bytes 67108864] [-drain 30s]
//	     [-snapshot /path/cache.snap] [-snapshot-interval 30s]
//	     [-breaker-threshold 5] [-breaker-cooldown 10s] [-no-degraded]
//	     [-self host:port] [-peers h1:p1,h2:p2 | -peers-file /path]
//	     [-probe-interval 1s] [-forward-timeout 1s] [-hedge-after 0]
//
// Endpoints (all request/response bodies JSON, SI units):
//
//	POST /v1/optimize     {"tech","l","f"}                → RLC optimum
//	POST /v1/delay        {"tech","l","h","k","f"}        → stage delay
//	POST /v1/plan         {"tech","l","f","length"}       → realizable plan
//	POST /v1/optimize-rc  {"tech"}                        → Elmore optimum
//	POST /v1/lcrit        {"tech","l","h","k"}            → Eq. (4)
//	POST /v1/sweep        {"tech","ls":[...],"f","warm"}  → NDJSON stream
//	POST /v1/check/oxide  {"tech","overshoot_v"}          → oxide report
//	POST /v1/check/wire   {"peak_j","rms_j"}              → wire report
//	POST /v1/pdn/ir       {"nx","ny",...mesh}             → DC IR drop
//	POST /v1/pdn/impedance {"nx","ny","f_start","f_stop"} → Z(f) profile
//	POST /v1/plan-power   {"tech","l","f","alpha","freq","length"} → power plan
//	POST /v1/pareto       {"tech","l","f","alpha","freq"} → NDJSON front
//	GET  /healthz  GET /readyz  GET /metrics  GET /statusz
//	     /debug/pprof/  /debug/vars
//
// /healthz is liveness (the process is up); /readyz is readiness and
// answers 503 while the startup snapshot replays and after the first
// drain signal — point load balancers and fleet probes at /readyz.
//
// Fleet mode: -peers (or -peers-file, one address per line, reloaded on
// SIGHUP) joins this daemon to a peer ring. Each cache key has one owner
// instance; cache-missed solver requests are forwarded to their owner
// (bounded retries across ring replicas with jittered backoff, optional
// -hedge-after tail-latency hedging), so identical queries hit a warm
// cache no matter which instance the client reached. When the owner and
// its replicas are down, the local instance computes the answer itself —
// fleet topology never fails a request. The ring's replica count, probe
// hysteresis, retry budget and hop cap are internal/fleet constants.
//
// With -snapshot the result cache is restored at startup and persisted
// every -snapshot-interval and on drain, so a restarted daemon answers
// warm. A corrupt or version-skewed snapshot is skipped (cold start),
// never fatal. Solver endpoints degrade to closed-form estimates
// ("degraded": true, X-Degraded header) when the full solve fails, times
// out, or the request region's circuit breaker is open; -no-degraded
// turns that off daemon-wide, and clients opt out per request with
// "no_degraded": true.
//
// The -fault-op/-fault-every pair injects a solver fault into every Nth
// hit of the named operation site — a chaos-testing aid, never for
// production.
//
// SIGINT/SIGTERM drain in-flight solves gracefully within -drain; a second
// signal or an expired drain forces the stop and exits with status 2,
// matching the library's CLI run-control convention.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rlcint/internal/diag"
	"rlcint/internal/fleet"
	"rlcint/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	inflight := flag.Int("inflight", 0, "max concurrent solves (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max queued requests beyond -inflight (0 = 64, negative = no queue)")
	timeout := flag.Duration("timeout", 0, "default per-request compute budget (0 = 30s)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on client-requested timeout_ms (0 = 2m)")
	cacheEntries := flag.Int("cache-entries", 0, "result cache entry bound (0 = 4096, negative = disable)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result cache byte bound (0 = 64MiB)")
	maxPoints := flag.Int("max-sweep-points", 0, "per-request sweep grid bound (0 = 65536)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
	snapshot := flag.String("snapshot", "", "cache snapshot file: restored at startup, saved periodically and on drain (empty = disabled)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "periodic snapshot cadence (0 = 30s, negative = on-drain only)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive failures opening a region's circuit breaker (0 = 5, negative = disable)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open breaker cooldown before a half-open probe (0 = 10s)")
	noDegraded := flag.Bool("no-degraded", false, "disable degraded-mode answers; failures surface as errors")
	faultOp := flag.String("fault-op", "", "chaos testing: operation site to fault (e.g. core.eval, fleet.transport)")
	faultEvery := flag.Int("fault-every", 0, "chaos testing: fault every Nth hit of -fault-op (0 = disabled)")
	self := flag.String("self", "", "fleet: this instance's advertised host:port (required with -peers/-peers-file)")
	peers := flag.String("peers", "", "fleet: comma-separated peer host:port list")
	peersFile := flag.String("peers-file", "", "fleet: file with one peer host:port per line (# comments); reloaded on SIGHUP")
	probeInterval := flag.Duration("probe-interval", 0, "fleet: peer readiness-probe cadence (0 = 1s, negative = no probing)")
	hedgeAfter := flag.Duration("hedge-after", 0, "fleet: hedge a slow forward to the next replica after this delay (0 = disabled)")
	forwardTimeout := flag.Duration("forward-timeout", 0, "fleet: per-attempt forward timeout (0 = 1s)")
	flag.Parse()

	// Fail fast on nonsense values with a usage error rather than letting a
	// typo'd unit or sign boot a daemon with surprising behavior. Negative
	// values with a defined meaning (-queue, -cache-entries,
	// -snapshot-interval, -breaker-threshold) stay legal.
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "rlcd: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if *addr == "" {
		usageErr("-addr must not be empty")
	}
	if *inflight < 0 {
		usageErr("-inflight must be non-negative, got %d", *inflight)
	}
	if *timeout < 0 || *maxTimeout < 0 {
		usageErr("-timeout and -max-timeout must be non-negative, got %s and %s", *timeout, *maxTimeout)
	}
	if *cacheBytes < 0 {
		usageErr("-cache-bytes must be non-negative, got %d", *cacheBytes)
	}
	if *maxPoints < 0 {
		usageErr("-max-sweep-points must be non-negative, got %d", *maxPoints)
	}
	if *drain <= 0 {
		usageErr("-drain must be positive, got %s", *drain)
	}
	if *breakerCooldown < 0 {
		usageErr("-breaker-cooldown must be non-negative, got %s", *breakerCooldown)
	}
	if *faultEvery < 0 {
		usageErr("-fault-every must be non-negative, got %d", *faultEvery)
	}
	if (*faultOp == "") != (*faultEvery == 0) {
		usageErr("-fault-op and -fault-every must be set together")
	}
	fleetWanted := *peers != "" || *peersFile != ""
	if *peers != "" && *peersFile != "" {
		usageErr("-peers and -peers-file are mutually exclusive")
	}
	if fleetWanted && *self == "" {
		usageErr("-self is required with -peers/-peers-file (the address peers use for this instance)")
	}
	if !fleetWanted && *self != "" {
		usageErr("-self is only meaningful with -peers/-peers-file")
	}
	if *hedgeAfter < 0 || *forwardTimeout < 0 {
		usageErr("-hedge-after and -forward-timeout must be non-negative, got %s and %s", *hedgeAfter, *forwardTimeout)
	}

	logger := log.New(os.Stderr, "rlcd ", log.LstdFlags|log.Lmicroseconds)
	var injector *diag.Injector
	if *faultOp != "" {
		injector = diag.FaultEvery(*faultOp, *faultEvery, diag.ErrNonConvergence)
		logger.Printf("CHAOS: faulting every %d hit(s) of %q", *faultEvery, *faultOp)
	}
	var fleetCfg *fleet.Config
	if fleetWanted {
		fleetCfg = &fleet.Config{
			Self:           *self,
			PeersFile:      *peersFile,
			ProbeInterval:  *probeInterval,
			AttemptTimeout: *forwardTimeout,
			HedgeAfter:     *hedgeAfter,
		}
		if *peers != "" {
			for _, p := range strings.Split(*peers, ",") {
				if p = strings.TrimSpace(p); p != "" {
					fleetCfg.Peers = append(fleetCfg.Peers, p)
				}
			}
		}
	}
	cfg := serve.Config{
		MaxInflight:      *inflight,
		MaxQueue:         *queue,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		CacheEntries:     *cacheEntries,
		CacheBytes:       *cacheBytes,
		MaxSweepPoints:   *maxPoints,
		SnapshotPath:     *snapshot,
		SnapshotInterval: *snapshotInterval,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		DisableDegraded:  *noDegraded,
		Fleet:            fleetCfg,
		Injector:         injector,
		Logger:           logger,
	}
	srv := serve.New(cfg)
	eff := srv.EffectiveConfig()
	logger.Printf("config: inflight=%d queue=%d timeout=%s max-timeout=%s cache-entries=%d cache-bytes=%d max-sweep-points=%d snapshot=%q snapshot-interval=%s breaker-threshold=%d breaker-cooldown=%s degraded=%t",
		eff.MaxInflight, eff.MaxQueue, eff.DefaultTimeout, eff.MaxTimeout,
		eff.CacheEntries, eff.CacheBytes, eff.MaxSweepPoints,
		eff.SnapshotPath, eff.SnapshotInterval,
		eff.BreakerThreshold, eff.BreakerCooldown, !eff.DisableDegraded)
	if fl := srv.Fleet(); fl != nil {
		logger.Printf("fleet: self=%s hedge-after=%s peers-file=%q", fl.Self(), *hedgeAfter, *peersFile)
		// SIGHUP re-reads -peers-file; with a static -peers list it logs and
		// keeps the current membership.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if *peersFile == "" {
					logger.Printf("fleet: SIGHUP ignored (no -peers-file)")
					continue
				}
				_ = fl.ReloadPeers()
			}
		}()
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	logger.Printf("listening on %s", *addr)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		logger.Printf("server error: %v", err)
		os.Exit(1)
	case s := <-sig:
		// Flip readiness first: fleet probes and load balancers see the
		// instance leave rotation while in-flight requests finish draining.
		srv.BeginDrain()
		logger.Printf("signal %v: draining (budget %s; second signal forces stop)", s, *drain)
	}

	// Graceful drain: stop accepting, let in-flight requests finish. A
	// second signal or an exhausted drain budget cancels every solve (they
	// unwind at the next runctl tick) and exits 2, the forced-stop status
	// the CLIs use. srv.Close also writes the final cache snapshot.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	go func() {
		<-sig
		logger.Printf("second signal: forcing stop")
		cancel()
	}()
	err := hs.Shutdown(drainCtx)
	srv.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = hs.Close()
		fmt.Fprintln(os.Stderr, "rlcd: forced stop:", err)
		os.Exit(2)
	}
	logger.Printf("drained cleanly")
}
