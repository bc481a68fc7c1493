package serve

import (
	"encoding/json"
	"expvar"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rlcint/internal/diag"
	"rlcint/internal/sparse"
)

// latencyBounds are the histogram bucket upper bounds. The last implicit
// bucket is +Inf.
var latencyBounds = []time.Duration{
	time.Millisecond,
	4 * time.Millisecond,
	16 * time.Millisecond,
	64 * time.Millisecond,
	250 * time.Millisecond,
	time.Second,
	4 * time.Second,
}

var latencyLabels = []string{
	"le_1ms", "le_4ms", "le_16ms", "le_64ms", "le_250ms", "le_1s", "le_4s", "inf",
}

// histogram is a fixed-bucket latency histogram. Safe for concurrent use.
type histogram struct {
	mu     sync.Mutex
	counts [8]int64 // len(latencyBounds)+1
	sum    time.Duration
	n      int64
}

func (h *histogram) observe(d time.Duration) {
	i := 0
	for i < len(latencyBounds) && d > latencyBounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += d
	h.n++
	h.mu.Unlock()
}

func (h *histogram) snapshot() map[string]any {
	h.mu.Lock()
	defer h.mu.Unlock()
	buckets := make(map[string]int64, len(latencyLabels))
	for i, l := range latencyLabels {
		buckets[l] = h.counts[i]
	}
	return map[string]any{
		"count":   h.n,
		"sum_ms":  float64(h.sum) / float64(time.Millisecond),
		"buckets": buckets,
	}
}

// metrics is the server's observability surface, built on unpublished
// expvar maps (unpublished so multiple servers — e.g. in tests — never
// collide in the process-global expvar namespace; cmd/rlcd additionally
// mounts the global /debug/vars page).
type metrics struct {
	start    time.Time
	requests *expvar.Map // per-endpoint request counts
	statuses *expvar.Map // per-HTTP-status response counts
	xcache   *expvar.Map // hit / miss / coalesced / bypass counts
	ladder   *expvar.Map // "<ladder>|<outcome>" solver recovery-rung counts
	degraded *expvar.Map // degraded answers by triggering failure kind
	breaker  *expvar.Map // breaker transitions: open / half-open / close / short-circuit

	snapshotOps *expvar.Map // snapshot lifecycle: save / save_error / load_ok / load_skipped
	fleetOps    *expvar.Map // forwarding outcomes: forwarded / fallback-local / hop-capped / hedge-answered
	sparseOps   *expvar.Map // sparse-engine outcomes: solve|<solver>, iterations, fallbacks

	mu      sync.Mutex
	latency map[string]*histogram // per endpoint
}

func newMetrics() *metrics {
	return &metrics{
		start:       time.Now(),
		requests:    new(expvar.Map).Init(),
		statuses:    new(expvar.Map).Init(),
		xcache:      new(expvar.Map).Init(),
		ladder:      new(expvar.Map).Init(),
		degraded:    new(expvar.Map).Init(),
		breaker:     new(expvar.Map).Init(),
		snapshotOps: new(expvar.Map).Init(),
		fleetOps:    new(expvar.Map).Init(),
		sparseOps:   new(expvar.Map).Init(),
		latency:     make(map[string]*histogram),
	}
}

func (m *metrics) observe(endpoint string, status int, d time.Duration) {
	if status == 0 {
		status = http.StatusOK
	}
	m.requests.Add(endpoint, 1)
	m.statuses.Add(strconv.Itoa(status), 1)
	m.mu.Lock()
	h := m.latency[endpoint]
	if h == nil {
		h = &histogram{}
		m.latency[endpoint] = h
	}
	m.mu.Unlock()
	h.observe(d)
}

// recordSparse folds one sparse-engine solve into the cumulative counters:
// which solver answered ("solve|cg", "solve|direct", ...), how many
// iterations the iterative path spent, and how often it fell back to the
// direct factorization.
func (m *metrics) recordSparse(st sparse.EngineStats) {
	m.sparseOps.Add("solve|"+st.Solver, 1)
	m.sparseOps.Add("iterations", int64(st.Iterations))
	if st.Fallbacks > 0 {
		m.sparseOps.Add("fallbacks", 1)
	}
}

// recordLadder folds one solve's recovery-ladder report into the cumulative
// rung counters ("opt-newton|ok", "opt-nm|failed", ...).
func (m *metrics) recordLadder(rep *diag.Report) {
	if rep == nil {
		return
	}
	for _, a := range rep.Attempts {
		m.ladder.Add(a.Ladder+"|"+string(a.Outcome), 1)
	}
}

func expvarMapToGo(m *expvar.Map) map[string]int64 {
	out := make(map[string]int64)
	m.Do(func(kv expvar.KeyValue) {
		if v, ok := kv.Value.(*expvar.Int); ok {
			out[kv.Key] = v.Value()
		}
	})
	return out
}

// cacheStats and admissionStats are the gauges /metrics and /statusz share.
func (s *Server) cacheStats() map[string]int64 {
	hits, misses, evictions, entries, bytes := s.cache.stats()
	return map[string]int64{
		"hits":      hits,
		"misses":    misses,
		"evictions": evictions,
		"entries":   entries,
		"bytes":     bytes,
	}
}

func (s *Server) admissionStats() map[string]int64 {
	return map[string]int64{
		"inflight":    int64(s.limiter.inflight()),
		"capacity":    int64(s.limiter.capacity()),
		"queue_depth": s.limiter.depth(),
		"queue_full":  s.limiter.rejects(),
	}
}

// handleMetrics renders the whole observability snapshot as one JSON object.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	m.mu.Lock()
	lat := make(map[string]any, len(m.latency))
	for ep, h := range m.latency {
		lat[ep] = h.snapshot()
	}
	m.mu.Unlock()
	snap := map[string]any{
		"uptime_s":  time.Since(m.start).Seconds(),
		"requests":  expvarMapToGo(m.requests),
		"statuses":  expvarMapToGo(m.statuses),
		"cache":     s.cacheStats(),
		"xcache":    expvarMapToGo(m.xcache),
		"admission": s.admissionStats(),
		"latency":   lat,
		"ladder":    expvarMapToGo(m.ladder),
		"degraded":  expvarMapToGo(m.degraded),
		"breaker":   expvarMapToGo(m.breaker),
		"snapshot":  expvarMapToGo(m.snapshotOps),
		"sparse":    expvarMapToGo(m.sparseOps),
	}
	if s.fleet != nil {
		fl := map[string]int64{"ready": 0}
		if s.Ready() {
			fl["ready"] = 1
		}
		for k, v := range expvarMapToGo(m.fleetOps) {
			fl[k] = v
		}
		for k, v := range s.fleet.Metrics() {
			fl[k] = v
		}
		snap["fleet"] = fl
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}
