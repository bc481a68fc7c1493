package serve

import (
	"encoding/json"
	"expvar"
	"maps"
	"net/http"
	"strconv"
	"strings"
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

// metrics is the server's observability surface: one counter store keyed
// "<group>.<name>" (requests, statuses, xcache, ladder, degraded, breaker,
// snapshot, fleet, sparse) and the per-endpoint latency histograms. The
// store is an unpublished expvar.Map, so multiple servers — e.g. in tests —
// never collide in the process-global expvar namespace; cmd/rlcd
// additionally mounts the global /debug/vars page.
type metrics struct {
	start  time.Time
	counts *expvar.Map

	mu      sync.Mutex
	latency map[string]*histogram // per endpoint
}

func newMetrics() *metrics {
	return &metrics{
		start:   time.Now(),
		counts:  new(expvar.Map).Init(),
		latency: make(map[string]*histogram),
	}
}

func (m *metrics) observe(endpoint string, status int, d time.Duration) {
	if status == 0 {
		status = http.StatusOK
	}
	m.counts.Add("requests."+endpoint, 1)
	m.counts.Add("statuses."+strconv.Itoa(status), 1)
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
	m.counts.Add("sparse.solve|"+st.Solver, 1)
	m.counts.Add("sparse.iterations", int64(st.Iterations))
	if st.Fallbacks > 0 {
		m.counts.Add("sparse.fallbacks", 1)
	}
}

// recordLadder folds one solve's recovery-ladder report into the cumulative
// rung counters ("opt-newton|ok", "opt-nm|failed", ...).
func (m *metrics) recordLadder(rep *diag.Report) {
	if rep == nil {
		return
	}
	for _, a := range rep.Attempts {
		m.counts.Add("ladder."+a.Ladder+"|"+string(a.Outcome), 1)
	}
}

// group renders the counters of m whose key starts with prefix, keyed by
// the rest of the key: a serve group of the server's store ("ladder."), or
// all of the fleet's counters (""). It is the one renderer /metrics and
// /statusz share.
func group(m *expvar.Map, prefix string) map[string]int64 {
	out := make(map[string]int64)
	m.Do(func(kv expvar.KeyValue) {
		if name, ok := strings.CutPrefix(kv.Key, prefix); ok {
			out[name] = kv.Value.(*expvar.Int).Value()
		}
	})
	return out
}

// cacheStats and admissionStats are the gauges /metrics and /statusz share.
// cache.hits renders the store's xcache.hit, the one count of a cache hit.
func (s *Server) cacheStats() map[string]int64 {
	misses, evictions, entries, bytes := s.cache.stats()
	var hits int64
	if v, ok := s.metrics.counts.Get("xcache.hit").(*expvar.Int); ok {
		hits = v.Value()
	}
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
		"cache":     s.cacheStats(),
		"admission": s.admissionStats(),
		"latency":   lat,
	}
	for _, g := range []string{"requests", "statuses", "xcache", "ladder", "degraded", "breaker", "snapshot", "sparse"} {
		snap[g] = group(m.counts, g+".")
	}
	if s.fleet != nil {
		fl := group(m.counts, "fleet.")
		maps.Copy(fl, group(s.fleet.Counters(), ""))
		fl["ready"] = 0
		if s.Ready() {
			fl["ready"] = 1
		}
		snap["fleet"] = fl
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}
