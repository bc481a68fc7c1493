package serve

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlcint/internal/diag"
)

// metricsSnap mirrors the part of /metrics that perfbench's serve-mix
// workload decodes (perfbench/serve.go); a key or shape change breaks the
// benchmark, so it is pinned here.
type metricsSnap struct {
	Admission map[string]int64 `json:"admission"`
	Ladder    map[string]int64 `json:"ladder"`
	Degraded  map[string]int64 `json:"degraded"`
	Latency   map[string]struct {
		Count   int64            `json:"count"`
		SumMS   float64          `json:"sum_ms"`
		Buckets map[string]int64 `json:"buckets"`
	} `json:"latency"`
}

// TestMetricsContract pins the /metrics and /statusz keys that outside
// readers depend on: perfbench's metricsSnap, the counters the serve,
// chaos and fleet smoke scripts grep for, and the snapshot save count both
// pages print.
func TestMetricsContract(t *testing.T) {
	// The injector holds the first core.eval after hold is armed until
	// release closes, so a second identical request provably coalesces.
	var hold atomic.Pointer[chan struct{}]
	inj := &diag.Injector{Fault: func(st diag.Site) error {
		if st.Op == "core.eval" {
			if ch := hold.Swap(nil); ch != nil {
				<-*ch
			}
		}
		return nil
	}}
	s, ts := testServer(t, Config{
		Injector:         inj,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		SnapshotPath:     filepath.Join(t.TempDir(), "cache.snap"),
		SnapshotInterval: -1,
	})

	for _, rt := range routeTable {
		if resp, body := postJSON(t, ts.URL+rt.path, routeSamples[rt.path].body); resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %.200s", rt.path, resp.StatusCode, body)
		}
	}
	const hits = 3
	for i := 0; i < hits; i++ {
		if resp, _ := postJSON(t, ts.URL+"/v1/optimize", routeSamples["/v1/optimize"].body); resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("repeat optimize X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
		}
	}

	release := make(chan struct{})
	hold.Store(&release)
	const coalesce = `{"tech":"250nm","l":3.3e-6,"f":0.5}`
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(coalesce))
			if err != nil {
				t.Errorf("coalesced optimize: %v", err)
				return
			}
			resp.Body.Close()
		}()
	}
	waitFor(t, 5*time.Second, func() bool {
		s.flights.mu.Lock()
		defer s.flights.mu.Unlock()
		for _, f := range s.flights.m {
			return f.waiters == 2
		}
		return false
	})
	close(release)
	wg.Wait()

	// Force one region's breaker open; a request into it short-circuits to a
	// degraded answer.
	region := regionOf("optimize", "100nm", 5e-6)
	s.breakers.allow(region)
	s.breakers.onResult(region, false, true, "non-convergence")
	resp, body := postJSON(t, ts.URL+"/v1/optimize", `{"tech":"100nm","l":5e-6,"f":0.5}`)
	if resp.Header.Get("X-Degraded") != "breaker-open" {
		t.Fatalf("open region answered X-Degraded=%q: %.200s", resp.Header.Get("X-Degraded"), body)
	}

	if err := s.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}

	var snap metricsSnap
	var raw map[string]json.RawMessage
	getJSON(t, ts.URL+"/metrics", &raw)
	if b, err := json.Marshal(raw); err != nil || json.Unmarshal(b, &snap) != nil {
		t.Fatalf("/metrics does not decode into perfbench's shape: %v", err)
	}
	for _, k := range []string{"admission", "ladder", "degraded"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("/metrics has no %q", k)
		}
	}
	for _, k := range []string{"inflight", "capacity", "queue_depth", "queue_full"} {
		if _, ok := snap.Admission[k]; !ok {
			t.Errorf("/metrics admission has no %q", k)
		}
	}
	if len(snap.Ladder) == 0 || snap.Degraded["breaker-open"] != 1 {
		t.Errorf("/metrics ladder %v, degraded %v: want rung counts and one breaker-open", snap.Ladder, snap.Degraded)
	}
	// perfbench's histP50 hard-codes these eight labels.
	labels := []string{"le_1ms", "le_4ms", "le_16ms", "le_64ms", "le_250ms", "le_1s", "le_4s", "inf"}
	for _, rt := range routeTable {
		h, ok := snap.Latency[rt.path]
		if !ok || h.Count < 1 || h.SumMS <= 0 || len(h.Buckets) != len(labels) {
			t.Errorf("/metrics latency[%s] = %+v, want count, sum_ms and the buckets %v", rt.path, h, labels)
			continue
		}
		for _, l := range labels {
			if _, ok := h.Buckets[l]; !ok {
				t.Errorf("/metrics latency[%s] has no bucket %s: %v", rt.path, l, h.Buckets)
			}
		}
	}

	groups := map[string]map[string]int64{}
	for _, k := range []struct{ group, name string }{
		{"cache", "hits"}, {"xcache", "hit"}, {"xcache", "miss"}, {"xcache", "coalesced"}, {"breaker", "open"},
		{"snapshot", "save"},
	} {
		var g map[string]int64
		if err := json.Unmarshal(raw[k.group], &g); err != nil || g[k.name] < 1 {
			t.Errorf("/metrics %s.%s = %d (%v), want >= 1", k.group, k.name, g[k.name], err)
		}
		groups[k.group] = g
	}
	// A hit is counted once: cache.hits renders xcache.hit.
	if h, x := groups["cache"]["hits"], groups["xcache"]["hit"]; h != hits || x != hits {
		t.Errorf("/metrics cache.hits = %d, xcache.hit = %d, want both %d", h, x, hits)
	}

	var sz struct {
		Cache    map[string]int64 `json:"cache"`
		Breakers struct {
			Regions []breakerStatus `json:"regions"`
		} `json:"breakers"`
		Snapshot struct {
			Saves      int64 `json:"saves"`
			SaveErrors int64 `json:"save_errors"`
		} `json:"snapshot"`
	}
	getJSON(t, ts.URL+"/statusz", &sz)
	if sz.Cache["hits"] != hits {
		t.Errorf("/statusz cache.hits = %d, want %d", sz.Cache["hits"], hits)
	}
	if len(sz.Breakers.Regions) == 0 || sz.Breakers.Regions[0].State != "open" {
		t.Errorf("/statusz breakers.regions = %+v, want the forced region open first", sz.Breakers.Regions)
	}
	if sz.Snapshot.Saves != 1 || sz.Snapshot.SaveErrors != 0 {
		t.Errorf("/statusz snapshot saves/save_errors = %d/%d, want 1/0", sz.Snapshot.Saves, sz.Snapshot.SaveErrors)
	}
}
