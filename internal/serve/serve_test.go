package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rlcint/internal/core"
	"rlcint/internal/diag"
	"rlcint/internal/tech"
	"rlcint/internal/testutil"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func metricsSnapshot(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	return m
}

func xcacheCount(m map[string]any, key string) float64 {
	xc, _ := m["xcache"].(map[string]any)
	v, _ := xc[key].(float64)
	return v
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("healthz body = %v", body)
	}
}

// The optimize endpoint must agree exactly with the library facade and serve
// the repeat from cache, visibly in the X-Cache header and /metrics.
func TestOptimizeMatchesLibraryAndCaches(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := `{"tech":"100nm","l":2e-6,"f":0.5}`

	resp, body := postJSON(t, ts.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status = %d body=%s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	var got optimumResp
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	node := tech.Node100()
	want, err := core.Optimize(problemOf(node, 2e-6, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got.H != want.H || got.K != want.K || got.Tau != want.Tau {
		t.Errorf("served optimum (h=%g k=%g tau=%g) != library (h=%g k=%g tau=%g)",
			got.H, got.K, got.Tau, want.H, want.K, want.Tau)
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/optimize", req)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached body differs from computed body")
	}
	m := metricsSnapshot(t, ts.URL)
	if hits := xcacheCount(m, "hit"); hits != 1 {
		t.Errorf("metrics xcache.hit = %v, want 1", hits)
	}
	cache, _ := m["cache"].(map[string]any)
	if h, _ := cache["hits"].(float64); h != 1 {
		t.Errorf("metrics cache.hits = %v, want 1", h)
	}
}

// N concurrent identical requests must compute once: one miss, N-1
// coalesced joins, and byte-identical responses.
func TestConcurrentIdenticalRequestsComputeOnce(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, ts := testServer(t, Config{})
	const n = 12
	req := `{"tech":"250nm","l":4.9e-6,"f":0.5}`
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(req))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d status = %d (%s)", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Error("concurrent identical requests returned different bodies")
		}
	}
	m := metricsSnapshot(t, ts.URL)
	misses, hits, coalesced := xcacheCount(m, "miss"), xcacheCount(m, "hit"), xcacheCount(m, "coalesced")
	if misses != 1 {
		t.Errorf("xcache.miss = %v, want exactly 1 (one computation)", misses)
	}
	if hits+coalesced != n-1 {
		t.Errorf("hit=%v coalesced=%v, want hit+coalesced = %d", hits, coalesced, n-1)
	}
}

func TestSweepStreamsNDJSONAndCaches(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := `{"tech":"100nm","ls":[0,1e-6,2e-6,4e-6],"f":0.5}`
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d body=%s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var points int
	var sawDone bool
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch line["type"] {
		case "point":
			points++
			if line["method"] == "" {
				t.Error("point without method")
			}
		case "done":
			sawDone = true
			if n, _ := line["points"].(float64); int(n) != points {
				t.Errorf("done.points = %v, streamed %d", n, points)
			}
		default:
			t.Errorf("unexpected line type %v", line["type"])
		}
	}
	if points != 4 || !sawDone {
		t.Fatalf("streamed %d points, done=%v; want 4, true", points, sawDone)
	}

	// Identical repeat: chunk served from cache, byte-identical stream.
	resp2, body2 := postJSON(t, ts.URL+"/v1/sweep", req)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat sweep X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached sweep stream differs")
	}

	// The sweep must agree with the library's batched engine.
	pts, err := core.SweepBatchCtx(context.Background(), core.SweepOptions{}, tech.Node100(), []float64{0, 1e-6, 2e-6, 4e-6}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var first sweepPointLine
	firstLine, _, _ := bytes.Cut(body, []byte("\n"))
	if err := json.Unmarshal(firstLine, &first); err != nil {
		t.Fatal(err)
	}
	if float64(first.H) != pts[0].Opt.H || float64(first.PerUnit) != pts[0].Opt.PerUnit {
		t.Errorf("served sweep point differs from engine: h=%g vs %g", first.H, pts[0].Opt.H)
	}
}

// TestSweepPointNonFiniteIsNull pins the NDJSON encoding of a sweep
// point: non-finite fields encode as null instead of failing the stream,
// and finite fields encode exactly as plain float64 values do.
func TestSweepPointNonFiniteIsNull(t *testing.T) {
	finite := map[string]float64{"l": 1e-6, "h": 0.123456789, "tau": 1.5e-11}
	line, err := json.Marshal(sweepPointLine{
		Type: "point", L: jsonFloat(finite["l"]), H: jsonFloat(finite["h"]), Tau: jsonFloat(finite["tau"]),
		Penalty: jsonFloat(math.Inf(1)), DelayRatio: jsonFloat(math.NaN()), KRatio: jsonFloat(math.Inf(-1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`"penalty":null`, `"delay_ratio":null`, `"k_ratio":null`}
	for name, v := range finite {
		num, _ := json.Marshal(v)
		want = append(want, fmt.Sprintf(`"%s":%s`, name, num))
	}
	for _, w := range want {
		if !bytes.Contains(line, []byte(w)) {
			t.Errorf("encoded point %s lacks %s", line, w)
		}
	}
}

func TestSweepWarmMode(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := `{"tech":"100nm","ls":[0,5e-7,1e-6,1.5e-6,2e-6],"f":0.5,"warm":true}`
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm sweep status = %d body=%s", resp.StatusCode, body)
	}
	if n := bytes.Count(body, []byte(`"type":"point"`)); n != 5 {
		t.Errorf("warm sweep streamed %d points, want 5", n)
	}
}

// Every documented error mapping, exercised end-to-end where the HTTP layer
// can produce it.
func TestErrorStatusesOverHTTP(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name, path, body string
		status           int
		kind             string
	}{
		{"malformed-json", "/v1/optimize", `{"tech":`, 400, "bad-request"},
		{"unknown-field", "/v1/optimize", `{"tech":"100nm","bogus":1}`, 400, "bad-request"},
		{"string-for-float", "/v1/optimize", `{"tech":"100nm","l":"NaN"}`, 400, "bad-request"},
		{"trailing-garbage", "/v1/optimize", `{"tech":"100nm"} {"x":1}`, 400, "bad-request"},
		{"unknown-tech", "/v1/optimize", `{"tech":"7nm","l":1e-6}`, 400, "bad-request"},
		{"domain-threshold", "/v1/optimize", `{"tech":"100nm","l":2e-6,"f":1.5}`, 400, "domain"},
		{"domain-negative-l", "/v1/delay", `{"tech":"100nm","l":-1e-6,"h":1e-3,"k":100}`, 400, "domain"},
		{"empty-grid", "/v1/sweep", `{"tech":"100nm","ls":[]}`, 400, "bad-request"},
		{"absurd-grid", "/v1/sweep", `{"tech":"100nm","ls":[1,2,3]}`, 400, "bad-request"},
		{"plan-bad-length", "/v1/plan", `{"tech":"100nm","l":2e-6,"length":-1}`, 400, "domain"},
		{"oxide-negative", "/v1/check/oxide", `{"tech":"100nm","overshoot_v":-0.5}`, 400, "bad-request"},
		{"wire-implausible", "/v1/check/wire", `{"peak_j":1,"rms_j":2}`, 400, "bad-request"},
		{"lcrit-zero-stage", "/v1/lcrit", `{"tech":"100nm"}`, 400, "bad-request"},
		{"lcrit-zero-k", "/v1/lcrit", `{"tech":"100nm","l":2e-6,"h":1e-3}`, 400, "bad-request"},
	}
	// Shrink the sweep bound so "absurd-grid" trips it.
	s2, ts2 := testServer(t, Config{MaxSweepPoints: 2})
	_ = s2
	for _, tc := range cases {
		url := ts.URL
		if tc.name == "absurd-grid" {
			url = ts2.URL
		}
		resp, body := postJSON(t, url+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		var env struct {
			Error apiError `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: error body not JSON: %v", tc.name, err)
			continue
		}
		if env.Error.Kind != tc.kind {
			t.Errorf("%s: kind = %q, want %q", tc.name, env.Error.Kind, tc.kind)
		}
	}
}

// The full diag taxonomy → HTTP status table, including kinds the HTTP layer
// can only produce under solver pathologies.
func TestMapErrorTaxonomy(t *testing.T) {
	rep := &diag.Report{}
	rep.Record("opt-newton", "cold", diag.OutcomeFailed, "", errors.New("x"))
	cases := []struct {
		err    error
		status int
		kind   string
	}{
		{badRequestf("nope"), 400, "bad-request"},
		{diag.Domainf("op", "bad input"), 400, "domain"},
		{diag.New(diag.ErrNonConvergence, "op"), 422, "non-convergence"},
		{&solveError{err: diag.New(diag.ErrNonConvergence, "op"), report: rep}, 422, "non-convergence"},
		{diag.New(diag.ErrSingularJacobian, "op"), 422, "singular-jacobian"},
		{diag.New(diag.ErrTimestepCollapse, "op"), 422, "timestep-collapse"},
		{diag.New(diag.ErrCancelled, "op"), 499, "cancelled"},
		{context.Canceled, 499, "cancelled"},
		{diag.New(diag.ErrDeadline, "op"), 504, "deadline"},
		{context.DeadlineExceeded, 504, "deadline"},
		{diag.New(diag.ErrBudget, "op"), 504, "budget"},
		{errQueueFull, 503, "queue-full"},
		{errBreakerOpen, 503, "breaker-open"},
		{diag.New(diag.ErrPanic, "op"), 500, "panic"},
		{errors.New("mystery"), 500, "internal"},
	}
	for _, tc := range cases {
		ae := mapError(tc.err)
		if ae.Status != tc.status || ae.Kind != tc.kind {
			t.Errorf("mapError(%v) = (%d, %q), want (%d, %q)", tc.err, ae.Status, ae.Kind, tc.status, tc.kind)
		}
	}
	// A 422 from a solveError must carry the serialized ladder report.
	ae := mapError(&solveError{err: diag.New(diag.ErrNonConvergence, "op"), report: rep})
	if len(ae.Report) != 1 || ae.Report[0].Ladder != "opt-newton" || ae.Report[0].Outcome != "failed" {
		t.Errorf("422 report = %+v, want the recorded rung", ae.Report)
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	_, ts := testServer(t, Config{})
	// 200 cold points with a 1 ms budget cannot finish.
	var ls []string
	for i := 0; i < 200; i++ {
		ls = append(ls, fmt.Sprintf("%g", float64(i)*1e-8))
	}
	req := `{"tech":"100nm","ls":[` + strings.Join(ls, ",") + `],"f":0.5,"timeout_ms":1}`
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %.200s)", resp.StatusCode, body)
	}
}

func TestQueueFullMapsTo503(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, ts := testServer(t, Config{MaxInflight: 1, MaxQueue: -1})
	// Park one slow cold sweep in the single slot.
	slowCtx, cancelSlow := context.WithCancel(context.Background())
	defer cancelSlow()
	var ls []string
	for i := 0; i < 2000; i++ {
		ls = append(ls, fmt.Sprintf("%g", float64(i)*1e-9))
	}
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		req, _ := http.NewRequestWithContext(slowCtx, "POST", ts.URL+"/v1/sweep",
			strings.NewReader(`{"tech":"100nm","ls":[`+strings.Join(ls, ",")+`],"f":0.5}`))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	for s.limiter.inflight() == 0 {
		time.Sleep(time.Millisecond)
	}
	// A different request now finds no slot and no queue.
	resp, body := postJSON(t, ts.URL+"/v1/optimize", `{"tech":"100nm","l":3e-6}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	var env struct {
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Kind != "queue-full" {
		t.Errorf("503 body = %s", body)
	}
	cancelSlow()
	<-slowDone
	// The cancelled sweep must release its slot promptly — no orphaned
	// batch workers holding admission capacity.
	deadline := time.Now().Add(5 * time.Second)
	for s.limiter.inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot never released after client cancellation")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A client that disconnects mid-sweep must stop the underlying batch
// workers: inflight drains to zero and no goroutine survives.
func TestClientCancellationStopsSweepWorkers(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, ts := testServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	var ls []string
	for i := 0; i < 5000; i++ {
		ls = append(ls, fmt.Sprintf("%g", float64(i)*1e-9))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep",
			strings.NewReader(`{"tech":"100nm","ls":[`+strings.Join(ls, ",")+`],"f":0.5}`))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	for s.limiter.inflight() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for s.limiter.inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch workers still holding the solve slot after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close() // drains compute goroutines; CheckGoroutines then proves no leak
}

// Shutdown with a solve in flight: Close cancels it and returns only after
// the compute goroutine exited.
func TestServerCloseDrainsInflightSolves(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := New(Config{Logger: log.New(io.Discard, "", 0)})
	started := make(chan struct{})
	go func() {
		<-started
		s.Close()
	}()
	ctx := context.Background()
	var once sync.Once
	_, err, _ := s.flights.do(ctx, "k", 0, func(cctx context.Context) (*cached, error) {
		once.Do(func() { close(started) })
		<-cctx.Done() // only the server abort can end this
		return nil, cctx.Err()
	})
	if err == nil {
		t.Fatal("want cancellation error after Close")
	}
	s.Close()
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/optimize = %d, want 405", resp.StatusCode)
	}
}

func TestAllUnaryEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		path, body string
		checkField string
	}{
		{"/v1/optimize-rc", `{"tech":"100nm"}`, "h"},
		{"/v1/delay", `{"tech":"100nm","l":2e-6,"h":1e-3,"k":100,"f":0.5}`, "tau"},
		{"/v1/plan", `{"tech":"100nm","l":2e-6,"f":0.5,"length":0.01}`, "stages"},
		{"/v1/lcrit", `{"tech":"100nm","l":2e-6,"h":1e-3,"k":100}`, "lcrit"},
		{"/v1/check/oxide", `{"tech":"100nm","overshoot_v":0.4}`, "margin"},
		{"/v1/check/wire", `{"peak_j":1e9,"rms_j":5e8}`, "peak_margin"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d (body %s)", tc.path, resp.StatusCode, body)
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Errorf("%s: bad JSON: %v", tc.path, err)
			continue
		}
		if _, ok := m[tc.checkField]; !ok {
			t.Errorf("%s: response %v missing %q", tc.path, m, tc.checkField)
		}
		// Second identical request must hit the cache.
		resp2, _ := postJSON(t, ts.URL+tc.path, tc.body)
		if got := resp2.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("%s repeat: X-Cache = %q, want hit", tc.path, got)
		}
	}
}

func TestMetricsLadderCounters(t *testing.T) {
	_, ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/v1/optimize", `{"tech":"100nm","l":2e-6,"f":0.5}`)
	m := metricsSnapshot(t, ts.URL)
	ladder, _ := m["ladder"].(map[string]any)
	if len(ladder) == 0 {
		t.Error("ladder rung counters empty after an optimize")
	}
	reqs, _ := m["requests"].(map[string]any)
	if reqs["/v1/optimize"] == nil {
		t.Error("request counter for /v1/optimize missing")
	}
	lat, _ := m["latency"].(map[string]any)
	if lat["/v1/optimize"] == nil {
		t.Error("latency histogram for /v1/optimize missing")
	}
}

// TestMORCountersExposed checks that the reduced-order engagement counters
// from internal/spice appear on both observability pages with the full key
// set. The counters are process-wide, so the test only asserts shape, not
// values (neighbouring tests may have run transients already).
func TestMORCountersExposed(t *testing.T) {
	_, ts := testServer(t, Config{})
	m := metricsSnapshot(t, ts.URL)
	mor, ok := m["mor"].(map[string]any)
	if !ok {
		t.Fatalf("/metrics missing mor block: %v", m["mor"])
	}
	for _, k := range []string{"engaged", "cache_hits", "fallbacks", "rejected"} {
		if _, ok := mor[k]; !ok {
			t.Errorf("/metrics mor block missing %q: %v", k, mor)
		}
	}
	var sz map[string]any
	getJSON(t, ts.URL+"/statusz", &sz)
	if _, ok := sz["mor"].(map[string]any); !ok {
		t.Errorf("/statusz missing mor block: %v", sz["mor"])
	}
}
