package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"rlcint/internal/diag"
)

func getReadyz(t *testing.T, base string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /readyz: %v", err)
	}
	return resp.StatusCode, body
}

// TestReadyzDrainSplit: liveness stays 200 through a drain while readiness
// flips to 503 — the split that lets an orchestrator stop routing to a
// draining instance without restarting it.
func TestReadyzDrainSplit(t *testing.T) {
	s, ts := testServer(t, Config{})
	if code, body := getReadyz(t, ts.URL); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("idle readyz = %d %v, want 200 ready", code, body)
	}
	s.BeginDrain()
	code, body := getReadyz(t, ts.URL)
	if code != http.StatusServiceUnavailable || body["reason"] != "draining" {
		t.Fatalf("draining readyz = %d %v, want 503 draining", code, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hz["status"] != "ok" || hz["ready"] != false {
		t.Errorf("draining healthz = %d %v, want 200 ok with ready=false", resp.StatusCode, hz)
	}
}

// TestReadyzDuringSnapshotReplay holds the snapshot load open through a
// FIFO: the daemon must serve liveness (and 503 readiness) while the replay
// blocks, then flip ready once the snapshot is consumed.
func TestReadyzDuringSnapshotReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.fifo")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo unsupported here: %v", err)
	}
	data, err := encodeSnapshot([]*cached{
		{key: "k1", ctype: "application/json", body: []byte("{}\n")},
	})
	if err != nil {
		t.Fatal(err)
	}
	released := false
	release := func() {
		if released {
			return
		}
		released = true
		w, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatalf("open fifo for write: %v", err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatalf("write fifo: %v", err)
		}
		w.Close()
	}
	defer release() // Close() waits on the loader; never leave it wedged

	s, ts := testServer(t, Config{SnapshotPath: path, SnapshotInterval: -1})
	if code, body := getReadyz(t, ts.URL); code != http.StatusServiceUnavailable || body["reason"] != "replaying snapshot" {
		t.Fatalf("replaying readyz = %d %v, want 503 replaying snapshot", code, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during replay = %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}

	release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady after releasing the replay: %v", err)
	}
	if code, _ := getReadyz(t, ts.URL); code != http.StatusOK {
		t.Fatalf("readyz after replay = %d, want 200", code)
	}
	_, _, entries, _ := s.cache.stats()
	if entries != 1 {
		t.Errorf("cache entries after replay = %d, want the 1 snapshot entry", entries)
	}
}

// TestWaitReadyHonorsContext: a caller waiting on a wedged replay can give
// up.
func TestWaitReadyHonorsContext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.fifo")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo unsupported here: %v", err)
	}
	s := New(Config{SnapshotPath: path, SnapshotInterval: -1, Logger: log.New(io.Discard, "", 0)})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.WaitReady(ctx); err == nil {
		t.Error("WaitReady returned nil while the replay is blocked")
	}
	// Unblock the loader so Close can finish.
	w, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	s.Close()
}

// TestRetryAfterOnQueueFull: a shed request tells the client when to come
// back.
func TestRetryAfterOnQueueFull(t *testing.T) {
	inj, held, release := parkFirstEval()
	_, ts := testServer(t, Config{MaxInflight: 1, MaxQueue: -1, Injector: inj})
	// Park a cold sweep, held at its first evaluation, in the single slot.
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
	defer func() { cancelSlow(); release(); <-slowDone }()
	waitHeld(t, held)
	resp, body := postJSON(t, ts.URL+"/v1/optimize", `{"tech":"100nm","l":3e-6}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d body=%s, want 503", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Errorf("queue-full Retry-After = %q, want integer seconds in [1, 30]",
			resp.Header.Get("Retry-After"))
	}
}

// TestRetryAfterOnBreakerOpen: the 503 carries the region's remaining
// cooldown, the same hint the fleet client's backoff honors.
func TestRetryAfterOnBreakerOpen(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	inj := &diag.Injector{Fault: func(site diag.Site) error {
		if site.Op != "core.eval" {
			return nil
		}
		if failing.Load() {
			return diag.New(diag.ErrNonConvergence, "chaos")
		}
		return nil
	}}
	_, ts := testServer(t, Config{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		DisableDegraded:  true,
		Injector:         inj,
	})
	resp, _ := postJSON(t, ts.URL+"/v1/optimize", `{"tech":"100nm","l":1.2e-6,"f":0.5}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("seed failure status = %d, want 422", resp.StatusCode)
	}
	// Same region (half-decade bucket), different key: short-circuited.
	resp2, body := postJSON(t, ts.URL+"/v1/optimize", `{"tech":"100nm","l":1.3e-6,"f":0.5}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("short-circuit status = %d body=%s, want 503", resp2.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp2.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 120 {
		t.Errorf("breaker-open Retry-After = %q, want ~cooldown seconds in [1, 120]",
			resp2.Header.Get("Retry-After"))
	}
}
