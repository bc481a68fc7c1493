package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rlcint/internal/diag"
	"rlcint/internal/testutil"
)

// chaosStatuses are the only statuses any request may see during chaos: the
// documented taxonomy minus 400 (every chaos request is well-formed) and 500
// (nothing should panic).
var chaosStatuses = map[int]bool{
	200: true, 422: true, 499: true, 503: true, 504: true,
}

// TestChaosMixedFaults is the in-process chaos harness: concurrent traffic
// over /v1/optimize, /v1/plan, /v1/delay and /v1/sweep while a fault
// injector fails every third core.eval — which only the optimizer solves
// behind optimize, plan and sweep consult; /v1/delay's Padé solve runs
// unfaulted (see TestRouteFaults) — breakers trip and recover on a short
// cooldown, some clients abandon mid-flight, and the snapshot loop persists
// throughout.
//
// Invariants, checked per response and at the end:
//   - only documented statuses, never a 500;
//   - a degraded body and the X-Degraded header appear together or not at
//     all, and a degraded answer always carries an estimate;
//   - a 200 sweep stream always ends with a terminal "done"/"error" record
//     whose points field equals the streamed point count;
//   - /statusz stays parseable and every breaker region reports a known
//     state;
//   - Close drains without leaking goroutines (testutil.CheckGoroutines).
func TestChaosMixedFaults(t *testing.T) {
	testutil.CheckGoroutines(t)
	path := filepath.Join(t.TempDir(), "cache.snap")
	s, ts := testServer(t, Config{
		Injector:         diag.FaultEvery("core.eval", 3, diag.New(diag.ErrNonConvergence, "chaos")),
		BreakerThreshold: 4,
		BreakerCooldown:  5 * time.Millisecond,
		SnapshotPath:     path,
		SnapshotInterval: 10 * time.Millisecond,
		DefaultTimeout:   5 * time.Second,
	})

	techs := []string{"100nm", "250nm", "100nm-eps250"}
	var wg sync.WaitGroup
	const workers, reqs = 8, 25
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				// Deterministic variety: spread over endpoints, techs,
				// inductances, and the no_degraded knob.
				n := w*reqs + i
				tech := techs[n%len(techs)]
				l := fmt.Sprintf("%de-7", 1+n%40)
				nd := ""
				if n%7 == 0 {
					nd = `,"no_degraded":true`
				}
				switch n % 5 {
				case 0:
					chaosUnary(t, ts.URL+"/v1/optimize",
						`{"tech":"`+tech+`","l":`+l+`,"f":0.5`+nd+`}`)
				case 1:
					chaosUnary(t, ts.URL+"/v1/plan",
						`{"tech":"`+tech+`","l":`+l+`,"f":0.5,"length":0.02`+nd+`}`)
				case 2:
					chaosUnary(t, ts.URL+"/v1/delay",
						`{"tech":"`+tech+`","l":`+l+`,"h":0.01,"k":300,"f":0.5`+nd+`}`)
				case 3:
					chaosSweep(t, ts.URL,
						`{"tech":"`+tech+`","ls":[1e-7,5e-7,`+l+`],"f":0.5}`)
				case 4:
					// An impatient client: cancel mid-flight. Any outcome
					// short of a panic is acceptable; the server must simply
					// survive.
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+n%3)*time.Millisecond)
					req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/optimize",
						strings.NewReader(`{"tech":"`+tech+`","l":`+l+`,"f":0.5}`))
					req.Header.Set("Content-Type", "application/json")
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					cancel()
				}
			}
		}(w)
	}
	wg.Wait()

	// The operational surface must have survived the storm intact.
	var sz struct {
		Breakers struct {
			Regions []breakerStatus `json:"regions"`
		} `json:"breakers"`
		Snapshot map[string]any `json:"snapshot"`
	}
	getJSON(t, ts.URL+"/statusz", &sz)
	for _, st := range sz.Breakers.Regions {
		switch st.State {
		case "closed", "open", "half-open":
		default:
			t.Errorf("region %s in undocumented state %q", st.Region, st.State)
		}
	}
	m := metricsSnapshot(t, ts.URL)
	if statuses, ok := m["statuses"].(map[string]any); ok {
		if v, bad := statuses["500"]; bad {
			t.Errorf("chaos produced %v internal errors", v)
		}
	}

	// Drain; the final snapshot must be loadable — chaos must never persist
	// a torn image.
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("drain snapshot: %v", err)
	}
	if _, err := decodeSnapshot(data); err != nil {
		t.Fatalf("drain snapshot corrupt after chaos: %v", err)
	}
}

// chaosUnary checks the unary-response invariants for one request.
func chaosUnary(t *testing.T, url, body string) {
	t.Helper()
	resp, b := postJSON(t, url, body)
	if !chaosStatuses[resp.StatusCode] {
		t.Errorf("%s: undocumented status %d: %s", url, resp.StatusCode, b)
		return
	}
	degradedHdr := resp.Header.Get("X-Degraded") != ""
	var d struct {
		Degraded bool            `json:"degraded"`
		Reason   string          `json:"reason"`
		Estimate json.RawMessage `json:"estimate"`
	}
	_ = json.Unmarshal(b, &d)
	if degradedHdr != d.Degraded {
		t.Errorf("%s: X-Degraded=%v but body degraded=%v: %s", url, degradedHdr, d.Degraded, b)
	}
	if d.Degraded {
		if resp.StatusCode != 200 {
			t.Errorf("%s: degraded answer with status %d", url, resp.StatusCode)
		}
		if len(d.Estimate) == 0 || string(d.Estimate) == "null" {
			t.Errorf("%s: degraded answer without an estimate: %s", url, b)
		}
		if d.Reason != resp.Header.Get("X-Degraded") {
			t.Errorf("%s: reason %q != header %q", url, d.Reason, resp.Header.Get("X-Degraded"))
		}
	}
	if strings.Contains(body, `"no_degraded":true`) && d.Degraded {
		t.Errorf("%s: opted-out request got a degraded answer", url)
	}
}

// chaosSweep checks that a 200 NDJSON stream terminates with a status record
// accounting for every streamed point.
func chaosSweep(t *testing.T, base, body string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("sweep: %v", err)
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("sweep read: %v", err)
		return
	}
	if !chaosStatuses[resp.StatusCode] {
		t.Errorf("sweep: undocumented status %d: %s", resp.StatusCode, raw)
		return
	}
	if resp.StatusCode != 200 {
		return // plain error envelope before any stream bytes
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	points, last := 0, ""
	var lastRec struct {
		Type   string `json:"type"`
		Points int    `json:"points"`
	}
	for sc.Scan() {
		last = sc.Text()
		if err := json.Unmarshal([]byte(last), &lastRec); err != nil {
			t.Errorf("sweep: non-JSON record %q", last)
			return
		}
		if lastRec.Type == "point" {
			points++
		}
	}
	if lastRec.Type != "done" && lastRec.Type != "error" {
		t.Errorf("sweep stream ended with %q, want a terminal done/error record", last)
		return
	}
	if lastRec.Points != points {
		t.Errorf("terminal record points=%d, stream carried %d", lastRec.Points, points)
	}
}
