package serve

import (
	"encoding/json"
	"net/http"
	"testing"
)

func TestPDNIREndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/pdn/ir", `{"nx": 12, "ny": 12, "tech": "100nm"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res struct {
		VDD       float64 `json:"vdd"`
		VMin      float64 `json:"v_min"`
		WorstDrop float64 `json:"worst_drop"`
		Solver    struct {
			Solver string `json:"solver"`
		} `json:"solver"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decode: %v (%s)", err, body)
	}
	if res.VDD != 1.2 || res.WorstDrop <= 0 || res.VMin >= res.VDD {
		t.Errorf("implausible IR answer: %+v", res)
	}
	if res.Solver.Solver == "" {
		t.Error("solver stats missing from response")
	}

	// Identical request → cache hit; sparse counters appear in /metrics.
	resp2, _ := postJSON(t, ts.URL+"/v1/pdn/ir", `{"nx": 12, "ny": 12, "tech": "100nm"}`)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second identical request X-Cache = %q, want hit", got)
	}
	m := metricsSnapshot(t, ts.URL)
	sp, _ := m["sparse"].(map[string]any)
	if v, _ := sp["solve|direct"].(float64); v != 1 {
		t.Errorf("sparse solve|direct metric = %v, want 1 (map %v)", v, sp)
	}
}

// TestPDNIRDeadline checks that timeout_ms bounds the DC analysis itself:
// under a 1 ms budget a 200×200 mesh (the CG path) stops at the run
// controller's first check past the deadline instead of finishing its
// solve and answering 200.
func TestPDNIRDeadline(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/pdn/ir", `{"nx": 200, "ny": 200, "timeout_ms": 1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%.200s), want 504", resp.StatusCode, body)
	}
	var env struct {
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Kind != "deadline" {
		t.Errorf("504 body = %s, want kind deadline", body)
	}
}

func TestPDNIRValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, body := range []string{
		`{"nx": 1, "ny": 5}`,                      // grid too small
		`{"nx": 600, "ny": 600}`,                  // exceeds maxPDNNodes
		`{"nx": 8, "ny": 8, "tech": "13nm"}`,      // unknown tech
		`{"nx": 8, "ny": 8, "hot_x": 99}`,         // hotspot outside grid
		`{"nx": 8, "ny": 8, "bogus_field": true}`, // strict decoding
	} {
		resp, b := postJSON(t, ts.URL+"/v1/pdn/ir", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
}

func TestPDNImpedanceEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/pdn/impedance",
		`{"nx": 8, "ny": 8, "tech": "100nm", "points": 6, "f_start": 1e6, "f_stop": 1e9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res struct {
		Points []struct {
			F float64 `json:"f"`
			Z float64 `json:"z"`
		} `json:"points"`
		Peak struct {
			Z float64 `json:"z"`
		} `json:"peak"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decode: %v (%s)", err, body)
	}
	if len(res.Points) != 6 {
		t.Fatalf("got %d points, want 6", len(res.Points))
	}
	if res.Peak.Z <= 0 {
		t.Error("no resonance peak in response")
	}
	for _, p := range res.Points {
		if p.F < 1e6 || p.F > 1e9+1 || p.Z <= 0 {
			t.Errorf("implausible point %+v", p)
		}
	}

	// Excessive point counts are rejected before any solve; bad sweep
	// options are the caller's domain error, never a 500.
	for _, body := range []string{
		`{"nx": 8, "ny": 8, "points": 100000}`,
		`{"nx": 8, "ny": 8, "f_start": 1e9, "f_stop": 1e6}`,
		`{"nx": 8, "ny": 8, "f_start": -5}`,
		`{"nx": 8, "ny": 8, "points": 1}`,
		`{"nx": 8, "ny": 8, "probe_x": 9, "probe_y": 2}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/pdn/impedance", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
}

// TestPDNSpecDomain checks that a spec pdn rejects as unphysical answers
// 400 with kind domain on both endpoints, before any mesh is built.
func TestPDNSpecDomain(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/v1/pdn/impedance", `{"nx": 8, "ny": 8, "c_node": -1e-15}`},
		{"/v1/pdn/impedance", `{"nx": 8, "ny": 8, "l_per_m": -1e-6}`},
		{"/v1/pdn/ir", `{"nx": 8, "ny": 8, "l_per_m": -1e-6}`},
		{"/v1/pdn/ir", `{"nx": 1, "ny": 5}`},
	} {
		resp, b := postJSON(t, ts.URL+c.path, c.body)
		var env struct {
			Error apiError `json:"error"`
		}
		if err := json.Unmarshal(b, &env); err != nil || resp.StatusCode != http.StatusBadRequest || env.Error.Kind != "domain" {
			t.Errorf("%s %s: status %d (%s), want 400 domain", c.path, c.body, resp.StatusCode, b)
		}
	}
}
