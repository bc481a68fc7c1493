package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"rlcint/internal/diag"
	"rlcint/internal/pdn"
)

// routeSamples holds one valid body per route and the canonical cache keys
// it maps to (for streams, each chunk's key).
var routeSamples = func() map[string]struct {
	body string
	keys []string
} {
	ls := make([]string, 40) // two sweep chunks: 32 + 8 points
	for i := range ls {
		ls[i] = fmt.Sprintf("%de-7", i)
	}
	return map[string]struct {
		body string
		keys []string
	}{
		"/v1/optimize": {`{"tech":"100nm","l":2e-6,"f":0.5}`,
			[]string{"optimize|100nm|3ec0c6f7a0b5ed8d|3fe0000000000000"}},
		"/v1/delay": {`{"tech":"100nm","l":2e-6,"h":1e-3,"k":100}`,
			[]string{"delay|100nm|3ec0c6f7a0b5ed8d|3f50624dd2f1a9fc|4059000000000000|3fe0000000000000"}},
		"/v1/plan": {`{"tech":"250nm","l":1e-6,"f":0.4,"length":0.01}`,
			[]string{"plan|250nm|3eb0c6f7a0b5ed8d|3fd999999999999a|3f847ae147ae147b"}},
		"/v1/sweep": {`{"tech":"100nm","ls":[` + strings.Join(ls, ",") + `],"f":0.5,"warm":true,"workers":2}`,
			[]string{
				"sweep|100nm|3fe0000000000000|warm|tile=8|0,3e7ad7f29abcaf48,3e8ad7f29abcaf48,3e9421f5f40d8376,3e9ad7f29abcaf48,3ea0c6f7a0b5ed8d,3ea421f5f40d8376,3ea77cf44765195f,3eaad7f29abcaf48,3eae32f0ee144531,3eb0c6f7a0b5ed8d,3eb27476ca61b882,3eb421f5f40d8376,3eb5cf751db94e6b,3eb77cf44765195f,3eb92a737110e454,3ebad7f29abcaf48,3ebc8571c4687a3d,3ebe32f0ee144531,3ebfe07017c01026,3ec0c6f7a0b5ed8d,3ec19db7358bd307,3ec27476ca61b882,3ec34b365f379dfc,3ec421f5f40d8376,3ec4f8b588e368f1,3ec5cf751db94e6b,3ec6a634b28f33e5,3ec77cf44765195f,3ec853b3dc3afeda,3ec92a737110e454,3eca013305e6c9ce,",
				"sweep|100nm|3fe0000000000000|warm|tile=8|3ecad7f29abcaf48,3ecbaeb22f9294c3,3ecc8571c4687a3d,3ecd5c31593e5fb7,3ece32f0ee144531,3ecf09b082ea2aac,3ecfe07017c01026,3ed05b97d64afad0,",
			}},
		"/v1/optimize-rc": {`{"tech":"100nm-eps250"}`,
			[]string{"optimize-rc|100nm-eps250"}},
		"/v1/lcrit": {`{"tech":"100nm","l":2e-6,"h":1e-3,"k":100}`,
			[]string{"lcrit|100nm|3ec0c6f7a0b5ed8d|3f50624dd2f1a9fc|4059000000000000"}},
		"/v1/check/oxide": {`{"tech":"100nm","overshoot_v":0.4}`,
			[]string{"check-oxide|100nm|3fd999999999999a"}},
		"/v1/check/wire": {`{"peak_j":1e9,"rms_j":5e8}`,
			[]string{"check-wire|41cdcd6500000000|41bdcd6500000000"}},
		"/v1/pdn/ir": {`{"nx":12,"ny":10,"tech":"100nm","i_hot":0.02,"timeout_ms":900}`,
			[]string{"pdn-ir|100nm|12|10|4|4|6|5|3fb999999999999a|3ed4f8b588e368f1|3fa47ae147ae147b|3dd3ca8cb153a753|3d0bc57d8eaa7531|3f1a36e2eb1c432d|3f947ae147ae147b|3ff3333333333333"}},
		"/v1/pdn/impedance": {`{"nx":8,"ny":8,"points":6,"f_start":1e6,"f_stop":1e9,"workers":2,"probe_x":3,"probe_y":5}`,
			[]string{"pdn-imp|100nm|8|8|4|4|4|4|3fb999999999999a|3ed4f8b588e368f1|3fa47ae147ae147b|3dd3ca8cb153a753|3d0bc57d8eaa7531|3f1a36e2eb1c432d|3fa999999999999a|3ff3333333333333|412e848000000000|41cdcd6500000000|6|3,5"}},
		"/v1/plan-power": {`{"tech":"100nm","l":2e-6,"f":0.5,"length":0.03,"alpha":0.15,"freq":1e9,"max_penalty":0.05,"points":9,"no_degraded":true}`,
			[]string{"plan-power|100nm|3ec0c6f7a0b5ed8d|3fe0000000000000|3f9eb851eb851eb8|3fc3333333333333|41cdcd6500000000|3fa999999999999a|9|0"}},
		"/v1/pareto": {`{"tech":"250nm","l":1e-6,"alpha":0.15,"freq":1e9,"points":9,"max_weight":2}`,
			[]string{"pareto|250nm|3eb0c6f7a0b5ed8d|3fe0000000000000|3fc3333333333333|41cdcd6500000000|9|4000000000000000"}},
	}
}()

// TestCacheKeysPinned pins every route's canonical cache keys (for streams,
// each chunk's key). Keys are what warm snapshot replay and fleet ownership
// hash, so a change here cold-starts every restored snapshot and reshuffles
// ownership mid rolling upgrade: it must be deliberate, never a side effect.
func TestCacheKeysPinned(t *testing.T) {
	s := New(Config{Logger: log.New(io.Discard, "", 0)})
	defer s.Close()
	for _, rt := range routeTable {
		pin, ok := routeSamples[rt.path]
		if !ok {
			t.Errorf("%s: no pinned cache key", rt.path)
			continue
		}
		q := rt.req()
		r := httptest.NewRequest("POST", rt.path, strings.NewReader(pin.body))
		if err := decodeJSON(httptest.NewRecorder(), r, q); err != nil {
			t.Fatalf("%s: decode: %v", rt.path, err)
		}
		if err := q.validate(&s.cfg); err != nil {
			t.Fatalf("%s: validate: %v", rt.path, err)
		}
		spec := q.plan(s)
		got := []string{spec.key}
		if len(spec.chunks) > 0 {
			got = got[:0]
			for _, c := range spec.chunks {
				got = append(got, c.key)
			}
		}
		if !reflect.DeepEqual(got, pin.keys) {
			t.Errorf("%s: keys\n got %q\nwant %q", rt.path, got, pin.keys)
		}
	}
}

// TestRouteFaults pins which routes the server's fault injector reaches. It
// is threaded into the optimizer solves only: with every core.eval faulted,
// /v1/optimize and /v1/plan degrade to their closed-form estimates and
// /v1/sweep (no estimate) fails 422, while the other nine rows — the Padé
// delay, the closed-form rows, the PDN and power solvers — answer as if no
// fault were set; a degraded row opted out with no_degraded answers 422
// with the degraded reason as its kind. A faulted core.stationarity is
// recovered by the Nelder–Mead rung, and in PlanLine's repeater sizing by
// the k scan, so every row answers 200 undegraded.
// No row may 500.
func TestRouteFaults(t *testing.T) {
	type outcome struct {
		status   int
		degraded string // X-Degraded
		kind     string // error envelope kind
	}
	for _, tc := range []struct {
		op      string
		faulted map[string]outcome // rows not listed answer 200 undegraded
	}{
		{"core.eval", map[string]outcome{
			"/v1/optimize": {200, "non-convergence", ""},
			"/v1/plan":     {200, "non-convergence", ""},
			"/v1/sweep":    {422, "", "non-convergence"},
		}},
		{"core.stationarity", nil},
	} {
		_, ts := testServer(t, Config{
			BreakerThreshold: -1,
			Injector:         diag.FaultEvery(tc.op, 1, diag.ErrNonConvergence),
		})
		for _, rt := range routeTable {
			want, ok := tc.faulted[rt.path]
			if !ok {
				want = outcome{status: 200}
			}
			bodies := []string{routeSamples[rt.path].body}
			wants := []outcome{want}
			if want.degraded != "" {
				bodies = append(bodies, strings.TrimSuffix(bodies[0], "}")+`,"no_degraded":true}`)
				wants = append(wants, outcome{422, "", want.degraded})
			}
			for i, b := range bodies {
				resp, body := postJSON(t, ts.URL+rt.path, b)
				var env struct {
					Error apiError `json:"error"`
				}
				if resp.StatusCode != 200 {
					_ = json.Unmarshal(body, &env)
				}
				got := outcome{resp.StatusCode, resp.Header.Get("X-Degraded"), env.Error.Kind}
				if got != wants[i] || got.status == 500 {
					t.Errorf("%s %s with %s faulted: got %+v, want %+v (body %.200s)", rt.path, b, tc.op, got, wants[i], body)
				}
			}
		}
	}
}

// TestSnapshotSchemaPinned pins the response-shape fingerprint. Shapes walk
// in table order, so reordering rows — like changing a shape — cold-starts
// every existing snapshot; update the literal only for a deliberate shape
// change.
func TestSnapshotSchemaPinned(t *testing.T) {
	if got, want := snapshotSchema(), "6706f746e8fd5c9c"; got != want {
		t.Errorf("snapshotSchema() = %s, want %s", got, want)
	}
}

// TestCheckFinite drives the non-finite backstop directly (strict JSON
// decoding never yields NaN or ±Inf) through a plain field, an embedded
// exported struct (pdn.Spec), and an embedded unexported one (frontReq).
func TestCheckFinite(t *testing.T) {
	for _, tc := range []struct {
		req  any
		want string
	}{
		{&optimizeReq{Tech: "100nm", L: math.NaN()}, "l=NaN"},
		{&planPowerReq{Length: math.Inf(-1)}, "length=-Inf"},
		{&paretoReq{frontReq{MaxWeight: math.NaN()}}, "max_weight=NaN"},
		{&pdnImpReq{Spec: pdn.Spec{PitchMM: math.Inf(1)}}, "pitch_mm=+Inf"},
	} {
		err := checkFinite(reflect.ValueOf(tc.req).Elem())
		var br *badRequest
		if !errors.As(err, &br) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%T: err = %v, want a bad request naming %s", tc.req, err, tc.want)
		}
	}
	if err := checkFinite(reflect.ValueOf(&sweepReq{Tech: "100nm", Ls: []float64{1e-6}}).Elem()); err != nil {
		t.Errorf("finite request rejected: %v", err)
	}
}
