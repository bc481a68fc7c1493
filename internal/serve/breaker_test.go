package serve

import (
	"expvar"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"rlcint/internal/diag"
)

func TestRegionOfQuantizesByHalfDecade(t *testing.T) {
	// 2e-6 and 3e-6 share the half-decade [1e-6, 10^-5.5); 4e-6 is the next.
	a := regionOf("optimize", "100nm", 2e-6)
	b := regionOf("optimize", "100nm", 3e-6)
	c := regionOf("optimize", "100nm", 4e-6)
	if a != b {
		t.Errorf("same half-decade split: %q vs %q", a, b)
	}
	if a == c {
		t.Errorf("different half-decades collide: %q", a)
	}
	if regionOf("delay", "100nm", 2e-6) == a {
		t.Error("endpoints must not share regions")
	}
	if regionOf("optimize", "250nm", 2e-6) == a {
		t.Error("technologies must not share regions")
	}
	if got := regionOf("optimize", "100nm", 0); got != "optimize|100nm|l^0" {
		t.Errorf("l=0 region = %q", got)
	}
}

func newTestBreakers(threshold int, cooldown time.Duration) *breakerSet {
	return newBreakerSet(threshold, cooldown, new(expvar.Map).Init())
}

// allowed discards the probe token — for the call sites that only care
// whether the request may proceed.
func allowed(b *breakerSet, region string) bool {
	ok, _ := b.allow(region)
	return ok
}

func TestBreakerLifecycle(t *testing.T) {
	b := newTestBreakers(3, time.Hour)
	const r = "optimize|100nm|l^-6"

	// Closed: everything allowed; successes keep it closed.
	for i := 0; i < 5; i++ {
		if !allowed(b, r) {
			t.Fatalf("closed breaker denied request %d", i)
		}
		b.onResult(r, true, false, "")
	}
	// Two failures then a success: the consecutive count must reset.
	for i := 0; i < 2; i++ {
		b.allow(r)
		b.onResult(r, false, true, "non-convergence")
	}
	b.allow(r)
	b.onResult(r, true, false, "")
	for i := 0; i < 2; i++ {
		b.allow(r)
		b.onResult(r, false, true, "non-convergence")
	}
	if st := b.statuses()[0]; st.State != "closed" || st.Failures != 2 {
		t.Fatalf("after reset + 2 failures: %+v", st)
	}
	// Third consecutive failure opens it.
	b.allow(r)
	b.onResult(r, false, true, "non-convergence")
	if st := b.statuses()[0]; st.State != "open" || st.Opens != 1 {
		t.Fatalf("after threshold: %+v", st)
	}
	// Open and cooling: short-circuit.
	if allowed(b, r) {
		t.Fatal("open breaker allowed a request inside the cooldown")
	}
	if st := b.statuses()[0]; st.ShortCircuits != 1 {
		t.Fatalf("short_circuits = %d, want 1", st.ShortCircuits)
	}

	// Expire the cooldown by hand (same package) — the next allow is the
	// half-open probe, and only one probe may be in flight.
	b.mu.Lock()
	b.m[r].cooldownAt = time.Now().Add(-2 * time.Hour)
	b.mu.Unlock()
	if !allowed(b, r) {
		t.Fatal("cooled breaker denied the probe")
	}
	if allowed(b, r) {
		t.Fatal("second concurrent probe allowed")
	}
	// Inconclusive probe (cancelled client) re-arms instead of wedging.
	b.onResult(r, false, false, "cancelled")
	if !allowed(b, r) {
		t.Fatal("re-armed half-open denied the next probe")
	}
	// Failed probe re-opens.
	b.onResult(r, false, true, "deadline")
	if st := b.statuses()[0]; st.State != "open" || st.Opens != 2 {
		t.Fatalf("after failed probe: %+v", st)
	}
	// Cool again; a successful probe closes.
	b.mu.Lock()
	b.m[r].cooldownAt = time.Now().Add(-2 * time.Hour)
	b.mu.Unlock()
	if !allowed(b, r) {
		t.Fatal("cooled breaker denied the probe")
	}
	b.onResult(r, true, false, "")
	if st := b.statuses()[0]; st.State != "closed" || st.Failures != 0 {
		t.Fatalf("after successful probe: %+v", st)
	}
	// Ineligible failures (client cancels, admission rejects) never count.
	for i := 0; i < 10; i++ {
		b.allow(r)
		b.onResult(r, false, false, "cancelled")
	}
	if st := b.statuses()[0]; st.State != "closed" {
		t.Fatalf("ineligible failures opened the breaker: %+v", st)
	}
}

func TestBreakerDisabledAndNil(t *testing.T) {
	if newTestBreakers(-1, time.Second) != nil || newTestBreakers(0, time.Second) != nil {
		t.Fatal("threshold <= 0 must disable the set")
	}
	var b *breakerSet
	if !allowed(b, "x") {
		t.Error("nil set must allow everything")
	}
	b.onResult("x", false, true, "non-convergence") // must not panic
	b.probeAbort("x", 1)                            // must not panic
	if b.statuses() != nil {
		t.Error("nil set must report no regions")
	}
}

func TestBreakerRegionCapRunsUntracked(t *testing.T) {
	b := newTestBreakers(1, time.Hour)
	b.mu.Lock()
	for i := 0; i < maxBreakerRegions; i++ {
		b.m[string(rune(i))+"x"] = &breaker{changed: time.Now()}
	}
	b.mu.Unlock()
	if !allowed(b, "fresh-region") {
		t.Fatal("full region map must fail open (allow), not deny")
	}
	b.onResult("fresh-region", false, true, "deadline") // untracked: no-op, no panic
}

// End-to-end lifecycle over HTTP: consecutive injected solver failures open
// the region's breaker (visible in /statusz and /metrics), further requests
// short-circuit to degraded answers without touching the solver, and after
// the cooldown a successful probe restores full service.
func TestBreakerLifecycleHTTP(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var evals atomic.Int64
	inj := &diag.Injector{Fault: func(site diag.Site) error {
		if site.Op != "core.eval" {
			return nil
		}
		evals.Add(1)
		if failing.Load() {
			return diag.New(diag.ErrNonConvergence, "chaos")
		}
		return nil
	}}
	_, ts := testServer(t, Config{
		BreakerThreshold: 3,
		BreakerCooldown:  30 * time.Millisecond,
		Injector:         inj,
	})

	// Distinct inductances, one half-decade bucket: distinct cache keys, one
	// breaker region.
	ls := []string{"1.1e-6", "1.5e-6", "2e-6", "2.5e-6", "3e-6"}
	post := func(l string) (*http.Response, []byte) {
		return postJSON(t, ts.URL+"/v1/optimize", `{"tech":"100nm","l":`+l+`,"f":0.5}`)
	}
	for i := 0; i < 3; i++ {
		resp, body := post(ls[i])
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Degraded") != "non-convergence" {
			t.Fatalf("failure %d: status=%d X-Degraded=%q body=%s",
				i, resp.StatusCode, resp.Header.Get("X-Degraded"), body)
		}
	}
	// Threshold reached: the next request must short-circuit — degraded with
	// the breaker's own reason, and no new solver evaluation.
	before := evals.Load()
	resp, body := post(ls[3])
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Degraded") != "breaker-open" {
		t.Fatalf("short-circuit: status=%d X-Degraded=%q body=%s",
			resp.StatusCode, resp.Header.Get("X-Degraded"), body)
	}
	if evals.Load() != before {
		t.Errorf("short-circuited request still ran the solver (%d evals)", evals.Load()-before)
	}

	var sz struct {
		Breakers struct {
			Enabled bool            `json:"enabled"`
			Regions []breakerStatus `json:"regions"`
		} `json:"breakers"`
	}
	getJSON(t, ts.URL+"/statusz", &sz)
	if !sz.Breakers.Enabled || len(sz.Breakers.Regions) == 0 {
		t.Fatalf("statusz breakers = %+v", sz.Breakers)
	}
	if st := sz.Breakers.Regions[0]; st.State != "open" || st.Region != regionOf("optimize", "100nm", 2e-6) {
		t.Errorf("tripped region not first/open in statusz: %+v", st)
	}
	m := metricsSnapshot(t, ts.URL)
	br, _ := m["breaker"].(map[string]any)
	if opens, _ := br["open"].(float64); opens < 1 {
		t.Errorf("metrics breaker.open = %v, want >= 1", opens)
	}
	if sc, _ := br["short-circuit"].(float64); sc < 1 {
		t.Errorf("metrics breaker.short-circuit = %v, want >= 1", sc)
	}

	// Heal the solver, wait out the cooldown: the probe closes the breaker
	// and full service resumes.
	failing.Store(false)
	time.Sleep(50 * time.Millisecond)
	resp, body = post(ls[4])
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Degraded") != "" {
		t.Fatalf("probe: status=%d X-Degraded=%q body=%s",
			resp.StatusCode, resp.Header.Get("X-Degraded"), body)
	}
	getJSON(t, ts.URL+"/statusz", &sz)
	if st := sz.Breakers.Regions[0]; st.State != "closed" {
		t.Errorf("after successful probe: %+v", st)
	}
	m = metricsSnapshot(t, ts.URL)
	br, _ = m["breaker"].(map[string]any)
	if closes, _ := br["close"].(float64); closes < 1 {
		t.Errorf("metrics breaker.close = %v, want >= 1", closes)
	}
	if ho, _ := br["half-open"].(float64); ho < 1 {
		t.Errorf("metrics breaker.half-open = %v, want >= 1", ho)
	}
}

// The half-open probe slot must be releasable by token (probeAbort), must
// ignore stale or wrong tokens, and must be reclaimable after a full
// cooldown even if its holder never resolves it — the region can degrade,
// but it can never wedge.
func TestBreakerProbeAbortAndReclaim(t *testing.T) {
	const cooldown = time.Hour
	b := newTestBreakers(1, cooldown)
	const r = "optimize|100nm|l^-6"
	b.allow(r)
	b.onResult(r, false, true, "non-convergence") // threshold 1: open
	b.mu.Lock()
	b.m[r].cooldownAt = time.Now().Add(-2 * cooldown)
	b.mu.Unlock()

	ok, p1 := b.allow(r)
	if !ok || p1 == 0 {
		t.Fatalf("cooled breaker: allow = (%v, %d), want a granted probe", ok, p1)
	}
	if allowed(b, r) {
		t.Fatal("second concurrent probe allowed")
	}
	// A wrong token must not release the slot.
	b.probeAbort(r, p1+99)
	if allowed(b, r) {
		t.Fatal("wrong-token abort released the probe slot")
	}
	// The right token re-arms the slot for the next caller.
	b.probeAbort(r, p1)
	ok, p2 := b.allow(r)
	if !ok || p2 == 0 || p2 == p1 {
		t.Fatalf("after abort: allow = (%v, %d), want a fresh probe token", ok, p2)
	}
	// A stale abort (p1 resolved long ago) must not release p2's slot.
	b.probeAbort(r, p1)
	if allowed(b, r) {
		t.Fatal("stale abort released another caller's probe slot")
	}
	// Deadline backstop: a probe outstanding for a full cooldown is
	// reclaimed by the next caller instead of wedging the region.
	b.mu.Lock()
	b.m[r].probeStart = time.Now().Add(-2 * cooldown)
	b.mu.Unlock()
	ok, p3 := b.allow(r)
	if !ok || p3 == 0 || p3 == p2 {
		t.Fatalf("expired probe not reclaimed: allow = (%v, %d)", ok, p3)
	}
	b.onResult(r, true, false, "")
	if st := b.statuses()[0]; st.State != "closed" {
		t.Fatalf("after reclaimed probe succeeded: %+v", st)
	}
}

// A half-open probe that dies at admission control (solve slots full, no
// queue) must resolve the probe slot — the wedge found in review: the
// flight closure returned before onResult, leaving probing=true forever and
// the whole region short-circuiting until restart.
func TestBreakerProbeSurvivesAdmissionReject(t *testing.T) {
	const (
		modeFail  = iota // region requests fail with non-convergence
		modeBlock        // solver parks on the release channel
		modeOK           // solver healthy
	)
	var mode atomic.Int64
	release := make(chan struct{})
	inj := &diag.Injector{Fault: func(site diag.Site) error {
		if site.Op != "core.eval" {
			return nil
		}
		switch mode.Load() {
		case modeFail:
			return diag.New(diag.ErrNonConvergence, "chaos")
		case modeBlock:
			<-release
		}
		return nil
	}}
	_, ts := testServer(t, Config{
		MaxInflight:      1,
		MaxQueue:         -1, // no queue: a busy slot rejects immediately
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Millisecond,
		Injector:         inj,
	})
	post := func(l string) (*http.Response, []byte) {
		return postJSON(t, ts.URL+"/v1/optimize", `{"tech":"100nm","l":`+l+`,"f":0.5}`)
	}

	// One eligible failure opens the region (threshold 1).
	if resp, body := post("2e-6"); resp.Header.Get("X-Degraded") != "non-convergence" {
		t.Fatalf("opening failure: X-Degraded=%q body=%s", resp.Header.Get("X-Degraded"), body)
	}
	// Park a solve from a different region (different half-decade) on the
	// only slot.
	mode.Store(modeBlock)
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		postJSON(t, ts.URL+"/v1/optimize", `{"tech":"100nm","l":2e-3,"f":0.5}`)
	}()
	waitFor(t, 5*time.Second, func() bool {
		var sz struct {
			Admission struct {
				Inflight int64 `json:"inflight"`
			} `json:"admission"`
		}
		getJSON(t, ts.URL+"/statusz", &sz)
		return sz.Admission.Inflight == 1
	})
	time.Sleep(50 * time.Millisecond) // past the cooldown: next allow is the probe

	// The probe is granted, then dies at admission: 503 queue-full (shed
	// load, never degrade) — and the probe slot must be released.
	resp, body := post("2.5e-6")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("X-Degraded") != "" {
		t.Fatalf("probe at full admission: status=%d X-Degraded=%q body=%s",
			resp.StatusCode, resp.Header.Get("X-Degraded"), body)
	}

	// Free the slot, heal the solver: the next request in the region must be
	// allowed to probe (not short-circuited) and close the breaker.
	mode.Store(modeOK)
	close(release)
	<-blocked
	resp, body = post("3e-6")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Degraded") != "" {
		t.Fatalf("post-reject probe wedged: status=%d X-Degraded=%q body=%s",
			resp.StatusCode, resp.Header.Get("X-Degraded"), body)
	}
	var sz struct {
		Breakers struct {
			Regions []breakerStatus `json:"regions"`
		} `json:"breakers"`
	}
	getJSON(t, ts.URL+"/statusz", &sz)
	for _, st := range sz.Breakers.Regions {
		if st.Region == regionOf("optimize", "100nm", 2e-6) && st.State != "closed" {
			t.Fatalf("region did not recover: %+v", st)
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBreakerCooldownJitterBreaksLockstep is the thundering-herd regression
// test: two regions tripped at the same instant must not half-open at the
// same instant. The fake clock and seeded jitter fractions make the
// staggering deterministic — with an unjittered cooldown both probes would
// be granted at t = cooldown and this test fails.
func TestBreakerCooldownJitterBreaksLockstep(t *testing.T) {
	const cooldown = time.Second
	b := newTestBreakers(1, cooldown)
	base := time.Unix(1_000_000, 0)
	now := base
	b.now = func() time.Time { return now }
	fracs := []float64{0.0, 0.95} // region A: +1.00s, region B: +1.19s
	i := 0
	b.frac = func() float64 { f := fracs[i%len(fracs)]; i++; return f }

	for _, r := range []string{"opt|t|l^a", "opt|t|l^b"} {
		b.allow(r)
		b.onResult(r, false, true, "deadline")
	}
	// Just past the un-jittered cooldown: the low-jitter region probes, the
	// high-jitter one is still short-circuited — they left lockstep.
	now = base.Add(cooldown + 100*time.Millisecond)
	if !allowed(b, "opt|t|l^a") {
		t.Error("low-jitter region still denied past its cooldown")
	}
	if allowed(b, "opt|t|l^b") {
		t.Error("high-jitter region probed at the base cooldown: still in lockstep")
	}
	// And past the max jitter both are serviceable.
	now = base.Add(time.Duration(1.2*float64(cooldown)) + 100*time.Millisecond)
	if !allowed(b, "opt|t|l^b") {
		t.Error("high-jitter region denied past the maximum jittered cooldown")
	}
}
