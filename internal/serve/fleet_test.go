package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlcint/internal/fleet"
	"rlcint/internal/testutil"
)

// fastFleet returns forwarding-client settings tuned for tests: no prober
// (peers permanently up) and a generous per-attempt timeout.
func fastFleet(self string, peers []string) *fleet.Config {
	return &fleet.Config{
		Self:           self,
		Peers:          peers,
		ProbeInterval:  -1,
		AttemptTimeout: 5 * time.Second,
	}
}

// startFleetMembers boots n servers that know each other as peers, with
// Self equal to each instance's real listen address so every member
// computes identical ring ownership. mutate may adjust each member's config
// (its Fleet field is already populated).
func startFleetMembers(t testing.TB, n int, mutate func(i int, cfg *Config)) ([]*Server, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	srvs := make([]*Server, n)
	for i := range srvs {
		peers := make([]string, 0, n-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		cfg := Config{
			Logger: log.New(io.Discard, "", 0),
			Fleet:  fastFleet(addrs[i], peers),
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s := New(cfg)
		ts := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: s.Handler()}}
		ts.Start()
		t.Cleanup(func() { ts.Close(); s.Close() })
		srvs[i] = s
	}
	return srvs, addrs
}

// keyOwnedBy scans inductance values until it finds an optimize request
// whose cache key the given member owns, so tests can aim a request at (or
// away from) a specific shard.
func keyOwnedBy(t testing.TB, f *fleet.Fleet, owner string) (body string) {
	t.Helper()
	return keysOwnedBy(t, f, owner, 1)[0]
}

// keysOwnedBy is keyOwnedBy for the first n distinct such requests.
func keysOwnedBy(t testing.TB, f *fleet.Fleet, owner string, n int) (bodies []string) {
	t.Helper()
	for i := 1; i < 10000 && len(bodies) < n; i++ {
		l := 1e-6 + float64(i)*1e-9
		q := optimizeReq{Tech: "100nm", L: l, F: 0.5}
		if f.Owner(q.key()) == owner {
			bodies = append(bodies, fmt.Sprintf(`{"tech":"100nm","l":%g,"f":0.5}`, l))
		}
	}
	if len(bodies) < n {
		t.Fatalf("%d of %d keys owned by %s in 10000 tries", len(bodies), n, owner)
	}
	return bodies
}

// TestFleetForwardedHit: a request landing on the wrong instance is
// forwarded to its key's owner, relayed with X-Cache: forwarded, and the
// owner (not the relay) caches the result.
func TestFleetForwardedHit(t *testing.T) {
	srvs, addrs := startFleetMembers(t, 2, nil)
	body := keyOwnedBy(t, srvs[1].Fleet(), addrs[0])

	// Hitting the non-owner forwards to the owner, which computes (a miss
	// on its side) and answers.
	resp, b1 := postJSON(t, "http://"+addrs[1]+"/v1/optimize", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: status=%d body=%s", resp.StatusCode, b1)
	}
	if got := resp.Header.Get("X-Cache"); got != "forwarded" {
		t.Fatalf("X-Cache = %q, want forwarded", got)
	}
	if got := resp.Header.Get("X-Fleet-Peer"); got != addrs[0] {
		t.Errorf("X-Fleet-Peer = %q, want the owner %s", got, addrs[0])
	}

	// The owner holds the cache entry...
	resp2, b2 := postJSON(t, "http://"+addrs[0]+"/v1/optimize", body)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("owner X-Cache = %q, want hit (forward must fill the owner's cache)", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("relayed body %s != owner body %s", b1, b2)
	}
	// ...and the relay does not: a repeat through the relay forwards again
	// (now an owner-side hit), keeping one authoritative copy per key.
	resp3, _ := postJSON(t, "http://"+addrs[1]+"/v1/optimize", body)
	if got := resp3.Header.Get("X-Cache"); got != "forwarded" {
		t.Errorf("repeat through relay X-Cache = %q, want forwarded", got)
	}

	m := metricsSnapshot(t, "http://"+addrs[1])
	fl, _ := m["fleet"].(map[string]any)
	if fwd, _ := fl["forwarded"].(float64); fwd != 2 {
		t.Errorf("relay fleet.forwarded = %v, want 2 (metrics %v)", fl["forwarded"], fl)
	}
}

// TestFleetFallbackLocalOnDeadPeer: when the key's owner is unreachable the
// instance computes locally — topology can cost a forward, never an answer.
func TestFleetFallbackLocalOnDeadPeer(t *testing.T) {
	testutil.CheckGoroutines(t)
	// Reserve an address, then close it: a peer that connection-refuses.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	// The dead peer is the only other member, so it is the one candidate
	// and the forward fails after a single attempt.
	s, ts := testServer(t, Config{Fleet: fastFleet("live.test:1", []string{deadAddr})})
	body := keyOwnedBy(t, s.Fleet(), deadAddr)

	resp, b := postJSON(t, ts.URL+"/v1/optimize", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%s, want 200 computed locally", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss (local compute)", got)
	}
	m := metricsSnapshot(t, ts.URL)
	fl, _ := m["fleet"].(map[string]any)
	if fb, _ := fl["fallback-local"].(float64); fb < 1 {
		t.Errorf("fleet.fallback-local = %v, want >= 1 (metrics %v)", fl["fallback-local"], fl)
	}
}

// TestFleetPeerBreakerSkipsFailingPeer: a peer that passes its readiness
// probe but answers every forward with a 500 trips its peer|host:port
// breaker after BreakerThreshold failures; the next forward skips it at
// launch instead of dialing it, and every request still answers locally.
func TestFleetPeerBreakerSkipsFailingPeer(t *testing.T) {
	var posts atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
			http.Error(w, "peer failure", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK) // /readyz
	}))
	defer peer.Close()
	peerAddr := peer.Listener.Addr().String()

	s, ts := testServer(t, Config{
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		Fleet:            fastFleet("live.test:1", []string{peerAddr}),
	})
	for i, body := range keysOwnedBy(t, s.Fleet(), peerAddr, 3) {
		resp, b := postJSON(t, ts.URL+"/v1/optimize", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("request %d: status %d X-Cache %q, want 200 miss (local compute): %.200s",
				i, resp.StatusCode, resp.Header.Get("X-Cache"), b)
		}
	}
	if n := posts.Load(); n != 2 {
		t.Errorf("peer received %d POSTs, want 2 (the third is skipped by the open breaker)", n)
	}

	m := metricsSnapshot(t, ts.URL)
	fl, _ := m["fleet"].(map[string]any)
	for name, want := range map[string]float64{"peer_5xx": 2, "breaker_skips": 1, "fallback-local": 3} {
		if got, _ := fl[name].(float64); got != want {
			t.Errorf("fleet.%s = %v, want %v (metrics %v)", name, fl[name], want, fl)
		}
	}

	var sz struct {
		Breakers struct {
			Regions []breakerStatus `json:"regions"`
		} `json:"breakers"`
	}
	getJSON(t, ts.URL+"/statusz", &sz)
	var found bool
	for _, r := range sz.Breakers.Regions {
		if r.Region == peerRegion(peerAddr) {
			found = true
			if r.State != "open" || r.ShortCircuits != 1 {
				t.Errorf("/statusz %s = %+v, want open with 1 short-circuit", r.Region, r)
			}
		}
	}
	if !found {
		t.Errorf("/statusz breakers.regions = %+v, want %s listed", sz.Breakers.Regions, peerRegion(peerAddr))
	}
}

// TestFleetHopCapUnderTopologyChurn wires two instances whose ring views
// disagree on purpose (each believes the other owns everything it is asked
// for), so forwards ping-pong until the hop cap forces a local answer. Run
// under -race with concurrent membership churn: requests must all answer
// 200 and no forwarding goroutine may leak.
func TestFleetHopCapUnderTopologyChurn(t *testing.T) {
	testutil.CheckGoroutines(t)
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	srvs := make([]*Server, 2)
	for i := range srvs {
		// Self is a name that is NOT this instance's real address, and the
		// only peer is the other real instance: every key this instance does
		// not map to its fake self is "owned" by the other — the skewed
		// topology that would orbit requests forever without the hop cap.
		fc := fastFleet("skewed-"+strconv.Itoa(i)+".test:1", []string{addrs[1-i]})
		s := New(Config{Logger: log.New(io.Discard, "", 0), Fleet: fc})
		ts := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: s.Handler()}}
		ts.Start()
		t.Cleanup(func() { ts.Close(); s.Close() })
		srvs[i] = s
	}

	// Membership churn racing the forwards: SetPeers swaps ring membership
	// while requests are mid-flight.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				srvs[0].Fleet().SetPeers(nil) // standalone: everything local
			} else {
				srvs[0].Fleet().SetPeers([]string{addrs[1]})
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				l := 2e-6 + float64(w*100+i)*1e-9
				body := fmt.Sprintf(`{"tech":"100nm","l":%g,"f":0.5}`, l)
				resp, err := http.Post("http://"+addrs[i%2]+"/v1/optimize", "application/json",
					bytes.NewReader([]byte(body)))
				if err != nil {
					errs <- fmt.Sprintf("worker %d: %v", w, err)
					continue
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("worker %d: status %d body %.120s", w, resp.StatusCode, b)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// The skewed ring must actually have exercised the cap on at least one
	// instance — otherwise this test proved nothing about loops.
	capped := 0.0
	for i := range srvs {
		m := metricsSnapshot(t, "http://"+addrs[i])
		if fl, ok := m["fleet"].(map[string]any); ok {
			if v, _ := fl["hop-capped"].(float64); v > 0 {
				capped += v
			}
		}
	}
	if capped == 0 {
		t.Error("no request ever hit the hop cap; the loop topology was not exercised")
	}
}

// TestFleetStatuszSurfaces: ring membership and peer health are visible to
// operators.
func TestFleetStatuszSurfaces(t *testing.T) {
	fc := fastFleet("self.test:1", []string{"peer-a:1", "peer-b:2"})
	_, ts := testServer(t, Config{Fleet: fc})
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sz struct {
		Fleet struct {
			Status struct {
				Self    string `json:"self"`
				Members int    `json:"members"`
				Peers   []struct {
					Addr string `json:"addr"`
					Up   bool   `json:"up"`
				} `json:"peers"`
			} `json:"status"`
		} `json:"fleet"`
		Readiness struct {
			Ready bool `json:"ready"`
		} `json:"readiness"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sz); err != nil {
		t.Fatal(err)
	}
	if sz.Fleet.Status.Self != "self.test:1" || sz.Fleet.Status.Members != 3 || len(sz.Fleet.Status.Peers) != 2 {
		t.Errorf("statusz fleet = %+v", sz.Fleet.Status)
	}
	if !sz.Readiness.Ready {
		t.Error("statusz readiness.ready = false on an idle server")
	}
}
