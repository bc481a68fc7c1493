package fleet

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func peerUp(f *Fleet, addr string) func() bool {
	return func() bool {
		for _, p := range f.Status().Peers {
			if p.Addr == addr {
				return p.Up
			}
		}
		return false
	}
}

// TestProbeRiseFallHysteresis drives a peer through the full health cycle:
// admitted after rise consecutive good probes, ejected after fall
// consecutive bad ones, re-admitted when it recovers.
func TestProbeRiseFallHysteresis(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("probe hit %s, want /readyz", r.URL.Path)
		}
		if !ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte(`{"ready":true}`))
	}))
	defer peer.Close()
	addr := addrOf(peer)

	f, err := New(Config{
		Self:          "self.test:1",
		Peers:         []string{addr},
		ProbeInterval: 10 * time.Millisecond,
		Logger:        log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()

	// New peers start down until the prober has seen rise consecutive 200s.
	waitFor(t, "initial admission", peerUp(f, addr))

	ready.Store(false)
	waitFor(t, "ejection", func() bool { return !peerUp(f, addr)() })
	if e, p := count(f, "ejected"), count(f, "probe_failures"); e < 1 || p < 2 {
		t.Errorf("after ejection: ejected = %d, probe_failures = %d, want >= 1 and >= 2", e, p)
	}

	ready.Store(true)
	waitFor(t, "re-admission", peerUp(f, addr))
	if n := count(f, "readmitted"); n < 1 {
		t.Errorf("readmitted = %d, want >= 1", n)
	}
}

// TestProbeSingleFailureDoesNotEject: hysteresis means one flaky probe (a
// lost packet) must not drop an up peer from the candidate sets.
func TestProbeSingleFailureDoesNotEject(t *testing.T) {
	f, err := New(Config{
		Self:          "self.test:1",
		Peers:         []string{"p:1"},
		ProbeInterval: time.Hour, // loop idle; observations fed by hand
		Logger:        log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	f.notePeer("p:1", true, "")
	f.notePeer("p:1", true, "")
	if !peerUp(f, "p:1")() {
		t.Fatal("peer not admitted after rise successes")
	}
	f.notePeer("p:1", false, "one lost probe")
	if !peerUp(f, "p:1")() {
		t.Fatal("a single failure ejected the peer despite fall=2")
	}
	f.notePeer("p:1", false, "second consecutive")
	if peerUp(f, "p:1")() {
		t.Fatal("peer still up after fall consecutive failures")
	}
}

func TestProbingDisabledPeersAlwaysUp(t *testing.T) {
	f, err := New(Config{
		Self:          "self.test:1",
		Peers:         []string{"p:1"},
		ProbeInterval: -1,
		Logger:        log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if !peerUp(f, "p:1")() {
		t.Fatal("probing disabled: peer must start up")
	}
	// With no prober there is no way back up, so observations are ignored.
	f.notePeer("p:1", false, "transport")
	f.notePeer("p:1", false, "transport")
	if !peerUp(f, "p:1")() {
		t.Fatal("probing disabled: passive failures must not eject")
	}
}

func TestSetPeersRetainsHealthState(t *testing.T) {
	f, err := New(Config{
		Self:          "self.test:1",
		Peers:         []string{"a:1", "b:2"},
		ProbeInterval: time.Hour,
		Logger:        log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	for i := 0; i < rise; i++ {
		f.notePeer("a:1", true, "")
	}
	f.SetPeers([]string{"a:1", "c:3"}) // drop b, add c
	st := f.Status()
	if st.Members != 3 { // self + a + c
		t.Fatalf("members = %d, want 3", st.Members)
	}
	for _, p := range st.Peers {
		switch p.Addr {
		case "a:1":
			if !p.Up {
				t.Error("retained peer lost its health state across SetPeers")
			}
		case "c:3":
			if p.Up {
				t.Error("new peer must start down until probed up")
			}
		case "b:2":
			t.Error("removed peer still present")
		}
	}
	// Observations for the removed peer must be ignored, not panic.
	f.notePeer("b:2", false, "late probe result")
}

func TestReloadPeersFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "peers.txt")
	if err := os.WriteFile(path, []byte("# fleet members\na:1\nb:2\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Self:          "self.test:1",
		PeersFile:     path,
		ProbeInterval: time.Hour,
		Logger:        log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if st := f.Status(); st.Members != 3 {
		t.Fatalf("members = %d, want 3 (self + 2 from file)", st.Members)
	}
	if err := os.WriteFile(path, []byte("a:1\nc:3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.ReloadPeers(); err != nil {
		t.Fatalf("ReloadPeers: %v", err)
	}
	addrs := map[string]bool{}
	for _, p := range f.Status().Peers {
		addrs[p.Addr] = true
	}
	if !addrs["a:1"] || !addrs["c:3"] || addrs["b:2"] {
		t.Fatalf("membership after reload = %v, want a:1 and c:3 only", addrs)
	}
	// A vanished file keeps the current membership instead of emptying it.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := f.ReloadPeers(); err == nil {
		t.Fatal("ReloadPeers succeeded with the file gone")
	}
	if st := f.Status(); st.Members != 3 {
		t.Fatalf("members after failed reload = %d, want unchanged 3", st.Members)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without Self must fail")
	}
	if _, err := New(Config{Self: "s:1", Peers: []string{"a:1"}, PeersFile: "/x"}); err == nil {
		t.Error("New with both Peers and PeersFile must fail")
	}
	if _, err := New(Config{Self: "s:1", PeersFile: "/does/not/exist"}); err == nil {
		t.Error("New with an unreadable PeersFile must fail")
	}
}

// TestRouteFiltersSelfAndDownPeers covers the ownership/health split: the
// ring decides ownership from membership, health only filters candidates.
func TestRouteFiltersSelfAndDownPeers(t *testing.T) {
	f, err := New(Config{
		Self:          "self.test:1",
		Peers:         []string{"a:1", "b:2"},
		ProbeInterval: time.Hour, // all peers start down
		Logger:        log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()

	// Find keys owned by self and by a peer.
	var selfKey, peerKey string
	for i := 0; selfKey == "" || peerKey == ""; i++ {
		k := keysN(i + 1)[i]
		if f.Owner(k) == "self.test:1" {
			selfKey = k
		} else {
			peerKey = k
		}
	}
	if got := f.Route(selfKey); got != nil {
		t.Errorf("Route(self-owned key) = %v, want nil (serve locally)", got)
	}
	// All peers down: nothing routable.
	if got := f.Route(peerKey); got != nil {
		t.Errorf("Route with all peers down = %v, want nil", got)
	}
	for i := 0; i < rise; i++ {
		f.notePeer("a:1", true, "")
		f.notePeer("b:2", true, "")
	}
	cands := f.Route(peerKey)
	if len(cands) == 0 {
		t.Fatal("Route returned nothing with all peers up")
	}
	for _, c := range cands {
		if c == "self.test:1" {
			t.Errorf("Route included self: %v", cands)
		}
	}
	if cands[0] != f.Owner(peerKey) {
		t.Errorf("first candidate %s is not the owner %s", cands[0], f.Owner(peerKey))
	}
}
