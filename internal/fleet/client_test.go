package fleet

import (
	"context"
	"errors"
	"expvar"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rlcint/internal/diag"
)

func addrOf(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

// newTestFleet builds a probe-less fleet (peers permanently up), suitable
// for exercising the forwarding client directly.
func newTestFleet(t *testing.T, mutate func(*Config)) *Fleet {
	t.Helper()
	cfg := Config{
		Self:           "self.test:1",
		ProbeInterval:  -1, // no prober; candidate lists come from the caller
		AttemptTimeout: 2 * time.Second,
		Logger:         log.New(io.Discard, "", 0),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// count reads one of f's counters (-1 when it does not exist).
func count(f *Fleet, name string) int64 {
	if v, ok := f.Counters().Get(name).(*expvar.Int); ok {
		return v.Value()
	}
	return -1
}

func TestForwardRetriesNextReplica(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get(HopsHeader); got != "1" {
			t.Errorf("forwarded request hops header = %q, want 1", got)
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer good.Close()

	f := newTestFleet(t, nil)
	pr, err := f.Forward(context.Background(), []string{addrOf(bad), addrOf(good)}, "/v1/x", []byte(`{}`), 1)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if pr.Peer != addrOf(good) || pr.Status != http.StatusOK || string(pr.Body) != `{"ok":true}` {
		t.Fatalf("Forward answered from %s status %d body %q", pr.Peer, pr.Status, pr.Body)
	}
	if a, r, p := count(f, "attempts"), count(f, "retries"), count(f, "peer_5xx"); a != 2 || r != 1 || p != 1 {
		t.Errorf("attempts/retries/peer_5xx = %d/%d/%d, want 2/1/1", a, r, p)
	}
}

func TestForward4xxIsAuthoritative(t *testing.T) {
	var hits atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":{}}`, http.StatusUnprocessableEntity)
	}))
	defer peer.Close()
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("second candidate reached after an authoritative 4xx")
	}))
	defer other.Close()

	f := newTestFleet(t, nil)
	pr, err := f.Forward(context.Background(), []string{addrOf(peer), addrOf(other)}, "/v1/x", nil, 1)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if pr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 relayed", pr.Status)
	}
	if hits.Load() != 1 {
		t.Fatalf("peer hit %d times, want exactly 1 (4xx must not retry)", hits.Load())
	}
}

func TestForwardHedgeFirstResponseWins(t *testing.T) {
	slowCancelled := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			close(slowCancelled) // the losing attempt was cancelled, not left running
		case <-time.After(5 * time.Second):
		}
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`fast`))
	}))
	defer fast.Close()

	f := newTestFleet(t, func(c *Config) { c.HedgeAfter = 20 * time.Millisecond })
	pr, err := f.Forward(context.Background(), []string{addrOf(slow), addrOf(fast)}, "/v1/x", nil, 1)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if pr.Peer != addrOf(fast) {
		t.Fatalf("answer from %s, want the hedge's answer from the fast peer", pr.Peer)
	}
	if h, w := count(f, "hedges"), count(f, "hedge_wins"); h != 1 || w != 1 {
		t.Errorf("hedges/hedge_wins = %d/%d, want 1/1", h, w)
	}
	select {
	case <-slowCancelled:
	case <-time.After(2 * time.Second):
		t.Error("losing attempt was never cancelled")
	}
}

// TestForwardHonorsRetryAfter: a shedding peer's Retry-After holds the retry
// back instead of the next replica being hit after the plain backoff, and
// backoff honors it up to 4×backoffMax.
func TestForwardHonorsRetryAfter(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "full", http.StatusServiceUnavailable)
	}))
	defer shedding.Close()
	var hits atomic.Int64
	next := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer next.Close()

	f := newTestFleet(t, nil)
	// The plain backoff is at most 1.5×backoffBase; the 1 s Retry-After must
	// still be pending when the caller gives up at 600 ms.
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	if _, err := f.Forward(ctx, []string{addrOf(shedding), addrOf(next)}, "/v1/x", nil, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Forward err = %v, want the caller's deadline while the retry waits", err)
	}
	if hits.Load() != 0 {
		t.Error("next replica reached before the shedding peer's Retry-After elapsed")
	}
	if n := count(f, "retry_after_honored"); n != 1 {
		t.Errorf("retry_after_honored = %d, want 1", n)
	}

	shed := func(d time.Duration) error { return &peerError{addr: "p:1", status: 503, retryAfter: d} }
	for _, tc := range []struct {
		retry   int
		cause   error
		lo, hi  time.Duration
		honored int64
	}{
		{0, errors.New("transport"), backoffBase / 2, backoffBase * 3 / 2, 0},
		{2, errors.New("transport"), backoffBase * 2, backoffBase * 6, 0},
		{10, errors.New("transport"), backoffMax / 2, backoffMax * 3 / 2, 0},
		{0, shed(time.Second), time.Second, time.Second, 1},
		{0, shed(time.Minute), 4 * backoffMax, 4 * backoffMax, 1}, // clamped
	} {
		before := count(f, "retry_after_honored")
		if d := f.backoff(tc.retry, tc.cause); d < tc.lo || d > tc.hi {
			t.Errorf("backoff(%d, %v) = %s, want in [%s, %s]", tc.retry, tc.cause, d, tc.lo, tc.hi)
		}
		if got := count(f, "retry_after_honored") - before; got != tc.honored {
			t.Errorf("backoff(%d, %v) counted %d honored Retry-Afters, want %d", tc.retry, tc.cause, got, tc.honored)
		}
	}
}

func TestForwardTransportFaultInjection(t *testing.T) {
	var hits atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer peer.Close()

	f := newTestFleet(t, func(c *Config) {
		c.Injector = diag.FaultEvery("fleet.transport", 1, errors.New("injected wire fault"))
	})
	_, err := f.Forward(context.Background(), []string{addrOf(peer), addrOf(peer)}, "/v1/x", nil, 1)
	if err == nil {
		t.Fatal("Forward succeeded although every transport attempt faults")
	}
	if hits.Load() != 0 {
		t.Errorf("peer reached %d times through a faulted transport", hits.Load())
	}
	if n := count(f, "transport_errors"); n < 2 {
		t.Errorf("transport_errors = %d, want >= 2", n)
	}
}

// denyAllGate skips every peer, as an all-open breaker set would.
type denyAllGate struct{ skips atomic.Int64 }

func (g *denyAllGate) Allow(string) bool           { g.skips.Add(1); return false }
func (g *denyAllGate) Result(string, bool, string) {}

func TestForwardAllCandidatesGatedReturnsNoCandidates(t *testing.T) {
	gate := &denyAllGate{}
	f := newTestFleet(t, func(c *Config) { c.Gate = gate })
	_, err := f.Forward(context.Background(), []string{"x:1", "y:2"}, "/v1/x", nil, 1)
	if !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
	if n := count(f, "breaker_skips"); n != 2 {
		t.Errorf("breaker_skips = %d, want 2", n)
	}
}

func TestForwardEmptyCandidates(t *testing.T) {
	f := newTestFleet(t, nil)
	if _, err := f.Forward(context.Background(), nil, "/v1/x", nil, 0); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

func TestHopsFrom(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{{"", 0}, {"0", 0}, {"2", 2}, {"17", 17}, {"-1", 0}, {"junk", 0}, {"2x", 0}}
	for _, c := range cases {
		h := http.Header{}
		if c.in != "" {
			h.Set(HopsHeader, c.in)
		}
		if got := HopsFrom(h); got != c.want {
			t.Errorf("HopsFrom(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}
