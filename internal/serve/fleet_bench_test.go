package serve

import (
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"testing"
)

// The fleet benchmarks price the three rungs of the failover ladder against
// each other over real TCP: answering from the local shard, paying one hop
// to the key's owner, and detecting a dead owner before computing locally.

func benchFleetPost(b *testing.B, url, body string) int {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatalf("POST %s: %v", url, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// BenchmarkFleetLocalHit: the request lands on its key's owner and the
// owner's cache answers — no forwarding, the fleet fast path.
func BenchmarkFleetLocalHit(b *testing.B) {
	srvs, addrs := startFleetMembers(b, 2, nil)
	body := keyOwnedBy(b, srvs[0].Fleet(), addrs[0])
	url := "http://" + addrs[0] + "/v1/optimize"
	if code := benchFleetPost(b, url, body); code != 200 {
		b.Fatalf("warmup status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := benchFleetPost(b, url, body); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkFleetForwardedHit: the request lands on a non-owner, hops to the
// owner, and relays the owner's cache hit — the price of one extra peer
// round trip over BenchmarkFleetLocalHit.
func BenchmarkFleetForwardedHit(b *testing.B) {
	srvs, addrs := startFleetMembers(b, 2, nil)
	body := keyOwnedBy(b, srvs[1].Fleet(), addrs[0])
	url := "http://" + addrs[1] + "/v1/optimize"
	if code := benchFleetPost(b, url, body); code != 200 {
		b.Fatalf("warmup status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := benchFleetPost(b, url, body); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkFleetFailover: the key's owner connection-refuses every attempt,
// so each request pays the failed forward before computing locally (cache
// disabled so the local solve really runs). Probing is off, which keeps the
// dead peer permanently "up" — every iteration exercises the full
// route → refused → fallback path rather than a short-circuit.
func BenchmarkFleetFailover(b *testing.B) {
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	// The dead peer is the one candidate: one failed attempt per request.
	fc := fastFleet("live.bench:1", []string{deadAddr})
	s := New(Config{CacheEntries: -1, Logger: log.New(io.Discard, "", 0), Fleet: fc})
	b.Cleanup(s.Close)
	h := s.Handler()
	body := keyOwnedBy(b, s.Fleet(), deadAddr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := benchPost(b, h, "/v1/optimize", body); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
}
