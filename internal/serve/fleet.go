package serve

import (
	"encoding/json"
	"net/http"

	"rlcint/internal/fleet"
)

// peerRegion keys a fleet peer into the server's breaker set. Peer regions
// live in the same map as solver regions but can never collide with them:
// solver regions are "endpoint|tech|l^bucket" and endpoints never contain
// a '|'-free "peer" prefix with an address.
func peerRegion(addr string) string { return "peer|" + addr }

// peerGate adapts the server's circuit-breaker set to the fleet's PeerGate:
// forwarding outcomes feed the same three-state machinery that guards solver
// regions, so a peer that keeps failing is skipped from candidate sets until
// its cooldown probe succeeds.
type peerGate struct{ s *Server }

func (g *peerGate) Allow(addr string) bool {
	// The probe token is deliberately discarded: onResult resolves half-open
	// probing state for peer regions regardless of token, and every Allow here
	// is immediately followed by an attempt whose outcome is recorded.
	ok, _ := g.s.breakers.allow(peerRegion(addr))
	return ok
}

func (g *peerGate) Result(addr string, ok bool, cause string) {
	// Cancelled attempts (hedge losers, callers giving up) resolve the probe
	// slot but never count toward opening.
	eligible := !ok && cause != "cancelled"
	g.s.breakers.onResult(peerRegion(addr), ok, eligible, cause)
}

// tryForward routes a cache-missed unary request to the ring owner of its
// key. It reports true when it fully answered the request with a relayed
// peer response. Every failure mode — not in fleet mode, this instance owns
// the key, hop cap reached, no healthy candidates, forward budget exhausted
// — returns false and the caller computes locally: topology can cost a
// forward, never an answer.
func (s *Server) tryForward(w http.ResponseWriter, r *http.Request, path string, q request, key string) bool {
	if s.fleet == nil {
		return false
	}
	hops := fleet.HopsFrom(r.Header)
	if hops >= fleet.MaxHops {
		// A forwarding loop (transient ring disagreement during a topology
		// change) is contained here: the hop-capped instance answers locally.
		s.metrics.counts.Add("fleet.hop-capped", 1)
		return false
	}
	cands := s.fleet.Route(key)
	if len(cands) == 0 {
		return false // we own the key, or every candidate is down
	}
	body, err := json.Marshal(q)
	if err != nil {
		return false
	}
	pr, err := s.fleet.Forward(r.Context(), cands, path, body, hops+1)
	if err != nil {
		s.metrics.counts.Add("fleet.fallback-local", 1)
		s.cfg.Logger.Printf("fleet: forward %s failed, computing locally: %v", path, err)
		return false
	}
	s.metrics.counts.Add("fleet.forwarded", 1)
	if pr.ContentType != "" {
		w.Header().Set("Content-Type", pr.ContentType)
	}
	w.Header().Set("X-Cache", "forwarded")
	w.Header().Set("X-Fleet-Peer", pr.Peer)
	if pr.Degraded != "" {
		w.Header().Set("X-Degraded", pr.Degraded)
	}
	w.WriteHeader(pr.Status)
	_, _ = w.Write(pr.Body)
	return true
}

// Fleet exposes the server's fleet (nil when not in fleet mode) for tests
// and for rlcd's SIGHUP peers-file reload.
func (s *Server) Fleet() *fleet.Fleet { return s.fleet }
