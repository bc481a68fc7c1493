// Package fleet makes a set of rlcd daemons act as one service: a
// consistent-hash ring over peer instances routes each canonical cache key
// to one owner shard, so identical design queries land on a warm process no
// matter which instance the client hit.
//
// The package is built for partial failure, in layers:
//
//   - Health-checked membership: every peer is probed periodically
//     (readiness, not liveness, so a replaying or draining instance is not
//     routed to), with rise/fall hysteresis before a peer is ejected from or
//     re-admitted to the candidate sets. Ring ownership is computed from the
//     configured membership, not from health — a down owner's keys fail over
//     to its replicas without remapping everyone else's keys.
//   - A defensive peer client: per-attempt timeouts, capped exponential
//     backoff with jitter between retries, Retry-After honored when a peer
//     sheds load, bounded attempts walking the key's replica list, and
//     optional tail-latency hedging (a second request to the next replica
//     after HedgeAfter; first answer wins, the loser is cancelled).
//   - Loop containment: every forwarded request carries an X-Fleet-Hops
//     header; the serving layer stops forwarding at MaxHops and computes
//     locally, so topology skew during membership changes can never orbit a
//     request around the ring.
//
// The fleet never fails a request on its own: when the owner and every
// replica are down, unreachable, or breaker-ejected, Forward returns an
// error and the caller computes locally (and may still answer with a
// degraded estimate) — fleet topology is an optimization, never a new way
// to fail hard.
package fleet

import (
	"expvar"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"rlcint/internal/diag"
)

// HopsHeader carries the forwarding depth of a fleet-internal request. A
// request from an outside client has no header (0 hops); each forward
// increments it, and the serving layer refuses to forward at MaxHops.
const HopsHeader = "X-Fleet-Hops"

// HopsFrom parses the forwarding depth from a request's headers (absent or
// malformed → 0).
func HopsFrom(h http.Header) int {
	v := h.Get(HopsHeader)
	if v == "" {
		return 0
	}
	n := 0
	for _, c := range v {
		if c < '0' || c > '9' || n > 1<<20 {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// PeerGate lets the serving layer veto and observe peer attempts — in rlcd
// it adapts the per-region circuit-breaker set, so a flapping peer opens a
// peer-breaker and drops out of the candidate sets until its cooldown.
// Allow is consulted immediately before an attempt; Result is reported for
// every attempt that Allow admitted (ok, or !ok with the failure cause —
// "cancelled" marks an attempt abandoned because another attempt already
// won, which must not count against the peer).
type PeerGate interface {
	Allow(addr string) bool
	Result(addr string, ok bool, cause string)
}

// The fleet's fixed tuning, sized for a handful of members on one network.
const (
	// replicas is how many ring successors after the owner are tried.
	replicas = 2
	// probeTimeout bounds one readiness probe.
	probeTimeout = 500 * time.Millisecond
	// rise consecutive successful probes (re-)admit a peer; fall
	// consecutive failures eject one.
	rise, fall = 2, 2
	// maxAttempts bounds peer attempts per request, hedges included.
	maxAttempts = 3
	// backoffBase/backoffMax shape the capped exponential backoff between
	// retries; a peer's Retry-After is honored up to 4×backoffMax.
	backoffBase = 25 * time.Millisecond
	backoffMax  = 500 * time.Millisecond
	// forwardBudget bounds one request's total time in the fleet client,
	// attempts and backoffs included; exhausting it falls back to local
	// compute.
	forwardBudget = 2500 * time.Millisecond
)

// MaxHops caps forwarding depth: at the cap an instance computes locally
// instead of forwarding.
const MaxHops = 3

// Config describes one instance's view of the fleet. The zero value of any
// field selects the default noted on it.
type Config struct {
	// Self is this instance's advertised host:port — the spelling its peers
	// use for it. Required; ring ownership is only consistent when every
	// member lists every address identically.
	Self string
	// Peers are the other members' host:port addresses. Self is filtered
	// out, so the full membership list can be deployed identically to every
	// instance.
	Peers []string
	// PeersFile, when non-empty, names a file with one peer address per line
	// ('#' comments and blank lines ignored). Loaded at New and reloaded by
	// ReloadPeers (rlcd wires that to SIGHUP). Mutually exclusive with Peers.
	PeersFile string
	// ProbeInterval is the health-probe cadence (0 → 1s; <0 disables
	// probing entirely and treats every peer as permanently up — for tests
	// and benchmarks, not production).
	ProbeInterval time.Duration
	// AttemptTimeout bounds one forwarded request attempt (0 → 1s).
	AttemptTimeout time.Duration
	// HedgeAfter, when positive, launches a hedge request to the next
	// candidate if the current attempt has not answered within it. First
	// response wins; the loser is cancelled.
	HedgeAfter time.Duration
	// Transport overrides the peer HTTP transport (nil → a pooled default).
	Transport http.RoundTripper
	// Gate, when non-nil, is consulted before and after every peer attempt
	// (see PeerGate).
	Gate PeerGate
	// Injector injects transport faults at Site{Op: "fleet.transport"} for
	// chaos testing (Step = attempt index, Iteration = hop count). Nil in
	// production.
	Injector *diag.Injector
	// Logger receives membership and health transitions (nil → stderr).
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	}
	return c
}

// peerState is one peer's health-tracking record, guarded by Fleet.mu.
type peerState struct {
	up         bool
	consecOK   int
	consecFail int
	lastErr    string
	changed    time.Time
}

// Fleet is one instance's live view of the peer ring: membership, health,
// and the forwarding client. Create with New, stop with Close.
type Fleet struct {
	cfg    Config
	log    *log.Logger
	client *http.Client

	mu    sync.Mutex
	ring  *ring
	peers map[string]*peerState // keyed by address, Self excluded

	// counts holds the fleet's event counters, each seeded at zero so
	// /metrics shows the full set before the first event.
	counts *expvar.Map
	stop   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// New builds a Fleet from cfg and starts its health-probe loop (unless
// probing is disabled). cfg.Self must be non-empty; peers come from
// cfg.Peers or cfg.PeersFile.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("fleet: Self must be set")
	}
	if len(cfg.Peers) > 0 && cfg.PeersFile != "" {
		return nil, fmt.Errorf("fleet: Peers and PeersFile are mutually exclusive")
	}
	tr := cfg.Transport
	if tr == nil {
		tr = &http.Transport{
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
			DialContext: (&net.Dialer{
				Timeout:   cfg.AttemptTimeout,
				KeepAlive: 30 * time.Second,
			}).DialContext,
		}
	}
	f := &Fleet{
		cfg: cfg,
		log: cfg.Logger,
		// No Client.Timeout: per-attempt contexts own all deadlines.
		client: &http.Client{Transport: tr},
		peers:  make(map[string]*peerState),
		counts: new(expvar.Map).Init(),
		stop:   make(chan struct{}),
	}
	for _, k := range []string{"attempts", "retries", "hedges", "hedge_wins", "transport_errors", "peer_5xx",
		"breaker_skips", "retry_after_honored", "probes", "probe_failures", "ejected", "readmitted"} {
		f.counts.Add(k, 0)
	}
	peers := cfg.Peers
	if cfg.PeersFile != "" {
		var err error
		peers, err = readPeersFile(cfg.PeersFile)
		if err != nil {
			return nil, err
		}
	}
	f.SetPeers(peers)
	if cfg.ProbeInterval > 0 {
		f.wg.Add(1)
		go f.probeLoop()
	}
	return f, nil
}

// Close stops the probe loop. Nil-safe, so the serving layer can call it
// unconditionally.
func (f *Fleet) Close() {
	if f == nil {
		return
	}
	f.once.Do(func() { close(f.stop) })
	f.wg.Wait()
}

// Self returns this instance's advertised address.
func (f *Fleet) Self() string { return f.cfg.Self }

// SetPeers replaces the fleet membership (Self is filtered out and the ring
// always includes Self). Health state carries over for retained peers; new
// peers start down until the prober admits them — or up when probing is
// disabled. Safe for concurrent use with Route/Forward.
func (f *Fleet) SetPeers(peers []string) {
	members := make([]string, 0, len(peers)+1)
	members = append(members, f.cfg.Self)
	for _, p := range peers {
		p = strings.TrimSpace(p)
		if p != "" && p != f.cfg.Self {
			members = append(members, p)
		}
	}
	r := buildRing(members)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ring = r
	next := make(map[string]*peerState, len(r.nodes))
	for _, n := range r.nodes {
		if n == f.cfg.Self {
			continue
		}
		if st, ok := f.peers[n]; ok {
			next[n] = st
			continue
		}
		next[n] = &peerState{up: f.cfg.ProbeInterval < 0, changed: time.Now()}
	}
	f.peers = next
}

// ReloadPeers re-reads PeersFile and applies the new membership — the
// SIGHUP path. A read error keeps the current membership.
func (f *Fleet) ReloadPeers() error {
	if f.cfg.PeersFile == "" {
		return fmt.Errorf("fleet: no peers file configured")
	}
	peers, err := readPeersFile(f.cfg.PeersFile)
	if err != nil {
		f.log.Printf("fleet: peers reload failed, keeping current membership: %v", err)
		return err
	}
	f.SetPeers(peers)
	f.log.Printf("fleet: peers reloaded from %s: %v", f.cfg.PeersFile, peers)
	return nil
}

func readPeersFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: peers file: %w", err)
	}
	var peers []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line != "" {
			peers = append(peers, line)
		}
	}
	return peers, nil
}

// Owner returns key's home shard address (possibly Self).
func (f *Fleet) Owner(key string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.owner(key)
}

// Route returns the peers to forward key to, in failover order (owner
// first, then ring replicas), filtered to peers currently up. nil means
// serve locally: this instance owns the key, or no routable peer exists.
// Breaker gating happens per attempt inside Forward, not here, so a granted
// half-open probe slot is always followed by the attempt that resolves it.
func (f *Fleet) Route(key string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	cands := f.ring.candidates(key, 1+replicas)
	if len(cands) == 0 || cands[0] == f.cfg.Self {
		return nil
	}
	out := make([]string, 0, len(cands))
	for _, a := range cands {
		if a == f.cfg.Self {
			continue
		}
		if st := f.peers[a]; st != nil && st.up {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// PeerStatus is one peer's externally visible health, for /statusz.
type PeerStatus struct {
	Addr         string  `json:"addr"`
	Up           bool    `json:"up"`
	ConsecOK     int     `json:"consec_ok"`
	ConsecFail   int     `json:"consec_fail"`
	LastError    string  `json:"last_error,omitempty"`
	SinceChangeS float64 `json:"since_change_s"`
}

// Status snapshots the fleet view for /statusz: membership, per-peer
// health (down peers first), and the routing configuration.
type Status struct {
	Self       string       `json:"self"`
	Members    int          `json:"members"`
	Replicas   int          `json:"replicas"`
	MaxHops    int          `json:"max_hops"`
	HedgeAfter string       `json:"hedge_after"`
	Peers      []PeerStatus `json:"peers"`
}

func (f *Fleet) Status() Status {
	if f == nil {
		return Status{}
	}
	f.mu.Lock()
	st := Status{
		Self:       f.cfg.Self,
		Members:    len(f.ring.nodes),
		Replicas:   replicas,
		MaxHops:    MaxHops,
		HedgeAfter: f.cfg.HedgeAfter.String(),
		Peers:      make([]PeerStatus, 0, len(f.peers)),
	}
	for addr, p := range f.peers {
		st.Peers = append(st.Peers, PeerStatus{
			Addr:         addr,
			Up:           p.up,
			ConsecOK:     p.consecOK,
			ConsecFail:   p.consecFail,
			LastError:    p.lastErr,
			SinceChangeS: time.Since(p.changed).Seconds(),
		})
	}
	f.mu.Unlock()
	sort.Slice(st.Peers, func(i, j int) bool {
		if st.Peers[i].Up != st.Peers[j].Up {
			return !st.Peers[i].Up // down peers first: they are what an operator looks for
		}
		return st.Peers[i].Addr < st.Peers[j].Addr
	})
	return st
}

// Counters returns the fleet's event counters for the serving layer's
// /metrics and /statusz pages.
func (f *Fleet) Counters() *expvar.Map { return f.counts }
