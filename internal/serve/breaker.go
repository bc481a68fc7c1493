package serve

import (
	"expvar"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker machine.
type breakerState int

const (
	breakerClosed   breakerState = iota // full service
	breakerOpen                         // solves short-circuit to degraded mode
	breakerHalfOpen                     // one probe solve allowed through
)

func (st breakerState) String() string {
	switch st {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is one region's state. Guarded by the owning set's mutex.
type breaker struct {
	state      breakerState
	fails      int       // consecutive eligible failures while closed
	probing    bool      // a half-open probe is in flight
	probeGen   uint64    // token of the probe currently holding the slot
	probeStart time.Time // when that probe was granted, for the deadline backstop
	changed    time.Time
	cooldownAt time.Time // when the open state may half-open (jittered cooldown)
	opens      int64     // cumulative open transitions
	shorted    int64     // requests short-circuited while open / probing
	lastFail   string
}

// maxBreakerRegions bounds the region map. The quantization is coarse
// enough that real traffic stays far below this; if an adversarial key
// stream fills it, unseen regions run untracked (full service) rather than
// growing memory without bound.
const maxBreakerRegions = 4096

// breakerSet keys circuit breakers by a coarse quantization of the request
// region (endpoint × technology × half-decade of inductance). After
// threshold consecutive eligible solver failures a region's breaker opens:
// requests skip the expensive recovery ladder and go straight to degraded
// mode. After cooldown one probe request is allowed through; its success
// closes the breaker, its failure re-opens it, and an inconclusive probe
// (cancelled client) re-arms the half-open state for the next caller.
//
// A nil *breakerSet (breakers disabled) allows everything and records
// nothing.
type breakerSet struct {
	threshold int
	cooldown  time.Duration
	counts    *expvar.Map // the server's store: breaker.open / half-open / close / short-circuit / probe-reclaim

	// Test hooks: nil → time.Now / rand.Float64. The fake clock and seeded
	// jitter let the thundering-herd regression test prove that regions
	// opened in lockstep do not half-open in lockstep.
	now  func() time.Time
	frac func() float64

	mu sync.Mutex
	m  map[string]*breaker
}

func newBreakerSet(threshold int, cooldown time.Duration, counts *expvar.Map) *breakerSet {
	if threshold <= 0 {
		return nil
	}
	return &breakerSet{
		threshold: threshold,
		cooldown:  cooldown,
		counts:    counts,
		m:         make(map[string]*breaker),
	}
}

func (b *breakerSet) nowt() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

// jitteredCooldown spreads the open→half-open delay over [1.0, 1.2]× the
// configured cooldown, per open transition. A fleet of instances (or one
// instance's regions) that all tripped at the same instant then probe
// staggered instead of re-hammering a struggling backend in lockstep.
func (b *breakerSet) jitteredCooldown() time.Duration {
	f := rand.Float64
	if b.frac != nil {
		f = b.frac
	}
	return time.Duration(float64(b.cooldown) * (1 + 0.2*f()))
}

// regionOf quantizes a request onto its breaker region. Inductance is
// bucketed by half-decades: pathological configurations cluster by order of
// magnitude, and the coarse key keeps the region map small while still
// isolating a bad neighbourhood from the rest of the space.
func regionOf(endpoint, tech string, l float64) string {
	var lb string
	switch {
	case l == 0:
		lb = "0"
	case l < 0 || math.IsNaN(l) || math.IsInf(l, 0):
		lb = "invalid" // rejected upstream; keep the key total anyway
	default:
		lb = strconv.FormatFloat(math.Floor(math.Log10(l)*2)/2, 'g', -1, 64)
	}
	return endpoint + "|" + tech + "|l^" + lb
}

// allow reports whether a request in region may attempt the full solve.
// While a region is open (cooling down) or a probe is already in flight,
// allow denies and the caller answers degraded. A non-zero probe token
// means this caller holds the region's half-open probe slot; the caller
// must guarantee the probe resolves — onResult runs for its computation,
// or probeAbort is called with the token — on every terminal outcome.
//
// The slot also carries a deadline backstop: if a probe has been out for a
// full cooldown without resolving (a guarantee bug, or a wedged solve),
// the next caller reclaims it instead of the region staying degraded
// forever.
func (b *breakerSet) allow(region string) (ok bool, probe uint64) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.nowt()
	br := b.m[region]
	if br == nil {
		if len(b.m) >= maxBreakerRegions {
			return true, 0 // full: run untracked rather than grow without bound
		}
		b.m[region] = &breaker{changed: now}
		return true, 0
	}
	switch br.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		if now.Before(br.cooldownAt) {
			br.shorted++
			b.counts.Add("breaker.short-circuit", 1)
			return false, 0
		}
		br.state = breakerHalfOpen
		br.changed = now
		b.counts.Add("breaker.half-open", 1)
		return true, br.grantProbe(now)
	default: // half-open
		if br.probing {
			if now.Sub(br.probeStart) < b.cooldown {
				br.shorted++
				b.counts.Add("breaker.short-circuit", 1)
				return false, 0
			}
			// The outstanding probe never resolved within a full cooldown:
			// reclaim the slot so the region cannot wedge in degraded mode.
			b.counts.Add("breaker.probe-reclaim", 1)
		}
		return true, br.grantProbe(now)
	}
}

// grantProbe hands the half-open probe slot to the caller under a fresh
// token. Caller holds the set's mutex.
func (br *breaker) grantProbe(now time.Time) uint64 {
	br.probing = true
	br.probeGen++
	br.probeStart = now
	return br.probeGen
}

// retryAfter estimates when a short-circuited region will next admit a
// request: the remaining (jittered) cooldown of an open breaker, or the
// probe backstop window while a half-open probe is out. Zero when the
// region is closed, untracked, or breakers are disabled.
func (b *breakerSet) retryAfter(region string) time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.m[region]
	if br == nil {
		return 0
	}
	now := b.nowt()
	switch br.state {
	case breakerOpen:
		if d := br.cooldownAt.Sub(now); d > 0 {
			return d
		}
		return time.Second // cooldown elapsed: the next caller probes
	case breakerHalfOpen:
		if br.probing {
			if d := br.probeStart.Add(b.cooldown).Sub(now); d > 0 {
				return d
			}
		}
		return time.Second
	}
	return 0
}

// probeAbort releases a probe slot whose computation never reached
// onResult — the request coalesced onto a flight that had already recorded
// its result, so nothing else will resolve this probe. The token keeps a
// late abort from releasing a slot that has since been resolved and
// re-granted to another caller.
func (b *breakerSet) probeAbort(region string, probe uint64) {
	if b == nil || probe == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.m[region]
	if br != nil && br.state == breakerHalfOpen && br.probing && br.probeGen == probe {
		br.probing = false
	}
}

// onResult folds one completed solve into the region's state machine. ok
// marks a successful solve; eligible marks a failure kind that counts
// toward opening (solver non-convergence, timestep collapse, deadline — not
// client cancellations or admission rejects). Results are recorded once per
// computation (by the flight leader), so a coalesced burst counts as one
// attempt.
func (b *breakerSet) onResult(region string, ok, eligible bool, cause string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.m[region]
	if br == nil {
		return
	}
	now := b.nowt()
	switch br.state {
	case breakerClosed:
		if ok {
			br.fails = 0
		} else if eligible {
			br.fails++
			br.lastFail = cause
			if br.fails >= b.threshold {
				br.state = breakerOpen
				br.changed = now
				br.cooldownAt = now.Add(b.jitteredCooldown())
				br.opens++
				b.counts.Add("breaker.open", 1)
			}
		}
	case breakerHalfOpen:
		switch {
		case ok:
			br.state = breakerClosed
			br.fails = 0
			br.probing = false
			br.changed = now
			b.counts.Add("breaker.close", 1)
		case eligible:
			br.state = breakerOpen
			br.probing = false
			br.changed = now
			br.cooldownAt = now.Add(b.jitteredCooldown())
			br.opens++
			br.lastFail = cause
			b.counts.Add("breaker.open", 1)
		default:
			// Inconclusive probe (cancelled mid-flight): re-arm so the next
			// caller probes instead of wedging half-open forever.
			br.probing = false
		}
	case breakerOpen:
		// A flight that started before the breaker opened finished late;
		// the cooldown clock is already running, nothing to fold in.
	}
}

// breakerStatus is one region's externally visible state, for /statusz.
type breakerStatus struct {
	Region        string  `json:"region"`
	State         string  `json:"state"`
	Failures      int     `json:"failures"`
	Opens         int64   `json:"opens"`
	ShortCircuits int64   `json:"short_circuits"`
	SinceChangeS  float64 `json:"since_change_s"`
	LastFailure   string  `json:"last_failure,omitempty"`
}

// statuses snapshots every tracked region, sorted, tripped regions first.
func (b *breakerSet) statuses() []breakerStatus {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	now := b.nowt()
	out := make([]breakerStatus, 0, len(b.m))
	for region, br := range b.m {
		out = append(out, breakerStatus{
			Region:        region,
			State:         br.state.String(),
			Failures:      br.fails,
			Opens:         br.opens,
			ShortCircuits: br.shorted,
			SinceChangeS:  now.Sub(br.changed).Seconds(),
			LastFailure:   br.lastFail,
		})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if (out[i].State == "closed") != (out[j].State == "closed") {
			return out[i].State != "closed"
		}
		return out[i].Region < out[j].Region
	})
	return out
}
