package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"rlcint/internal/diag"
)

// maxRelayBytes bounds a relayed peer response body. Unary answers are a few
// hundred bytes; anything near this limit is a protocol violation, treated
// as a failed attempt.
const maxRelayBytes = 8 << 20

// ErrNoCandidates reports that no routable peer survived health and breaker
// filtering — the caller computes locally.
var ErrNoCandidates = errors.New("fleet: no routable peer candidates")

// PeerResponse is a relayable answer from a peer: an authoritative HTTP
// response (2xx, or a deterministic 4xx that would be the same everywhere).
type PeerResponse struct {
	Status      int
	ContentType string
	Degraded    string // the peer's X-Degraded header, if any
	Body        []byte
	Peer        string // address that answered
}

// peerError is one failed attempt: transport errors carry status 0,
// retryable HTTP failures carry the peer's status and any Retry-After.
type peerError struct {
	addr       string
	status     int
	retryAfter time.Duration
	err        error
}

func (e *peerError) Error() string {
	if e.status != 0 {
		return fmt.Sprintf("fleet: peer %s answered %d", e.addr, e.status)
	}
	return fmt.Sprintf("fleet: peer %s: %v", e.addr, e.err)
}

func (e *peerError) Unwrap() error { return e.err }

// attempt performs one forwarded request to one peer. It returns a
// PeerResponse only for authoritative statuses (2xx/4xx); transport errors
// and 5xx come back as *peerError so the caller retries the next candidate.
func (f *Fleet) attempt(ctx context.Context, addr, path string, body []byte, hops, attemptIdx int) (*PeerResponse, error) {
	// The chaos hook: rlcd -fault-op fleet.transport -fault-every N makes
	// every Nth peer attempt fail as if the wire dropped it.
	if err := f.cfg.Injector.At(diag.Site{Op: "fleet.transport", Step: attemptIdx, Iteration: hops}); err != nil {
		return nil, &peerError{addr: addr, err: err}
	}
	actx, cancel := context.WithTimeout(ctx, f.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, &peerError{addr: addr, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HopsHeader, strconv.Itoa(hops))
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, &peerError{addr: addr, err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes+1))
	if err != nil {
		return nil, &peerError{addr: addr, err: fmt.Errorf("read response: %w", err)}
	}
	if len(b) > maxRelayBytes {
		return nil, &peerError{addr: addr, err: fmt.Errorf("response exceeds %d bytes", maxRelayBytes)}
	}
	if resp.StatusCode >= 500 {
		// The peer is up but failing or shedding load (503 queue-full /
		// breaker-open): retryable on the next replica, honoring Retry-After.
		return nil, &peerError{
			addr:       addr,
			status:     resp.StatusCode,
			retryAfter: parseRetryAfter(resp.Header),
			err:        fmt.Errorf("peer status %d", resp.StatusCode),
		}
	}
	return &PeerResponse{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Degraded:    resp.Header.Get("X-Degraded"),
		Body:        b,
		Peer:        addr,
	}, nil
}

// parseRetryAfter reads a delay-seconds Retry-After header (the only form
// rlcd emits); absent or malformed → 0.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// backoff computes the pre-retry delay: capped exponential with full ±50%
// jitter, stretched (within reason) to honor a Retry-After from the failed
// attempt.
func (f *Fleet) backoff(retry int, cause error) time.Duration {
	base := backoffBase << uint(retry)
	if base > backoffMax || base <= 0 {
		base = backoffMax
	}
	d := time.Duration(float64(base) * (0.5 + rand.Float64()))
	var pe *peerError
	if errors.As(cause, &pe) && pe.retryAfter > d {
		honor := pe.retryAfter
		if lim := 4 * backoffMax; honor > lim {
			honor = lim
		}
		if honor > d {
			d = honor
			f.counts.Add("retry_after_honored", 1)
		}
	}
	return d
}

// recordOutcome reports one finished attempt to the breaker gate and to
// passive health detection. Cancelled attempts (a hedge lost the race, or
// the caller gave up) must not count against the peer.
func (f *Fleet) recordOutcome(addr string, err error) {
	cause := ""
	if err != nil {
		var pe *peerError
		switch {
		case errors.Is(err, context.Canceled):
			cause = "cancelled"
		case errors.As(err, &pe) && pe.status != 0:
			cause = "peer-" + strconv.Itoa(pe.status)
			f.counts.Add("peer_5xx", 1)
		default:
			cause = "transport"
			f.counts.Add("transport_errors", 1)
			// A transport-level failure is as good as a failed probe: fold it
			// into the hysteresis so a dead peer is ejected before the prober
			// gets around to noticing.
			f.notePeer(addr, false, fmt.Sprintf("forward: %v", err))
		}
	}
	if f.cfg.Gate != nil {
		f.cfg.Gate.Result(addr, err == nil, cause)
	}
}

// Forward sends body to the candidate peers in failover order and returns
// the first authoritative answer. Per attempt: breaker-gate check, timeout,
// outcome recording. Between attempts: capped exponential backoff with
// jitter (honoring Retry-After). Concurrent with a slow attempt: one hedge
// to the next candidate after HedgeAfter, first answer wins, losers are
// cancelled. The whole call is bounded by forwardBudget and the caller's
// ctx; every failure mode returns an error so the caller can compute
// locally.
func (f *Fleet) Forward(ctx context.Context, cands []string, path string, body []byte, hops int) (*PeerResponse, error) {
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}
	fctx, cancel := context.WithTimeout(ctx, forwardBudget)
	defer cancel()

	max := min(maxAttempts, len(cands))
	type res struct {
		pr     *PeerResponse
		err    error
		addr   string
		hedged bool
	}
	ch := make(chan res, max)
	next, inflight := 0, 0

	// launch starts the next candidate attempt, skipping peers whose
	// breaker is open. hedged marks attempts started by the hedge timer.
	launch := func(hedged bool) {
		for next < max {
			addr := cands[next]
			idx := next
			next++
			if f.cfg.Gate != nil && !f.cfg.Gate.Allow(addr) {
				f.counts.Add("breaker_skips", 1)
				continue
			}
			inflight++
			f.counts.Add("attempts", 1)
			if idx > 0 && !hedged {
				f.counts.Add("retries", 1)
			}
			go func() {
				pr, err := f.attempt(fctx, addr, path, body, hops, idx)
				f.recordOutcome(addr, err)
				ch <- res{pr: pr, err: err, addr: addr, hedged: hedged}
			}()
			return
		}
	}

	var hedgeT, retryT *time.Timer
	defer func() {
		if hedgeT != nil {
			hedgeT.Stop()
		}
		if retryT != nil {
			retryT.Stop()
		}
	}()
	var hedgeC, retryC <-chan time.Time
	armHedge := func() {
		hedgeC = nil
		if f.cfg.HedgeAfter > 0 && next < max {
			if hedgeT == nil {
				hedgeT = time.NewTimer(f.cfg.HedgeAfter)
			} else {
				hedgeT.Reset(f.cfg.HedgeAfter)
			}
			hedgeC = hedgeT.C
		}
	}

	launch(false)
	if inflight == 0 {
		return nil, ErrNoCandidates // every candidate breaker-skipped
	}
	armHedge()

	retry := 0
	var lastErr error
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				if r.hedged {
					f.counts.Add("hedge_wins", 1)
				}
				return r.pr, nil
			}
			lastErr = r.err
			if inflight == 0 && next >= max {
				return nil, lastErr
			}
			if inflight == 0 && retryC == nil && next < max {
				retryT = time.NewTimer(f.backoff(retry, r.err))
				retryC = retryT.C
				retry++
			}
		case <-hedgeC:
			hedgeC = nil
			before := inflight
			f.counts.Add("hedges", 1)
			launch(true)
			if inflight == before {
				f.counts.Add("hedges", -1) // every remaining candidate was breaker-skipped
				if inflight == 0 {
					return nil, firstErr(lastErr)
				}
			} else {
				armHedge()
			}
		case <-retryC:
			retryC = nil
			launch(false)
			if inflight == 0 {
				return nil, firstErr(lastErr)
			}
			armHedge()
		case <-fctx.Done():
			return nil, fctx.Err()
		}
	}
}

func firstErr(err error) error {
	if err == nil {
		return ErrNoCandidates
	}
	return err
}
