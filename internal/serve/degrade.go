package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"rlcint/internal/diag"
)

// errBreakerOpen short-circuits a request whose region's circuit breaker is
// open (or whose half-open probe slot is taken): the expensive ladder is
// skipped entirely. With degradation enabled the client still gets an
// estimate; with it disabled this maps to 503 breaker-open.
var errBreakerOpen = errors.New("serve: circuit breaker open for this request region")

// degradable reports whether a solve failure may be answered with the
// closed-form estimate: the solver ran and typed-failed, or ran out of
// time/budget, or panicked — the cases where a bounded-accuracy answer
// beats no answer. Bad input (domain), client disconnects, and admission
// rejects are never degraded: the first is the caller's bug, the second has
// no reader, and the third must shed load, not add work.
func degradable(err error) bool {
	switch {
	case errors.Is(err, errBreakerOpen),
		errors.Is(err, diag.ErrNonConvergence),
		errors.Is(err, diag.ErrSingularJacobian),
		errors.Is(err, diag.ErrTimestepCollapse),
		errors.Is(err, diag.ErrDeadline),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, diag.ErrBudget),
		errors.Is(err, diag.ErrPanic):
		return true
	}
	return false
}

// breakerEligible marks the failure kinds that count toward opening a
// region's breaker — exactly the degradable solver failures, minus the
// breaker's own short-circuit sentinel.
func breakerEligible(err error) bool {
	return err != nil && !errors.Is(err, errBreakerOpen) && degradable(err)
}

// degradedResp is the envelope of a degraded-mode answer: an explicit flag
// no client can miss, the failure kind that triggered the fallback, the
// closed-form estimate, and — when a solve actually ran — the serialized
// recovery-ladder report showing what was tried.
type degradedResp struct {
	Degraded bool            `json:"degraded"` // always true
	Reason   string          `json:"reason"`
	Estimate any             `json:"estimate"`
	Report   []reportAttempt `json:"report,omitempty"`
}

// serveResilient is the unary pipeline: cache lookup → fleet forward →
// breaker gate → fill → marshal, with failures degraded to the closed-form
// estimate whenever one exists and the client did not opt out.
func (s *Server) serveResilient(w http.ResponseWriter, r *http.Request, rt route, q request, spec reply) {
	if e, ok := s.cacheGet(spec.key); ok {
		writeCachedBody(w, e, "hit")
		return
	}
	// A local miss in fleet mode first tries the key's ring owner, whose
	// cache is warm for this key no matter which instance the client hit.
	// Any forwarding failure falls through to the local pipeline below.
	if rt.forward && s.tryForward(w, r, rt.path, q, spec.key) {
		return
	}
	var probe uint64
	if spec.region != "" {
		ok, p := s.breakers.allow(spec.region)
		if !ok {
			s.degradeOrError(w, errBreakerOpen, spec)
			return
		}
		probe = p
	}
	e, src, err := s.fill(r.Context(), spec.key, spec.region, "application/json", s.timeoutFor(spec.timeoutMS),
		func(ctx context.Context) ([]byte, error) {
			v, err := spec.compute(ctx)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(v)
			return append(body, '\n'), err
		})
	if probe != 0 && src == "coalesced" {
		// This request held the probe slot but joined an existing flight, so
		// its own closure never ran. The leader's record belongs to its own
		// computation (and may predate the probe grant); release the slot so
		// the next caller can probe instead of the region wedging degraded.
		s.breakers.probeAbort(spec.region, probe)
	}
	if err != nil {
		s.degradeOrError(w, err, spec)
		return
	}
	writeCachedBody(w, e, src)
}

// degradeOrError answers a failed (or short-circuited) solve: with the
// closed-form estimate when degradation applies, else with the mapped
// error. Degraded answers are 200s flagged in both the body
// ("degraded": true) and an X-Degraded header carrying the failure kind;
// they are never cached, so a later healthy solve can still fill the cache
// with the exact answer.
func (s *Server) degradeOrError(w http.ResponseWriter, cause error, spec reply) {
	ae := s.mapErrorWithRetry(cause, spec.region)
	if spec.estimate != nil && !spec.noDegraded && !s.cfg.DisableDegraded && degradable(cause) {
		if est, eerr := spec.estimate(); eerr == nil {
			s.metrics.counts.Add("degraded."+ae.Kind, 1)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Degraded", ae.Kind)
			_ = json.NewEncoder(w).Encode(degradedResp{
				Degraded: true,
				Reason:   ae.Kind,
				Estimate: est,
				Report:   reportOf(cause),
			})
			return
		}
		// The estimate itself failed (ill-posed problem): fall through to
		// the original error, which carries the real diagnosis.
	}
	writeError(w, ae)
}
