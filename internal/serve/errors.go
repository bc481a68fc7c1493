package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"rlcint/internal/diag"
)

// statusClientClosed is the non-standard "client closed request" status
// (nginx's 499) used for solves abandoned because the client disconnected.
// The client never sees it; it exists for access logs and /metrics.
const statusClientClosed = 499

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Status  int             `json:"status"`
	Kind    string          `json:"kind"`
	Message string          `json:"message"`
	Report  []reportAttempt `json:"report,omitempty"`

	// RetryAfter, when positive, emits a Retry-After header (whole seconds,
	// rounded up) telling clients — and fleet peers, whose backoff honors it
	// — when this 503 is worth retrying. Unexported from the JSON body.
	RetryAfter time.Duration `json:"-"`
}

// reportAttempt is one serialized recovery-ladder rung of a diag.Report,
// attached to 422 bodies so clients see what the solver tried.
type reportAttempt struct {
	Ladder  string `json:"ladder"`
	Rung    string `json:"rung"`
	Outcome string `json:"outcome"`
	Detail  string `json:"detail,omitempty"`
	Error   string `json:"error,omitempty"`
}

// badRequest marks a decode/validation failure of the HTTP layer itself
// (malformed JSON, missing fields, absurd grids) — always a 400.
type badRequest struct{ msg string }

func (e *badRequest) Error() string { return e.msg }

func badRequestf(format string, args ...any) *badRequest {
	return &badRequest{msg: "serve: " + fmt.Sprintf(format, args...)}
}

// solveError carries the recovery-ladder report alongside a solver failure
// through the singleflight layer, so coalesced followers of a failed solve
// render the same 422 body as the leader.
type solveError struct {
	err    error
	report *diag.Report
}

func (e *solveError) Error() string { return e.err.Error() }
func (e *solveError) Unwrap() error { return e.err }

// mapError translates a failure into its documented HTTP status:
//
//	400 bad-request / domain    malformed request or ErrDomain input
//	422 non-convergence / singular-jacobian / timestep-collapse
//	                            the solver ran and typed-failed; the body
//	                            carries the serialized DiagReport
//	499 cancelled               client disconnected mid-solve
//	503 queue-full              admission control rejected the request
//	503 breaker-open            the region's circuit breaker short-circuited
//	                            the solve and degradation was opted out
//	504 deadline / budget       per-request deadline or compute budget hit
//	500 panic / internal        contained panic or unclassified failure
func mapError(err error) apiError {
	kindOf := func(status int, kind string) apiError {
		ae := apiError{Status: status, Kind: kind, Message: err.Error()}
		if status == http.StatusUnprocessableEntity {
			ae.Report = reportOf(err)
		}
		return ae
	}
	var br *badRequest
	switch {
	case errors.As(err, &br):
		return kindOf(http.StatusBadRequest, "bad-request")
	case errors.Is(err, errQueueFull):
		return kindOf(http.StatusServiceUnavailable, "queue-full")
	case errors.Is(err, errBreakerOpen):
		return kindOf(http.StatusServiceUnavailable, "breaker-open")
	case errors.Is(err, diag.ErrDomain):
		return kindOf(http.StatusBadRequest, "domain")
	case errors.Is(err, diag.ErrNonConvergence):
		return kindOf(http.StatusUnprocessableEntity, "non-convergence")
	case errors.Is(err, diag.ErrSingularJacobian):
		return kindOf(http.StatusUnprocessableEntity, "singular-jacobian")
	case errors.Is(err, diag.ErrTimestepCollapse):
		return kindOf(http.StatusUnprocessableEntity, "timestep-collapse")
	case errors.Is(err, diag.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return kindOf(http.StatusGatewayTimeout, "deadline")
	case errors.Is(err, diag.ErrBudget):
		return kindOf(http.StatusGatewayTimeout, "budget")
	case errors.Is(err, diag.ErrCancelled), errors.Is(err, context.Canceled):
		return kindOf(statusClientClosed, "cancelled")
	case errors.Is(err, diag.ErrPanic):
		return kindOf(http.StatusInternalServerError, "panic")
	default:
		return kindOf(http.StatusInternalServerError, "internal")
	}
}

// mapErrorWithRetry maps err like mapError and, for the load-shedding 503s,
// attaches a Retry-After hint derived from live server state: queue-full
// scales with how oversubscribed the solve slots are, breaker-open reports
// the region's remaining cooldown.
func (s *Server) mapErrorWithRetry(err error, region string) apiError {
	ae := mapError(err)
	switch ae.Kind {
	case "queue-full":
		ae.RetryAfter = s.queueRetryAfter()
	case "breaker-open":
		if d := s.breakers.retryAfter(region); d > 0 {
			ae.RetryAfter = d
		} else {
			ae.RetryAfter = time.Second
		}
	}
	return ae
}

// queueRetryAfter estimates when admission control will next have room: one
// second per full queue-depth's worth of waiters per slot, clamped to
// [1s, 30s].
func (s *Server) queueRetryAfter() time.Duration {
	capacity := s.limiter.capacity()
	if capacity <= 0 {
		capacity = 1
	}
	d := time.Duration(1+int(s.limiter.depth())/capacity) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// reportOf serializes the recovery-ladder report a failure carries (see
// solveError); nil when it carries none.
func reportOf(err error) []reportAttempt {
	var se *solveError
	if !errors.As(err, &se) || se.report == nil || len(se.report.Attempts) == 0 {
		return nil
	}
	out := make([]reportAttempt, 0, len(se.report.Attempts))
	for _, a := range se.report.Attempts {
		ra := reportAttempt{
			Ladder:  a.Ladder,
			Rung:    a.Rung,
			Outcome: string(a.Outcome),
			Detail:  a.Detail,
		}
		if a.Err != nil {
			ra.Error = a.Err.Error()
		}
		out = append(out, ra)
	}
	return out
}

// writeError renders the mapped failure as the standard JSON error envelope.
func writeError(w http.ResponseWriter, ae apiError) {
	w.Header().Set("Content-Type", "application/json")
	if ae.RetryAfter > 0 {
		secs := int((ae.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(ae.Status)
	_ = json.NewEncoder(w).Encode(struct {
		Error apiError `json:"error"`
	}{ae})
}
