package diag

import (
	"fmt"
	"strings"
)

// Outcome classifies one rung attempt of a recovery ladder.
type Outcome string

const (
	// OutcomeOK marks a rung that converged.
	OutcomeOK Outcome = "ok"
	// OutcomeFailed marks a rung that was tried and did not converge.
	OutcomeFailed Outcome = "failed"
	// OutcomeSkipped marks a rung that was bypassed (e.g. a gmin level
	// skipped after restoring the last converged iterate).
	OutcomeSkipped Outcome = "skipped"
)

// Attempt records one rung of a recovery ladder.
type Attempt struct {
	Ladder  string // ladder name, e.g. "dc-gmin", "tran-step", "opt-newton"
	Rung    string // rung identity, e.g. "gmin=1e-05", "be-fallback"
	Outcome Outcome
	Detail  string // free-form context ("t=1.2e-9", "restored x from gmin=1e-3")
	Err     error  // failure cause for OutcomeFailed rungs
}

// maxAttempts bounds the attempts kept per report so a pathologically
// struggling run cannot grow a report without bound; further attempts are
// counted but dropped.
const maxAttempts = 1024

// Report collects the recovery-ladder attempts of one solver run. The zero
// value is ready to use, and all methods are nil-receiver safe so solvers
// can record unconditionally and callers opt in by passing a non-nil Report.
// A Report is not safe for concurrent use; give each run its own.
type Report struct {
	Attempts []Attempt
	Dropped  int // attempts beyond the retention cap
}

// Record appends one ladder attempt. It is a no-op on a nil Report.
func (r *Report) Record(ladder, rung string, outcome Outcome, detail string, err error) {
	if r == nil {
		return
	}
	if len(r.Attempts) >= maxAttempts {
		r.Dropped++
		return
	}
	r.Attempts = append(r.Attempts, Attempt{
		Ladder: ladder, Rung: rung, Outcome: outcome, Detail: detail, Err: err,
	})
}

// Tried returns how many attempts were recorded for the named ladder.
func (r *Report) Tried(ladder string) int {
	if r == nil {
		return 0
	}
	n := 0
	for _, a := range r.Attempts {
		if a.Ladder == ladder {
			n++
		}
	}
	return n
}

// Last returns the most recent attempt for the named ladder and whether one
// exists.
func (r *Report) Last(ladder string) (Attempt, bool) {
	if r == nil {
		return Attempt{}, false
	}
	for i := len(r.Attempts) - 1; i >= 0; i-- {
		if r.Attempts[i].Ladder == ladder {
			return r.Attempts[i], true
		}
	}
	return Attempt{}, false
}

// Summary renders one line per attempt ("" for an empty or nil report).
func (r *Report) Summary() string {
	if r == nil || len(r.Attempts) == 0 {
		return ""
	}
	var b strings.Builder
	for i, a := range r.Attempts {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s %s: %s", a.Ladder, a.Rung, a.Outcome)
		if a.Detail != "" {
			fmt.Fprintf(&b, " (%s)", a.Detail)
		}
		if a.Err != nil {
			fmt.Fprintf(&b, ": %v", a.Err)
		}
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "\n... and %d more attempts dropped", r.Dropped)
	}
	return b.String()
}

// String implements fmt.Stringer via Summary.
func (r *Report) String() string { return r.Summary() }
