package spice

import "sync/atomic"

// Process-wide counters for the Krylov reduced-order transient fast path, so
// a caller running many transients (perfbench's ring-transient workload) can
// see whether they actually ride the reduction — and how often they fall
// back to the full solver — without scraping diag reports per run.
var (
	morStatEngaged   atomic.Uint64 // runs that marched a validated reduced model
	morStatCacheHits atomic.Uint64 // engagements served by the model cache
	morStatFallback  atomic.Uint64 // reduced runs that bailed out to the full solver
	morStatRejected  atomic.Uint64 // reduction attempts rejected by a gate (classify/extract/reduce/confirm)
)

// MORStats is a snapshot of the reduced-order fast path's counters since
// process start (or the last ResetReductionStats).
type MORStats struct {
	Engaged   uint64 `json:"engaged"`
	CacheHits uint64 `json:"cache_hits"`
	Fallbacks uint64 `json:"fallbacks"`
	Rejected  uint64 `json:"rejected"`
}

// ReductionStats returns the current reduced-order fast-path counters.
func ReductionStats() MORStats {
	return MORStats{
		Engaged:   morStatEngaged.Load(),
		CacheHits: morStatCacheHits.Load(),
		Fallbacks: morStatFallback.Load(),
		Rejected:  morStatRejected.Load(),
	}
}

// ResetReductionStats zeroes the counters (tests and benchmarks).
func ResetReductionStats() {
	morStatEngaged.Store(0)
	morStatCacheHits.Store(0)
	morStatFallback.Store(0)
	morStatRejected.Store(0)
}
