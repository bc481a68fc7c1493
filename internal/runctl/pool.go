package runctl

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rlcint/internal/diag"
)

// Stream runs fn(i) for every i in [0, n) across at most workers goroutines
// and delivers the results to emit in index order as soon as the contiguous
// prefix is complete — the streaming worker pool shared by the Monte-Carlo
// engine and the sweep CLI.
//
// Guarantees:
//
//   - bounded concurrency: at most workers (default GOMAXPROCS) goroutines
//     run fn at any moment;
//   - cancellation-aware: the shared Controller is ticked once per item,
//     in index order, so a cancelled context, expired deadline, or
//     exhausted budget stops the pool within one item per worker, and a
//     MaxIters of k runs exactly items 0..k-1 when fn does not tick ctl;
//   - ordered streaming: emit(i, v) is called from the calling goroutine in
//     strictly increasing i with no gaps, so rows already emitted are valid
//     prefixes of the full result even when the run is cut short;
//   - no goroutine leaks: Stream returns only after every worker goroutine
//     has exited, on success, error, and cancellation alike;
//   - panic containment: a panic in fn is converted into a typed
//     diag.ErrPanic error instead of crashing the process.
//
// On an error (from run control, fn, or emit) the pool stops claiming
// items and drains. Like batch.Run, Stream then still emits the longest
// error-free prefix — every item below the lowest failing index, including
// those that finish after a later item failed — and returns that
// lowest-indexed error. emit may be nil when only fn's side effects matter.
func Stream[T any](ctl *Controller, workers, n int, fn func(i int) (T, error), emit func(i int, v T) error) error {
	if n <= 0 {
		return ctl.Check("runctl.Stream")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	type item struct {
		i   int
		v   T
		err error
	}
	// An item is claimed and ticked under one lock, so Stream's ticks run in
	// index order: a stop can fail an item only after every lower item's
	// tick has passed.
	var claim sync.Mutex
	next := 0
	var stop atomic.Bool
	out := make(chan item)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				claim.Lock()
				it := item{i: next}
				next++
				if it.i < n {
					it.err = ctl.Tick("runctl.Stream")
				}
				claim.Unlock()
				if it.i >= n {
					return
				}
				if it.err == nil {
					it.v, it.err = guarded(fn, it.i)
				}
				out <- it
				if it.err != nil {
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	// Every index below the lowest failing one was claimed before it, so it
	// still arrives; items above it are dropped while the pool drains.
	pending := make(map[int]T)
	emitNext := 0
	errAt := n
	var lowErr error
	for it := range out {
		if it.i > errAt {
			continue
		}
		if it.err != nil {
			errAt, lowErr = it.i, it.err
			stop.Store(true)
			continue
		}
		if emit == nil {
			continue
		}
		pending[it.i] = it.v
		for emitNext < errAt {
			v, ok := pending[emitNext]
			if !ok {
				break
			}
			delete(pending, emitNext)
			if err := emit(emitNext, v); err != nil {
				errAt, lowErr = emitNext, err
				stop.Store(true)
				break
			}
			emitNext++
		}
	}
	return lowErr
}

// guarded calls fn(i) with panic containment so one poisoned work item
// cannot take down the whole pool (or the process).
func guarded[T any](fn func(int) (T, error), i int) (v T, err error) {
	defer diag.RecoverTo(&err, "runctl.worker")
	return fn(i)
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines with the same cancellation, leak, and panic guarantees as
// Stream, for callers that collect results themselves (e.g. into disjoint
// slice slots).
func ForEach(ctl *Controller, workers, n int, fn func(i int) error) error {
	return Stream(ctl, workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	}, nil)
}
