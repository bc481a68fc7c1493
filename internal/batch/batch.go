// Package batch is the batched evaluation engine for grid-shaped workloads:
// parameter sweeps, figure generation, and Monte-Carlo-style fan-out where
// every grid point runs the same solve at a different input.
//
// The engine partitions the index space [0, n) into worker-owned tiles.
// Each worker claims whole tiles from a shared counter and evaluates the
// tile's points in index order with a per-worker scratch value, telling the
// evaluator whether the previous point of the same tile completed — the
// hook warm-start continuation hangs off. Tile geometry is a function of
// Options alone (never of the worker count or scheduling), so a run with 16
// workers is bit-identical to a run with one: a point's result depends only
// on its tile and its position inside it.
//
// Like runctl.Stream, the engine is cancellation-aware (one controller Tick
// per point), leak-free (Run returns only after every worker exited), and
// panic-containing (a panic in eval surfaces as a typed diag.ErrPanic
// error), and a failed run keeps the longest error-free prefix alongside
// the lowest-indexed error — the partial-result contract of the sweep
// layer. Unlike Stream, which emits that prefix as it completes, Run
// returns it as one slice once the pool has drained.
package batch

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rlcint/internal/diag"
	"rlcint/internal/runctl"
)

// Options configure one batched run. The zero value means: GOMAXPROCS
// workers, 8-point tiles, no row structure.
type Options struct {
	// Workers bounds the worker pool (≤0 → GOMAXPROCS). Worker count never
	// affects results, only wall-clock time.
	Workers int
	// TileSize is the number of consecutive points one worker owns (≤0 →
	// 8). Within a tile, points evaluate in index order on one scratch
	// value; the first point of every tile sees warm == false. TileSize is
	// part of the result contract: changing it changes which points are
	// continuation-seeded.
	TileSize int
	// RowLen, when positive, declares the grid row width: tiles never span
	// a row boundary, so continuation never chains across unrelated rows
	// (e.g. different technology nodes).
	RowLen int
}

func (o Options) tileSize() int {
	if o.TileSize > 0 {
		return o.TileSize
	}
	return 8
}

// tileRange is one worker-owned contiguous index range [lo, hi).
type tileRange struct{ lo, hi int }

// tilesOf partitions [0, n) into tiles of at most TileSize points, splitting
// at every RowLen boundary first. Pure function of (n, Options).
func tilesOf(n int, o Options) []tileRange {
	if n <= 0 {
		return nil
	}
	ts := o.tileSize()
	rowLen := o.RowLen
	if rowLen <= 0 {
		rowLen = n
	}
	tiles := make([]tileRange, 0, n/ts+n/rowLen+1)
	for rowLo := 0; rowLo < n; rowLo += rowLen {
		rowHi := rowLo + rowLen
		if rowHi > n {
			rowHi = n
		}
		for lo := rowLo; lo < rowHi; lo += ts {
			hi := lo + ts
			if hi > rowHi {
				hi = rowHi
			}
			tiles = append(tiles, tileRange{lo, hi})
		}
	}
	return tiles
}

// Run evaluates eval(ws, i, warm) for every i in [0, n) across at most
// opts.Workers goroutines and returns the results in index order.
//
// newScratch builds one scratch value per worker; eval owns it for the
// duration of each call and may mutate it freely (it is never shared).
// warm reports that the previous index of the same tile completed on this
// scratch value immediately before — the continuation contract: when warm
// is true, state left in ws by point i−1 describes the neighboring grid
// point.
//
// On success Run returns all n results. On the first error (from run
// control, eval, or a contained panic) the pool drains and Run returns the
// longest error-free prefix of results together with the lowest-indexed
// error observed. A nil controller imposes no run control.
func Run[W, T any](ctl *runctl.Controller, n int, opts Options,
	newScratch func() W,
	eval func(ws W, i int, warm bool) (T, error),
) ([]T, error) {
	if n <= 0 {
		return nil, ctl.Check("batch.Run")
	}
	tiles := tilesOf(n, opts)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tiles) {
		workers = len(tiles)
	}

	results := make([]T, n)
	errs := make([]error, n)
	done := make([]bool, n)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := newScratch()
			for {
				if stop.Load() {
					return
				}
				t := int(next.Add(1)) - 1
				if t >= len(tiles) {
					return
				}
				tr := tiles[t]
				for i := tr.lo; i < tr.hi; i++ {
					if i > tr.lo && stop.Load() {
						return
					}
					if err := ctl.Tick("batch.Run"); err != nil {
						errs[i] = err
						stop.Store(true)
						return
					}
					v, err := runGuarded(eval, ws, i, i > tr.lo)
					if err != nil {
						errs[i] = err
						stop.Store(true)
						return
					}
					results[i] = v
					done[i] = true
				}
			}
		}()
	}
	wg.Wait()

	prefix := 0
	for prefix < n && done[prefix] {
		prefix++
	}
	var firstErr error
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			firstErr = errs[i]
			break
		}
	}
	return results[:prefix], firstErr
}

// runGuarded calls eval with panic containment so one poisoned grid point
// cannot take down the whole pool (or the process).
func runGuarded[W, T any](eval func(W, int, bool) (T, error), ws W, i int, warm bool) (v T, err error) {
	defer diag.RecoverTo(&err, "batch.Run")
	return eval(ws, i, warm)
}
