package runctl

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rlcint/internal/diag"
	"rlcint/internal/testutil"
)

func TestStreamOrderedEmission(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n = 100
	var got []int
	err := Stream(nil, 8, n,
		func(i int) (int, error) { return i * i, nil },
		func(i, v int) error {
			if v != i*i {
				return fmt.Errorf("emit(%d) = %d", i, v)
			}
			got = append(got, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("emitted %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("emission order broken at %d: %d", i, v)
		}
	}
}

func TestStreamFirstErrorWinsAndPoolDrains(t *testing.T) {
	testutil.CheckGoroutines(t)
	boom := errors.New("boom")
	var calls atomic.Int64
	err := Stream(nil, 4, 1000, func(i int) (int, error) {
		calls.Add(1)
		if i == 17 {
			return 0, boom
		}
		return i, nil
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if c := calls.Load(); c >= 1000 {
		t.Errorf("error did not short-circuit the pool: %d calls", c)
	}
}

// TestStreamEmitsPrefixBelowLowestError: a slow item finishes after a later
// item has failed. Every item below the lowest failing index must still be
// emitted, in order, and that item's error returned — not the first error
// to arrive.
func TestStreamEmitsPrefixBelowLowestError(t *testing.T) {
	errLow, errHigh := errors.New("item 3"), errors.New("item 5")
	for _, tc := range []struct {
		name    string
		workers int
		limits  Limits
		fn      func(i int) (int, error)
		want    []int
		wantErr error
	}{
		{"fn error", 2, Limits{}, func(i int) (int, error) {
			switch i {
			case 0:
				time.Sleep(50 * time.Millisecond)
			case 5:
				return 0, errHigh
			}
			return i, nil
		}, []int{0, 1, 2, 3, 4}, errHigh},
		{"iteration budget", 2, Limits{MaxIters: 5}, func(i int) (int, error) {
			if i == 0 {
				time.Sleep(50 * time.Millisecond)
			}
			return i, nil
		}, []int{0, 1, 2, 3, 4}, diag.ErrBudget},
		{"lowest error wins", 3, Limits{}, func(i int) (int, error) {
			switch i {
			case 0:
				time.Sleep(50 * time.Millisecond)
			case 3:
				time.Sleep(20 * time.Millisecond)
				return 0, errLow
			case 5:
				return 0, errHigh
			}
			return i, nil
		}, []int{0, 1, 2}, errLow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			var got []int
			err := Stream(New(context.Background(), tc.limits), tc.workers, 100, tc.fn,
				func(i, v int) error {
					got = append(got, i)
					return nil
				})
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("err = %v, want %v", err, tc.wantErr)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("emitted %v, want %v", got, tc.want)
			}
		})
	}
}

func TestStreamCancellationStopsWorkers(t *testing.T) {
	testutil.CheckGoroutines(t)
	ctx, cancel := context.WithCancel(context.Background())
	ctl := New(ctx, Limits{})
	var calls atomic.Int64
	err := Stream(ctl, 4, 10000, func(i int) (int, error) {
		if calls.Add(1) == 20 {
			cancel()
		}
		return i, nil
	}, nil)
	if !errors.Is(err, diag.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if c := calls.Load(); c >= 10000 {
		t.Errorf("cancellation did not stop the pool: %d calls", c)
	}
}

func TestStreamIterationBudget(t *testing.T) {
	testutil.CheckGoroutines(t)
	ctl := New(context.Background(), Limits{MaxIters: 10})
	err := Stream(ctl, 2, 1000, func(i int) (int, error) { return i, nil }, nil)
	if !errors.Is(err, diag.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestStreamPanicContainment(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := Stream(nil, 4, 100, func(i int) (int, error) {
		if i == 42 {
			panic("poisoned trial")
		}
		return i, nil
	}, nil)
	if !errors.Is(err, diag.ErrPanic) {
		t.Fatalf("want ErrPanic, got %v", err)
	}
	var de *diag.Error
	if !errors.As(err, &de) {
		t.Fatalf("want *diag.Error, got %T", err)
	}
	if len(de.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
	if de.Detail != "poisoned trial" {
		t.Errorf("detail = %q", de.Detail)
	}
}

func TestStreamEmitErrorStopsRun(t *testing.T) {
	testutil.CheckGoroutines(t)
	stop := errors.New("disk full")
	emitted := 0
	err := Stream(nil, 4, 1000,
		func(i int) (int, error) { return i, nil },
		func(i, v int) error {
			if i == 5 {
				return stop
			}
			emitted++
			return nil
		})
	if !errors.Is(err, stop) {
		t.Fatalf("want emit error, got %v", err)
	}
	if emitted != 5 {
		t.Errorf("emitted %d rows before the failing one, want 5", emitted)
	}
}

func TestStreamEmptyAndSingle(t *testing.T) {
	testutil.CheckGoroutines(t)
	if err := Stream[int](nil, 4, 0, nil, nil); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	ran := false
	if err := ForEach(nil, 8, 1, func(i int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("single item not run")
	}
}

func TestForEachParallelismIsBounded(t *testing.T) {
	testutil.CheckGoroutines(t)
	var cur, peak atomic.Int64
	err := ForEach(nil, 3, 64, func(i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("concurrency peaked at %d with workers=3", p)
	}
}
