package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlcint/internal/testutil"
)

func entry(key string, n int) *cached {
	return &cached{key: key, ctype: "application/json", body: bytes.Repeat([]byte("x"), n)}
}

func TestLRUCacheEntryBound(t *testing.T) {
	c := newLRUCache(3, 0)
	for i := 0; i < 5; i++ {
		c.put(entry(fmt.Sprintf("k%d", i), 10))
	}
	_, evictions, entries, _ := c.stats()
	if entries != 3 {
		t.Errorf("entries = %d, want 3", entries)
	}
	if evictions != 2 {
		t.Errorf("evictions = %d, want 2", evictions)
	}
	// Oldest two evicted, newest three present.
	for i := 0; i < 2; i++ {
		if _, ok := c.get(fmt.Sprintf("k%d", i)); ok {
			t.Errorf("k%d should have been evicted", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := c.get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("k%d should be cached", i)
		}
	}
}

func TestLRUCacheByteBound(t *testing.T) {
	// Each entry costs len(key)+len(body)+64 = 2+134+64 = 200 bytes.
	c := newLRUCache(0, 600)
	for i := 0; i < 5; i++ {
		c.put(entry(fmt.Sprintf("k%d", i), 134))
	}
	_, _, entries, bytes := c.stats()
	if entries != 3 {
		t.Errorf("entries = %d, want 3 under the 600-byte bound", entries)
	}
	if bytes > 600 {
		t.Errorf("bytes = %d, want <= 600", bytes)
	}
}

func TestLRUCacheRecencyAndRefresh(t *testing.T) {
	c := newLRUCache(2, 0)
	c.put(entry("a", 1))
	c.put(entry("b", 1))
	if _, ok := c.get("a"); !ok { // bump a
		t.Fatal("a missing")
	}
	c.put(entry("c", 1)) // evicts b, the cold one
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived")
	}
	// Refreshing an existing key must not duplicate it.
	c.put(entry("a", 500))
	if _, _, entries, _ := c.stats(); entries != 2 {
		t.Errorf("entries after refresh = %d, want 2", entries)
	}
}

func TestLRUCacheOversizedEntryNotAdmitted(t *testing.T) {
	c := newLRUCache(0, 100)
	c.put(entry("big", 1000))
	if _, _, entries, _ := c.stats(); entries != 0 {
		t.Error("entry larger than the byte bound must not be admitted")
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := newFlightGroup(context.Background())
	var computes atomic.Int64
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]*cached, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := g.do(context.Background(), "k", 0, func(ctx context.Context) (*cached, error) {
				computes.Add(1)
				<-release
				return entry("k", 8), nil
			})
			if err != nil {
				t.Errorf("do: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Let every caller join before releasing the computation.
	for {
		g.mu.Lock()
		f := g.m["k"]
		w := 0
		if f != nil {
			w = f.waiters
		}
		g.mu.Unlock()
		if w == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("computed %d times, want 1", got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Error("coalesced callers must share one result")
		}
	}
	g.wait()
}

func TestFlightGroupLastWaiterCancels(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := newFlightGroup(context.Background())
	started := make(chan struct{})
	stopped := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err, _ := g.do(ctx, "k", 0, func(cctx context.Context) (*cached, error) {
			close(started)
			<-cctx.Done() // the solve observes cancellation
			close(stopped)
			return nil, cctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("do after cancel = %v, want context.Canceled", err)
		}
	}()
	<-started
	cancel()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("computation not cancelled after last waiter left")
	}
	<-done
	g.wait()
}

func TestFlightGroupPanicContained(t *testing.T) {
	g := newFlightGroup(context.Background())
	_, err, _ := g.do(context.Background(), "k", 0, func(ctx context.Context) (*cached, error) {
		panic("boom")
	})
	if err == nil {
		t.Fatal("want contained panic error")
	}
	g.wait()
}

func TestLimiterQueueBound(t *testing.T) {
	l := newLimiter(1, 1)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue...
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- l.acquire(context.Background()) }()
	for l.depth() != 1 {
		time.Sleep(time.Millisecond)
	}
	// ...the next one is rejected immediately.
	if err := l.acquire(context.Background()); !errors.Is(err, errQueueFull) {
		t.Errorf("acquire with full queue = %v, want errQueueFull", err)
	}
	if l.rejects() != 1 {
		t.Errorf("rejects = %d, want 1", l.rejects())
	}
	l.release()
	if err := <-waiterErr; err != nil {
		t.Errorf("queued waiter: %v", err)
	}
	l.release()
}

func TestLimiterWaiterHonoursContext(t *testing.T) {
	l := newLimiter(1, 4)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- l.acquire(ctx) }()
	for l.depth() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Errorf("queued acquire after cancel = %v, want context.Canceled", err)
	}
	if l.depth() != 0 {
		t.Errorf("queue depth = %d after waiter left, want 0", l.depth())
	}
	l.release()
}

func TestLRUCacheExportColdFirstAndReplayable(t *testing.T) {
	c := newLRUCache(0, 0)
	c.put(entry("a", 1))
	c.put(entry("b", 1))
	c.put(entry("c", 1))
	if _, ok := c.get("a"); !ok { // bump a to hottest
		t.Fatal("a missing")
	}
	exp := c.export()
	keys := make([]string, len(exp))
	for i, e := range exp {
		keys[i] = e.key
	}
	if len(keys) != 3 || keys[0] != "b" || keys[1] != "c" || keys[2] != "a" {
		t.Fatalf("export order = %v, want cold-first [b c a]", keys)
	}
	// Replaying through put reproduces the recency order: a bounded replica
	// evicts the cold end first.
	r := newLRUCache(2, 0)
	for _, e := range exp {
		r.put(e)
	}
	if _, ok := r.get("b"); ok {
		t.Error("replayed replica kept the coldest entry over the hotter ones")
	}
	for _, k := range []string{"c", "a"} {
		if _, ok := r.get(k); !ok {
			t.Errorf("replayed replica lost hot entry %q", k)
		}
	}
}

// A snapshot racing concurrent puts — including oversize puts that the cache
// must reject — never exports a rejected entry or a torn view. Run under
// -race this also proves export/put/get need no external synchronization.
func TestLRUCacheOversizePutRacingSnapshot(t *testing.T) {
	c := newLRUCache(0, 300)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: alternates admissible and oversize entries
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.put(entry(fmt.Sprintf("ok%d", i%4), 10))
			c.put(entry("oversize", 1000))
		}
	}()
	var exports int
	go func() { // snapshotter
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range c.export() {
				if e.key == "oversize" {
					t.Error("export observed an entry the cache must have rejected")
				}
			}
			if _, err := encodeSnapshot(c.export()); err != nil {
				t.Errorf("encode during writes: %v", err)
			}
			exports++
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if exports == 0 {
		t.Fatal("snapshotter never ran")
	}
}
