package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a top-level span
	Req    int64  `json:"req"`    // request id shared by the spans of one request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// that is off, records nothing; the methods are safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when not recording).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0)), End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a finished span with explicit bounds.
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) int {
	id := t.begin(name, parent, req)
	if id >= 0 {
		t.mu.Lock()
		t.spans[id].Start = int64(start.Sub(t.t0))
		t.spans[id].End = int64(end.Sub(t.t0))
		t.mu.Unlock()
	}
	return id
}

// medianMS is the median duration in ms of the finished spans named name
// (0 if none).
func (t *tracer) medianMS(name string) float64 {
	t.mu.Lock()
	var d []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			d = append(d, float64(s.End-s.Start)/1e6)
		}
	}
	t.mu.Unlock()
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// uncovered is the share of [from, to] that no top-level span covers.
func (t *tracer) uncovered(from, to time.Time) float64 {
	lo, hi := int64(from.Sub(t.t0)), int64(to.Sub(t.t0))
	if hi <= lo {
		return 0
	}
	t.mu.Lock()
	var iv [][2]int64
	for _, s := range t.spans {
		if s.Parent == -1 && s.End >= 0 && s.End > lo && s.Start < hi {
			iv = append(iv, [2]int64{max(s.Start, lo), min(s.End, hi)})
		}
	}
	t.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, cur := int64(0), lo
	for _, x := range iv {
		if x[1] <= cur {
			continue
		}
		covered += x[1] - max(x[0], cur)
		cur = x[1]
	}
	return 1 - float64(covered)/float64(hi-lo)
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
