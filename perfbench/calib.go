package main

import (
	"sort"
	"sync"
	"time"
)

// The benchmark runs on a few vCPUs of a shared machine whose speed drifts
// with its neighbours' load, by up to 2× between minutes and by tens of
// percent within a second. Medians inside one run cannot remove that, so
// the CPU-timed end-to-end metrics are put on one scale: short runs of a
// fixed reference kernel are interleaved with the workload, and every timed
// window is divided by its slowdown, the kernel's median time in that window
// over refKernelMS. The metrics then read as they would on a host that runs
// the kernel in refKernelMS. The kernel is plain Go and calls nothing of the
// repository, so a change to the program moves the metrics and never the
// scale. The median, not the mean, keeps a rare long preemption of one
// sample from scaling a whole window.

// refKernelMS is the kernel's median time on the host the benchmark was
// defined on (2 vCPUs, Intel Xeon Processor, Go 1.24.0).
const refKernelMS = 0.22

// calibEvery is how much workload time one kernel sample stands for; each
// sample costs about refKernelMS, so sampling takes ~2.5% of a run.
const calibEvery = 10 * time.Millisecond

const (
	kernelN      = 48      // dense LU order: compute-bound, in L1/L2
	kernelLUs    = 3       // factorizations per sample
	kernelStream = 1 << 14 // float64s updated per sample (128 KB) ...
	kernelBuf    = 1 << 17 // ... of a 1 MB ring, so the data comes from L2/L3
)

// kernelState is the kernel's scratch; hostClock.mu guards it.
var kernelState struct {
	a    [kernelN * kernelN]float64
	ring []float64
	pos  int
	sink float64
}

// kernel is one sample's fixed work: kernelLUs LU factorizations of a
// diagonally dominant kernelN×kernelN matrix and a streaming update of a
// 128 KB slice of a 1 MB buffer.
func kernel() {
	ks := &kernelState
	if ks.ring == nil {
		ks.ring = make([]float64, kernelBuf)
	}
	a := ks.a[:]
	s := 0.0
	for rep := 0; rep < kernelLUs; rep++ {
		for i := 0; i < kernelN; i++ {
			for j := 0; j < kernelN; j++ {
				v := 1 / float64(i+j+1+rep)
				if i == j {
					v += kernelN
				}
				a[i*kernelN+j] = v
			}
		}
		for k := 0; k < kernelN; k++ {
			p := 1 / a[k*kernelN+k]
			piv := a[k*kernelN+k+1 : (k+1)*kernelN]
			for i := k + 1; i < kernelN; i++ {
				f := a[i*kernelN+k] * p
				a[i*kernelN+k] = f
				row := a[i*kernelN+k+1 : (i+1)*kernelN]
				for j := range row {
					row[j] -= f * piv[j]
				}
			}
		}
		s += a[kernelN*kernelN-1]
	}
	buf := ks.ring[ks.pos : ks.pos+kernelStream]
	ks.pos = (ks.pos + kernelStream) % kernelBuf
	for i := range buf {
		buf[i] = 0.5*buf[i] + 1
		s += buf[i]
	}
	ks.sink += s
}

// calSample is one timed run of the kernel.
type calSample struct {
	end time.Time
	ms  float64
}

// hostClock collects kernel samples over a run. Its methods are safe for
// concurrent use; samples run one at a time.
type hostClock struct {
	mu      sync.Mutex
	samples []calSample
	last    time.Time // end of the last sample
}

func newHostClock() *hostClock { return &hostClock{last: time.Now()} }

// sampleN runs the kernel n times back to back and records each time.
func (h *hostClock) sampleN(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		kernel()
		t1 := time.Now()
		h.samples = append(h.samples, calSample{t1, ms(t1.Sub(t0))})
		h.last = t1
	}
}

// tick takes one sample for every calibEvery of workload time since the
// last sample (at most 50), so long and short operations are sampled alike.
// Workloads call it between operations, outside every timed interval.
func (h *hostClock) tick() {
	h.mu.Lock()
	n := int(time.Since(h.last) / calibEvery)
	h.mu.Unlock()
	h.sampleN(min(n, 50))
}

// window returns the slowdown over the samples that ended in [from, to] —
// their median time over refKernelMS, so 2 means the host ran at half the
// reference speed — and the seconds those samples took. With no sample in
// the window the slowdown is that of the last sample before it.
func (h *hostClock) window(from, to time.Time) (slowdown, kernelS float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.samples), func(i int) bool { return !h.samples[i].end.Before(from) })
	var in []float64
	for _, s := range h.samples[i:] {
		if s.end.After(to) {
			break
		}
		in = append(in, s.ms)
		kernelS += s.ms / 1e3
	}
	if len(in) == 0 && i > 0 {
		in = append(in, h.samples[i-1].ms)
	}
	return median(in) / refKernelMS, kernelS
}
