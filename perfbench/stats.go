package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// quantile is the nearest-rank p-quantile of sorted (NaN when empty).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts a copy of xs and returns its median.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLadder are the percentiles latency_tail_ms may report. A coarse
// ladder keeps the reported percentile fixed while the sample count of a
// workload drifts by a few cycles between runs.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, and its value.
func tail(sorted []float64) (p, v float64) {
	p = tailLadder[0]
	for _, q := range tailLadder {
		if len(sorted)-int(math.Ceil(q*float64(len(sorted)))) >= 10 {
			p = q
		}
	}
	return p, quantile(sorted, p)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// stamp identifies what a result was measured on, so the trajectory only
// compares like with like.
type stamp struct {
	Commit     string `json:"commit"`        // VCS revision when built inside a git checkout
	Source     string `json:"source_sha256"` // digest of go.mod and every .go file under the root
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
}

func stampOf(root, workload string, seed int64, trace int) stamp {
	st := stamp{
		Commit: "none", Source: sourceDigest(root), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		Workload: workload, Seed: seed, Trace: trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
		}
	}
	return st
}

// sourceDigest hashes go.mod and the .go files under root with their paths
// relative to root (skipping dot-directories and build output), in path
// order, so two checkouts of one commit digest alike.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
