// Command sweep runs one-dimensional parameter sweeps of the RLC
// repeater-insertion machinery and prints CSV to stdout (or -o). The swept
// variable is one of:
//
//	l   line inductance (nH/mm)      — optimizes (h, k) at each point
//	h   segment length (mm)          — fixed k, reports stage delay
//	k   repeater size                — fixed h, reports stage delay
//	f   delay threshold (fraction)   — optimizes at each point
//
// Usage:
//
//	sweep -var l [-from 0.1] [-to 4.9] [-steps 13] [-tech 100nm] [-l 2] [-h 11.1] [-k 528] [-f 0.5]
//	      [-workers 4] [-timeout 30s] [-warm] [-o out.csv]
//
// Without -from/-to each variable sweeps its own range: l over 0.1–4.9
// nH/mm, f over 0.1–0.9, and h and k from half to twice their fixed -h and
// -k values. -from or -to overrides its end.
//
// Points are evaluated over a bounded worker pool and rows stream to the
// output in sweep order as soon as each point (and all before it) is done,
// so a run stopped by ^C or -timeout keeps every completed row.
//
// The l sweep runs through the batched sweep engine; -warm additionally
// enables Newton warm-start continuation between neighboring points (several
// times faster; per-unit delays agree with the cold engine to ≤1e-12
// relative, h/k to the stationarity tolerance). The h, k, and f sweeps are
// fixed-design or threshold scans and stay on the streaming pool.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"rlcint"
	"rlcint/internal/num"
	"rlcint/internal/runctl"
)

// Defaults of the fixed segment length (mm) and repeater size, which also
// center the h and k sweeps' default ranges.
const (
	defaultHMM float64 = 11.1
	defaultK   float64 = 528
)

// defaultRange is the range variable sweeps when -from and -to are not set:
// l over 0.1–4.9 nH/mm, f over 0.1–0.9, and h and k from half to twice their
// fixed values hMM and k.
func defaultRange(variable string, hMM, k float64) (from, to float64) {
	switch variable {
	case "h":
		return hMM / 2, 2 * hMM
	case "k":
		return k / 2, 2 * k
	case "f":
		return 0.1, 0.9
	}
	return 0.1, 4.9
}

func main() {
	variable := flag.String("var", "l", "swept variable: l, h, k, f")
	from := flag.Float64("from", 0, "sweep start (default: l 0.1, f 0.1, h and k half the fixed value)")
	to := flag.Float64("to", 0, "sweep end (default: l 4.9, f 0.9, h and k twice the fixed value)")
	steps := flag.Int("steps", 13, "number of points")
	techName := flag.String("tech", "100nm", "technology node")
	lNH := flag.Float64("l", 2, "fixed line inductance, nH/mm")
	hMM := flag.Float64("h", defaultHMM, "fixed segment length, mm")
	k := flag.Float64("k", defaultK, "fixed repeater size")
	f := flag.Float64("f", 0.5, "fixed delay threshold")
	workers := flag.Int("workers", 1, "parallel point evaluations")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the sweep (0 = none)")
	warm := flag.Bool("warm", false, "warm-start continuation for the l sweep")
	outPath := flag.String("o", "", "output CSV (default stdout)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	t, err := rlcint.TechByName(*techName)
	if err != nil {
		fatal(err)
	}
	lo, hi := defaultRange(*variable, *hMM, *k)
	flag.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "from":
			lo = *from
		case "to":
			hi = *to
		}
	})
	pts := num.Linspace(lo, hi, *steps)

	// The l sweep (one optimization per point) runs through the batched
	// sweep engine — cold by default (bit-identical to the streaming serial
	// path), warm-start continuation with -warm. The remaining variants
	// reduce to a header plus one row function on the streaming pool.
	var header string
	var row func(x float64) (string, error)
	switch *variable {
	case "l":
		runLSweep(ctx, t, pts, *f, rlcint.SweepOptions{
			Workers: *workers,
			Warm:    *warm,
			Limits:  rlcint.RunLimits{Timeout: *timeout},
		}, *outPath)
		return
	case "h":
		header = "h_mm,tau_ps,tau_per_mm_ps,lcrit_nH_mm"
		row = func(x float64) (string, error) {
			st := rlcint.StageOf(t, *lNH*rlcint.NHPerMM, x*rlcint.MM, *k)
			tau, err := rlcint.Delay(st, *f)
			if err != nil {
				return "", wrapPoint("h", x, err)
			}
			return fmt.Sprintf("%g,%.4f,%.4f,%.4f", x, tau/rlcint.PS,
				tau/(x*rlcint.MM)*rlcint.MM/rlcint.PS, rlcint.LCrit(st)/rlcint.NHPerMM), nil
		}
	case "k":
		header = "k,tau_ps,lcrit_nH_mm"
		row = func(x float64) (string, error) {
			st := rlcint.StageOf(t, *lNH*rlcint.NHPerMM, *hMM*rlcint.MM, x)
			tau, err := rlcint.Delay(st, *f)
			if err != nil {
				return "", wrapPoint("k", x, err)
			}
			return fmt.Sprintf("%g,%.4f,%.4f", x, tau/rlcint.PS, rlcint.LCrit(st)/rlcint.NHPerMM), nil
		}
	case "f":
		header = "f,h_opt_mm,k_opt,tau_per_mm_ps"
		row = func(x float64) (string, error) {
			if x <= 0 || x >= 1 {
				return "", fmt.Errorf("threshold %v outside (0,1)", x)
			}
			opt, err := rlcint.OptimizeCtx(ctx, t, *lNH*rlcint.NHPerMM, x, rlcint.RunLimits{})
			if err != nil {
				return "", wrapPoint("f", x, err)
			}
			return fmt.Sprintf("%g,%.4f,%.1f,%.4f", x, opt.H/rlcint.MM, opt.K,
				opt.PerUnit*rlcint.MM/rlcint.PS), nil
		}
	default:
		fatal(fmt.Errorf("unknown variable %q (want l, h, k or f)", *variable))
	}

	w, closeOut := openOut(*outPath)
	defer closeOut()
	fmt.Fprintln(w, header)
	w.Flush()

	ctl := runctl.New(ctx, rlcint.RunLimits{Timeout: *timeout})
	done := 0
	err = runctl.Stream(ctl, *workers, len(pts),
		func(i int) (string, error) { return row(pts[i]) },
		func(i int, line string) error {
			// Rows flush as they complete, in order, so an interrupted sweep
			// leaves a valid CSV prefix behind.
			fmt.Fprintln(w, line)
			done++
			return w.Flush()
		})
	if err != nil {
		if runctl.IsStop(err) {
			fmt.Fprintf(os.Stderr, "sweep: stopped after %d/%d points: %v\n", done, len(pts), err)
			os.Exit(2)
		}
		fatal(err)
	}
}

// runLSweep evaluates the inductance sweep through the batched engine and
// writes the completed prefix of rows even when the run is stopped by ^C or
// -timeout (exit status 2, like the streaming variants).
func runLSweep(ctx context.Context, t rlcint.Technology, pts []float64, f float64, opts rlcint.SweepOptions, outPath string) {
	ls := make([]float64, len(pts))
	for i, x := range pts {
		ls[i] = x * rlcint.NHPerMM
	}
	sps, err := rlcint.SweepBatch(ctx, opts, t, ls, f)
	w, closeOut := openOut(outPath)
	defer closeOut()
	fmt.Fprintln(w, "l_nH_mm,h_opt_mm,k_opt,tau_per_mm_ps,damping")
	for i, sp := range sps {
		fmt.Fprintf(w, "%g,%.4f,%.1f,%.4f,%s\n", pts[i], sp.Opt.H/rlcint.MM, sp.Opt.K,
			sp.Opt.PerUnit*rlcint.MM/rlcint.PS, sp.Opt.Model.Damping())
	}
	w.Flush()
	if err != nil {
		if rlcint.IsRunStop(err) {
			fmt.Fprintf(os.Stderr, "sweep: stopped after %d/%d points: %v\n", len(sps), len(pts), err)
			os.Exit(2)
		}
		fatal(err)
	}
}

// openOut returns a buffered writer on path (stdout when empty) plus its
// cleanup function.
func openOut(path string) (*bufio.Writer, func()) {
	cleanup := func() {}
	out := os.Stdout
	if path != "" {
		fh, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		out, cleanup = fh, func() { fh.Close() }
	}
	return bufio.NewWriter(out), cleanup
}

func wrapPoint(name string, x float64, err error) error {
	if rlcint.IsRunStop(err) {
		return err // keep stops matchable for the pool's short-circuit
	}
	return fmt.Errorf("%s=%v: %w", name, x, err)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", rlcint.DiagString(err, nil))
	os.Exit(1)
}
