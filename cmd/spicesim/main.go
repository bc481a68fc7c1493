// Command spicesim loads a SPICE-style netlist (R, C, L, V, I elements with
// DC/PULSE/PWL/SIN sources), runs the library's transient engine, and dumps
// the requested node voltages as CSV — a standalone front end for the
// simulator that substitutes for the paper's commercial SPICE runs.
//
// Usage:
//
//	spicesim -i deck.cir [-tstop 10n] [-dt 10p] [-probe out,mid] [-o wave.csv] [-ic]
//	         [-timeout 30s] [-checkpoint run.ckpt [-every 64]] [-resume]
//
// The window may come from the deck's ".tran <dt> <tstop>" directive instead
// of the flags.
//
// Run control: SIGINT/SIGTERM (or -timeout) stop the solve cooperatively —
// the waveform recorded so far is still written, and when -checkpoint is
// set the last snapshot survives on disk, so re-running with -resume
// continues the run and produces a final waveform bit-identical to an
// uninterrupted one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"rlcint/internal/diag"
	"rlcint/internal/runctl"
	"rlcint/internal/spice"
	"rlcint/internal/waveform"
)

func main() {
	inPath := flag.String("i", "", "input netlist (default stdin)")
	outPath := flag.String("o", "", "output CSV (default stdout)")
	tstop := flag.String("tstop", "", "simulation end time, e.g. 10n")
	dt := flag.String("dt", "", "timestep, e.g. 10p")
	probes := flag.String("probe", "", "comma-separated node names (default: all nodes)")
	useICs := flag.Bool("ic", false, "start from zero/IC state instead of the DC operating point")
	be := flag.Bool("be", false, "use backward Euler instead of trapezoidal integration")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the solve (0 = none)")
	ckpt := flag.String("checkpoint", "", "write resumable snapshots to this file")
	every := flag.Int("every", 0, "checkpoint cadence in output grid steps (default 64)")
	resume := flag.Bool("resume", false, "continue from the -checkpoint file instead of starting fresh")
	noReduction := flag.Bool("no-reduction", false, "force the full solver (disable the Krylov reduced-order fast path)")
	diagOut := flag.Bool("diag", false, "print solver diagnostics (factor shape, recovery ladder) to stderr")
	flag.Parse()

	// SIGINT/SIGTERM cancel the solver context; the solver unwinds within
	// one integration step and the partial waveform still gets written.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	in := os.Stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fatal(err, nil)
		}
		defer f.Close()
		in = f
	}
	parsed, err := spice.ParseNetlist(in)
	if err != nil {
		fatal(err, nil)
	}
	c := parsed.Circuit

	// The deck's .tran directive supplies the window unless overridden.
	var tStop, step float64
	if parsed.Tran != nil {
		step, tStop = parsed.Tran.DT, parsed.Tran.TStop
	}
	if *tstop != "" {
		if tStop, err = spice.ParseValue(*tstop); err != nil {
			fatal(fmt.Errorf("bad -tstop: %w", err), nil)
		}
	}
	if *dt != "" {
		if step, err = spice.ParseValue(*dt); err != nil {
			fatal(fmt.Errorf("bad -dt: %w", err), nil)
		}
	}
	if tStop <= 0 || step <= 0 {
		fatal(fmt.Errorf("no simulation window: use -tstop/-dt or a .tran directive"), nil)
	}

	var plist []spice.Probe
	if *probes == "" {
		for i := 0; i < c.NumNodes(); i++ {
			name := c.NodeName(spice.NodeID(i))
			plist = append(plist, spice.NodeProbe{Name: name, ID: spice.NodeID(i)})
		}
	} else {
		for _, name := range strings.Split(*probes, ",") {
			plist = append(plist, c.ProbeNode(strings.TrimSpace(name)))
		}
	}

	rep := &diag.Report{}
	opts := spice.TranOpts{
		TStop: tStop, DT: step, UseICs: *useICs, Report: rep,
		Limits:          runctl.Limits{Timeout: *timeout},
		CheckpointPath:  *ckpt,
		CheckpointEvery: *every,
		NoReduction:     *noReduction,
	}
	if *be {
		opts.Method = spice.BackwardEuler
	}
	var res *spice.Result
	stopped := false
	if *resume {
		if *ckpt == "" {
			fatal(fmt.Errorf("-resume requires -checkpoint"), nil)
		}
		cp, lerr := spice.LoadCheckpoint(*ckpt)
		if lerr != nil {
			fatal(lerr, nil)
		}
		fmt.Fprintf(os.Stderr, "spicesim: resuming from %s (step %d, t=%g)\n",
			*ckpt, cp.Step, float64(cp.Step)*cp.DT)
		res, err = c.TransientResumeCtx(ctx, cp, opts, plist...)
	} else {
		res, err = c.TransientCtx(ctx, opts, plist...)
	}
	if err != nil {
		// A timestep collapse or a run-control stop (SIGINT, -timeout) still
		// returns the samples recorded before the abort; write them so the
		// waveform up to the interruption is inspectable.
		stopped = runctl.IsStop(err)
		partial := errors.Is(err, diag.ErrTimestepCollapse) || stopped
		if !partial || res == nil {
			fatal(err, rep)
		}
		fmt.Fprintf(os.Stderr, "spicesim: %s\n", diag.Describe(err, rep))
		fmt.Fprintf(os.Stderr, "spicesim: writing partial waveform (%d samples up to t=%g)\n",
			len(res.T), res.PartialT)
		if *ckpt != "" {
			fmt.Fprintf(os.Stderr, "spicesim: re-run with -resume to continue from %s\n", *ckpt)
		}
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err, nil)
		}
		out = f
	}
	if err := waveform.WriteCSV(out, res.T, res.Labels, res.Signals...); err != nil {
		fatal(err, nil)
	}
	if out != os.Stdout {
		if err := out.Close(); err != nil {
			fatal(err, nil)
		}
	}
	fmt.Fprintf(os.Stderr, "spicesim: %d nodes, %d samples, tstop=%g dt=%g\n",
		c.NumNodes(), len(res.T), tStop, step)
	if *diagOut {
		if st := res.Factor; st.N > 0 {
			fmt.Fprintf(os.Stderr, "spicesim: factor n=%d nnz(A)=%d nnz(L+U)=%d fill=%.2fx ordering=%s\n",
				st.N, st.NNZ, st.NNZL+st.NNZU, st.FillRatio, st.Ordering)
		} else {
			fmt.Fprintln(os.Stderr, "spicesim: factor: none (reduced-order or linear-bypass run)")
		}
		if sum := rep.Summary(); sum != "" {
			fmt.Fprintf(os.Stderr, "spicesim: ladder:\n%s\n", sum)
		}
	}
	if stopped {
		os.Exit(2) // distinguishes an interrupted run from a failure
	}
}

func fatal(err error, rep *diag.Report) {
	fmt.Fprintln(os.Stderr, "spicesim:", diag.Describe(err, rep))
	os.Exit(1)
}
