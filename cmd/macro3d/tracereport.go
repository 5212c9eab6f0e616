package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"macro3d"
)

// traceReportMain is the "macro3d trace-report" subcommand: the
// parallelism bottleneck report of an execution trace. It either
// analyzes a trace file previously written with -trace or -out, or
// runs a flow with an in-memory tracer and reports on it directly.
//
//	macro3d trace-report -in route.trace.json
//	macro3d trace-report -flow macro3d -config tiny -j 4 -top 10
//
// The report lists, per engine phase, worker occupancy, serial
// fraction, critical path and the Amdahl speedup ceiling, followed by
// the top serial segments ranked by wall-clock share — the places
// where adding workers cannot help.
func traceReportMain(args []string) int {
	fs := flag.NewFlagSet("macro3d trace-report", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "analyze this Chrome trace-event JSON file (written by -trace or trace-report -out)")
		flow    = fs.String("flow", "", "run this flow with tracing and report on it: "+strings.Join(macro3d.FlowNames(), ", "))
		config  = fs.String("config", "small", "tile configuration for -flow: small, large or tiny")
		seed    = fs.Uint64("seed", 1, "deterministic seed for -flow")
		jobs    = fs.Int("j", 0, "worker count for -flow (0 = every CPU, see macro3d -j)")
		metals  = fs.Int("macrodiemetals", 6, "macro-die metal layers (3D flows)")
		out     = fs.String("out", "", "with -flow: also write the recorded trace to this file")
		top     = fs.Int("top", 10, "serial segments to list")
		timeout = fs.Duration("timeout", 0, "with -flow: cancel the run after this duration (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil || strayArgs(fs) {
		return 2
	}
	if (*in == "") == (*flow == "") {
		fmt.Fprintln(os.Stderr, "macro3d trace-report: exactly one of -in or -flow is required")
		fs.Usage()
		return 2
	}

	var tr *macro3d.ExecTracer
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macro3d trace-report: -in:", err)
			return 1
		}
		tr, err = macro3d.ReadExecTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "macro3d trace-report: -in:", err)
			return 1
		}
	} else {
		pc, err := tileConfig(*config)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macro3d trace-report:", err)
			return 2
		}
		tr = macro3d.NewExecTracer()
		rec := macro3d.NewObsRecorder()
		rec.SetTimeline(tr)
		cfg := macro3d.FlowConfig{Piton: pc, Seed: *seed, MacroDieMetals: *metals, Workers: *jobs, Obs: rec}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		start := time.Now()
		if names := macro3d.FlowNames(); !slices.Contains(names, *flow) {
			fmt.Fprintf(os.Stderr, "macro3d trace-report: unknown flow %q (want %s)\n", *flow, strings.Join(names, ", "))
			return 2
		}
		if _, _, _, err = macro3d.RunFlow(ctx, *flow, cfg); err != nil {
			printFailure(err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "macro3d trace-report: %s/%s completed in %v\n",
			*flow, *config, time.Since(start).Round(time.Millisecond))
		if *out != "" {
			if err := writeAtomic(*out, tr.WriteChrome); err != nil {
				fmt.Fprintln(os.Stderr, "macro3d trace-report: -out:", err)
				return 1
			}
		}
	}

	fmt.Print(macro3d.AnalyzeExecTrace(tr).Format(*top))
	return 0
}
