package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"macro3d"
)

// traceReportOptions is the parsed command line of macro3d trace-report.
type traceReportOptions struct {
	in, flow, out string
	runFlags
	top     int
	timeout time.Duration
}

func newTraceReportFlags(o *traceReportOptions) *command {
	c := newCommand("macro3d trace-report")
	c.StringVar(&o.in, "in", "", "analyze this Chrome trace-event JSON file (written by -trace or trace-report -out)")
	c.StringVar(&o.flow, "flow", "", "run this flow with tracing and report on it: "+strings.Join(macro3d.FlowNames(), ", "))
	c.runOn(&o.runFlags, "small", "worker count for -flow (0 = every CPU, see macro3d -j)")
	c.StringVar(&o.out, "out", "", "with -flow: also write the recorded trace to this file")
	c.IntVar(&o.top, "top", 10, "serial segments to list")
	atLeast(c, "top", &o.top, 0)
	c.timeout(&o.timeout)
	c.check(func() error {
		switch names := macro3d.FlowNames(); {
		case (o.in == "") == (o.flow == ""):
			return errors.New("exactly one of -in or -flow is required")
		case o.flow != "" && !slices.Contains(names, o.flow):
			return fmt.Errorf("unknown flow %q (want %s)", o.flow, strings.Join(names, ", "))
		}
		return nil
	})
	return c
}

// traceReport is the "macro3d trace-report" subcommand: the
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
func traceReport(ctx context.Context, o *traceReportOptions) error {
	var tr *macro3d.ExecTracer
	if o.in != "" {
		f, err := os.Open(o.in)
		if err != nil {
			return fmt.Errorf("-in: %w", err)
		}
		tr, err = macro3d.ReadExecTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("-in: %w", err)
		}
	} else {
		tr = macro3d.NewExecTracer()
		rec := macro3d.NewObsRecorder()
		rec.SetTimeline(tr)
		cfg := o.flowConfig()
		cfg.Obs = rec
		start := time.Now()
		if _, _, _, err := macro3d.RunFlow(ctx, o.flow, cfg); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "macro3d trace-report: %s/%s completed in %v\n",
			o.flow, o.tile.name, time.Since(start).Round(time.Millisecond))
		if o.out != "" {
			if err := writeAtomic(o.out, tr.WriteChrome); err != nil {
				return fmt.Errorf("-out: %w", err)
			}
		}
	}
	fmt.Print(macro3d.AnalyzeExecTrace(tr).Format(o.top))
	return nil
}
