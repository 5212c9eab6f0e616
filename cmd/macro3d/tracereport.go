package main

import (
	"context"
	"errors"
	"fmt"
	"os"

	"macro3d"
)

// traceReportOptions is the parsed command line of macro3d trace-report.
type traceReportOptions struct {
	in  string
	top int
}

func newTraceReportFlags(o *traceReportOptions) *command {
	c := newCommand("macro3d trace-report")
	c.StringVar(&o.in, "in", "", "analyze this Chrome trace-event JSON file (written by macro3d -trace)")
	c.IntVar(&o.top, "top", 10, "serial segments to list")
	atLeast(c, "top", &o.top, 0)
	c.check(func() error {
		if o.in == "" {
			return errors.New("-in is required")
		}
		return nil
	})
	return c
}

// traceReport is the "macro3d trace-report" subcommand: the
// parallelism bottleneck report of an execution trace a run wrote with
// -trace.
//
//	macro3d -flow macro3d -config tiny -j 4 -trace route.trace.json
//	macro3d trace-report -in route.trace.json -top 10
//
// The report lists, per engine phase, worker occupancy, serial
// fraction, critical path and the Amdahl speedup ceiling, followed by
// the top serial segments ranked by wall-clock share — the places
// where adding workers cannot help.
func traceReport(_ context.Context, o *traceReportOptions) error {
	f, err := os.Open(o.in)
	if err != nil {
		return fmt.Errorf("-in: %w", err)
	}
	tr, err := macro3d.ReadExecTrace(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("-in: %w", err)
	}
	fmt.Print(macro3d.AnalyzeExecTrace(tr).Format(o.top))
	return nil
}
