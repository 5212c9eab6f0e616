// Command macro3d runs the physical-design flows and the paper's
// experiments from the command line, and regenerates the paper's figures
// and benchmark netlists.
//
// Usage:
//
//	macro3d -flow 2d|macro3d|s2d|bfs2d|c2d [-config small|large] [-seed N]
//	macro3d -experiment table1|table2|table3|isoperf|seeds|flowtrace|… [-seed N]
//	macro3d -experiment table1 -timeout 2m -keep-going
//	macro3d -experiment table2 -cpuprofile cpu.prof -memprofile mem.prof
//	macro3d -experiment table2 -check                  # same table, every flow checked (flows.Config.Check)
//	macro3d -experiment table1 -cache-dir /tmp/stash   # populate, then re-run to resume
//	macro3d harden|trace-report|layoutviz|pitongen …    # the other modes (harden.go, …)
//
// In every mode a flag no run could honour exits 2 before any work.
//
// Experiments choose each flow's tile and stack: -config and
// -macrodiemetals are usage errors with any but flowtrace. Every
// experiment but flowtrace writes BENCH_qor.json: -experiment seeds runs
// Tables I and II and C2D over ten seeds from -seed and writes their QoR
// there; table1, table2, table3, isoperf, sweepblockage, sweeppitch,
// heterotech and macropins write their cells there, each replacing only
// its own part of the file. Each prints its markdown table; a
// ./EXPERIMENTS.md beside the file gets every such table re-rendered from
// the merged file.
//
// -timeout bounds the whole invocation (flows are cancelled at the
// next stage boundary); -keep-going lets multi-column experiments
// print the surviving columns when one flow fails. On a flow failure
// the stage diagnostics (flow, stage, seed, cause) are
// printed to stderr and the exit status is non-zero.
//
// -cache-dir enables the content-addressed stage cache: completed
// place/route/sign-off stages are snapshotted, and a later run with
// the same inputs restores them instead of recomputing (results are
// bit-identical either way).
//
// -cpuprofile and -memprofile write runtime/pprof profiles covering the
// whole run (the memory profile is a heap snapshot taken at exit, after
// a final GC). Inspect them with `go tool pprof`. Every file a mode
// writes (-events, -metrics-out, profiles, traces, SVG, GDS, LEF, DEF)
// is written to a temporary file in the destination directory and
// renamed into place on success, so a crashed or failed write never
// leaves a truncated file behind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"macro3d"
)

// subcommands are the modes besides the flow/experiment one, by the
// word that selects them.
var subcommands = map[string]func(args []string) int{
	"harden":       mode(newHardenFlags, harden),
	"trace-report": mode(newTraceReportFlags, traceReport),
	"layoutviz":    mode(newLayoutvizFlags, layoutviz),
	"pitongen":     mode(newPitongenFlags, pitongen),
}

func main() { os.Exit(dispatch(os.Args[1:])) }

// dispatch runs the mode args select and returns its exit status.
func dispatch(args []string) int {
	if len(args) > 0 && subcommands[args[0]] != nil {
		return subcommands[args[0]](args[1:])
	}
	return mode(newFlagSet, flowMode)(args)
}

// options is the parsed command line of the flow/experiment mode.
type options struct {
	flow, experiment string
	runFlags
	array     int
	timeout   time.Duration
	keepGoing bool

	cache cacheFlags
	check bool

	cpuProfile, memProfile             string
	events, obsAddr, metricsOut, trace string
	obsLinger                          time.Duration
}

// newFlagSet declares the flow/experiment mode's flags over o, with the
// rules no run could break.
func newFlagSet(o *options) *command {
	c := newCommand("macro3d")
	c.StringVar(&o.flow, "flow", "", "run one flow: "+strings.Join(macro3d.FlowNames(), ", "))
	c.StringVar(&o.experiment, "experiment", "", "run an experiment: "+strings.Join(append(macro3d.ExperimentNames(), "flowtrace"), ", "))
	c.runOn(&o.runFlags, "small", "parallelism (0 = every CPU, 1 = one goroutine): for an -experiment, the number of flows (cells) in flight, each on one goroutine; for a single -flow, the worker count of placement and extraction, the stages that fan out; results are bit-identical at any setting")
	c.array(&o.array, 0, "after -flow 2d/macro3d: verify an N×N abutted tile array")
	c.timeout(&o.timeout)
	c.BoolVar(&o.keepGoing, "keep-going", false, "in table experiments, skip failed columns and print the partial table")
	c.cache(&o.cache)
	c.checked(&o.check)
	c.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	c.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	c.StringVar(&o.events, "events", "", "write the observability JSONL event stream (spans, metric samples, fault tags) to this file")
	c.StringVar(&o.obsAddr, "obs-addr", "", "serve live observability endpoints (/metrics, /debug/vars, /debug/pprof/) on this address, e.g. :9090 or 127.0.0.1:0")
	c.StringVar(&o.metricsOut, "metrics-out", "", "write a final Prometheus text snapshot of the run's metrics to this file")
	c.DurationVar(&o.obsLinger, "obs-linger", 0, "with -obs-addr: keep serving this long after a successful run (live inspection, smoke tests)")
	atLeast(c, "obs-linger", &o.obsLinger, 0)
	c.StringVar(&o.trace, "trace", "", "record the engines' per-worker execution timeline and write it as Chrome trace-event JSON (Perfetto / chrome://tracing; analyze with 'macro3d trace-report -in')")
	c.check(func() error {
		switch {
		case o.flow == "" && o.experiment == "":
			return errors.New("one of -flow or -experiment is required")
		case o.array > 1 && o.flow != "2d" && o.flow != "macro3d":
			return errors.New("-array requires -flow 2d or macro3d")
		}
		if o.experiment == "" || o.experiment == "flowtrace" {
			return nil
		}
		var err error
		c.Visit(func(f *flag.Flag) {
			if f.Name == "config" || f.Name == "macrodiemetals" {
				err = fmt.Errorf("-%s does not reach -experiment %s: an experiment sets the tile and the stack of each flow it runs", f.Name, o.experiment)
			}
		})
		return err
	})
	return c
}

// flowMode runs the flow/experiment mode.
func flowMode(ctx context.Context, o *options) (err error) {
	// Teardown steps are deferred, so they run last-registered-first on
	// every exit path: a failing run still flushes profiles, commits the
	// event stream and writes the metrics snapshot. A step's own failure
	// fails the run.
	teardown := func(name string, terr error) {
		if terr != nil {
			err = errors.Join(err, fmt.Errorf("%s: %w", name, terr))
		}
	}
	if o.cpuProfile != "" {
		f, err := createAtomic(o.cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", f.finish(err))
		}
		defer func() { pprof.StopCPUProfile(); teardown("-cpuprofile", f.finish(nil)) }()
	}
	if o.memProfile != "" {
		defer func() { runtime.GC(); teardown("-memprofile", writeAtomic(o.memProfile, pprof.WriteHeapProfile)) }()
	}

	// Any observability flag turns recording on; with all of them off
	// rec stays nil and the flows run with observability disabled (the
	// zero-overhead default — results are byte-identical either way).
	// -trace alone records with no event stream.
	var rec *macro3d.ObsRecorder
	if o.events != "" || o.obsAddr != "" || o.metricsOut != "" || o.trace != "" {
		rec = macro3d.NewObsRecorder()
	}
	if o.events != "" {
		f, err := createAtomic(o.events)
		if err != nil {
			return fmt.Errorf("-events: %w", err)
		}
		rec.SetSink(f)
		// A cleanly flushed stream is committed even when the run failed
		// (its events are the diagnostics); a flush error discards the
		// temp file and fails the invocation.
		defer func() { teardown("-events", f.finish(rec.Close())) }()
	}
	if o.metricsOut != "" {
		defer func() { teardown("-metrics-out", writeAtomic(o.metricsOut, rec.Registry().WritePrometheus)) }()
	}
	if o.trace != "" {
		tracer := macro3d.NewExecTracer()
		rec.SetTimeline(tracer)
		defer func() { teardown("-trace", writeAtomic(o.trace, tracer.WriteChrome)) }()
	}
	var obsSrv *macro3d.ObsServer
	if o.obsAddr != "" {
		if obsSrv, err = macro3d.ServeObs(rec, o.obsAddr); err != nil {
			return fmt.Errorf("-obs-addr: %w", err)
		}
		defer func() { teardown("-obs-addr", obsSrv.Close()) }()
		fmt.Fprintf(os.Stderr, "macro3d: observability endpoint at %s/metrics (also /debug/vars, /debug/pprof/)\n", obsSrv.URL())
	}

	cache, err := o.cache.open()
	if err != nil {
		return fmt.Errorf("-cache-dir: %w", err)
	}
	if cache != nil {
		defer printCacheSummary(cache)
	}

	cfg := o.flowConfig()
	cfg.Obs, cfg.Cache, cfg.Check = rec, cache, o.check
	if err := run(ctx, cfg, o); err != nil {
		return err
	}
	if obsSrv != nil && o.obsLinger > 0 {
		fmt.Fprintf(os.Stderr, "macro3d: run complete; serving observability for %v (Ctrl-C to stop)\n", o.obsLinger)
		select {
		case <-ctx.Done():
		case <-time.After(o.obsLinger):
		}
	}
	return nil
}

// run executes the selected flow (then the tile-array check) and the
// selected experiment under cfg.
func run(ctx context.Context, cfg macro3d.FlowConfig, o *options) error {
	if o.flow != "" {
		ppa, st, _, err := macro3d.RunFlow(ctx, o.flow, cfg)
		if err != nil {
			return err
		}
		printPPA(ppa)
		if o.array > 1 { // 2d or macro3d: options.validate
			t, err := macro3d.New28(6)
			if err != nil {
				return err
			}
			rep, err := macro3d.VerifyTileArray(cfg, st, t, o.array, o.array)
			if err != nil {
				return err
			}
			fmt.Printf("%dx%d array: tile %.1f ps vs array %.1f ps — timing closes: %v (%d stitched nets, %d bumps, route overflow %d vs %d×%d from the tiles)\n",
				rep.Nx, rep.Ny, rep.TilePeriod, rep.ArrayPeriod, rep.ClosesAtTile, rep.StitchedNets, rep.F2FBumps,
				rep.RouteOverflow, rep.Nx*rep.Ny, st.Routes.Overflow)
		}
	}
	switch o.experiment {
	case "":
		return nil
	case "flowtrace":
		return flowTrace(ctx, cfg)
	}
	// A failed experiment still returns the cells that completed, so in
	// keep-going mode they print before the failure diagnostics.
	res, err := macro3d.RunExperiment(ctx, cfg, o.experiment, o.keepGoing)
	if res != nil && (err == nil || o.keepGoing) {
		fmt.Print(res.Text)
	}
	if err != nil || res.QoR == nil {
		return err
	}
	file, err := os.ReadFile("BENCH_qor.json")
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	qor, err := res.MergeQoR(file)
	if err != nil {
		return fmt.Errorf("BENCH_qor.json: %w", err)
	}
	write := func(path string, b []byte) error {
		return writeAtomic(path, func(w io.Writer) error { _, err := w.Write(b); return err })
	}
	if err := write("BENCH_qor.json", qor); err != nil {
		return err
	}
	// EXPERIMENTS.md embeds the tables as rendered from BENCH_qor.json.
	md, err := os.ReadFile("EXPERIMENTS.md")
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	} else if err == nil {
		md, err = macro3d.RenderExperiments(md, qor)
	}
	if err != nil {
		return fmt.Errorf("EXPERIMENTS.md: %w", err)
	}
	return write("EXPERIMENTS.md", md)
}

func printPPA(p *macro3d.PPA) {
	fmt.Println(p)
	fmt.Printf("  min period     %10.1f ps\n", p.MinPeriodPs)
	fmt.Printf("  power          %10.1f µW\n", p.PowerUW)
	fmt.Printf("  logic cells    %10.3f mm²\n", p.LogicCellAreaMM2)
	fmt.Printf("  metal area     %10.1f mm²\n", p.MetalAreaMM2)
	fmt.Printf("  Cpin / Cwire   %7.3f / %.3f nF\n", p.CpinNF, p.CwireNF)
	fmt.Printf("  clk skew       %10.1f ps (depth %d)\n", p.ClkSkewPs, p.ClkDepth)
	fmt.Printf("  crit path      %10.1f ps over %.2f mm\n", p.CritPathPs, p.CritPathWLmm)
	fmt.Printf("  route overflow %10d gcell-layers\n", p.RouteOverflow)
	fmt.Printf("  opt edits      %6d resized, %d buffers\n", p.Resized, p.Buffers)
}

// flowTrace regenerates Fig. 2: the Macro-3D flow's stages with the
// live statistics of each step.
func flowTrace(ctx context.Context, cfg macro3d.FlowConfig) error {
	fmt.Println("Macro-3D flow trace (paper Fig. 2):")
	fmt.Println(" step 1: per-die floorplans — macros placed on the macro die")
	ppa, st, md, err := macro3d.RunFlow(ctx, "macro3d", cfg)
	if err != nil {
		return err
	}
	stats := st.Design.ComputeStats()
	fmt.Printf("   macros %d (substrate footprint after edit %.4f mm² — shrunk to filler), logic cells %d (%.2f mm²), die %.2f mm²\n",
		stats.NumMacros, stats.MacroArea/1e6, stats.NumStdCells, stats.StdCellArea/1e6,
		st.Die.Area()/1e6)
	fmt.Println(" step 2: combined BEOL + edited macro abstracts")
	fmt.Printf("   stack: %v\n", md.Combined)
	fmt.Printf("   edited macros: %d (pins remapped to _MD, footprint shrunk to filler)\n", md.EditedMacros)
	fmt.Println(" step 3: single-pass 2D P&R over the combined stack")
	fmt.Printf("   routed %.2f m, %d F2F bumps, overflow %d\n",
		ppa.TotalWLm, ppa.F2FBumps, ppa.RouteOverflow)
	fmt.Println(" step 4: separation into production layouts")
	logic, macro, err := macro3d.SeparateDies(md, st)
	if err != nil {
		return err
	}
	fmt.Printf("   logic die: %d cells, layers %v\n", logic.StdCells, logic.Layers)
	fmt.Printf("   macro die: %d macros, layers %v\n", macro.Macros, macro.Layers)
	fmt.Printf("   shared F2F bumps: %d\n", len(logic.Bumps))
	fmt.Println(" sign-off (valid for the 3D stack by construction):")
	printPPA(ppa)
	return nil
}
