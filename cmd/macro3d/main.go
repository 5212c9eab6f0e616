// Command macro3d runs the physical-design flows and the paper's
// experiments from the command line.
//
// Usage:
//
//	macro3d -flow 2d|macro3d|s2d|bfs2d|c2d [-config small|large] [-seed N]
//	macro3d -experiment table1|table2|table3|isoperf|seeds|flowtrace|… [-seed N]
//	macro3d -experiment table1 -timeout 2m -keep-going
//	macro3d -experiment table2 -cpuprofile cpu.prof -memprofile mem.prof
//	macro3d -experiment table1 -cache-dir /tmp/stash   # populate, then re-run to resume
//	macro3d -flow macro3d -resume                      # cache under .macro3d-stash
//
// Experiments choose each flow's tile and stack: -config and
// -macrodiemetals are usage errors with any but flowtrace. -experiment
// seeds runs Tables I and II and C2D over ten seeds from -seed and writes
// their QoR to BENCH_qor.json.
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
// bit-identical either way). -resume is shorthand that defaults the
// directory to .macro3d-stash; -cache-verify re-runs cached stages
// and fails if the snapshot does not match bit-for-bit.
//
// -cpuprofile and -memprofile write runtime/pprof profiles covering the
// whole run (the memory profile is a heap snapshot taken at exit, after
// a final GC). Inspect them with `go tool pprof`. All file outputs
// (-events, -metrics-out, profiles) are written to a temporary file in
// the destination directory and renamed into place on success, so a
// crashed or failed write never leaves a truncated file behind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"macro3d"
)

// defaultCacheDir is where -resume keeps snapshots when -cache-dir is
// not given.
const defaultCacheDir = ".macro3d-stash"

func main() {
	// "macro3d harden" hardens a sub-block into a reusable abstract
	// and optionally instantiates it as a hierarchical array.
	if len(os.Args) >= 2 && os.Args[1] == "harden" {
		os.Exit(hardenMain(os.Args[2:]))
	}
	// "macro3d trace-report" analyzes an execution trace (or records
	// one) and prints the parallelism bottleneck report.
	if len(os.Args) >= 2 && os.Args[1] == "trace-report" {
		os.Exit(traceReportMain(os.Args[2:]))
	}
	// Cleanups (profile flushes, event-stream commits) must run even on
	// a failing exit, so the exit status is decided after realMain
	// returns.
	os.Exit(realMain(os.Args[1:]))
}

// atomicFile writes to a temporary file next to the destination that
// finish renames into place, so readers never observe a partial file and
// a failed run never clobbers a previous good output.
type atomicFile struct {
	*os.File
	path string
}

func createAtomic(path string) (*atomicFile, error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	return &atomicFile{File: f, path: path}, nil
}

// finish commits the file — sync, close, rename onto the destination —
// when err is nil, and discards it otherwise. It returns err, or the
// commit's own failure.
func (a *atomicFile) finish(err error) error {
	if err == nil {
		err = a.Sync()
	}
	if cerr := a.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(a.Name(), a.path)
	}
	if err != nil {
		os.Remove(a.Name())
	}
	return err
}

// writeAtomic writes path through an atomicFile that write fills.
func writeAtomic(path string, write func(w io.Writer) error) error {
	f, err := createAtomic(path)
	if err != nil {
		return err
	}
	return f.finish(write(f))
}

// cleanup is one teardown step; errors surface on stderr and force a
// non-zero exit.
type cleanup struct {
	name string
	fn   func() error
}

// options is the parsed command line of the flow/experiment mode.
type options struct {
	flow, experiment, config string
	seed                     uint64
	jobs, metals, array      int
	timeout                  time.Duration
	keepGoing                bool

	cacheDir            string
	resume, cacheVerify bool
	cacheMax            int64

	cpuProfile, memProfile             string
	events, obsAddr, metricsOut, trace string
	obsLinger                          time.Duration

	// set holds the flags given on the command line (flag.FlagSet.Visit).
	set map[string]bool
}

// newFlagSet declares the flow/experiment mode's flags over o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("macro3d", flag.ContinueOnError)
	fs.StringVar(&o.flow, "flow", "", "run one flow: "+strings.Join(macro3d.FlowNames(), ", "))
	fs.StringVar(&o.experiment, "experiment", "", "run an experiment: "+strings.Join(append(macro3d.ExperimentNames(), "flowtrace"), ", "))
	fs.StringVar(&o.config, "config", "small", "tile configuration: small, large or tiny")
	fs.Uint64Var(&o.seed, "seed", 1, "deterministic seed")
	fs.IntVar(&o.jobs, "j", 0, "parallelism (0 = every CPU, 1 = one goroutine): for an -experiment, the number of flows (cells) in flight, each on one goroutine; for a single -flow, the worker count of placement and extraction, the stages that fan out; results are bit-identical at any setting")
	fs.IntVar(&o.metals, "macrodiemetals", 6, "macro-die metal layers (3D flows)")
	fs.IntVar(&o.array, "array", 0, "after -flow 2d/macro3d: verify an N×N abutted tile array")
	fs.DurationVar(&o.timeout, "timeout", 0, "cancel the run after this duration (0 = no limit)")
	fs.BoolVar(&o.keepGoing, "keep-going", false, "in table experiments, skip failed columns and print the partial table")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "content-addressed stage cache directory: snapshots of completed stages skip recomputation on later runs")
	fs.BoolVar(&o.resume, "resume", false, "resume from cached stage snapshots (implies -cache-dir "+defaultCacheDir+" when unset)")
	fs.BoolVar(&o.cacheVerify, "cache-verify", false, "paranoia mode: re-run cached stages and fail unless the snapshot matches bit-for-bit")
	fs.Int64Var(&o.cacheMax, "cache-max-bytes", 0, "stage cache byte budget: evict least-recently-used snapshots to stay under this size (0 = unlimited)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.events, "events", "", "write the observability JSONL event stream (spans, metric samples, fault tags) to this file")
	fs.StringVar(&o.obsAddr, "obs-addr", "", "serve live observability endpoints (/metrics, /metrics.json, /debug/vars, /debug/pprof/) on this address, e.g. :9090 or 127.0.0.1:0")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write a final Prometheus text snapshot of the run's metrics to this file")
	fs.DurationVar(&o.obsLinger, "obs-linger", 0, "with -obs-addr: keep serving this long after a successful run (live inspection, smoke tests)")
	fs.StringVar(&o.trace, "trace", "", "record the engines' per-worker execution timeline and write it as Chrome trace-event JSON (Perfetto / chrome://tracing; analyze with 'macro3d trace-report -in')")
	return fs
}

// strayArgs reports a usage error when words are left after the flags:
// flag parsing stops at the first non-flag, so every flag after a stray
// word would otherwise be silently dropped.
func strayArgs(fs *flag.FlagSet) bool {
	if fs.NArg() == 0 {
		return false
	}
	fmt.Fprintf(fs.Output(), "%s: unexpected argument %q (flags after it would be ignored)\n", fs.Name(), fs.Arg(0))
	fs.Usage()
	return true
}

// validate rejects flag combinations no run could honour, before any
// work is done.
func (o *options) validate() error {
	if o.array > 1 && o.flow != "2d" && o.flow != "macro3d" {
		return errors.New("-array requires -flow 2d or macro3d")
	}
	if o.cacheVerify && o.cacheDir == "" && !o.resume {
		return errors.New("-cache-verify needs -cache-dir or -resume")
	}
	if err := checkCacheFlags(o.cacheDir, o.resume, o.cacheMax, o.jobs); err != nil {
		return err
	}
	if err := checkSizeFlags(o.metals, o.array); err != nil {
		return err
	}
	if o.experiment != "" && o.experiment != "flowtrace" {
		for _, name := range []string{"config", "macrodiemetals"} {
			if o.set[name] {
				return fmt.Errorf("-%s does not reach -experiment %s: an experiment sets the tile and the stack of each flow it runs", name, o.experiment)
			}
		}
	}
	return nil
}

// checkCacheFlags rejects the cache and -j values both modes would
// otherwise run without: a byte cap on no cache, and a negative cap or
// worker count.
func checkCacheFlags(cacheDir string, resume bool, cacheMax int64, jobs int) error {
	switch {
	case cacheMax < 0:
		return fmt.Errorf("-cache-max-bytes %d: a byte budget is 0 (unlimited) or more", cacheMax)
	case cacheMax > 0 && cacheDir == "" && !resume:
		return errors.New("-cache-max-bytes needs -cache-dir or -resume")
	case jobs < 0:
		return fmt.Errorf("-j %d: a worker count is 0 (every CPU) or more", jobs)
	}
	return nil
}

// checkSizeFlags rejects the stack and array sizes no run could honour:
// a macro die with no metal layer, and a negative array edge.
func checkSizeFlags(metals, array int) error {
	switch {
	case metals <= 0:
		return fmt.Errorf("-macrodiemetals %d: a macro die has 1 metal layer or more", metals)
	case array < 0:
		return fmt.Errorf("-array %d: an array edge is 0 (no array) or more", array)
	}
	return nil
}

func realMain(args []string) (code int) {
	var o options
	fs := newFlagSet(&o)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if strayArgs(fs) {
		return 2
	}
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	if o.flow == "" && o.experiment == "" {
		fs.Usage()
		return 2
	}
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "macro3d:", err)
		return 2
	}
	pc, err := tileConfig(o.config)
	if err != nil {
		fmt.Fprintln(os.Stderr, "macro3d:", err)
		return 1
	}

	// Cleanups run last-registered-first on every exit path, so a
	// failing run still flushes profiles, commits the event stream and
	// writes the metrics snapshot; a cleanup failure itself makes the
	// exit status non-zero.
	var cleanups []cleanup
	defer func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			if err := cleanups[i].fn(); err != nil {
				fmt.Fprintf(os.Stderr, "macro3d: %s: %v\n", cleanups[i].name, err)
				if code == 0 {
					code = 1
				}
			}
		}
	}()

	if o.cpuProfile != "" {
		f, err := createAtomic(o.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macro3d: -cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "macro3d: -cpuprofile:", f.finish(err))
			return 1
		}
		cleanups = append(cleanups, cleanup{"-cpuprofile", func() error {
			pprof.StopCPUProfile()
			return f.finish(nil)
		}})
	}
	if o.memProfile != "" {
		path := o.memProfile
		cleanups = append(cleanups, cleanup{"-memprofile", func() error {
			runtime.GC()
			return writeAtomic(path, pprof.WriteHeapProfile)
		}})
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
			fmt.Fprintln(os.Stderr, "macro3d: -events:", err)
			return 1
		}
		rec.SetSink(f)
		cleanups = append(cleanups, cleanup{"-events", func() error {
			// A cleanly flushed stream is committed even when the run
			// failed (its events are the diagnostics); a flush error
			// discards the temp file and fails the invocation.
			return f.finish(rec.Close())
		}})
	}
	if o.metricsOut != "" {
		path := o.metricsOut
		cleanups = append(cleanups, cleanup{"-metrics-out", func() error {
			return writeAtomic(path, rec.Registry().WritePrometheus)
		}})
	}
	if o.trace != "" {
		tracer := macro3d.NewExecTracer()
		rec.SetTimeline(tracer)
		path := o.trace
		cleanups = append(cleanups, cleanup{"-trace", func() error {
			return writeAtomic(path, tracer.WriteChrome)
		}})
	}
	var obsSrv *macro3d.ObsServer
	if o.obsAddr != "" {
		srv, err := rec.Serve(o.obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macro3d: -obs-addr:", err)
			return 1
		}
		obsSrv = srv
		cleanups = append(cleanups, cleanup{"-obs-addr", obsSrv.Close})
		fmt.Fprintf(os.Stderr, "macro3d: observability endpoint at %s/metrics (also /metrics.json, /debug/vars, /debug/pprof/)\n", obsSrv.URL())
	}

	cdir := o.cacheDir
	if cdir == "" && o.resume {
		cdir = defaultCacheDir
	}
	var cache *macro3d.StageCache
	if cdir != "" {
		var err error
		if cache, err = macro3d.OpenStageCacheLimited(cdir, o.cacheMax); err != nil {
			fmt.Fprintln(os.Stderr, "macro3d: -cache-dir:", err)
			return 1
		}
		cleanups = append(cleanups, cleanup{"stage cache", func() error {
			printCacheSummary(cache)
			return nil
		}})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	cfg := macro3d.FlowConfig{Piton: pc, Seed: o.seed, MacroDieMetals: o.metals, Obs: rec, Workers: o.jobs,
		Cache: cache, CacheVerify: o.cacheVerify}
	if err := run(ctx, cfg, &o); err != nil {
		printFailure(err)
		return 1
	}
	if obsSrv != nil && o.obsLinger > 0 {
		fmt.Fprintf(os.Stderr, "macro3d: run complete; serving observability for %v (Ctrl-C to stop)\n", o.obsLinger)
		select {
		case <-ctx.Done():
		case <-time.After(o.obsLinger):
		}
	}
	return 0
}

// printCacheSummary renders one run's cache traffic, duplicate puts
// included.
func printCacheSummary(cache *macro3d.StageCache) {
	s := cache.Stats()
	fmt.Fprintf(os.Stderr, "macro3d: stage cache %s: %d hits, %d misses, %d stored (%d dup), %d evicted, %d errors, %d B read, %d B written\n",
		cache.Dir(), s.Hits, s.Misses, s.Puts, s.DupPuts, s.Evictions, s.Errors, s.BytesRead, s.BytesWritten)
}

// printFailure renders a flow failure: StageError diagnostics when the
// error chain carries one, a plain message otherwise.
func printFailure(err error) {
	var se *macro3d.StageError
	if !errors.As(err, &se) {
		fmt.Fprintln(os.Stderr, "macro3d:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "macro3d: flow failed")
	fmt.Fprintf(os.Stderr, "  flow    %s\n", se.Flow)
	fmt.Fprintf(os.Stderr, "  stage   %s\n", se.Stage)
	fmt.Fprintf(os.Stderr, "  seed    %d\n", se.Seed)
	if se.Config != "" {
		fmt.Fprintf(os.Stderr, "  config  %s\n", se.Config)
	}
	fmt.Fprintf(os.Stderr, "  cause   %v\n", se.Cause)
	var pe *macro3d.PanicError
	if errors.As(se.Cause, &pe) && len(pe.Stack) > 0 {
		fmt.Fprintf(os.Stderr, "  stack:\n%s\n", pe.Stack)
	}
	fmt.Fprintf(os.Stderr, "  (full error: %v)\n", err)
}

func tileConfig(name string) (macro3d.TileConfig, error) {
	if tile, ok := map[string]func() macro3d.TileConfig{"small": macro3d.SmallCache, "large": macro3d.LargeCache, "tiny": macro3d.TinyTile}[name]; ok {
		return tile(), nil
	}
	return macro3d.TileConfig{}, fmt.Errorf("unknown config %q (want small, large or tiny)", name)
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
	return writeAtomic("BENCH_qor.json", func(w io.Writer) error {
		_, err := w.Write(res.QoR)
		return err
	})
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
