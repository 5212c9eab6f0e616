package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"macro3d"
)

// hardenMain is the "macro3d harden" subcommand: run a sub-block flow
// to signoff, condense it into a hardened-macro abstract (boundary
// pins, per-layer obstructions, boundary timing model), and optionally
// re-instantiate it as an N×N parent-level array.
//
//	macro3d harden -config tiny -flow macro3d -resume            # harden once, cache it
//	macro3d harden -config tiny -array 4 -resume                 # warm: parent flow only
//	macro3d harden -config tiny -o tile_abstract.lef             # export the abstract LEF
//
// With a cache directory the hardened abstract is a checkpoint region of
// the sub-block flow, keyed by everything its signoff depends on: a
// repeated run of a configuration restores it and runs generate alone.
// Concurrent cold runs each harden; the cache keeps one copy.
func hardenMain(args []string) int {
	fs := flag.NewFlagSet("macro3d harden", flag.ExitOnError)
	var (
		config   = fs.String("config", "tiny", "tile configuration: small, large or tiny")
		flowKind = fs.String("flow", "macro3d", "sub-block signoff flow: macro3d or 2d")
		seed     = fs.Uint64("seed", 1, "deterministic seed")
		jobs     = fs.Int("j", 0, "worker count of placement and extraction (0 = every CPU, see macro3d -j; results are bit-identical at any setting)")
		metals   = fs.Int("macrodiemetals", 6, "macro-die metal layers (macro3d flow)")
		array    = fs.Int("array", 0, "instantiate an N×N abstract array as the hierarchical parent flow")
		verify   = fs.Bool("verify", true, "run independent sign-off verification on the parent array")
		lefOut   = fs.String("o", "", "write the hardened abstract (pins, obstructions, timing properties) as LEF to this file")
		cacheDir = fs.String("cache-dir", "", "content-addressed cache directory: hardened abstracts are stored and reloaded by config hash")
		resume   = fs.Bool("resume", false, "shorthand for -cache-dir "+defaultCacheDir)
		cacheMax = fs.Int64("cache-max-bytes", 0, "cache byte budget with LRU eviction (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil || strayArgs(fs) {
		return 2
	}
	if err := cmp.Or(checkCacheFlags(*cacheDir, *resume, *cacheMax, *jobs), checkSizeFlags(*metals, *array)); err != nil {
		fmt.Fprintln(os.Stderr, "macro3d harden:", err)
		return 2
	}

	pc, err := tileConfig(*config)
	if err != nil {
		fmt.Fprintln(os.Stderr, "macro3d harden:", err)
		return 2
	}
	cdir := *cacheDir
	if cdir == "" && *resume {
		cdir = defaultCacheDir
	}
	var cache *macro3d.StageCache
	if cdir != "" {
		if cache, err = macro3d.OpenStageCacheLimited(cdir, *cacheMax); err != nil {
			fmt.Fprintln(os.Stderr, "macro3d harden: -cache-dir:", err)
			return 1
		}
		defer func() { printCacheSummary(cache) }()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := macro3d.FlowConfig{
		Piton: pc, Seed: *seed, MacroDieMetals: *metals,
		Workers: *jobs, Cache: cache, Verify: *verify && *array <= 1,
	}
	hr, err := macro3d.Harden(ctx, cfg, *flowKind)
	if err != nil {
		printFailure(err)
		return 1
	}
	abs := hr.Abstract
	src := "hardened"
	if hr.CacheHit {
		src = "cache"
	}
	mdObs := 0
	for _, o := range abs.Obstructions {
		if strings.HasSuffix(o.Layer, "_MD") {
			mdObs++
		}
	}
	fmt.Printf("abstract %s (%s, %v): %.1f×%.1f µm, %d pins, %d obstructions (%d on _MD layers)\n",
		abs.Name, src, hr.Elapsed.Round(time.Millisecond), abs.Width, abs.Height,
		len(abs.Pins), len(abs.Obstructions), mdObs)
	fmt.Printf("  source flow    %s (%s)\n", abs.Abstract.SourceFlow, abs.Abstract.SourceConfig)
	fmt.Printf("  min period     %10.1f ps (%.0f MHz)\n", abs.Abstract.MinPeriodPs, 1e6/abs.Abstract.MinPeriodPs)
	fmt.Printf("  energy/cycle   %10.1f fJ\n", abs.Abstract.EnergyPerCycleFJ)
	fmt.Printf("  leakage        %10.1f µW\n", abs.Abstract.LeakageUW)
	fmt.Printf("  F2F bumps      %10d\n", abs.Abstract.F2FBumps)

	if *lefOut != "" {
		if err := writeAbstractLEF(*lefOut, abs); err != nil {
			fmt.Fprintln(os.Stderr, "macro3d harden: -o:", err)
			return 1
		}
		fmt.Printf("  abstract LEF written to %s\n", *lefOut)
	}

	if *array > 1 {
		cfg.Verify = *verify
		rep, err := macro3d.InstantiateArray(cfg, hr, *array, *array)
		if err != nil {
			printFailure(err)
			return 1
		}
		fmt.Printf("%dx%d hierarchical array (parent level %v): tile %.1f ps vs array %.1f ps — timing closes: %v\n",
			rep.Nx, rep.Ny, rep.ParentElapsed.Round(time.Millisecond),
			rep.TilePeriodPs, rep.ArrayPeriodPs, rep.ClosesAtTile)
		fmt.Printf("  stitched nets  %10d\n", rep.StitchedNets)
		fmt.Printf("  F2F bumps      %10d (incl. %d per hardened instance)\n", rep.F2FBumps, abs.Abstract.F2FBumps)
		fmt.Printf("  energy/cycle   %10.1f fJ\n", rep.EnergyPerCycleFJ)
		fmt.Printf("  power          %10.1f µW (leakage %.1f µW)\n", rep.PowerUW, rep.LeakageUW)
		if *verify {
			fmt.Println("  verification   clean")
		}
	}
	return 0
}

// writeAbstractLEF exports a single-macro library LEF carrying the
// abstract's boundary pins, obstructions and timing properties.
func writeAbstractLEF(path string, abs *macro3d.Cell) error {
	lib := macro3d.NewLibrary(abs.Name + "_lib")
	lib.Add(abs)
	return writeAtomic(path, func(w io.Writer) error { return macro3d.WriteLEF(w, nil, lib) })
}
