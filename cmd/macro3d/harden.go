package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"macro3d"
)

// hardenOptions is the parsed command line of macro3d harden.
type hardenOptions struct {
	runFlags
	flow, lefOut string
	array        int
	check        bool
	cache        cacheFlags
}

func newHardenFlags(o *hardenOptions) *command {
	c := newCommand("macro3d harden")
	c.runOn(&o.runFlags, "tiny", "worker count of placement and extraction (0 = every CPU, see macro3d -j; results are bit-identical at any setting)")
	c.StringVar(&o.flow, "flow", "macro3d", "sub-block signoff flow: macro3d or 2d")
	c.array(&o.array, 0, "instantiate an N×N abstract array as the hierarchical parent flow")
	c.checked(&o.check)
	c.StringVar(&o.lefOut, "o", "", "write the hardened abstract (pins, obstructions, timing properties) as LEF to this file")
	c.cache(&o.cache)
	return c
}

// harden is the "macro3d harden" subcommand: run a sub-block flow
// to signoff, condense it into a hardened-macro abstract (boundary
// pins, per-layer obstructions, boundary timing model), and optionally
// re-instantiate it as an N×N parent-level array.
//
//	macro3d harden -config tiny -flow macro3d -cache-dir stash   # harden once, cache it
//	macro3d harden -config tiny -array 4 -cache-dir stash        # warm: parent flow only
//	macro3d harden -config tiny -o tile_abstract.lef             # export the abstract LEF
//
// With a cache directory the hardened abstract is a checkpoint region of
// the sub-block flow, keyed by everything its signoff depends on: a
// repeated run of a configuration restores it and runs generate alone.
// Concurrent cold runs each harden; the cache keeps one copy.
func harden(ctx context.Context, o *hardenOptions) error {
	cache, err := o.cache.open()
	if err != nil {
		return fmt.Errorf("-cache-dir: %w", err)
	}
	if cache != nil {
		defer printCacheSummary(cache)
	}
	cfg := o.flowConfig()
	cfg.Cache, cfg.Check = cache, o.check
	hr, err := macro3d.Harden(ctx, cfg, o.flow)
	if err != nil {
		return err
	}
	abs := hr.Abstract
	src := "hardened"
	if hr.CacheHit {
		src = "cache"
	}
	fmt.Printf("abstract %s (%s, %v): %.1f×%.1f µm, %d pins, %d obstructions (%d on _MD layers)\n",
		abs.Name, src, hr.Elapsed.Round(time.Millisecond), abs.Width, abs.Height,
		len(abs.Pins), len(abs.Obstructions), macroDieObstructions(abs))
	fmt.Printf("  source flow    %s (%s)\n", abs.Abstract.SourceFlow, abs.Abstract.SourceConfig)
	fmt.Printf("  min period     %10.1f ps (%.0f MHz)\n", abs.Abstract.MinPeriodPs, 1e6/abs.Abstract.MinPeriodPs)
	fmt.Printf("  energy/cycle   %10.1f fJ\n", abs.Abstract.EnergyPerCycleFJ)
	fmt.Printf("  leakage        %10.1f µW\n", abs.Abstract.LeakageUW)
	fmt.Printf("  F2F bumps      %10d\n", abs.Abstract.F2FBumps)

	if o.lefOut != "" {
		if err := writeAtomic(o.lefOut, func(w io.Writer) error { return macro3d.WriteAbstractLEF(w, abs) }); err != nil {
			return fmt.Errorf("-o: %w", err)
		}
		fmt.Printf("  abstract LEF written to %s\n", o.lefOut)
	}

	if o.array > 1 {
		rep, err := macro3d.InstantiateArray(cfg, hr, o.array, o.array)
		if err != nil {
			return err
		}
		fmt.Printf("%dx%d hierarchical array (parent level %v): tile %.1f ps vs array %.1f ps — timing closes: %v\n",
			rep.Nx, rep.Ny, rep.ParentElapsed.Round(time.Millisecond),
			rep.TilePeriodPs, rep.ArrayPeriodPs, rep.ClosesAtTile)
		fmt.Printf("  stitched nets  %10d\n", rep.StitchedNets)
		fmt.Printf("  F2F bumps      %10d (incl. %d per hardened instance)\n", rep.F2FBumps, abs.Abstract.F2FBumps)
		fmt.Printf("  energy/cycle   %10.1f fJ\n", rep.EnergyPerCycleFJ)
		fmt.Printf("  power          %10.1f µW (leakage %.1f µW)\n", rep.PowerUW, rep.LeakageUW)
		if o.check {
			fmt.Println("  verification   clean")
		}
	}
	return nil
}

// macroDieObstructions counts an abstract's obstructions on the macro
// die's (_MD) layers.
func macroDieObstructions(abs *macro3d.Cell) int {
	n := 0
	for _, ob := range abs.Obstructions {
		if strings.HasSuffix(ob.Layer, "_MD") {
			n++
		}
	}
	return n
}
