// Tile array: the paper's §V-1 methodology made executable, flat and
// hierarchical.
//
// OpenPiton systems are built by abutting tile instances: every
// inter-tile pin is placed on the die edge, aligned with its partner
// pin on the facing edge, and constrained to half a clock cycle — so a
// tile signed off once composes into arrays of arbitrary core count
// with no additional routing and no new timing closure.
//
// Two compositions of the same tile are demonstrated:
//
//   - flat: run the Macro-3D flow on one tile, stitch an N×N array by
//     replicating layout and routing verbatim, then re-verify the flat
//     array with full STA over every cell.
//   - hier: harden the tile into a first-class abstract (boundary
//     pins, per-layer routing obstructions — including the macro-die
//     _MD layers — and a boundary timing model), then instantiate N²
//     opaque abstracts in a parent flow that routes, builds a clock
//     tree, and signs off against the abstracts' boundary arcs only.
//
// The hierarchical parent sees N² instances instead of N²·|cells|
// instances, which is where the wall-clock win comes from; with a
// -cache dir the hardening itself is also reused across runs.
//
// Run with: go run ./examples/tile_array [-n 4] [-mode both] [-cache DIR] [-gds out/]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"macro3d"
)

func main() {
	n := flag.Int("n", 4, "array dimension (N×N tiles)")
	mode := flag.String("mode", "both", "composition to run: flat, hier or both")
	cacheDir := flag.String("cache", "", "content-addressed cache directory: reuse hardened abstracts across runs")
	gdsDir := flag.String("gds", "", "also write per-die GDSII streams to this directory")
	flag.Parse()

	cfg := macro3d.FlowConfig{Piton: macro3d.TinyTile(), Seed: 5}
	if *cacheDir != "" {
		cache, err := macro3d.OpenStageCache(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Cache = cache
	}

	var flatElapsed, hierElapsed time.Duration

	if *mode == "flat" || *mode == "both" {
		fmt.Println("flat: signing off one tile with Macro-3D…")
		start := time.Now()
		ppa, st, mol, err := macro3d.RunFlow(context.Background(), "macro3d", cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  tile: %.0f MHz (period %.0f ps), %d F2F bumps\n",
			ppa.FclkMHz, ppa.MinPeriodPs, ppa.F2FBumps)

		t, err := macro3d.New28(6)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("flat: composing a %d×%d array by abutment (routes replicated verbatim)…\n", *n, *n)
		rep, err := macro3d.VerifyTileArray(cfg, st, t, *n, *n)
		if err != nil {
			log.Fatal(err)
		}
		flatElapsed = time.Since(start)
		fmt.Printf("  array: %d instances, %d stitched inter-tile nets, %d bumps\n",
			len(rep.Design.Instances), rep.StitchedNets, rep.F2FBumps)
		fmt.Printf("  timing: tile %.0f ps vs array %.0f ps — closes at tile frequency: %v (%v)\n",
			rep.TilePeriod, rep.ArrayPeriod, rep.ClosesAtTile, flatElapsed.Round(time.Millisecond))
		if !rep.ClosesAtTile {
			log.Fatal("flat array failed timing — §V-1 invariant broken")
		}

		if *gdsDir != "" {
			logicDie, macroDie, err := macro3d.SeparateDies(mol, st)
			if err != nil {
				log.Fatal(err)
			}
			for _, part := range []*macro3d.DieLayout{logicDie, macroDie} {
				path := filepath.Join(*gdsDir, part.Name+".gds")
				f, err := os.Create(path)
				if err != nil {
					log.Fatal(err)
				}
				if err := macro3d.WriteGDS(f, st, part); err != nil {
					log.Fatal(err)
				}
				f.Close()
				fmt.Println("  wrote", path)
			}
		}
	}

	if *mode == "hier" || *mode == "both" {
		fmt.Println("hier: hardening the tile into a first-class abstract…")
		start := time.Now()
		cfg.Check = true
		rep, err := macro3d.RunHierArray(context.Background(), cfg, macro3d.HardenFlowMacro3D, *n, *n)
		if err != nil {
			log.Fatal(err)
		}
		hierElapsed = time.Since(start)
		abs := rep.Abstract
		mdObs := 0
		for _, o := range abs.Obstructions {
			if strings.HasSuffix(o.Layer, "_MD") {
				mdObs++
			}
		}
		src := "hardened fresh"
		if rep.HardenCacheHit {
			src = "from cache"
		}
		fmt.Printf("  abstract %s (%s in %v): %d pins, %d obstructions (%d on _MD layers)\n",
			abs.Name, src, rep.HardenElapsed.Round(time.Millisecond),
			len(abs.Pins), len(abs.Obstructions), mdObs)
		fmt.Printf("hier: instantiating %d×%d abstracts in the parent flow…\n", rep.Nx, rep.Ny)
		fmt.Printf("  array: %d abstract instances, %d stitched inter-tile nets, %d bumps\n",
			len(rep.Design.Instances), rep.StitchedNets, rep.F2FBumps)
		fmt.Printf("  timing: tile %.0f ps vs array %.0f ps — closes at tile frequency: %v (%v)\n",
			rep.TilePeriodPs, rep.ArrayPeriodPs, rep.ClosesAtTile, hierElapsed.Round(time.Millisecond))
		fmt.Printf("  power: %.1f fJ/cycle, %.1f µW (leakage %.1f µW) — verification clean\n",
			rep.EnergyPerCycleFJ, rep.PowerUW, rep.LeakageUW)
		if !rep.ClosesAtTile {
			log.Fatal("hierarchical array failed timing — boundary model broken")
		}
	}

	if *mode == "both" && hierElapsed > 0 {
		fmt.Printf("hierarchical composition was %.1f× faster than flat re-verification\n",
			float64(flatElapsed)/float64(hierElapsed))
	}
	fmt.Println("done: one sign-off, arbitrary core counts (paper §V-1).")
}
