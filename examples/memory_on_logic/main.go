// Memory-on-logic: the paper's headline experiment (Table II).
//
// Runs the full baseline 2D flow and the Macro-3D flow on the
// OpenPiton-like tile and prints the in-depth comparison: maximum
// clock frequency, energy per cycle, footprint, wirelength, F2F bump
// count, capacitances and clock-tree depth.
//
// Run with: go run ./examples/memory_on_logic [-large] [-seed N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"macro3d"
)

func main() {
	large := flag.Bool("large", false, "use the large-cache tile (1 MB L3)")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	flag.Parse()

	pc := macro3d.SmallCache()
	if *large {
		pc = macro3d.LargeCache()
	}
	cfg := macro3d.FlowConfig{Piton: pc, Seed: *seed}

	fmt.Printf("=== %s: baseline 2D flow (macros ring the periphery) ===\n", pc.Name)
	p2d, _, _, err := macro3d.RunFlow(context.Background(), "2d", cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p2d)

	fmt.Printf("\n=== %s: Macro-3D flow (single-pass true 3D P&R) ===\n", pc.Name)
	p3d, st, mol, err := macro3d.RunFlow(context.Background(), "macro3d", cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p3d)

	logicDie, macroDie, err := macro3d.SeparateDies(mol, st)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("separated layouts: logic die %d cells / macro die %d macros, %d shared bumps\n",
		logicDie.StdCells, macroDie.Macros, len(logicDie.Bumps))

	fmt.Println("\n=== comparison (paper Table II row deltas) ===")
	rows := []struct {
		name   string
		v2, v3 float64
		unit   string
	}{
		{"fclk", p2d.FclkMHz, p3d.FclkMHz, "MHz"},
		{"Emean", p2d.EmeanFJ, p3d.EmeanFJ, "fJ/cycle"},
		{"Afootprint", p2d.FootprintMM2, p3d.FootprintMM2, "mm²"},
		{"Alogic-cells", p2d.LogicCellAreaMM2, p3d.LogicCellAreaMM2, "mm²"},
		{"total wirelength", p2d.TotalWLm, p3d.TotalWLm, "m"},
		{"Cpin,total", p2d.CpinNF, p3d.CpinNF, "nF"},
		{"Cwire,total", p2d.CwireNF, p3d.CwireNF, "nF"},
		{"clk-tree depth", float64(p2d.ClkDepth), float64(p3d.ClkDepth), ""},
	}
	for _, r := range rows {
		fmt.Printf("  %-18s %10.2f → %10.2f %-9s (%+.1f%%)\n",
			r.name, r.v2, r.v3, r.unit, 100*(r.v3/r.v2-1))
	}
	fmt.Printf("  %-18s %10d → %10d\n", "F2F bumps", p2d.F2FBumps, p3d.F2FBumps)
}
