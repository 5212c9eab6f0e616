// Quickstart: the Macro-3D methodology in five minutes.
//
// This example walks the core transformations on real objects without
// running a full flow (see examples/memory_on_logic for that):
//
//  1. compile an SRAM macro,
//  2. build the combined two-die BEOL a standard 2D engine routes on,
//  3. view the macro on that stack's macro die (the Macro-3D abstract
//     edit),
//  4. generate the OpenPiton-like benchmark tile and show why MoL
//     stacking applies (macros dominate the substrate).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"macro3d"
)

func main() {
	// 1. A 32 kB SRAM macro from the synthetic memory compiler.
	sram, err := macro3d.NewSRAM(macro3d.SRAMSpec{Name: "sram_32k", Words: 8192, Bits: 32})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s: %.0f×%.0f µm, %d pins on %s, clk→q %.0f ps\n",
		sram.Name, sram.Width, sram.Height, len(sram.Pins), sram.Pins[0].Layer, sram.ClkQ)

	// 2. The combined BEOL: logic metals, the F2F bonding via, then
	// the macro die's metals in flipped traversal order.
	logic, err := macro3d.NewBEOL28("logic", 6)
	if err != nil {
		log.Fatal(err)
	}
	macroStack, err := macro3d.NewBEOL28("macro", 4)
	if err != nil {
		log.Fatal(err)
	}
	combined, err := macro3d.CombineBEOL(logic, macroStack, macro3d.DefaultF2F())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("combined stack: %v\n", combined)
	fmt.Printf("  (%d logic + %d macro-die layers; F2F via after layer %d)\n",
		combined.LogicDieLayers(), combined.MacroDieLayers(), combined.F2FViaIndex()+1)

	// 3. The Macro-3D edit: pins and obstructions move to the stack's
	// _MD layers at unchanged (x, y); the substrate footprint shrinks to
	// a filler cell so the macro consumes no logic-die placement area.
	// A macro die too thin for the macro's pins would be an error here.
	edited, err := macro3d.MacroDieView(sram, combined, 0.19, 1.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("edited  %s: footprint %.2f×%.2f µm, pins now on %s (same offsets)\n",
		edited.Name, edited.Width, edited.Height, edited.Pins[0].Layer)

	// 4. The benchmark: even the small-cache tile is macro-dominated,
	// which is the regime where MoL stacking (and Macro-3D) wins.
	tile, err := macro3d.GenerateTile(macro3d.SmallCache())
	if err != nil {
		log.Fatal(err)
	}
	st := tile.Design.ComputeStats()
	fmt.Printf("benchmark %s: %d instances, %d nets\n",
		tile.Design.Name, st.NumInstances, st.NumNets)
	fmt.Printf("  logic %.3f mm², macros %.3f mm² → macros are %.0f%% of cell area\n",
		st.StdCellArea/1e6, st.MacroArea/1e6, 100*st.MacroArea/(st.StdCellArea+st.MacroArea))
	fmt.Println("next: go run ./examples/memory_on_logic  (full 2D vs Macro-3D flows)")
}
