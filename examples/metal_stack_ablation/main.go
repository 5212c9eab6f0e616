// Metal-stack ablation: the paper's Table III experiment.
//
// Macro-3D designs route most signals in the logic die; the macro die's
// upper metals mainly provide pin access. Removing two macro-die metal
// layers (M6–M6 → M6–M4) therefore barely affects performance while
// cutting metal area ~17 % and reducing the F2F bump count — the
// heterogeneous-BEOL manufacturing saving the paper highlights.
//
// Run with: go run ./examples/metal_stack_ablation [-large] [-seed N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"macro3d"
)

func main() {
	large := flag.Bool("large", false, "use the large-cache tile")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	flag.Parse()

	pc := macro3d.SmallCache()
	if *large {
		pc = macro3d.LargeCache()
	}

	run := func(metals int) *macro3d.PPA {
		cfg := macro3d.FlowConfig{Piton: pc, Seed: *seed, MacroDieMetals: metals}
		p, _, _, err := macro3d.RunFlow(context.Background(), "macro3d", cfg)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	m66 := run(6)
	m64 := run(4)

	fmt.Printf("Macro-3D %s, macro-die metal ablation (Table III)\n", pc.Name)
	fmt.Printf("%-18s %12s %12s %10s\n", "", "M6–M6", "M6–M4", "delta")
	row := func(name string, a, b float64, f string) {
		fmt.Printf("%-18s %12s %12s %9.1f%%\n", name,
			fmt.Sprintf(f, a), fmt.Sprintf(f, b), 100*(b/a-1))
	}
	row("fclk [MHz]", m66.FclkMHz, m64.FclkMHz, "%.0f")
	row("Emean [fJ/cycle]", m66.EmeanFJ, m64.EmeanFJ, "%.1f")
	row("Ametal [mm²]", m66.MetalAreaMM2, m64.MetalAreaMM2, "%.2f")
	row("F2F bumps", float64(m66.F2FBumps), float64(m64.F2FBumps), "%.0f")
	fmt.Println("\nexpected shape (paper): fclk ±2 %, Ametal −16.7 %, bumps −18 to −24 %")
}
