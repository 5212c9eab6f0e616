// Sensor-on-logic: the paper's second heterogeneous use case (§I–II).
//
// A 16-sensor imaging-style SoC is built from analog sensor macros
// (which only use three metal layers — analog blocks do not benefit
// from aggressive nodes) and a digital readout pipeline. The Macro-3D
// flow stacks the sensors face-to-face above the logic with a
// heterogeneous BEOL: six logic-die metals against four macro-die
// metals.
//
// Run with: go run ./examples/sensor_on_logic
package main

import (
	"context"
	"fmt"
	"log"

	"macro3d"
)

func main() {
	gen := func() (*macro3d.Tile, error) {
		return macro3d.GenerateSensorSoC(macro3d.DefaultSensorSoC())
	}

	tile, err := gen()
	if err != nil {
		log.Fatal(err)
	}
	st := tile.Design.ComputeStats()
	fmt.Printf("sensor SoC: %d sensors, %d instances, logic %.3f mm², sensor area %.3f mm²\n",
		st.NumMacros, st.NumInstances, st.StdCellArea/1e6, st.MacroArea/1e6)

	// Baseline: everything on one die.
	cfg := macro3d.FlowConfig{Generator: gen, Seed: 7}
	p2d, _, _, err := macro3d.RunFlow(context.Background(), "2d", cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("2D:      ", p2d)

	// Macro-3D with a heterogeneous stack: the sensor die needs only
	// four metals (its macros route on M1–M3), cutting mask cost.
	cfg.MacroDieMetals = 4
	p3d, _, mol, err := macro3d.RunFlow(context.Background(), "macro3d", cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Macro-3D:", p3d)
	fmt.Printf("  combined stack: %v\n", mol.Combined)

	fmt.Printf("\nsensor-on-logic gains: fclk %+.1f%%, footprint %+.1f%%, wirelength %+.1f%%\n",
		100*(p3d.FclkMHz/p2d.FclkMHz-1),
		100*(p3d.FootprintMM2/p2d.FootprintMM2-1),
		100*(p3d.TotalWLm/p2d.TotalWLm-1))
	fmt.Printf("metal area: 2D %.2f mm² vs heterogeneous 3D %.2f mm²\n",
		p2d.MetalAreaMM2, p3d.MetalAreaMM2)
}
