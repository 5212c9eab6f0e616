// Benchmark harness regenerating every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results):
//
//	BenchmarkTableI          — Table I: 2D / MoL S2D / BF S2D / Macro-3D
//	BenchmarkTableII         — Table II: in-depth 2D vs Macro-3D
//	BenchmarkTableIII        — Table III: M6–M6 vs M6–M4 ablation
//	BenchmarkIsoPerformance  — §V-A iso-performance power
//	BenchmarkFig3TileGen     — Fig. 3: benchmark netlist generation
//	BenchmarkFig4Floorplans  — Fig. 4: 2D and MoL macro floorplans
//	BenchmarkFig5Layout2D    — Fig. 5: final 2D layout
//	BenchmarkFig6LayoutMoL   — Fig. 6: separated MoL dies + bumps
//
// plus the substrate micro-benchmarks (placement, routing, STA) that
// size the engine itself. Run with:
//
//	go test -bench=. -benchmem
package macro3d_test

import (
	"sync"
	"testing"

	"macro3d"
)

// Experiments are deterministic, so repeated b.N iterations recompute
// the same result; each benchmark still re-runs the full flow per
// iteration (that is the thing being measured).

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := macro3d.RunTableI(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.TwoD.FclkMHz, "fclk2D_MHz")
		b.ReportMetric(t.S2D.FclkMHz, "fclkS2D_MHz")
		b.ReportMetric(t.BFS2D.FclkMHz, "fclkBFS2D_MHz")
		b.ReportMetric(t.Macro3D.FclkMHz, "fclkM3D_MHz")
		b.ReportMetric(float64(t.Macro3D.F2FBumps), "bumpsM3D")
		if i == 0 {
			b.Log("\n" + t.Format())
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := macro3d.RunTableII(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(t.SmallM3D.FclkMHz/t.Small2D.FclkMHz-1), "smallGain_pct")
		b.ReportMetric(100*(t.LargeM3D.FclkMHz/t.Large2D.FclkMHz-1), "largeGain_pct")
		if i == 0 {
			b.Log("\n" + t.Format())
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := macro3d.RunTableIII(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(t.SmallM6M4.FclkMHz/t.SmallM6M6.FclkMHz-1), "smallFclkDelta_pct")
		b.ReportMetric(100*(t.SmallM6M4.MetalAreaMM2/t.SmallM6M6.MetalAreaMM2-1), "metalDelta_pct")
		if i == 0 {
			b.Log("\n" + t.Format())
		}
	}
}

func BenchmarkIsoPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, pc := range []macro3d.TileConfig{macro3d.SmallCache(), macro3d.LargeCache()} {
			r, err := macro3d.RunIsoPerf(pc, 1)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Log(r.Format())
			}
		}
	}
}

func BenchmarkFig3TileGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tile, err := macro3d.GenerateTile(macro3d.SmallCache())
		if err != nil {
			b.Fatal(err)
		}
		st := tile.Design.ComputeStats()
		b.ReportMetric(float64(st.NumInstances), "instances")
	}
}

func BenchmarkFig4Floorplans(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1}
		_, st2d, err := macro3d.Run2D(cfg)
		if err != nil {
			b.Fatal(err)
		}
		svg2d := macro3d.LayoutSVG(st2d.Design, st2d.Die, macro3d.VizOptions{Title: "2D floorplan"})
		_, st3d, _, err := macro3d.RunMacro3D(cfg)
		if err != nil {
			b.Fatal(err)
		}
		svg3d := macro3d.LayoutSVG(st3d.Design, st3d.Die, macro3d.VizOptions{Title: "MoL floorplan"})
		b.ReportMetric(float64(len(svg2d)+len(svg3d)), "svgBytes")
	}
}

func BenchmarkFig5Layout2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1}
		_, st, err := macro3d.Run2D(cfg)
		if err != nil {
			b.Fatal(err)
		}
		svg := macro3d.LayoutSVG(st.Design, st.Die, macro3d.VizOptions{ShowCells: true})
		b.ReportMetric(float64(len(svg)), "svgBytes")
	}
}

func BenchmarkFig6LayoutMoL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1}
		_, st, mol, err := macro3d.RunMacro3D(cfg)
		if err != nil {
			b.Fatal(err)
		}
		logic, macroDie, err := macro3d.SeparateDies(mol, st)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(logic.Bumps)), "bumps")
		_ = macroDie
	}
}

func BenchmarkAblationBlockageResolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := macro3d.RunBlockageSweep(1, []float64{20, 50, 100})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + sw.Format())
		}
	}
}

func BenchmarkAblationF2FPitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := macro3d.RunPitchSweep(1, []float64{1, 5, 20})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + sw.Format())
		}
	}
}

// --- substrate micro-benchmarks ---

var tileOnce struct {
	sync.Once
	tile *macro3d.Tile
	err  error
}

func smallTile(b *testing.B) *macro3d.Tile {
	tileOnce.Do(func() {
		tileOnce.tile, tileOnce.err = macro3d.GenerateTile(macro3d.SmallCache())
	})
	if tileOnce.err != nil {
		b.Fatal(tileOnce.err)
	}
	return tileOnce.tile
}

// BenchmarkGenerate is the construction cost every flow call pays
// first: one pass over the generator, records out of the design's slabs.
func BenchmarkGenerate(b *testing.B) {
	for _, cfg := range []macro3d.TileConfig{macro3d.SmallCache(), macro3d.LargeCache()} {
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tile, err := macro3d.GenerateTile(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(tile.Design.Instances)), "instances")
			}
		})
	}
}

// BenchmarkTileCopy is what a flow run pays for its netlist once the
// process holds the configuration's template: one exact-size copy of a
// tile (piton.Tile.Clone), against BenchmarkGenerate's full build.
func BenchmarkTileCopy(b *testing.B) {
	for _, cfg := range []macro3d.TileConfig{macro3d.SmallCache(), macro3d.LargeCache()} {
		b.Run(cfg.Name, func(b *testing.B) {
			tile, err := macro3d.GenerateTile(cfg)
			if err != nil {
				b.Fatal(err)
			}
			tmpl := tile.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := tmpl.Clone()
				b.ReportMetric(float64(len(c.Design.Instances)), "instances")
			}
		})
	}
}

// BenchmarkAbut4x4 stitches sixteen copies of the signed-off small
// tile into one flat design — 117 k instances built at a size known up
// front, so a Reserve'd design.
func BenchmarkAbut4x4(b *testing.B) {
	_, st, _, err := macro3d.RunMacro3D(macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr, _, err := macro3d.AbutTiles(st.Tile, st.Die, 4, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(arr.Instances)), "instances")
	}
}

func BenchmarkFlow2DSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _, err := macro3d.Run2D(macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.FclkMHz, "fclk_MHz")
	}
}

func BenchmarkFlowMacro3DSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _, _, err := macro3d.RunMacro3D(macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.FclkMHz, "fclk_MHz")
	}
}

func BenchmarkFlowS2DSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _, err := macro3d.RunS2D(macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1}, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.FclkMHz, "fclk_MHz")
	}
}

func BenchmarkFlowC2DSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _, err := macro3d.RunC2D(macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.FclkMHz, "fclk_MHz")
	}
}

func BenchmarkSensorSoCMacro3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := macro3d.FlowConfig{Seed: 7, MacroDieMetals: 4,
			Generator: func() (*macro3d.Tile, error) {
				return macro3d.GenerateSensorSoC(macro3d.DefaultSensorSoC())
			}}
		p, _, _, err := macro3d.RunMacro3D(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.FclkMHz, "fclk_MHz")
	}
}
