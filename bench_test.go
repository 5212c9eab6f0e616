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
	"context"
	"sync"
	"testing"

	"macro3d"
	"macro3d/internal/floorplan"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// Experiments are deterministic, so repeated b.N iterations recompute
// the same result; each benchmark still re-runs the full flow per
// iteration (that is the thing being measured).

// experiment runs the named experiment at seed 1 b.N times, logs its
// report once and returns its PPA in cell order.
func experiment(b *testing.B, name string) []*macro3d.PPA {
	var res *macro3d.ExperimentResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = macro3d.RunExperiment(context.Background(), macro3d.FlowConfig{Seed: 1}, name, false); err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.Text)
	return res.PPA
}

func BenchmarkTableI(b *testing.B) {
	t := experiment(b, "table1") // 2D, MoL S2D, BF S2D, Macro-3D
	b.ReportMetric(t[0].FclkMHz, "fclk2D_MHz")
	b.ReportMetric(t[1].FclkMHz, "fclkS2D_MHz")
	b.ReportMetric(t[2].FclkMHz, "fclkBFS2D_MHz")
	b.ReportMetric(t[3].FclkMHz, "fclkM3D_MHz")
	b.ReportMetric(float64(t[3].F2FBumps), "bumpsM3D")
}

func BenchmarkTableII(b *testing.B) {
	t := experiment(b, "table2") // small 2D, Macro-3D, large 2D, Macro-3D
	b.ReportMetric(100*(t[1].FclkMHz/t[0].FclkMHz-1), "smallGain_pct")
	b.ReportMetric(100*(t[3].FclkMHz/t[2].FclkMHz-1), "largeGain_pct")
}

func BenchmarkTableIII(b *testing.B) {
	t := experiment(b, "table3") // small M6–M6, M6–M4, large M6–M6, M6–M4
	b.ReportMetric(100*(t[1].FclkMHz/t[0].FclkMHz-1), "smallFclkDelta_pct")
	b.ReportMetric(100*(t[1].MetalAreaMM2/t[0].MetalAreaMM2-1), "metalDelta_pct")
}

func BenchmarkIsoPerformance(b *testing.B) {
	experiment(b, "isoperf")
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
		_, st2d, _, err := macro3d.RunFlow(context.Background(), "2d", cfg)
		if err != nil {
			b.Fatal(err)
		}
		svg2d := macro3d.LayoutSVG(st2d.Design, st2d.Die, macro3d.VizOptions{Title: "2D floorplan"})
		_, st3d, _, err := macro3d.RunFlow(context.Background(), "macro3d", cfg)
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
		_, st, _, err := macro3d.RunFlow(context.Background(), "2d", cfg)
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
		_, st, mol, err := macro3d.RunFlow(context.Background(), "macro3d", cfg)
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
	experiment(b, "sweepblockage")
}

func BenchmarkAblationF2FPitch(b *testing.B) {
	experiment(b, "sweeppitch")
}

// --- substrate micro-benchmarks ---

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
	_, st, _, err := macro3d.RunFlow(context.Background(), "macro3d", macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1})
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

// largeTile is the placed large-cache tile BenchmarkPlace and
// BenchmarkRouteDesign share. Building it once is safe: RouteDesign
// never mutates the design, and place.Place reseeds initial positions
// from its RNG, so repeated stage runs are deterministic functions of
// (design, seed). It stays live once built, so the two come after the
// construction benchmarks: run before them, the larger heap made
// BenchmarkTileCopy/piton_large several times slower.
var largeTile struct {
	once sync.Once
	err  error

	t  *tech.Tech
	d  *netlist.Design
	fp *floorplan.Floorplan
	sz floorplan.Sizing
}

func largeTileSetup(b *testing.B) {
	b.Helper()
	largeTile.once.Do(func() {
		largeTile.err = func() error {
			t, err := tech.New28(6)
			if err != nil {
				return err
			}
			tile, err := piton.Generate(piton.LargeCache())
			if err != nil {
				return err
			}
			d := tile.Design
			sz, err := floorplan.SizeDesign(d, 0.70, 1.0, t.RowHeight)
			if err != nil {
				return err
			}
			fp, err := floorplan.PlaceMacros(d, sz.Die2D, floorplan.Style2D)
			if err != nil {
				return err
			}
			floorplan.BuildBlockages(fp, d, netlist.LogicDie)
			floorplan.AssignPorts(tile, sz.Die2D)
			if _, err := place.Place(d, fp, t.RowHeight, place.Options{Seed: 2}); err != nil {
				return err
			}
			// Warm-up route: settles the heap so the generator/placer
			// allocation debt is not collected inside the first timed
			// iteration.
			db := route.NewDB(sz.Die2D, t.Logic, fp.RouteBlk, route.Options{})
			if _, err := route.RouteDesign(d, db); err != nil {
				return err
			}
			largeTile.t, largeTile.d, largeTile.fp, largeTile.sz = t, d, fp, sz
			return nil
		}()
	})
	if largeTile.err != nil {
		b.Fatal(largeTile.err)
	}
}

// BenchmarkPlace is the large-cache tile's placement stage at one
// worker, with a plain recorder on its stage span as a flow gives it;
// iters/op is the descent's iteration count.
func BenchmarkPlace(b *testing.B) {
	largeTileSetup(b)
	rec := obs.New()
	b.ResetTimer()
	var last *place.Result
	for i := 0; i < b.N; i++ {
		sp := rec.StartSpan("place")
		res, err := place.Place(largeTile.d, largeTile.fp, largeTile.t.RowHeight,
			place.Options{Seed: 2, Workers: 1, Obs: sp})
		sp.End()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	// Metrics only after the loop: ResetTimer deletes reported metrics.
	b.ReportMetric(last.HPWL/1e6, "HPWL_m")
	b.ReportMetric(rec.Registry().Gauge("place_descent_iterations", "").Value(), "iters/op")
}

// BenchmarkRouteDesign routes the placed large-cache tile from scratch
// and reports the result's segments and via cuts (segs, via_cuts).
func BenchmarkRouteDesign(b *testing.B) {
	largeTileSetup(b)
	b.ResetTimer()
	var last *route.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := route.NewDB(largeTile.sz.Die2D, largeTile.t.Logic, largeTile.fp.RouteBlk, route.Options{})
		b.StartTimer()
		res, err := route.RouteDesign(largeTile.d, db)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.WL/1e6, "WL_m")
	b.ReportMetric(float64(last.Overflow), "overflow")
	segs := 0
	for _, r := range last.Routes {
		if r != nil {
			segs += len(r.Segments)
		}
	}
	// A via stack is one segment; via_cuts counts each of its cuts.
	b.ReportMetric(float64(segs), "segs")
	b.ReportMetric(float64(last.Vias), "via_cuts")
}

func BenchmarkFlow2DSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _, _, err := macro3d.RunFlow(context.Background(), "2d", macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.FclkMHz, "fclk_MHz")
	}
}

func BenchmarkFlowMacro3DSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _, _, err := macro3d.RunFlow(context.Background(), "macro3d", macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.FclkMHz, "fclk_MHz")
	}
}

func BenchmarkFlowS2DSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _, _, err := macro3d.RunFlow(context.Background(), "s2d", macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.FclkMHz, "fclk_MHz")
	}
}

func BenchmarkFlowC2DSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _, _, err := macro3d.RunFlow(context.Background(), "c2d", macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1})
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
		p, _, _, err := macro3d.RunFlow(context.Background(), "macro3d", cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.FclkMHz, "fclk_MHz")
	}
}
