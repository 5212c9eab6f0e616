// Routing and placement engine benchmarks: the large-cache tile's
// route stage, and its global-placement stage serial (Workers 1) against
// the same engine at a pinned worker count (BENCH_ROUTE_J, default 8).
// Serial and parallel placements are bit-identical — TestWorkerEquivalence
// asserts exactly that — so the ratio measures scheduling, not quality
// drift; the place rows measure the fan-out of the descent's three passes
// and the seed sweeps. The router runs on one goroutine, so its rows time
// the stage alone. The flat N×N benchmarks repeat both on one large flat
// design. `make bench-route` records everything in BENCH_route.json; on a
// host whose GOMAXPROCS caps real concurrency the wall-clock ratio
// saturates at the core count and the *_cp_speedup metrics report what
// the recorded fork-join structure supports.
package macro3d_test

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/obs/trace"
	"macro3d/internal/par"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// benchWorkers is the pinned parallel worker count. The benchmarks
// never depend silently on the host's GOMAXPROCS: the parallel
// configurations run at exactly this count (BENCH_ROUTE_J, default 8)
// and every benchmark reports both gomaxprocs and workers as metrics,
// so BENCH_route.json records the environment a ratio was measured in.
func benchWorkers() int {
	if s := os.Getenv("BENCH_ROUTE_J"); s != "" {
		if j, err := strconv.Atoi(s); err == nil && j > 0 {
			return j
		}
	}
	return 8
}

// benchArrayN is the flat-array edge size: the large-cache tile abutted
// N×N and routed/placed as one flat design (BENCH_ROUTE_N, default 3).
func benchArrayN() int {
	if s := os.Getenv("BENCH_ROUTE_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 3
}

// reportEnv pins the execution environment into the benchmark record.
func reportEnv(b *testing.B, workers int) {
	b.Helper()
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(par.Workers(workers)), "workers")
}

// reportTraceStats runs the execution-trace analyzer over one traced
// engine run and reports the named phase's parallelism numbers as
// benchmark metrics, so `make bench-route` lands worker occupancy,
// serial fraction and the Amdahl ceiling in BENCH_route.json next to
// the wall-clock ratio they explain.
func reportTraceStats(b *testing.B, tr *trace.Tracer, phase string) {
	b.Helper()
	for _, ph := range trace.Analyze(tr).Phases {
		if ph.Phase != phase {
			continue
		}
		b.ReportMetric(ph.Occupancy, phase+"_occupancy")
		b.ReportMetric(ph.SerialFrac, phase+"_serial_frac")
		b.ReportMetric(ph.AmdahlAtW, phase+"_amdahl_atW")
		// CP speedup = wall / critical path: the speedup the recorded
		// fork-join structure supports with enough cores. On a host
		// whose GOMAXPROCS serializes the workers this is the honest
		// parallelism headline — the wall-clock ratio cannot move there.
		b.ReportMetric(ph.CPSpeedup, phase+"_cp_speedup")
	}
}

// tracedStage returns a stage span of a recorder with a timeline
// attached — what an engine reports to under `macro3d -trace` — and the
// timeline. The caller ends the span after the engine run.
func tracedStage(stage string) (*obs.Span, *trace.Tracer) {
	tr := trace.New()
	rec := obs.New()
	rec.SetTimeline(tr)
	return rec.StartSpan("bench").Child(stage), tr
}

// routeBench is the shared placed large-cache tile. Building it once
// is safe: RouteDesign never mutates the design, and place.Place
// reseeds initial positions from its RNG, so repeated stage runs are
// deterministic functions of (design, seed).
var routeBench struct {
	once sync.Once
	err  error

	t    *tech.Tech
	tile *piton.Tile
	d    *netlist.Design
	fp   *floorplan.Floorplan
	sz   floorplan.Sizing
}

func routeBenchSetup(b *testing.B) {
	b.Helper()
	routeBench.once.Do(func() {
		routeBench.err = func() error {
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
			fp, _, err := floorplan.PlaceMacros(d, sz.Die2D, floorplan.Style2D)
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
			routeBench.t, routeBench.tile, routeBench.d, routeBench.fp = t, tile, d, fp
			routeBench.sz = sz
			return nil
		}()
	})
	if routeBench.err != nil {
		b.Fatal(routeBench.err)
	}
}

// BenchmarkRouteDesign routes the placed large-cache tile from scratch.
func BenchmarkRouteDesign(b *testing.B) {
	routeBenchSetup(b)
	b.ResetTimer()
	var last *route.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := route.NewDB(routeBench.sz.Die2D, routeBench.t.Logic, routeBench.fp.RouteBlk, route.Options{})
		b.StartTimer()
		res, err := route.RouteDesign(routeBench.d, db)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	// Metrics only after the loop: ResetTimer deletes reported metrics.
	b.ReportMetric(last.WL/1e6, "WL_m")
	b.ReportMetric(float64(last.Overflow), "overflow")
}

func benchPlace(b *testing.B, workers int) {
	routeBenchSetup(b)
	b.ResetTimer()
	var last *place.Result
	for i := 0; i < b.N; i++ {
		res, err := place.Place(routeBench.d, routeBench.fp, routeBench.t.RowHeight,
			place.Options{Seed: 2, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportEnv(b, workers)
	if last != nil {
		b.ReportMetric(last.HPWL/1e6, "HPWL_m")
	}
	b.StopTimer()
	sp, tr := tracedStage("place")
	if _, err := place.Place(routeBench.d, routeBench.fp, routeBench.t.RowHeight,
		place.Options{Seed: 2, Workers: workers, Obs: sp}); err != nil {
		b.Fatal(err)
	}
	sp.End()
	reportTraceStats(b, tr, "place")
	// Placement is deterministic, so the traced run's count is every run's.
	b.ReportMetric(sp.Reg().Gauge("place_descent_iterations", "").Value(), "iters/op")
}

func BenchmarkPlace(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchPlace(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchPlace(b, benchWorkers()) })
}

// --- Flat N×N array benchmarks ---
//
// One flat design N² times the tile: the placed large-cache tile is
// abutted N×N into ONE flat netlist (piton.Abut — the paper's
// §V-1 composition) and then placed/routed from scratch as a flat
// problem: no per-tile route replication, no hierarchy. For the placer,
// serial is the -j 1 reference and parallel the same engine at the
// pinned worker count.

var flatBench struct {
	once sync.Once
	err  error

	n   int
	die geom.Rect
	d   *netlist.Design
	fp  *floorplan.Floorplan
}

func flatBenchSetup(b *testing.B) {
	b.Helper()
	routeBenchSetup(b)
	flatBench.once.Do(func() {
		flatBench.err = func() error {
			n := benchArrayN()
			arr, die, err := piton.Abut(routeBench.tile, routeBench.sz.Die2D, n, n)
			if err != nil {
				return err
			}
			// Every copy contributes its macro blockages at its offset.
			fp := &floorplan.Floorplan{Die: die, RowHeight: routeBench.t.RowHeight}
			tw, th := routeBench.sz.Die2D.W(), routeBench.sz.Die2D.H()
			for iy := 0; iy < n; iy++ {
				for ix := 0; ix < n; ix++ {
					off := geom.Pt(tw*float64(ix), th*float64(iy))
					for _, bl := range routeBench.fp.PlaceBlk {
						fp.PlaceBlk = append(fp.PlaceBlk, floorplan.Blockage{
							Rect: bl.Rect.Translate(off), Fraction: bl.Fraction,
						})
					}
					for _, bl := range routeBench.fp.RouteBlk {
						fp.RouteBlk = append(fp.RouteBlk, floorplan.RouteBlockage{
							Layer: bl.Layer, Rect: bl.Rect.Translate(off),
						})
					}
				}
			}
			// Canonical flat placement: Place reseeds from its RNG, so
			// re-running it (as BenchmarkPlaceFlat does) reproduces the
			// same locations — benchmark ordering cannot skew the route
			// comparisons.
			if _, err := place.Place(arr, fp, routeBench.t.RowHeight, place.Options{Seed: 2}); err != nil {
				return err
			}
			flatBench.n, flatBench.die, flatBench.d, flatBench.fp = n, die, arr, fp
			return nil
		}()
	})
	if flatBench.err != nil {
		b.Fatal(flatBench.err)
	}
}

// BenchmarkRouteFlat routes the flat N×N array from scratch.
func BenchmarkRouteFlat(b *testing.B) {
	flatBenchSetup(b)
	b.ResetTimer()
	var last *route.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := route.NewDB(flatBench.die, routeBench.t.Logic, flatBench.fp.RouteBlk, route.Options{})
		b.StartTimer()
		res, err := route.RouteDesign(flatBench.d, db)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(flatBench.n), "array_n")
	b.ReportMetric(last.WL/1e6, "WL_m")
	b.ReportMetric(float64(last.Overflow), "overflow")
}

func benchPlaceFlat(b *testing.B, workers int) {
	flatBenchSetup(b)
	b.ResetTimer()
	var last *place.Result
	for i := 0; i < b.N; i++ {
		res, err := place.Place(flatBench.d, flatBench.fp, routeBench.t.RowHeight,
			place.Options{Seed: 2, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportEnv(b, workers)
	b.ReportMetric(float64(flatBench.n), "array_n")
	if last != nil {
		b.ReportMetric(last.HPWL/1e6, "HPWL_m")
	}
	b.StopTimer()
	sp, tr := tracedStage("place")
	if _, err := place.Place(flatBench.d, flatBench.fp, routeBench.t.RowHeight,
		place.Options{Seed: 2, Workers: workers, Obs: sp}); err != nil {
		b.Fatal(err)
	}
	sp.End()
	reportTraceStats(b, tr, "place")
}

func BenchmarkPlaceFlat(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchPlaceFlat(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchPlaceFlat(b, benchWorkers()) })
}
