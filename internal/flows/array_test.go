package flows

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"macro3d/internal/cts"
	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
)

// TestVerifyArrayRejectsLostNet injects the fault the name-keyed walk
// used to swallow: a tile net whose copy resolves to no array net. A net
// absorbed by the stitch is expected to; any other is a composition bug
// that would drop the copy's route — and its wire, load and delay —
// from the sign-off, so the verification must fail, not continue.
func TestVerifyArrayRejectsLostNet(t *testing.T) {
	cfg := tinyCfg().withDefaults()
	_, st, err := Run2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tech6, _ := tech.New28(6)
	abut := func() *piton.Array {
		arr, err := piton.AbutArray(st.Tile, st.Die, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	ref, err := VerifyTileArray(cfg, st, tech6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := verifyArray(cfg, st, tech6, abut())
	if err != nil || got.ArrayPeriod != ref.ArrayPeriod || got.StitchedNets != ref.StitchedNets {
		t.Fatalf("verifyArray on an untouched array: %v, %+v vs %+v", err, got, ref)
	}

	src := st.Tile.Design
	arr := abut()
	lost, absorbed := -1, -1
	for _, n := range src.Nets {
		switch {
		case n.Clock:
		case arr.Net(3, n) == nil:
			absorbed = n.ID
		case lost < 0 && !arr.Stitched(3, n):
			lost = n.ID
		}
	}
	if lost < 0 || absorbed < 0 {
		t.Fatalf("tile has no interior net (%d) or no absorbed net (%d) on copy 3", lost, absorbed)
	}
	arr.NetID[3*len(src.Nets)+lost] = -1
	_, err = verifyArray(cfg, st, tech6, arr)
	if err == nil || !strings.Contains(err.Error(), src.Nets[lost].Name) || !strings.Contains(err.Error(), "no array net") {
		t.Fatalf("a lost net passed verification: err = %v", err)
	}
}

// TestVerifyTileArrayBytes bounds what a flat verification allocates per
// array instance, on the tiny tile 2×2. The budget is the measured figure
// (≈ 1.02 kB: the design and its routes, the routing grid, extraction
// records, the timing graph) with an eighth of headroom — a per-level or
// per-pass copy of anything sized by the design costs more than that
// (the copies this replaced: 1.36 kB).
func TestVerifyTileArrayBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are not the flow's")
	}
	cfg := tinyCfg()
	_, st, _, err := RunMacro3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tech6, _ := tech.New28(6)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rep, err := VerifyTileArray(cfg, st, tech6, 2, 2)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	perInst := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(rep.Design.Instances))
	t.Logf("flat verify 2×2: %d instances, %.0f B per instance, %d objects",
		len(rep.Design.Instances), perInst, m1.Mallocs-m0.Mallocs)
	const budget = 1150
	if perInst > budget {
		t.Fatalf("flat verification allocates %.0f B per array instance, budget %d", perInst, budget)
	}
}

// flatArray4x4 is what a flat 4×4 verification of the signed-off small
// tile analyses: the abutted design, its routing database and result —
// the tile's routes translated per copy, the stitched nets routed — and
// the extraction. The kernel benchmarks run single layers on it; the
// analysis must reproduce VerifyTileArray's period, so the fixture cannot
// drift from what it stands for.
func flatArray4x4(b *testing.B) (*State, *piton.Array, *extract.Design, float64) {
	b.Helper()
	f := &flatArrayFixture
	f.once.Do(func() { f.st, f.arr, f.ex, f.period = buildFlatArray4x4(b) })
	if f.arr == nil {
		b.Fatal("flat 4×4 fixture failed to build")
	}
	return f.st, f.arr, f.ex, f.period
}

// flatArrayFixture is built once per test binary: `-count` repeats the
// benchmarks, not the flow and the verification behind them.
var flatArrayFixture struct {
	once   sync.Once
	st     *State
	arr    *piton.Array
	ex     *extract.Design
	period float64
}

func buildFlatArray4x4(b *testing.B) (st *State, arr *piton.Array, ex *extract.Design, period float64) {
	b.Helper()
	cfg := Config{Piton: piton.SmallCache(), Seed: 1}.withDefaults()
	_, st, _, err := RunMacro3D(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tech6, _ := tech.New28(6)
	ref, err := VerifyTileArray(cfg, st, tech6, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	if arr, err = piton.AbutArray(st.Tile, st.Die, 4, 4); err != nil {
		b.Fatal(err)
	}
	tg := st.DB.Grid
	ag := geom.Grid{Region: arr.Die, NX: tg.NX * 4, NY: tg.NY * 4, DX: tg.DX, DY: tg.DY}
	var blk []floorplan.RouteBlockage
	for _, m := range arr.Design.Macros() {
		for _, o := range m.Master.Obstructions {
			blk = append(blk, floorplan.RouteBlockage{Layer: o.Layer, Rect: o.Rect.Translate(m.Loc)})
		}
	}
	ropt := cfg.routeOptions(nil)
	ropt.Grid = &ag
	db := route.NewDB(arr.Die, st.Beol, blk, ropt)
	res := &route.Result{
		Routes:     make([]*route.NetRoute, len(arr.Design.Nets)),
		WLPerLayer: make([]float64, st.Beol.NumLayers()),
	}
	var stitched []*netlist.Net
	for c := 0; c < 16; c++ {
		for _, n := range st.Tile.Design.Nets {
			an := arr.Net(c, n)
			switch {
			case an == nil:
			case sameShape(n, an) && st.Routes.Routes[n.ID] != nil:
				db.CommitRoute(res.Translate(an, st.Routes.Routes[n.ID], c%4*tg.NX, c/4*tg.NY))
			default:
				stitched = append(stitched, an)
			}
		}
	}
	for _, n := range stitched {
		if _, err := db.RouteNet(res, n); err != nil {
			b.Fatal(err)
		}
	}
	res.Recount(db)
	slow := tech6.CornerScaleFor(tech.CornerSlow)
	ex = extract.Extract(arr.Design, res, db, slow)
	tree := cts.Build(arr.Design, arr.Clock, arr.ClockPort.Loc, arr.Design.Lib, st.Beol, cts.Options{})
	rep, err := sta.Analyze(arr.Design, ex, st.Report.MinPeriod, sta.Options{Corner: slow, Clock: tree})
	if err != nil || rep.MinPeriod != ref.ArrayPeriod {
		b.Fatalf("fixture analysis: %v, period %v, VerifyTileArray's %v", err, rep.MinPeriod, ref.ArrayPeriod)
	}
	return st, arr, ex, st.Report.MinPeriod
}

// BenchmarkCTSBuild is the clock-tree kernel: the signed-off small tile's
// tree, and the flat 4×4 array's over sixteen times the sinks (`make
// bench`, with allocations: three objects, bytes linear in the design).
func BenchmarkCTSBuild(b *testing.B) {
	st, arr, _, _ := flatArray4x4(b)
	for _, c := range []struct {
		name string
		d    *netlist.Design
		clk  *netlist.Net
		src  geom.Point
	}{
		{"tile", st.Design, st.Design.Net("clk"), st.Design.Port("clk_i").Loc},
		{"array4x4", arr.Design, arr.Clock, arr.ClockPort.Loc},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree := cts.Build(c.d, c.clk, c.src, c.d.Lib, st.Beol, cts.Options{})
				b.ReportMetric(float64(tree.Sinks), "sinks")
			}
		})
	}
}

// BenchmarkAnalyzeArray4x4 is a full sta.Analyze — levelize, both launch
// passes, report — on the flat 4×4 array (`make bench`, with
// allocations).
func BenchmarkAnalyzeArray4x4(b *testing.B) {
	st, arr, ex, period := flatArray4x4(b)
	tech6, _ := tech.New28(6)
	slow := tech6.CornerScaleFor(tech.CornerSlow)
	tree := cts.Build(arr.Design, arr.Clock, arr.ClockPort.Loc, arr.Design.Lib, st.Beol, cts.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sta.Analyze(arr.Design, ex, period, sta.Options{Corner: slow, Clock: tree})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Endpoints), "endpoints")
	}
}
