package flows

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"macro3d/internal/cts"
	"macro3d/internal/extract"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/stash"
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
	got, err := verifyArray(cfg, st, tech6, func() (*piton.Array, error) { return abut(), nil })
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
	_, err = verifyArray(cfg, st, tech6, func() (*piton.Array, error) { return arr, nil })
	var se *StageError
	if !errors.As(err, &se) || se.Flow != "array" || se.Stage != StageRoute ||
		!strings.Contains(err.Error(), src.Nets[lost].Name) || !strings.Contains(err.Error(), "no array net") {
		t.Fatalf("a lost net passed verification: err = %v", err)
	}
}

// TestVerifyTileArrayBytes bounds what a flat verification allocates per
// array instance, on the tiny tile 2×2. The budget is the measured figure
// (694 B: the design, the routing grid without a history plane, the
// timing graph — and no routes or RC records but the stitched nets', the
// tile's being shared, not copied) with a tenth of headroom — a
// per-level, per-pass or per-copy copy of anything sized by the design
// costs more than that (with per-copy RC records and an idle history
// plane it was 828 B; with per-copy routes as well, 1.04 kB).
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
	const budget = 763
	if perInst > budget {
		t.Fatalf("flat verification allocates %.0f B per array instance, budget %d", perInst, budget)
	}
}

// checkPlacedShapes asserts what makes a result's origin table
// load-bearing, on an array routed by routeArray.
//
// The placed-shape invariant: every replicated net holds the tile's own
// record, and origin + shape pin node i is the array DB's node of the
// array net's pin i. A pin may differ by one gcell on one axis only when
// it lies within 1e-6 µm of that gcell boundary — Grid.Locate of a
// coordinate on a grid line can round the other way once the copy's
// offset is added to it; extraction reads differences and never sees it
// — and there are exactly boundary such pins, so they cannot grow
// unnoticed.
//
// Usage: RebuildUsage from the result is the usage the placement
// committed, bin for bin.
func checkPlacedShapes(t *testing.T, st *State, arr *piton.Array, db *route.DB, res *route.Result, boundary int) {
	t.Helper()
	g := db.Grid
	pins, placedNets, onLine := 0, 0, 0
	for c := 0; c < arr.Nx*arr.Ny; c++ {
		for _, n := range st.Tile.Design.Nets {
			an := arr.Net(c, n)
			if an == nil {
				continue
			}
			o := res.Origin(an.ID)
			if !o.Placed {
				continue
			}
			dx, dy := int(o.DX), int(o.DY)
			placedNets++
			r := res.Routes[an.ID]
			if r != st.Routes.Routes[n.ID] {
				t.Fatalf("copy %d of net %s holds a record that is not the tile's", c, n.Name)
			}
			if dx != c%arr.Nx*st.DB.Grid.NX || dy != c/arr.Nx*st.DB.Grid.NY {
				t.Fatalf("copy %d of net %s placed at (%d, %d)", c, n.Name, dx, dy)
			}
			for i, p := range r.PinNode {
				pins++
				pin := an.PinAt(i)
				want, err := db.PinNode(pin)
				if err != nil {
					t.Fatal(err)
				}
				got := route.At(int(p.X)+dx, int(p.Y)+dy, int(p.L))
				if got == want {
					continue
				}
				ex, ey := int(got.X)-int(want.X), int(got.Y)-int(want.Y)
				var off float64 // distance of the pin from the grid line between the two gcells
				switch {
				case got.L != want.L || ex*ex+ey*ey != 1:
					t.Fatalf("copy %d net %s pin %d: placed node %v, the array's %v", c, n.Name, i, got, want)
				case ex != 0:
					off = pin.Loc().X - (g.Region.Lx + float64(max(got.X, want.X))*g.DX)
				default:
					off = pin.Loc().Y - (g.Region.Ly + float64(max(got.Y, want.Y))*g.DY)
				}
				if math.Abs(off) > 1e-6 {
					t.Fatalf("copy %d net %s pin %d: placed node %v, the array's %v, and the pin is %g µm off the gcell boundary",
						c, n.Name, i, got, want, off)
				}
				onLine++
			}
		}
	}
	t.Logf("%d placed nets, %d pins, %d on a gcell boundary", placedNets, pins, onLine)
	if placedNets == 0 || onLine != boundary {
		t.Fatalf("%d placed nets; %d pins round across a gcell boundary after the shift, want %d", placedNets, onLine, boundary)
	}

	u, h, f := db.DynState()
	u, h, f = slices.Clone(u), slices.Clone(h), slices.Clone(f)
	db.RebuildUsage(res)
	if u1, h1, f1 := db.DynState(); !slices.Equal(u, u1) || !slices.Equal(h, h1) || !slices.Equal(f, f1) {
		t.Fatal("RebuildUsage from the array result is not the usage its placement committed")
	}
}

// TestArrayPlacedShapes checks the placed-shape invariant and the usage
// rebuild (checkPlacedShapes), and that abutment adds no congestion —
// the array's overflow is nx·ny × the tile's; a seam that overflowed
// would pass every timing check — on the tiny tiles 2×2 and on the flat
// 4×4 of the small Macro-3D tile, where 150 of 355 952 pins, all at
// y = 1765.8 µm in copy row 2, sit on a gcell row boundary.
func TestArrayPlacedShapes(t *testing.T) {
	for _, c := range []struct {
		name     string
		run      func() (*State, error)
		boundary int
	}{
		{"2d-tiny-2x2", func() (*State, error) { _, st, err := Run2D(tinyCfg()); return st, err }, 0},
		{"macro3d-tiny-2x2", func() (*State, error) { _, st, _, err := RunMacro3D(tinyCfg()); return st, err }, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			arr, err := piton.AbutArray(st.Tile, st.Die, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			db, res, _, err := routeArray(tinyCfg().routeOptions(nil), st, arr)
			if err != nil {
				t.Fatal(err)
			}
			if res.Overflow != 4*st.Routes.Overflow {
				t.Fatalf("array overflow %d, 4 × the tile's %d", res.Overflow, st.Routes.Overflow)
			}
			checkPlacedShapes(t, st, arr, db, res, c.boundary)
		})
	}
	t.Run("macro3d-small-4x4", func(t *testing.T) {
		if raceEnabled || testing.Short() {
			t.Skip("the small tile's flow and a 117k-instance array: covered by the tiny cases")
		}
		f := flatArray4x4(t)
		if f.ref.RouteOverflow != 16*f.st.Routes.Overflow || f.res.Overflow != f.ref.RouteOverflow {
			t.Fatalf("array overflow %d (fixture %d), 16 × the tile's %d", f.ref.RouteOverflow, f.res.Overflow, f.st.Routes.Overflow)
		}
		checkPlacedShapes(t, f.st, f.arr, f.db, f.res, 150)
	})
}

// TestVerifyTileArrayReadsTileOnly: a hardened tile is shared — every
// parent that composes it reads the one State — and the array result
// and extraction hold its route and RC records themselves, so a
// verification must write nothing of it: two concurrent verifications of
// one State race on nothing (`make race`), report the same, and leave
// the tile's routes, usage and slow-corner parasitics byte for byte what
// they were.
func TestVerifyTileArrayReadsTileOnly(t *testing.T) {
	cfg := tinyCfg()
	hr, err := Harden(cfg, HardenMacro3D)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() []byte {
		e := stash.NewEnc()
		encodeResult(e, hr.State.Routes)
		encodeDynState(e, hr.State.DB)
		ex := hr.State.ExSlow
		for _, rc := range ex.Nets {
			e.Bool(rc != nil)
			if rc != nil {
				e.F64(rc.WireC)
				e.F64(rc.WireR)
				e.F64(rc.PinC)
				e.F64s(rc.ElmoreTo)
			}
		}
		e.F64(ex.CWireTotal)
		e.F64(ex.CPinTotal)
		return slices.Clone(e.Bytes())
	}
	before := snapshot()
	tech6, _ := tech.New28(6)
	var reps [2]*ArrayReport
	var errs [2]error
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = VerifyTileArray(cfg, hr.State, tech6, 2, 2)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := reps[0], reps[1]
	if a.ArrayPeriod != b.ArrayPeriod || a.F2FBumps != b.F2FBumps || a.StitchedNets != b.StitchedNets ||
		a.RouteOverflow != b.RouteOverflow || a.Critical.Delay != b.Critical.Delay || !a.ClosesAtTile {
		t.Fatalf("concurrent verifications of one tile differ: %+v vs %+v", a, b)
	}
	if !bytes.Equal(snapshot(), before) {
		t.Fatal("VerifyTileArray wrote the hardened tile's routes, usage or parasitics")
	}
}

// arrayAtExtract runs a flat n×n verification of st and returns the
// array flow's state as its extract stage left it: the design, routes,
// routing database and slow-corner extraction the sign-off reads.
func arrayAtExtract(t *testing.T, cfg Config, st *State, n int) *State {
	t.Helper()
	var at State
	cfg.AfterStage = func(flow, stage string, s *State) {
		if flow == "array" && stage == StageExtract {
			at = *s
		}
	}
	tech6, _ := tech.New28(6)
	if _, err := VerifyTileArray(cfg, st, tech6, n, n); err != nil {
		t.Fatal(err)
	}
	if at.ExSlow == nil {
		t.Fatal("the array flow ran no extract stage")
	}
	return &at
}

// TestArraySharedParasitics: a flat array's extraction shares the tile's
// slow-corner record under every placed copy of a tile net and extracts
// the stitched nets alone — and is, record for record and in both
// totals, a fresh extraction of the same array (==, no tolerance). At a
// corner other than the tile's it shares nothing. On the tiny tiles 2×2
// and on the flat 4×4 of the small Macro-3D tile.
func TestArraySharedParasitics(t *testing.T) {
	tech6, _ := tech.New28(6)
	check := func(t *testing.T, cfg Config, st *State, n int) {
		a := arrayAtExtract(t, cfg, st, n)
		got := a.ExSlow
		fresh := extract.Extract(a.Design, a.Routes, a.DB, got.Corner)
		if got.CWireTotal != fresh.CWireTotal || got.CPinTotal != fresh.CPinTotal {
			t.Fatalf("totals %v / %v fF, a fresh extraction's %v / %v", got.CWireTotal, got.CPinTotal, fresh.CWireTotal, fresh.CPinTotal)
		}
		tileRec := map[*extract.NetRC]bool{}
		for _, rc := range st.ExSlow.Nets {
			tileRec[rc] = rc != nil
		}
		shared, stitched := 0, 0
		for id, rc := range got.Nets {
			want := fresh.Nets[id]
			if (rc == nil) != (want == nil) {
				t.Fatalf("net %s: record %v, a fresh extraction's %v", a.Design.Nets[id].Name, rc != nil, want != nil)
			}
			if rc == nil {
				continue
			}
			if rc.WireC != want.WireC || rc.WireR != want.WireR || rc.PinC != want.PinC || !slices.Equal(rc.ElmoreTo, want.ElmoreTo) {
				t.Fatalf("net %s: %+v, a fresh extraction's %+v", a.Design.Nets[id].Name, *rc, *want)
			}
			if placed := a.Routes.Origin(id).Placed; tileRec[rc] != placed {
				t.Fatalf("net %s: placed %v, holds the tile's record %v", a.Design.Nets[id].Name, placed, tileRec[rc])
			}
			if tileRec[rc] {
				shared++
			} else {
				stitched++
			}
		}
		t.Logf("%d records shared, %d extracted", shared, stitched)
		if shared == 0 || stitched == 0 {
			t.Fatalf("%d records shared, %d extracted: want both", shared, stitched)
		}

		typ := tech6.CornerScaleFor(tech.CornerTypical)
		lent := extract.Source{Ex: st.ExSlow, Routes: st.Routes, NetID: mustAbut(t, st, n).NetID}
		for _, rc := range extract.Extract(a.Design, a.Routes, a.DB, typ, lent).Nets {
			if tileRec[rc] {
				t.Fatal("a typical-corner extraction shares the tile's slow-corner records")
			}
		}
	}
	for _, c := range []struct {
		name string
		run  func() (*State, error)
	}{
		{"2d-tiny-2x2", func() (*State, error) { _, st, err := Run2D(tinyCfg()); return st, err }},
		{"macro3d-tiny-2x2", func() (*State, error) { _, st, _, err := RunMacro3D(tinyCfg()); return st, err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			check(t, tinyCfg(), st, 2)
		})
	}
	t.Run("macro3d-small-4x4", func(t *testing.T) {
		if raceEnabled || testing.Short() {
			t.Skip("the small tile's flow and a 117k-instance array: covered by the tiny cases")
		}
		check(t, flatArrayCfg(), flatArray4x4(t).st, 4)
	})
}

// mustAbut is piton.AbutArray of st's tile n×n, with its error fatal.
func mustAbut(t *testing.T, st *State, n int) *piton.Array {
	t.Helper()
	arr, err := piton.AbutArray(st.Tile, st.Die, n, n)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// TestArrayDBHoldsNoHistory: a flat array's routing database places the
// tile's routes and routes the stitched nets, and never negotiates, so it
// holds no history plane — yet encodes the bytes a database with a plane
// of zeros does, so snapshots and cache keys do not move.
func TestArrayDBHoldsNoHistory(t *testing.T) {
	_, st, _, err := RunMacro3D(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	db, _, _, err := routeArray(tinyCfg().routeOptions(nil), st, mustAbut(t, st, 2))
	if err != nil {
		t.Fatal(err)
	}
	u, h, f := db.DynState()
	if h != nil {
		t.Fatal("the array database holds a history plane")
	}
	want := stash.NewEnc()
	want.I32s(u)
	want.F32s(make([]float32, len(u)))
	want.I32s(f)
	got := stash.NewEnc()
	encodeDynState(got, db)
	if !bytes.Equal(got.Bytes(), want.Bytes()) || dynStateSize(db) != len(want.Bytes()) {
		t.Fatalf("no plane encodes %d bytes (sized %d), a plane of zeros %d", len(got.Bytes()), dynStateSize(db), len(want.Bytes()))
	}
}

// TestEncodeResultRejectsOrigins: the snapshot format has no origin, so
// encoding a result with placed routes panics by name instead of writing
// the shapes as if they lay at the grid's origin.
func TestEncodeResultRejectsOrigins(t *testing.T) {
	tile := randomResult(5, 4)
	res := &route.Result{Routes: make([]*route.NetRoute, 2)}
	res.Place(1, tile.Routes[0], 3, 4)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "encodeResult") || !strings.Contains(msg, "placed") {
			t.Fatalf("encoding a result with origins: recovered %q", msg)
		}
	}()
	encodeResultBytes(res)
}

// flatArray is what a flat 4×4 verification of the signed-off small tile
// analyses: the abutted design, its routing database and result — built
// by the flow's own routeArray, the tile's routes placed per copy, the
// stitched nets routed — and the extraction. The kernel benchmarks run
// single layers on it; the analysis must reproduce VerifyTileArray's
// period, so the fixture cannot drift from what it stands for.
type flatArray struct {
	st  *State
	arr *piton.Array
	db  *route.DB
	res *route.Result
	ex  *extract.Design
	ref *ArrayReport // VerifyTileArray's own report of the same array
}

func flatArray4x4(tb testing.TB) *flatArray {
	tb.Helper()
	f := &flatArrayFixture
	f.once.Do(func() { f.a = buildFlatArray4x4(tb) })
	if f.a == nil {
		tb.Fatal("flat 4×4 fixture failed to build")
	}
	return f.a
}

// flatArrayFixture is built once per test binary: `-count` repeats the
// benchmarks, not the flow and the verification behind them.
var flatArrayFixture struct {
	once sync.Once
	a    *flatArray
}

// flatArrayCfg is the configuration the flat 4×4 fixture's tile is
// signed off with.
func flatArrayCfg() Config { return Config{Piton: piton.SmallCache(), Seed: 1}.withDefaults() }

func buildFlatArray4x4(tb testing.TB) *flatArray {
	tb.Helper()
	cfg := flatArrayCfg()
	_, st, _, err := RunMacro3D(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tech6, _ := tech.New28(6)
	ref, err := VerifyTileArray(cfg, st, tech6, 4, 4)
	if err != nil {
		tb.Fatal(err)
	}
	arr, err := piton.AbutArray(st.Tile, st.Die, 4, 4)
	if err != nil {
		tb.Fatal(err)
	}
	db, res, _, err := routeArray(cfg.routeOptions(nil), st, arr)
	if err != nil {
		tb.Fatal(err)
	}
	slow := tech6.CornerScaleFor(tech.CornerSlow)
	ex := extract.Extract(arr.Design, res, db, slow)
	tree := cts.Build(arr.Design, arr.Clock, arr.ClockPort.Loc, arr.Design.Lib, st.Beol, cts.Options{})
	rep, err := sta.Analyze(arr.Design, ex, st.Report.MinPeriod, sta.Options{Corner: slow, Clock: tree})
	if err != nil || rep.MinPeriod != ref.ArrayPeriod {
		tb.Fatalf("fixture analysis: %v, period %v, VerifyTileArray's %v", err, rep.MinPeriod, ref.ArrayPeriod)
	}
	return &flatArray{st: st, arr: arr, db: db, res: res, ex: ex, ref: ref}
}

// BenchmarkCTSBuild is the clock-tree kernel: the signed-off small tile's
// tree, and the flat 4×4 array's over sixteen times the sinks (`make
// bench`, with allocations: three objects, bytes linear in the design).
func BenchmarkCTSBuild(b *testing.B) {
	f := flatArray4x4(b)
	st, arr := f.st, f.arr
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
	f := flatArray4x4(b)
	st, arr, ex, period := f.st, f.arr, f.ex, f.st.Report.MinPeriod
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
