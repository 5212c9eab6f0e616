package opt

import (
	"math"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/ddb"
	"macro3d/internal/extract"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
)

// TestOptionsDefaults pins what withDefaults fills in for a zero field
// to the defaults Options' comments state, and leaves a set field alone.
func TestOptionsDefaults(t *testing.T) {
	want := Options{MaxIters: 250, MaxMovesPerIter: 48, BufferElmore: 90}
	if got := (Options{}).withDefaults(); got != want {
		t.Fatalf("zero Options default to %+v, want %+v", got, want)
	}
	set := Options{MaxIters: 2, MaxMovesPerIter: 8, BufferElmore: 1e12, TargetPeriod: 900, Frozen: true}
	if got := set.withDefaults(); got != set {
		t.Fatalf("set Options %+v default to %+v", set, got)
	}
}

func TestClusterSinks(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("c", lib)
	var sinks []netlist.PinRef
	// Two spatial clumps of 6 cells each.
	for i := 0; i < 12; i++ {
		u := d.AddInstance("u"+string(rune('a'+i)), lib.MustCell("INV_X1"))
		if i < 6 {
			u.Loc = geom.Pt(float64(i), 0)
		} else {
			u.Loc = geom.Pt(1000+float64(i), 0)
		}
		sinks = append(sinks, netlist.IPin(u, "A"))
	}
	ctx := &Context{}
	groups := ctx.clusterSinks(sinks, 2)
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	// Each group is spatially coherent: max internal span ≪ 1000.
	for _, g := range groups {
		var pts []geom.Point
		for _, s := range g {
			pts = append(pts, s.Loc())
		}
		bb := geom.BoundingBox(pts)
		if bb.W() > 100 {
			t.Fatalf("cluster spans %v µm — clumps split wrongly", bb.W())
		}
	}
	// Total membership preserved.
	if len(groups[0])+len(groups[1]) != 12 {
		t.Fatal("lost sinks")
	}
	// k larger than sinks degrades gracefully.
	groups = ctx.clusterSinks(sinks[:3], 8)
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != 3 {
		t.Fatal("over-split lost sinks")
	}
}

// buildCtx creates a one-net context for micro-tests.
func buildCtx(t *testing.T, fanout int, span float64) (*Context, *netlist.Net) {
	t.Helper()
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("x", lib)
	drv := d.AddInstance("drv", lib.MustCell("INV_X1"))
	drv.Loc = geom.Pt(10, 10)
	drv.Placed = true
	refs := []netlist.PinRef{}
	for i := 0; i < fanout; i++ {
		u := d.AddInstance("s"+string(rune('a'+i)), lib.MustCell("INV_X4"))
		u.Loc = geom.Pt(10+span*float64(i+1)/float64(fanout), 10+float64(i%3)*20)
		u.Placed = true
		refs = append(refs, netlist.IPin(u, "A"))
	}
	n := d.AddNet("net", netlist.IPin(drv, "Y"), refs...)
	beol, _ := tech.NewBEOL28("l", 6)
	db := route.NewDB(geom.R(0, 0, span+100, 200), beol, nil, route.Options{GCellPitch: 10})
	res, err := route.RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	corner := tech.CornerScale{CellDelay: 1, WireR: 1, WireC: 1, Leakage: 1}
	ex := extract.Extract(d, res, db, corner)
	ctx := &Context{Design: d, DB: db, Routes: res, Ex: ex, Corner: corner,
		DDB: ddb.New(d, db, res, ex, corner)}
	return ctx, n
}

func TestInsertFanoutBufferShieldsDriver(t *testing.T) {
	ctx, n := buildCtx(t, 8, 1500)
	before := ctx.Ex.Nets[n.ID].CTotal()
	seq := 0
	ctx.txn = ctx.DDB.Begin()
	if err := insertFanoutBuffer(ctx, n, &seq); err != nil {
		t.Fatal(err)
	}
	ctx.txn.Commit()
	after := ctx.Ex.Nets[n.ID].CTotal()
	if after >= before/2 {
		t.Fatalf("driver load not shielded: %v → %v fF", before, after)
	}
	// Every original sink is still reachable (design valid).
	if err := ctx.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	// Inserted buffers are inside the die.
	for _, inst := range ctx.Design.Instances {
		if !ctx.DB.Grid.Region.ContainsRect(inst.Bounds()) && inst.Placed {
			t.Fatalf("%s outside die", inst.Name)
		}
	}
}

func TestSizeForLoad(t *testing.T) {
	ctx, n := buildCtx(t, 8, 1500)
	drv := ctx.Design.Instance("drv")
	to := sizeForLoad(ctx, drv)
	if to == nil {
		t.Fatal("no upsize suggested for a heavily loaded X1")
	}
	load := ctx.Ex.Nets[n.ID].CTotal()
	if to.DriveRes*load > 100+1e-9 {
		// Must be the family top if even it cannot meet the budget.
		fam := ctx.Design.Lib.Family(drv.Master.Family)
		if to.Name != fam[len(fam)-1].Name {
			t.Fatalf("suggested %s does not meet budget and is not the top drive", to.Name)
		}
	}
	// After resizing to the suggestion, no further suggestion.
	if err := ctx.Design.Resize(drv, to); err != nil {
		t.Fatal(err)
	}
	if again := sizeForLoad(ctx, drv); again != nil && again.Drive <= to.Drive {
		t.Fatalf("suggested a non-stronger size %s after %s", again.Name, to.Name)
	}
}

func TestTxnRollback(t *testing.T) {
	ctx, n := buildCtx(t, 6, 1200)
	d := ctx.Design
	nInst, nNets := d.Counts()
	drvMaster := d.Instance("drv").Master
	sinks0 := len(n.Sinks)
	wl0 := ctx.Routes.Routes[n.ID].WL

	txn := ctx.DDB.Begin()
	ctx.txn = txn
	// Mutate heavily: resize, fanout-buffer.
	if err := txn.Resize(d.Instance("drv"), d.Lib.MustCell("INV_X32")); err != nil {
		t.Fatal(err)
	}
	seq := 0
	if err := insertFanoutBuffer(ctx, n, &seq); err != nil {
		t.Fatal(err)
	}
	if ni, _ := d.Counts(); ni == nInst {
		t.Fatal("mutation added nothing — test is vacuous")
	}

	nets, insts, topo := txn.Rollback()
	if !topo {
		t.Fatal("topology change not reported by the journal")
	}
	if len(nets) == 0 || len(insts) == 0 {
		t.Fatal("rollback returned an empty dirty view")
	}
	for _, id := range nets {
		if id >= nNets {
			t.Fatalf("dirty net %d survived past truncation point %d", id, nNets)
		}
	}
	for _, id := range insts {
		if id >= nInst {
			t.Fatalf("dirty inst %d survived past truncation point %d", id, nInst)
		}
	}

	if ni, nn := d.Counts(); ni != nInst || nn != nNets {
		t.Fatalf("counts after rollback: %d/%d want %d/%d", ni, nn, nInst, nNets)
	}
	if d.Instance("drv").Master != drvMaster {
		t.Fatal("master not restored")
	}
	if len(n.Sinks) != sinks0 {
		t.Fatalf("sinks = %d, want %d", len(n.Sinks), sinks0)
	}
	if math.Abs(ctx.Routes.Routes[n.ID].WL-wl0) > 1e-9 {
		t.Fatal("route not restored")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Extraction consistent with a fresh run.
	fresh := extract.Extract(d, ctx.Routes, ctx.DB, ctx.Corner)
	if math.Abs(fresh.CWireTotal-ctx.Ex.CWireTotal) > 1e-6 {
		t.Fatalf("extraction drift after rollback: %v vs %v", ctx.Ex.CWireTotal, fresh.CWireTotal)
	}
}

func TestPathScore(t *testing.T) {
	r := &sta.Report{Paths: []sta.Path{{Delay: 100}, {Delay: 50}}}
	if pathScore(r) != 150 {
		t.Fatalf("pathScore = %v", pathScore(r))
	}
	if pathScore(&sta.Report{}) != 0 {
		t.Fatal("empty score nonzero")
	}
}

func TestEcoPlaceFallbackClamp(t *testing.T) {
	// Without a FreeSpace, ecoPlace clamps into the die.
	ctx, _ := buildCtx(t, 2, 100)
	buf := ctx.Design.Lib.MustCell("BUF_X16")
	inst := ctx.Design.AddInstance("eco", buf)
	ecoPlace(ctx, inst, netlist.PinRef{}, geom.Pt(-50, 1e6))
	p := inst.Loc
	die := ctx.DB.Grid.Region
	if p.X < die.Lx || p.Y+buf.Height > die.Uy {
		t.Fatalf("clamp failed: %v", p)
	}
}
