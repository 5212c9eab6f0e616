package ddb_test

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/ddb"
	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/place"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// buildDB routes and extracts a small fanout design and wraps it in a
// database: one driver, `fanout` sinks spread over `span` µm.
func buildDB(t *testing.T, fanout int, span float64) (*ddb.DB, *netlist.Net) {
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
	grid := route.NewDB(geom.R(0, 0, span+100, 200), beol, nil, route.Options{GCellPitch: 10})
	res, err := route.RouteDesign(d, grid)
	if err != nil {
		t.Fatal(err)
	}
	corner := tech.CornerScale{CellDelay: 1, WireR: 1, WireC: 1, Leakage: 1}
	ex := extract.Extract(d, res, grid, corner)
	return ddb.New(d, grid, res, ex, corner), n
}

func TestAdjacency(t *testing.T) {
	db, n := buildDB(t, 4, 400)
	drv := db.Design.Instance("drv")
	if got := db.Driven(drv); len(got) != 1 || int(got[0]) != n.ID {
		t.Fatalf("Driven(drv) = %v, want [%d]", got, n.ID)
	}
	if got := db.DrivenBy(netlist.IPin(drv, "Y")); len(got) != 1 || int(got[0]) != n.ID {
		t.Fatalf("DrivenBy(drv/Y) = %v", got)
	}
	for _, s := range n.Sinks {
		in := db.InputNets(s.Inst)
		if len(in) != 1 || int(in[0]) != n.ID {
			t.Fatalf("InputNets(%s) = %v", s.Inst.Name, in)
		}
	}
}

func TestResizeRollbackRestoresMaster(t *testing.T) {
	db, _ := buildDB(t, 4, 400)
	drv := db.Design.Instance("drv")
	was := drv.Master
	txn := db.Begin()
	if err := txn.Resize(drv, db.Design.Lib.MustCell("INV_X32")); err != nil {
		t.Fatal(err)
	}
	if got := txn.DirtyInsts(); len(got) != 1 || got[0] != drv.ID {
		t.Fatalf("DirtyInsts = %v", got)
	}
	if txn.TopoChanged() {
		t.Fatal("resize must not report a topology change")
	}
	insts, _ := mustRollback(t, txn)
	if drv.Master != was {
		t.Fatal("master not restored")
	}
	if len(insts) != 1 || insts[0] != drv.ID {
		t.Fatalf("rollback dirty insts = %v", insts)
	}
}

func mustRollback(t *testing.T, txn *ddb.Txn) (insts, nets []int) {
	t.Helper()
	n, i, _ := txn.Rollback()
	return i, n
}

// cloneRecords deep-copies a net's route and RC records: Reroute
// rewrites them in place, so a test that compares across an edit needs
// the values, not the pointers.
func cloneRecords(db *ddb.DB, id int) (route.NetRoute, extract.NetRC) {
	r, rc := *db.Routes.Routes[id], *db.Ex.Nets[id]
	r.PinNode, r.Segments = slices.Clone(r.PinNode), slices.Clone(r.Segments)
	rc.ElmoreTo = slices.Clone(rc.ElmoreTo)
	return r, rc
}

func TestRerouteRollbackRestoresRouteAndRC(t *testing.T) {
	db, n := buildDB(t, 4, 400)
	routeRec, rcRec := db.Routes.Routes[n.ID], db.Ex.Nets[n.ID]
	oldRoute, oldRC := cloneRecords(db, n.ID)
	oldWireC := db.Ex.CWireTotal

	txn := db.Begin()
	// Move a sink, then reroute: both the route and the RC tree change,
	// in the records the tables already hold.
	txn.SetLoc(n.Sinks[0].Inst, geom.Pt(450, 150))
	if err := txn.Reroute(n); err != nil {
		t.Fatal(err)
	}
	if db.Routes.Routes[n.ID] != routeRec || db.Ex.Nets[n.ID] != rcRec {
		t.Fatal("reroute replaced a record instead of rewriting it")
	}
	if newRoute, newRC := cloneRecords(db, n.ID); reflect.DeepEqual(newRoute, oldRoute) || reflect.DeepEqual(newRC, oldRC) {
		t.Fatal("reroute left the route or the extraction as it was")
	}

	txn.Rollback()
	if db.Routes.Routes[n.ID] != routeRec || db.Ex.Nets[n.ID] != rcRec {
		t.Fatal("rollback replaced a record")
	}
	// The journal's copies went back bit for bit.
	if gotRoute, gotRC := cloneRecords(db, n.ID); !reflect.DeepEqual(gotRoute, oldRoute) || !reflect.DeepEqual(gotRC, oldRC) {
		t.Fatalf("rollback restored\n%+v\n%+v, want\n%+v\n%+v", gotRoute, gotRC, oldRoute, oldRC)
	}
	if math.Abs(db.Ex.CWireTotal-oldWireC) > 1e-9 {
		t.Fatalf("wire-cap total drifted: %v vs %v", db.Ex.CWireTotal, oldWireC)
	}
}

// TestReroutesCountUnchanged: a transaction counts its reroutes, and
// among them those whose segments came out as the journal saved them —
// a reroute of an unedited net — but not one after its sink moved, nor
// one of a net the transaction added.
func TestReroutesCountUnchanged(t *testing.T) {
	db, n := buildDB(t, 4, 400)
	txn := db.Begin()
	if err := txn.Reroute(n); err != nil {
		t.Fatal(err)
	}
	if total, same := txn.Reroutes(); total != 1 || same != 1 {
		t.Fatalf("after rerouting an unedited net: %d reroutes, %d unchanged, want 1, 1", total, same)
	}
	txn.SetLoc(n.Sinks[0].Inst, geom.Pt(450, 150))
	if err := txn.Reroute(n); err != nil {
		t.Fatal(err)
	}
	inst := txn.AddInstance("b0", db.Design.Lib.MustCell("BUF_X16"))
	inst.Loc, inst.Placed = geom.Pt(100, 50), true
	txn.AppendSink(n, netlist.IPin(inst, "A"))
	nn := txn.AddNet("bn0", netlist.IPin(inst, "Y"), txn.RemoveSinkAt(n, 0))
	if err := txn.Reroute(nn); err != nil {
		t.Fatal(err)
	}
	if total, same := txn.Reroutes(); total != 3 || same != 1 {
		t.Fatalf("after a moved sink and a new net: %d reroutes, %d unchanged, want 3, 1", total, same)
	}
	txn.Rollback()
}

func TestAddRollbackTruncates(t *testing.T) {
	db, n := buildDB(t, 4, 400)
	d := db.Design
	nInst, nNets := d.Counts()
	buf := d.Lib.MustCell("BUF_X16")

	txn := db.Begin()
	sink := txn.RemoveSinkAt(n, 0)
	inst := txn.AddInstance("b0", buf)
	inst.Loc = geom.Pt(100, 50)
	inst.Placed = true
	txn.AppendSink(n, netlist.IPin(inst, "A"))
	nn := txn.AddNet("bn0", netlist.IPin(inst, "Y"), sink)
	if err := txn.Reroute(n); err != nil {
		t.Fatal(err)
	}
	if err := txn.Reroute(nn); err != nil {
		t.Fatal(err)
	}
	if !txn.TopoChanged() {
		t.Fatal("connectivity edits must report a topology change")
	}
	// The new net is live: adjacency sees it.
	if got := db.Driven(inst); len(got) != 1 || int(got[0]) != nn.ID {
		t.Fatalf("Driven(buf) = %v", got)
	}

	nets, insts, topo := txn.Rollback()
	if !topo {
		t.Fatal("rollback lost the topo flag")
	}
	if ni, nn2 := d.Counts(); ni != nInst || nn2 != nNets {
		t.Fatalf("counts after rollback %d/%d, want %d/%d", ni, nn2, nInst, nNets)
	}
	if len(db.Routes.Routes) != nNets || len(db.Ex.Nets) != nNets {
		t.Fatalf("route/extraction tables not truncated: %d/%d", len(db.Routes.Routes), len(db.Ex.Nets))
	}
	if len(n.Sinks) != 4 {
		t.Fatalf("sinks = %d, want 4", len(n.Sinks))
	}
	// Dirty views only report survivors (pre-existing ids).
	for _, id := range nets {
		if id >= nNets {
			t.Fatalf("dirty net %d past truncation", id)
		}
	}
	for _, id := range insts {
		if id >= nInst {
			t.Fatalf("dirty inst %d past truncation", id)
		}
	}
	// Adjacency was rebuilt for the restored design.
	if got := db.InputNets(n.Sinks[0].Inst); len(got) != 1 || int(got[0]) != n.ID {
		t.Fatalf("adjacency stale after rollback: %v", got)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceSinksAdjacency(t *testing.T) {
	db, n := buildDB(t, 4, 400)
	orig := append([]netlist.PinRef(nil), n.Sinks...)
	dropped := orig[3].Inst

	txn := db.Begin()
	txn.ReplaceSinks(n, orig[:2])
	if got := db.InputNets(dropped); len(got) != 0 {
		t.Fatalf("dropped sink still has inputs: %v", got)
	}
	txn.Rollback()
	if got := db.InputNets(dropped); len(got) != 1 || int(got[0]) != n.ID {
		t.Fatalf("input adjacency not restored: %v", got)
	}
	if len(n.Sinks) != 4 {
		t.Fatalf("sinks = %d", len(n.Sinks))
	}
}

func TestCommitKeepsEdits(t *testing.T) {
	db, n := buildDB(t, 4, 400)
	drv := db.Design.Instance("drv")
	to := db.Design.Lib.MustCell("INV_X32")
	txn := db.Begin()
	if err := txn.Resize(drv, to); err != nil {
		t.Fatal(err)
	}
	if err := txn.Reroute(n); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	if drv.Master != to {
		t.Fatal("commit lost the resize")
	}
	// A committed extraction patch matches a fresh extraction.
	fresh := extract.Extract(db.Design, db.Routes, db.Grid, db.Corner)
	if math.Abs(fresh.Nets[n.ID].CTotal()-db.Ex.Nets[n.ID].CTotal()) > 1e-12 {
		t.Fatal("committed RC differs from fresh extraction")
	}
}

// lanesDB builds w independent lanes on the row grid — a register, two
// inverters on one net, a capture register behind each — routes and
// extracts them and attaches the placement's free space. Lane 0 sits at
// the same coordinates at every w, so a transaction on it does the
// same work in a design of any size.
func lanesDB(t *testing.T, w int) *ddb.DB {
	t.Helper()
	const rowH = 1.2
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("lanes", lib)
	at := func(name, master string, x, y float64) *netlist.Instance {
		inst := d.AddInstance(name, lib.MustCell(master))
		inst.Loc, inst.Placed = geom.Pt(x, y), true
		return inst
	}
	for i := 0; i < w; i++ {
		x, y, s := float64(18+60*(i%40)), rowH*float64(10+20*(i/40)), strconv.Itoa(i)
		src := at("src"+s, "DFF_X1", x, y)
		a, b := at("a"+s, "INV_X2", x+15, y), at("b"+s, "INV_X2", x+15, y+10*rowH)
		d.AddNet("q"+s, netlist.IPin(src, "Q"), netlist.IPin(a, "A"), netlist.IPin(b, "A"))
		d.AddNet("ya"+s, netlist.IPin(a, "Y"), netlist.IPin(at("ca"+s, "DFF_X1", x+30, y), "D"))
		d.AddNet("yb"+s, netlist.IPin(b, "Y"), netlist.IPin(at("cb"+s, "DFF_X1", x+30, y+10*rowH), "D"))
	}
	die := geom.R(0, 0, 2460, rowH*float64(40+20*(w/40)))
	beol, _ := tech.NewBEOL28("l", 6)
	grid := route.NewDB(die, beol, nil, route.Options{GCellPitch: 10})
	res, err := route.RouteDesign(d, grid)
	if err != nil {
		t.Fatal(err)
	}
	corner := tech.CornerScale{CellDelay: 1, WireR: 1, WireC: 1, Leakage: 1}
	db := ddb.New(d, grid, res, extract.Extract(d, res, grid, corner), corner)
	db.Free = place.NewFreeSpace(d, &floorplan.Floorplan{Die: die}, rowH)
	return db
}

// TestRollbackAllocsIndependentOfDesignSize: a rolled-back transaction
// that inserts a buffer (claiming free space for it), upsizes a cell
// into a new location and reroutes what it touched allocates the same
// number of objects in a 250-instance design and a 5000-instance one —
// the journals restore what the bundle edited, nothing is re-derived
// from the design — and leaves adjacency and free space as they were.
func TestRollbackAllocsIndependentOfDesignSize(t *testing.T) {
	rollbackAllocs := func(w int) float64 {
		db := lanesDB(t, w)
		d := db.Design
		n, buf := d.Net("q0"), d.Lib.MustCell("BUF_X16")
		free0 := place.NewFreeSpace(d, &floorplan.Floorplan{Die: db.Grid.Grid.Region}, 1.2)
		allocs := testing.AllocsPerRun(5, func() {
			txn := db.Begin()
			sink := txn.RemoveSinkAt(n, 0)
			inst := txn.AddInstance("ecobuf", buf)
			loc, ok := txn.Alloc(netlist.LogicDie, buf.Width, geom.Pt(25, 12))
			if !ok {
				t.Fatal("no free space for the buffer")
			}
			inst.Loc, inst.Placed = loc, true
			txn.AppendSink(n, netlist.IPin(inst, "A"))
			nn := txn.AddNet("econet", netlist.IPin(inst, "Y"), sink)
			if err := txn.Upsize(sink.Inst, d.Lib.MustCell("INV_X32")); err != nil {
				t.Fatal(err)
			}
			for _, r := range []*netlist.Net{n, nn, d.Net("ya0")} {
				if err := txn.Reroute(r); err != nil {
					t.Fatal(err)
				}
			}
			txn.Rollback()
		})
		if err := db.CheckAdjacency(); err != nil {
			t.Fatal(err)
		}
		if !db.Free.Equal(free0) {
			t.Fatal("free space not restored by rollback")
		}
		return allocs
	}
	small, large := rollbackAllocs(50), rollbackAllocs(1000)
	t.Logf("allocs per rolled-back transaction: %.0f at 250 instances, %.0f at 5000", small, large)
	if large > small {
		t.Fatalf("a rolled-back transaction allocates %.0f objects at 5000 instances, %.0f at 250: want no growth",
			large, small)
	}
}

// TestTxnRerouteAllocs: at steady state — the journal's buffers, the
// router's and the extractor's scratch sized by a first round — a
// transaction that moves a cell and reroutes and re-extracts its nets
// allocates one object, the Txn: the route and RC records are rewritten
// where they lie and what they held is copied into the journal, whether
// the bundle is then committed or rolled back.
func TestTxnRerouteAllocs(t *testing.T) {
	db := lanesDB(t, 50)
	d := db.Design
	a := d.Instance("a0")
	nets := []*netlist.Net{d.Net("q0"), d.Net("ya0")}
	home, away := a.Loc, geom.Pt(a.Loc.X+40, a.Loc.Y+24)
	round := func(rollback bool) {
		txn := db.Begin()
		to := away
		if a.Loc == away {
			to = home
		}
		txn.SetLoc(a, to)
		for _, n := range nets {
			if err := txn.Reroute(n); err != nil {
				t.Fatal(err)
			}
		}
		if rollback {
			txn.Rollback()
		} else {
			txn.Commit()
		}
	}
	for _, rollback := range []bool{false, true} {
		round(rollback)
		round(rollback) // both locations routed once: every span has its final size
		if allocs := testing.AllocsPerRun(20, func() { round(rollback) }); allocs > 1 {
			t.Errorf("Reroute ×%d + %s allocates %.0f objects per transaction, want 1 (the Txn)",
				len(nets), map[bool]string{false: "Commit", true: "Rollback"}[rollback], allocs)
		}
	}
	// The records still describe the design: a fresh extraction of the
	// final routes agrees with the rewritten one.
	fresh := extract.Extract(d, db.Routes, db.Grid, db.Corner)
	for _, n := range nets {
		_, have := cloneRecords(db, n.ID)
		want := *fresh.Nets[n.ID]
		if !reflect.DeepEqual(have, want) {
			t.Fatalf("net %s: rewritten RC %+v, fresh %+v", n.Name, have, want)
		}
	}
}

// TestRollbackOverGrownRows is the rollback property over rows the
// database grew itself: random bundles of buffer insertions — each
// buffer hung off an existing driver and driving existing sinks, so
// driver and input rows of old and new instances alike outgrow their
// spans into the row slab — are committed or rolled back at random,
// and after each the adjacency equals a from-scratch build. Committed
// bundles leave grown rows behind for later bundles to grow again and
// roll back into.
func TestRollbackOverGrownRows(t *testing.T) {
	db := lanesDB(t, 20)
	d := db.Design
	buf := d.Lib.MustCell("BUF_X1")
	var drivers, sinks []netlist.PinRef
	for _, inst := range d.Instances {
		switch inst.Master.Name {
		case "DFF_X1":
			drivers = append(drivers, netlist.IPin(inst, "Q"))
			sinks = append(sinks, netlist.IPin(inst, "D"))
		case "INV_X2":
			drivers = append(drivers, netlist.IPin(inst, "Y"))
			sinks = append(sinks, netlist.IPin(inst, "A"))
		}
	}
	rng := geom.NewRNG(5)
	grown, commits, rollbacks := 0, 0, 0
	for step := 0; step < 200; step++ {
		txn := db.Begin()
		for e := 0; e < 1+rng.Intn(4); e++ {
			b := txn.AddInstance("pb"+strconv.Itoa(step)+"_"+strconv.Itoa(e), buf)
			txn.AddNet("pn"+strconv.Itoa(step)+"_"+strconv.Itoa(e), drivers[rng.Intn(len(drivers))], netlist.IPin(b, "A"))
			fan := make([]netlist.PinRef, 1+rng.Intn(3))
			for i := range fan {
				fan[i] = sinks[rng.Intn(len(sinks))]
			}
			txn.AddNet("po"+strconv.Itoa(step)+"_"+strconv.Itoa(e), netlist.IPin(b, "Y"), fan...)
		}
		if rng.Intn(3) == 0 {
			txn.Commit()
			commits++
		} else {
			txn.Rollback()
			rollbacks++
		}
		if err := db.CheckAdjacency(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for _, s := range sinks {
		if in := db.InputNets(s.Inst); cap(in) > len(in) {
			grown++
		}
	}
	if commits == 0 || rollbacks == 0 || grown == 0 {
		t.Fatalf("%d commits, %d rollbacks, %d grown input rows: the run must exercise all three",
			commits, rollbacks, grown)
	}
}
