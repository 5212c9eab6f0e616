package route

import (
	"slices"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/tech"
)

// settleFixture is a 40×40-gcell combined stack (six logic layers, the
// F2F via, four macro-die layers) routed by RouteDesign: forty nets of
// two to four pins among inverters on M1 and macro pins on M4_MD. Bump
// bins hold one crossing, so a long net's choice between its L-shapes
// through the macro die turns on which bins are taken. Gcell-layers hold
// 8 tracks but in a band of 1–3 along the left edge, so that some sit
// past the fill knee and the two pattern negotiation waves leave a
// history there, while the usage of most nets' bounding boxes stays
// below it: where nothing stamps, a missing stamp shows.
func settleFixture(t *testing.T, seed uint64) (*netlist.Design, *DB, *Result) {
	t.Helper()
	logic, _ := tech.NewBEOL28("logic", 6)
	macro, _ := tech.NewBEOL28("macro", 4)
	comb, err := tech.Combine(logic, macro, tech.DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	mac := &cell.Cell{Name: "mac", Kind: cell.KindMacro, Width: 20, Height: 20}
	for _, p := range []string{"D0", "D1", "D2"} {
		mac.Pins = append(mac.Pins, cell.Pin{Name: p, Dir: cell.DirIn, Cap: 2, Layer: "M4_MD",
			Offset: geom.Pt(float64(len(mac.Pins))*8+2, 10)})
	}
	d := netlist.NewDesign("settle", lib)
	rng := geom.NewRNG(seed)
	at := func() geom.Point { return geom.Pt(rng.Range(0, 190), rng.Range(0, 190)) }
	var sinks []netlist.PinRef
	for i := 0; i < 30; i++ {
		a := d.AddInstance("s"+itoa(i), lib.MustCell("INV_X1"))
		a.Loc, a.Placed = at(), true
		sinks = append(sinks, netlist.IPin(a, "A"))
	}
	for i := 0; i < 8; i++ {
		m := d.AddInstance("m"+itoa(i), mac)
		m.Loc, m.Placed = at(), true
		for _, p := range mac.Pins {
			sinks = append(sinks, netlist.IPin(m, p.Name))
		}
	}
	for i := 0; i < 40; i++ {
		drv := d.AddInstance("d"+itoa(i), lib.MustCell("INV_X1"))
		drv.Loc, drv.Placed = at(), true
		k := 1 + rng.Intn(3)
		var ss []netlist.PinRef
		for j := 0; j < k; j++ {
			ss = append(ss, sinks[rng.Intn(len(sinks))])
		}
		d.AddNet("n"+itoa(i), netlist.IPin(drv, "Y"), ss...)
	}
	db := NewDB(geom.R(0, 0, 200, 200), comb, nil, Options{GCellPitch: 5, MaxIters: 2})
	for i := range db.cap {
		db.cap[i] = 8
		if x, _ := db.Grid.Coords(i % db.Grid.Bins()); x < 8 {
			db.cap[i] = int32(1 + rng.Intn(3))
		}
	}
	for i := range db.f2fCap {
		db.f2fCap[i] = 1
	}
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	return d, db, res
}

// copyDB is a copy of db's routing state, without stamps, that routes
// apart from it.
func copyDB(db *DB) *DB {
	c := *db
	c.usage, c.f2fUse, c.hist = slices.Clone(db.usage), slices.Clone(db.f2fUse), slices.Clone(db.hist)
	c.scr, c.ov, c.st = nil, overScan{}, settle{}
	return &c
}

// routesAgain routes net n, released, on c, a copy of the state res's
// routes are committed in, and returns the segments; the copy's usage
// and res's record end as they were.
func routesAgain(t *testing.T, c *DB, res *Result, n *netlist.Net) []Seg {
	t.Helper()
	r := res.Routes[n.ID]
	own := *r
	own.PinNode, own.Segments = slices.Clone(r.PinNode), slices.Clone(r.Segments)
	cres := &Result{Routes: slices.Clone(res.Routes)}
	cres.Routes[n.ID] = &own
	c.ReleaseNet(cres, n.ID)
	got, err := c.RouteNet(cres, n)
	if err != nil {
		t.Fatal(err)
	}
	segs := slices.Clone(got.Segments)
	c.ReleaseNet(cres, n.ID)
	cres.Routes[n.ID] = r
	c.CommitRoute(cres, n.ID)
	return segs
}

// TestSettledNetsRouteUnchanged is the settled-net rule's oracle. Random
// ECO sequences on settleFixture move instances — within their gcell or
// out of it — and reroute their nets the way ddb.Txn.Reroute does (a
// settled net keeps its route, any other is released and routed), roll
// about half of those bundles back the way ddb.Txn.Rollback does (the
// journaled route released, restored and committed), and now and then
// run a negotiation wave: history bumped and the victims rerouted. After
// every step, every net the rule calls settled is routed again,
// released, on a copy of the state: it must return the segments the net
// keeps.
func TestSettledNetsRouteUnchanged(t *testing.T) {
	var settled, skipped, moved, rolledBack, bumps int
	for seed := uint64(1); seed <= 10; seed++ {
		d, db, res := settleFixture(t, seed)
		rng := geom.NewRNG(seed * 7919)
		netsOf := map[*netlist.Instance][]*netlist.Net{}
		for _, n := range d.Nets {
			for i := 0; i < n.NumPins(); i++ {
				if p := n.PinAt(i); p.Inst != nil && !slices.Contains(netsOf[p.Inst], n) {
					netsOf[p.Inst] = append(netsOf[p.Inst], n)
				}
			}
		}
		reroute := func(n *netlist.Net) {
			if db.Settled(res, n) {
				skipped++
				return
			}
			db.ReleaseNet(res, n.ID)
			if _, err := db.RouteNet(res, n); err != nil {
				t.Fatal(err)
			}
			if !db.Settled(res, n) && db.st.net[n.ID] != 0 {
				t.Fatalf("net %s: stamped, yet not settled right after its route", n.Name)
			}
		}
		for step := 0; step < 150; step++ {
			switch rng.Intn(5) {
			case 0: // a negotiation wave
				// History on the overflowed gcell-layers and, so that it
				// reaches routes outside the band, under one net's wires.
				cells, bins, _ := db.overflowed(res)
				victims := db.overflowedNets(res, d.Nets, cells, bins)
				n := d.Nets[rng.Intn(len(d.Nets))]
				for _, sg := range res.Routes[n.ID].Segments {
					if !sg.IsVia() {
						sg.Walk(func(x Node) { cells = append(cells, int32(db.idx(x))) })
					}
				}
				db.bumpHistory(cells)
				bumps++
				for _, n := range victims[:min(len(victims), 5)] {
					reroute(n)
				}
			default: // an ECO bundle: move an instance, reroute its nets
				inst := d.Instances[rng.Intn(len(d.Instances))]
				nets := netsOf[inst]
				type saved struct {
					r   *NetRoute
					was NetRoute
				}
				var journal []saved
				for _, n := range nets {
					r := res.Routes[n.ID]
					was := *r
					was.PinNode, was.Segments = slices.Clone(r.PinNode), slices.Clone(r.Segments)
					journal = append(journal, saved{r, was})
				}
				from := inst.Loc
				// Half the moves are a few µm (the 5 µm gcell kept or a
				// neighbour's), half jump anywhere.
				if rng.Intn(2) == 0 {
					inst.Loc = geom.Pt(geom.Clamp(from.X+rng.Range(-3, 3), 0, 180), geom.Clamp(from.Y+rng.Range(-3, 3), 0, 180))
				} else {
					inst.Loc = geom.Pt(rng.Range(0, 180), rng.Range(0, 180))
				}
				moved++
				for _, n := range nets {
					reroute(n)
				}
				// Unedited nets, rerouted as the optimizer's resized cells'
				// neighbours are.
				for k := 0; k < 3; k++ {
					reroute(d.Nets[rng.Intn(len(d.Nets))])
				}
				if rng.Intn(2) == 0 {
					inst.Loc = from
					for i, n := range nets {
						db.ReleaseNet(res, n.ID)
						res.Restore(n.ID, journal[i].r, journal[i].was)
						db.CommitRoute(res, n.ID)
					}
					rolledBack++
				}
			}
			c := copyDB(db)
			for _, n := range d.Nets {
				if !db.Settled(res, n) {
					continue
				}
				settled++
				if got := routesAgain(t, c, res, n); !slices.Equal(got, res.Routes[n.ID].Segments) {
					t.Fatalf("seed %d step %d: net %s is settled, but routing it again returns\n%v\nnot\n%v",
						seed, step, n.Name, got, res.Routes[n.ID].Segments)
				}
			}
		}
		// The fixture must exercise what the rule stamps.
		knee, full := 0, 0
		for i, u := range db.usage {
			if fill(u, db.cap[i]) > fillKnee {
				knee++
			}
		}
		for i, u := range db.f2fUse {
			if u >= db.f2fCap[i] {
				full++
			}
		}
		if knee == 0 || full == 0 || db.hist == nil {
			t.Fatalf("seed %d: %d gcell-layers past the knee, %d full bump bins, history %v: the fixture is too loose",
				seed, knee, full, db.hist != nil)
		}
	}
	if settled == 0 || skipped == 0 || rolledBack == 0 || bumps == 0 {
		t.Fatalf("%d settled checks, %d skipped reroutes, %d rollbacks, %d waves: the sequences must exercise all four",
			settled, skipped, rolledBack, bumps)
	}
	t.Logf("%d settled nets routed again, %d reroutes skipped, %d moves, %d rollbacks, %d negotiation waves",
		settled, skipped, moved, rolledBack, bumps)
}

// TestSettledNeverSkips: the routes the DB did not compute pattern-first
// are never settled — a placed record, a restored one, one after
// SetDynState — nor is any net of a DB that did not run RouteDesign.
func TestSettledNeverSkips(t *testing.T) {
	d, db, res := settleFixture(t, 1)
	var n *netlist.Net
	for _, m := range d.Nets {
		if db.Settled(res, m) {
			n = m
			break
		}
	}
	if n == nil {
		t.Fatal("no net settled after RouteDesign")
	}
	// A journaled route, restored and committed.
	r := res.Routes[n.ID]
	was := *r
	was.PinNode, was.Segments = slices.Clone(r.PinNode), slices.Clone(r.Segments)
	db.ReleaseNet(res, n.ID)
	res.Restore(n.ID, r, was)
	db.CommitRoute(res, n.ID)
	if db.Settled(res, n) {
		t.Fatal("a restored route is settled")
	}
	// Routed again it settles; a placed record does not.
	db.ReleaseNet(res, n.ID)
	if _, err := db.RouteNet(res, n); err != nil {
		t.Fatal(err)
	}
	if !db.Settled(res, n) {
		t.Fatal("a net just routed pattern-first is not settled")
	}
	res.Place(n.ID, res.Routes[n.ID], 0, 0)
	if db.Settled(res, n) {
		t.Fatal("a placed record is settled")
	}
	res.origins[n.ID] = Origin{}
	// A state installed wholesale unsettles every net.
	u, h, f := db.DynState()
	if err := db.SetDynState(slices.Clone(u), slices.Clone(h), slices.Clone(f)); err != nil {
		t.Fatal(err)
	}
	for _, m := range d.Nets {
		if db.Settled(res, m) {
			t.Fatalf("net %s settled after SetDynState", m.Name)
		}
	}
	// A DB that never ran RouteDesign keeps no stamps.
	eco := copyDB(db)
	eco.ReleaseNet(res, n.ID)
	if _, err := eco.RouteNet(res, n); err != nil {
		t.Fatal(err)
	}
	if eco.stamping() || eco.Settled(res, n) {
		t.Fatal("RouteNet started stamps on a DB RouteDesign did not route")
	}
}
