package route

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"macro3d/internal/cell"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/tech"
)

func db6(t *testing.T, die geom.Rect, blk []floorplan.RouteBlockage) *DB {
	t.Helper()
	b, err := tech.NewBEOL28("logic", 6)
	if err != nil {
		t.Fatal(err)
	}
	return NewDB(die, b, blk, Options{GCellPitch: 10})
}

// twoPinDesign: one INV at (10,10) driving one INV at (x,y).
func twoPinDesign(x, y float64) *netlist.Design {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("two", lib)
	a := d.AddInstance("a", lib.MustCell("INV_X1"))
	a.Loc = geom.Pt(10, 10)
	b := d.AddInstance("b", lib.MustCell("INV_X1"))
	b.Loc = geom.Pt(x, y)
	d.AddNet("n", netlist.IPin(a, "Y"), netlist.IPin(b, "A"))
	return d
}

func TestRouteTwoPin(t *testing.T) {
	d := twoPinDesign(210, 110)
	db := db6(t, geom.R(0, 0, 300, 300), nil)
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Routes[0]
	if r == nil || len(r.Segments) == 0 {
		t.Fatal("no route produced")
	}
	// Routed length ≥ HPWL and within 2× (L-shape).
	hpwl := d.Nets[0].HPWL()
	if res.WL < hpwl*0.5 || res.WL > hpwl*2.5 {
		t.Fatalf("WL = %v for HPWL %v", res.WL, hpwl)
	}
	if r.Vias == 0 {
		t.Fatal("no vias: pins are on M1, runs are above")
	}
	if r.F2F != 0 || res.F2FBumps != 0 {
		t.Fatal("single-die route crossed F2F")
	}
	if res.Overflow != 0 {
		t.Fatalf("overflow = %d", res.Overflow)
	}
	checkConnected(t, db, r)
}

// checkConnected verifies segment endpoints form a connected set
// containing every pin node.
func checkConnected(t *testing.T, db *DB, r *NetRoute) {
	t.Helper()
	adj := make(map[Node][]Node)
	add := func(a, b Node) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, s := range r.Segments {
		if s.IsVia() {
			add(s.A, s.B)
			continue
		}
		// Straight runs connect all intermediate gcells.
		var prevN *Node
		forEachStep(s, func(n Node) {
			if prevN != nil {
				add(*prevN, n)
			}
			c := n
			prevN = &c
		})
	}
	if len(r.PinNode) == 0 {
		return
	}
	// BFS from pin 0.
	seen := map[Node]bool{r.PinNode[0]: true}
	queue := []Node{r.PinNode[0]}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				queue = append(queue, m)
			}
		}
	}
	for i, pn := range r.PinNode {
		if !seen[pn] {
			t.Fatalf("pin %d node %v not connected to driver", i, pn)
		}
	}
}

func TestRouteSameGCell(t *testing.T) {
	d := twoPinDesign(11, 11)
	db := db6(t, geom.R(0, 0, 300, 300), nil)
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	// Pins in one gcell on the same layer: nothing to route.
	if res.WL != 0 {
		t.Fatalf("WL = %v for same-gcell net", res.WL)
	}
}

func TestObstructionForcesClimb(t *testing.T) {
	// A wall of M1–M4 obstruction between the pins: the route must use
	// M5/M6 over it (the 2D memory-overflight situation).
	die := geom.R(0, 0, 400, 400)
	wall := geom.R(150, 0, 250, 400)
	var blk []floorplan.RouteBlockage
	for _, ly := range []string{"M1", "M2", "M3", "M4"} {
		blk = append(blk, floorplan.RouteBlockage{Layer: ly, Rect: wall})
	}
	d := twoPinDesign(380, 15)
	db := db6(t, die, blk)
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow != 0 {
		t.Fatalf("overflow = %d crossing obstruction", res.Overflow)
	}
	// The crossing segment must be on M5 or M6.
	r := res.Routes[0]
	crossesHigh := false
	for _, s := range r.Segments {
		if s.IsVia() {
			continue
		}
		x0 := float64(min(s.A.X, s.B.X)) * db.Grid.DX
		x1 := float64(max(s.A.X, s.B.X)+1) * db.Grid.DX
		if x0 < 250 && x1 > 150 && s.A.L >= 4 {
			crossesHigh = true
		}
	}
	if !crossesHigh {
		t.Fatal("route did not climb over the M1–M4 wall")
	}
}

func TestCombinedStackCrossesF2F(t *testing.T) {
	// Pin on a macro-die layer (M4_MD): the route must cross the F2F
	// boundary exactly once and count one bump.
	logic, _ := tech.NewBEOL28("logic", 6)
	macro, _ := tech.NewBEOL28("macro", 4)
	comb, err := tech.Combine(logic, macro, tech.DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("x", lib)
	a := d.AddInstance("a", lib.MustCell("INV_X1"))
	a.Loc = geom.Pt(10, 10)
	// A fake macro with one input pin on M4_MD.
	mm := &cell.Cell{
		Name: "mac", Kind: cell.KindMacro, Width: 50, Height: 50,
		Pins: []cell.Pin{{Name: "D", Dir: cell.DirIn, Cap: 2, Layer: "M4_MD",
			Offset: geom.Pt(25, 25)}},
	}
	m := d.AddInstance("m", mm)
	m.Loc = geom.Pt(200, 200)
	m.Fixed, m.Placed = true, true
	d.AddNet("n", netlist.IPin(a, "Y"), netlist.IPin(m, "D"))

	db := NewDB(geom.R(0, 0, 400, 400), comb, nil, Options{GCellPitch: 10})
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.F2FBumps != 1 {
		t.Fatalf("F2F bumps = %d, want 1", res.F2FBumps)
	}
	checkConnected(t, db, res.Routes[0])
}

func TestNegotiationReducesOverflow(t *testing.T) {
	// Many parallel nets through a 1-gcell-wide channel: initial
	// pattern routes collide; negotiation must spread them across
	// layers/detours.
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("cong", lib)
	for i := 0; i < 60; i++ {
		a := d.AddInstance("a"+itoa(i), lib.MustCell("INV_X1"))
		a.Loc = geom.Pt(5, float64(5+i))
		b := d.AddInstance("b"+itoa(i), lib.MustCell("INV_X1"))
		b.Loc = geom.Pt(395, float64(5+i))
		d.AddNet("n"+itoa(i), netlist.IPin(a, "Y"), netlist.IPin(b, "A"))
	}
	b6, _ := tech.NewBEOL28("logic", 6)
	db := NewDB(geom.R(0, 0, 400, 400), b6, nil, Options{GCellPitch: 20, MaxIters: 8})
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("congestion test: WL %.0f, vias %d, overflow %d", res.WL, res.Vias, res.Overflow)
	// 60 nets over ~6 usable H layers × ~13 tracks each: should fit.
	if res.Overflow > 3 {
		t.Fatalf("negotiation left overflow = %d", res.Overflow)
	}
}

// TestHistoryOnDemand: a DB that never negotiates — a clean route, a
// flat tile array's — holds no history plane, and its DynState says so;
// every congestion cost is what a plane of zeros gives. A restored
// history of zeros creates no plane, any other value does.
func TestHistoryOnDemand(t *testing.T) {
	d := twoPinDesign(210, 110)
	db := db6(t, geom.R(0, 0, 300, 300), nil)
	if _, err := RouteDesign(d, db); err != nil {
		t.Fatal(err)
	}
	u, h, f := db.DynState()
	if db.hist != nil || h != nil {
		t.Fatal("a DB that never negotiated holds a history plane")
	}
	costs := make([]float64, len(u))
	for i := range costs {
		costs[i] = db.congestionCost(i)
	}
	zeros := make([]float32, len(u))
	if err := db.SetDynState(u, zeros, f); err != nil || db.hist != nil {
		t.Fatalf("restoring a history of zeros: %v, plane %v", err, db.hist != nil)
	}
	db.history()
	for i := range costs {
		if c := db.congestionCost(i); math.Float64bits(c) != math.Float64bits(costs[i]) {
			t.Fatalf("gcell-layer %d costs %v with a plane of zeros, %v without one", i, c, costs[i])
		}
	}
	db.hist = nil
	zeros[3] = 2
	if err := db.SetDynState(u, zeros, f); err != nil || len(db.hist) != len(u) || db.hist[3] != 2 {
		t.Fatalf("restoring a history: %v, plane of %d", err, len(db.hist))
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestRoutePitonTile(t *testing.T) {
	if testing.Short() {
		t.Skip("tile routing in -short mode")
	}
	tile, err := piton.Generate(piton.SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	sz, err := floorplan.SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := floorplan.PlaceMacros(d, sz.Die2D, floorplan.Style2D)
	if err != nil {
		t.Fatal(err)
	}
	floorplan.BuildBlockages(fp, d, netlist.LogicDie)
	floorplan.AssignPorts(tile, sz.Die2D)
	if _, err := place.Place(d, fp, 1.2, place.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	b6, _ := tech.NewBEOL28("logic", 6)
	db := NewDB(sz.Die2D, b6, fp.RouteBlk, Options{})
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	hpwl := 0.0
	for _, n := range d.Nets {
		if !n.Clock {
			hpwl += n.HPWL()
		}
	}
	t.Logf("tile route: WL %.2f m (HPWL %.2f m), %d vias, overflow %d",
		res.WL/1e6, hpwl/1e6, res.Vias, res.Overflow)
	if res.WL < hpwl*0.8 {
		t.Fatalf("routed WL %.2f below HPWL %.2f", res.WL/1e6, hpwl/1e6)
	}
	if res.WL > hpwl*2.0 {
		t.Fatalf("routed WL %.2f more than 2× HPWL %.2f", res.WL/1e6, hpwl/1e6)
	}
	if res.Overflow > 50 {
		t.Fatalf("tile overflow = %d", res.Overflow)
	}
	// Per-layer WL accounting must sum to the total.
	sum := 0.0
	for _, w := range res.WLPerLayer {
		sum += w
	}
	if diff := sum - res.WL; diff > 1 || diff < -1 {
		t.Fatalf("per-layer WL sum %v != total %v", sum, res.WL)
	}
}

func TestUsageSnapshot(t *testing.T) {
	d := twoPinDesign(210, 110)
	db := db6(t, geom.R(0, 0, 300, 300), nil)
	if _, err := RouteDesign(d, db); err != nil {
		t.Fatal(err)
	}
	snap := db.UsageSnapshot()
	if len(snap) != 6 {
		t.Fatalf("snapshot layers = %d", len(snap))
	}
	any := false
	for _, u := range snap {
		if u > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no layer shows usage")
	}
}

func TestMazeRouteDirect(t *testing.T) {
	db := db6(t, geom.R(0, 0, 200, 200), nil)
	segs, err := db.mazeRoute(Node{0, 0, 0}, Node{10, 10, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("empty maze route")
	}
	// Path starts at source and ends at target.
	if segs[0].A != (Node{0, 0, 0}) {
		t.Fatalf("path starts at %v", segs[0].A)
	}
	if segs[len(segs)-1].B != (Node{10, 10, 3}) {
		t.Fatalf("path ends at %v", segs[len(segs)-1].B)
	}
	// Respect preferred directions on every straight segment.
	for _, s := range segs {
		if s.IsVia() {
			continue
		}
		ly := db.Beol.Layers[s.A.L]
		if ly.Dir == tech.DirHorizontal && s.A.Y != s.B.Y {
			t.Fatalf("vertical run on horizontal layer %s", ly.Name)
		}
		if ly.Dir == tech.DirVertical && s.A.X != s.B.X {
			t.Fatalf("horizontal run on vertical layer %s", ly.Name)
		}
	}
}

// TestPlaceRoute: a placed route is the record itself, read at its
// origin — the usage it commits on a larger aligned grid is the tile's
// moved by (dx, dy) and nothing else, the overflow scan finds it there,
// and Recount sums it without writing it.
func TestPlaceRoute(t *testing.T) {
	d := twoPinDesign(210, 110)
	db := db6(t, geom.R(0, 0, 300, 300), nil)
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Routes[0]
	was := *r
	segs, pins := slices.Clone(r.Segments), slices.Clone(r.PinNode)

	const dx, dy = 5, 7
	big := db6(t, geom.R(0, 0, 600, 600), nil)
	out := &Result{Routes: make([]*NetRoute, 3), WLPerLayer: make([]float64, big.Beol.NumLayers())}
	out.Place(2, r, dx, dy)
	if out.Routes[2] != r {
		t.Fatal("Place stored a copy, not the record")
	}
	if o := out.Origin(2); o != (Origin{DX: dx, DY: dy, Placed: true}) {
		t.Fatalf("Origin(2) = %+v", o)
	}
	if o := out.Origin(1); o != (Origin{}) {
		t.Fatalf("Origin of an unplaced net = %+v", o)
	}
	big.CommitRoute(out, 2)
	tg, bg := db.Grid, big.Grid
	for l := 0; l < db.Beol.NumLayers(); l++ {
		for y := 0; y < bg.NY; y++ {
			for x := 0; x < bg.NX; x++ {
				want := int32(0)
				if sx, sy := x-dx, y-dy; sx >= 0 && sy >= 0 && sx < tg.NX && sy < tg.NY {
					want = db.usage[l*tg.Bins()+tg.Index(sx, sy)]
				}
				if got := big.usage[l*bg.Bins()+bg.Index(x, y)]; got != want {
					t.Fatalf("usage at (%d, %d) layer %d = %d, want %d", x, y, l, got, want)
				}
			}
		}
	}

	// Overflow the bins under the placed shape: the scan must look there.
	for i := range big.cap {
		big.cap[i] = 0
	}
	nets := []*netlist.Net{nil, nil, d.Nets[0]}
	if hit := big.overflowedNets(out, nets); len(hit) != 1 || hit[0] != d.Nets[0] {
		t.Fatalf("overflow scan over a placed route found %v", hit)
	}

	out.Recount(big)
	if out.WL != was.WL || out.Vias != was.Vias || out.F2FBumps != was.F2F {
		t.Fatalf("Recount of one placed route: %v/%d/%d, the route's %v/%d/%d",
			out.WL, out.Vias, out.F2FBumps, was.WL, was.Vias, was.F2F)
	}
	if r.WL != was.WL || r.Vias != was.Vias || r.F2F != was.F2F ||
		!slices.Equal(r.Segments, segs) || !slices.Equal(r.PinNode, pins) {
		t.Fatal("the placed record was written")
	}
}

func TestCommitAndRebuildUsage(t *testing.T) {
	d := twoPinDesign(210, 110)
	db := db6(t, geom.R(0, 0, 300, 300), nil)
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	// Doubling a route's usage then rebuilding from the result must
	// return to the single-use state.
	db.CommitRoute(res, 0)
	snapDouble := db.UsageSnapshot()
	db.RebuildUsage(res)
	snapSingle := db.UsageSnapshot()
	moreDouble := false
	for l := range snapDouble {
		if snapDouble[l] > snapSingle[l] {
			moreDouble = true
		}
	}
	if !moreDouble {
		t.Fatal("double-commit not visible in usage")
	}
	// Release + rebuild equivalence.
	db.ReleaseNet(res, 0)
	db.CommitRoute(res, 0)
	snapAgain := db.UsageSnapshot()
	for l := range snapAgain {
		if snapAgain[l] != snapSingle[l] {
			t.Fatalf("layer %d usage drifted: %v vs %v", l, snapAgain[l], snapSingle[l])
		}
	}
}

func TestGridOverride(t *testing.T) {
	b6, _ := tech.NewBEOL28("l", 6)
	g := geom.Grid{Region: geom.R(0, 0, 300, 300), NX: 30, NY: 30, DX: 10, DY: 10}
	db := NewDB(geom.R(0, 0, 300, 300), b6, nil, Options{GCellPitch: 50, Grid: &g})
	if db.Grid.NX != 30 || db.Grid.DX != 10 {
		t.Fatalf("grid override ignored: %+v", db.Grid)
	}
}

func TestRecountMatchesRouteDesign(t *testing.T) {
	d := twoPinDesign(250, 130)
	db := db6(t, geom.R(0, 0, 400, 400), nil)
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	wl, vias := res.WL, res.Vias
	res.Recount(db)
	if res.WL != wl || res.Vias != vias {
		t.Fatalf("Recount changed totals: %v/%d vs %v/%d", res.WL, res.Vias, wl, vias)
	}
}

func TestPatternRouteAlwaysConnectsProperty(t *testing.T) {
	// Property: for random pin pairs anywhere on the die, the pattern
	// router produces a connected route that respects preferred
	// directions.
	b6, _ := tech.NewBEOL28("l", 6)
	db := NewDB(geom.R(0, 0, 500, 500), b6, nil, Options{GCellPitch: 10})
	rng := geom.NewRNG(17)
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	for i := 0; i < 60; i++ {
		d := netlist.NewDesign("p"+itoa(i), lib)
		a := d.AddInstance("a", lib.MustCell("INV_X1"))
		a.Loc = geom.Pt(rng.Range(5, 480), rng.Range(5, 480))
		c := d.AddInstance("b", lib.MustCell("INV_X1"))
		c.Loc = geom.Pt(rng.Range(5, 480), rng.Range(5, 480))
		d.AddNet("n", netlist.IPin(a, "Y"), netlist.IPin(c, "A"))
		res, err := RouteDesign(d, db)
		if err != nil {
			t.Fatal(err)
		}
		r := res.Routes[0]
		checkConnected(t, db, r)
		for _, s := range r.Segments {
			if s.IsVia() {
				continue
			}
			ly := db.Beol.Layers[s.A.L]
			if ly.Dir == tech.DirHorizontal && s.A.Y != s.B.Y {
				t.Fatalf("iteration %d: vertical run on %s", i, ly.Name)
			}
			if ly.Dir == tech.DirVertical && s.A.X != s.B.X {
				t.Fatalf("iteration %d: horizontal run on %s", i, ly.Name)
			}
		}
		// Clean up usage so iterations are independent.
		db.ReleaseNet(res, 0)
	}
}

// TestGeometryRecordSizes pins the stored routing geometry: a node is 6
// bytes and a segment 12 (DESIGN.md §17).
func TestGeometryRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(Node{}); n > 6 {
		t.Errorf("Sizeof(Node) = %d, want <= 6", n)
	}
	if n := unsafe.Sizeof(Seg{}); n > 12 {
		t.Errorf("Sizeof(Seg) = %d, want <= 12", n)
	}
}

// TestUnaddressableGridIsAnError: a grid with more gcells per axis or
// more layers than a Node addresses yields a DB that only reports why —
// no capacity arrays, no route, no wrapped coordinate — while the
// largest addressable grid still routes to its far corner.
func TestUnaddressableGridIsAnError(t *testing.T) {
	b6, _ := tech.NewBEOL28("l", 6)
	tall := b6.Clone()
	for len(tall.Layers) <= MaxLayers {
		tall.Layers = append(tall.Layers, b6.Layers...)
	}
	edge := float64(MaxGridDim) * 10
	for _, tc := range []struct {
		name string
		die  geom.Rect
		beol *tech.BEOL
	}{
		{"wide", geom.R(0, 0, edge+10, 30), b6},
		{"high", geom.R(0, 0, 30, edge+10), b6},
		{"layers", geom.R(0, 0, 300, 300), tall},
	} {
		db := NewDB(tc.die, tc.beol, nil, Options{GCellPitch: 10})
		if db.Err() == nil {
			t.Fatalf("%s: grid %d×%d × %d layers accepted", tc.name, db.Grid.NX, db.Grid.NY, tc.beol.NumLayers())
		}
		if len(db.usage) != 0 || len(db.cap) != 0 {
			t.Errorf("%s: an unaddressable DB allocated its grid", tc.name)
		}
		d := twoPinDesign(210, 20)
		if res, err := RouteDesign(d, db); err != db.Err() || res != nil {
			t.Errorf("%s: RouteDesign = %v, %v; want the DB's error", tc.name, res, err)
		}
		if r, err := db.RouteNet(&Result{}, d.Nets[0]); err != db.Err() || r != nil {
			t.Errorf("%s: RouteNet = %v, %v; want the DB's error", tc.name, r, err)
		}
	}

	d := twoPinDesign(edge-5, 15)
	db := NewDB(geom.R(0, 0, edge, 30), b6, nil, Options{GCellPitch: 10})
	if err := db.Err(); err != nil {
		t.Fatalf("a %d-gcell axis must be addressable: %v", db.Grid.NX, err)
	}
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Routes[0]
	checkConnected(t, db, r)
	if far := r.PinNode[1]; int(far.X) != MaxGridDim-1 {
		t.Fatalf("far pin at gcell %d, want %d", far.X, MaxGridDim-1)
	}
}

// TestDynStateShapeCheck: DynState hands out the live arrays, and a
// captured state of another shape is refused by CheckDynState and
// SetDynState before anything is written.
func TestDynStateShapeCheck(t *testing.T) {
	d := twoPinDesign(210, 110)
	db := db6(t, geom.R(0, 0, 300, 300), nil)
	if _, err := RouteDesign(d, db); err != nil {
		t.Fatal(err)
	}
	h := db.history()
	u, h1, f := db.DynState()
	if &u[0] != &db.usage[0] || &h1[0] != &h[0] || len(f) != len(db.f2fUse) {
		t.Fatal("DynState copied the arrays")
	}
	if err := db.CheckDynState(u, h, f); err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(db.usage)
	short := make([]int32, len(u)-1)
	if db.CheckDynState(short, h, f) == nil || db.SetDynState(short, h, f) == nil ||
		db.CheckDynState(u, nil, f) == nil {
		t.Fatal("a state of the wrong shape was accepted")
	}
	if !slices.Equal(before, db.usage) {
		t.Fatal("a refused SetDynState wrote to the DB")
	}
}

// TestRouteNetRewritesInPlace: an ECO route goes into the record the
// result already holds for the net — the same object, its spans reused
// when the new route fits them and replaced by larger ones from the ECO
// slabs when it does not — usage follows it, and Restore writes a copy
// of the old contents back into the same record. A net the result has no
// record for gets one.
func TestRouteNetRewritesInPlace(t *testing.T) {
	d := twoPinDesign(60, 20)
	db := db6(t, geom.R(0, 0, 600, 600), nil)
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	n := d.Nets[0]
	rec := res.Routes[n.ID]
	was := *rec
	was.PinNode, was.Segments = slices.Clone(rec.PinNode), slices.Clone(rec.Segments)
	usage0 := slices.Clone(db.usage)

	// A far longer route: more segments than the record's span holds.
	sink := n.Sinks[0].Inst
	home := sink.Loc
	sink.Loc = geom.Pt(550, 530)
	db.ReleaseNet(res, n.ID)
	got, err := db.RouteNet(res, n)
	if err != nil {
		t.Fatal(err)
	}
	if got != rec || res.Routes[n.ID] != rec {
		t.Fatal("RouteNet replaced the net's record instead of rewriting it")
	}
	if len(rec.Segments) <= len(was.Segments) || rec.WL <= was.WL {
		t.Fatalf("the longer route has %d segments, %.0f µm; the short one had %d, %.0f", len(rec.Segments), rec.WL, len(was.Segments), was.WL)
	}
	checkConnected(t, db, rec)
	fresh := NewDB(db.Grid.Region, db.Beol, nil, db.opt)
	fresh.RebuildUsage(res)
	if !slices.Equal(db.usage, fresh.usage) {
		t.Fatal("usage after the ECO route differs from a rebuild from the result")
	}

	// Back home: the shorter route fits the larger span it now has.
	grown := cap(rec.Segments)
	sink.Loc = home
	db.ReleaseNet(res, n.ID)
	if _, err := db.RouteNet(res, n); err != nil {
		t.Fatal(err)
	}
	if cap(rec.Segments) != grown {
		t.Fatalf("a route that fits moved to a span of %d segments from one of %d", cap(rec.Segments), grown)
	}
	if !slices.Equal(rec.Segments, was.Segments) || !slices.Equal(rec.PinNode, was.PinNode) || rec.WL != was.WL {
		t.Fatal("routing the original placement again gave a different route")
	}

	// Restore: scribble, then put the copy back.
	db.ReleaseNet(res, n.ID)
	rec.Segments, rec.WL = rec.Segments[:1], -1
	res.Restore(n.ID, rec, was)
	db.CommitRoute(res, n.ID)
	if res.Routes[n.ID] != rec || !slices.Equal(rec.Segments, was.Segments) || !slices.Equal(rec.PinNode, was.PinNode) ||
		rec.WL != was.WL || rec.Vias != was.Vias {
		t.Fatalf("Restore left %+v, want %+v", *rec, was)
	}
	if !slices.Equal(db.usage, usage0) {
		t.Fatal("usage after the restore differs from the routed design's")
	}
	res.Restore(n.ID, nil, NetRoute{})
	if res.Routes[n.ID] != nil {
		t.Fatal("Restore(nil) did not clear the entry")
	}

	// A net beyond the table: the table grows and the record is new.
	extra := d.AddNet("eco", netlist.IPin(d.Instances[0], "Y"), netlist.IPin(sink, "A"))
	r2, err := db.RouteNet(res, extra)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != extra.ID+1 || res.Routes[extra.ID] != r2 || r2 == rec {
		t.Fatal("an unrouted net did not get a record of its own")
	}
}
