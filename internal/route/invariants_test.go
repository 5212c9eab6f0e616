package route

import (
	"slices"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/tech"
)

// multiNetDesign builds a design with n parallel two-pin nets, enough
// to give the usage arrays non-trivial structure.
func multiNetDesign(n int) *netlist.Design {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("multi", lib)
	for i := 0; i < n; i++ {
		a := d.AddInstance("a"+itoa(i), lib.MustCell("INV_X1"))
		a.Loc = geom.Pt(5, float64(5+i*8))
		b := d.AddInstance("b"+itoa(i), lib.MustCell("INV_X1"))
		b.Loc = geom.Pt(280, float64(9+i*8))
		d.AddNet("n"+itoa(i), netlist.IPin(a, "Y"), netlist.IPin(b, "A"))
	}
	return d
}

// TestRebuildUsageExact: RebuildUsage must restore the usage arrays to
// exactly the committed-routes state, element by element, no matter
// how they were scrambled in between.
func TestRebuildUsageExact(t *testing.T) {
	d := multiNetDesign(20)
	db := db6(t, geom.R(0, 0, 300, 300), nil)
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int32(nil), db.usage...)
	for i := 0; i < len(db.usage); i += 7 {
		db.usage[i] += int32(i%5) + 1
	}
	db.RebuildUsage(res)
	for i := range want {
		if db.usage[i] != want[i] {
			t.Fatalf("usage[%d] = %d after rebuild, want %d", i, db.usage[i], want[i])
		}
	}
}

// TestRebuildUsageExactF2F is the combined-stack variant: the F2F bump
// usage grid must rebuild exactly too.
func TestRebuildUsageExactF2F(t *testing.T) {
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
	if res.F2FBumps == 0 {
		t.Fatal("fixture produced no F2F crossing")
	}
	wantUse := append([]int32(nil), db.usage...)
	wantF2F := append([]int32(nil), db.f2fUse...)
	for i := range db.usage {
		db.usage[i] = 99
	}
	for i := range db.f2fUse {
		db.f2fUse[i] = 99
	}
	db.RebuildUsage(res)
	for i := range wantUse {
		if db.usage[i] != wantUse[i] {
			t.Fatalf("usage[%d] = %d after rebuild, want %d", i, db.usage[i], wantUse[i])
		}
	}
	for i := range wantF2F {
		if db.f2fUse[i] != wantF2F[i] {
			t.Fatalf("f2fUse[%d] = %d after rebuild, want %d", i, db.f2fUse[i], wantF2F[i])
		}
	}
}

// TestRecountExact: Recount must reconstruct every aggregate — totals
// and per-layer wirelength — exactly from the segments, regardless of
// prior corruption, and write no route record: a record's own metrics
// are not its input, and a placed record is not its to write.
func TestRecountExact(t *testing.T) {
	d := multiNetDesign(12)
	db := db6(t, geom.R(0, 0, 300, 300), nil)
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	wantWL, wantVias, wantF2F, wantOver := res.WL, res.Vias, res.F2FBumps, res.Overflow
	wantLayers := append([]float64(nil), res.WLPerLayer...)
	res.WL, res.Vias, res.F2FBumps = -1, -1, -1
	for i := range res.WLPerLayer {
		res.WLPerLayer[i] = -42
	}
	for _, r := range res.Routes {
		if r != nil {
			r.WL, r.Vias, r.F2F = -5, -5, -5
		}
	}

	res.Recount(db)
	if res.WL != wantWL || res.Vias != wantVias || res.F2FBumps != wantF2F || res.Overflow != wantOver {
		t.Fatalf("Recount: WL %v/%v vias %d/%d f2f %d/%d overflow %d/%d",
			res.WL, wantWL, res.Vias, wantVias, res.F2FBumps, wantF2F, res.Overflow, wantOver)
	}
	for l := range wantLayers {
		if res.WLPerLayer[l] != wantLayers[l] {
			t.Fatalf("Recount layer %d WL = %v, want %v", l, res.WLPerLayer[l], wantLayers[l])
		}
	}
	for i, r := range res.Routes {
		if r != nil && (r.WL != -5 || r.Vias != -5 || r.F2F != -5) {
			t.Fatalf("Recount wrote net %d's record: %v/%d/%d", i, r.WL, r.Vias, r.F2F)
		}
	}
}

// TestPlaceRouteRoundTrip: committing a placed route and releasing it —
// at a negative offset too — leaves the grid empty, a rebuild from the
// result is the committed usage, and whatever writes the net afterwards
// (RouteNet, Restore) writes a fresh record: the placed one, which is
// its owner's, keeps every byte.
func TestPlaceRouteRoundTrip(t *testing.T) {
	d := twoPinDesign(210, 110)
	db := db6(t, geom.R(0, 0, 300, 300), nil)
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	// The shape as the tile would hold it 3 right and 9 up of this grid's
	// origin, so that placing it at (−3, −9) brings it back.
	var tile Result
	r := tile.NewRoute(0)
	r.PinNode, r.Segments = tile.PinSpan(len(res.Routes[0].PinNode)), tile.SegSpan(len(res.Routes[0].Segments))
	for i, p := range res.Routes[0].PinNode {
		r.PinNode[i] = At(int(p.X)+3, int(p.Y)+9, int(p.L))
	}
	for i, s := range res.Routes[0].Segments {
		r.Segments[i] = Origin{DX: 3, DY: 9}.at(s)
	}
	r.WL, r.Vias, r.F2F = res.Routes[0].WL, res.Routes[0].Vias, res.Routes[0].F2F
	was := *r
	segs, pins := slices.Clone(r.Segments), slices.Clone(r.PinNode)
	untouched := func(when string) {
		t.Helper()
		if r.WL != was.WL || r.Vias != was.Vias || r.F2F != was.F2F ||
			!slices.Equal(r.Segments, segs) || !slices.Equal(r.PinNode, pins) {
			t.Fatalf("%s wrote the placed record", when)
		}
	}

	usage0 := slices.Clone(db.usage)
	db.ReleaseNet(res, 0)
	out := &Result{Routes: make([]*NetRoute, 1), WLPerLayer: make([]float64, db.Beol.NumLayers())}
	out.Place(0, r, -3, -9)
	db.CommitRoute(out, 0)
	if !slices.Equal(db.usage, usage0) {
		t.Fatal("the shape placed back at (−3, −9) does not occupy what the route did")
	}
	db.RebuildUsage(out)
	if !slices.Equal(db.usage, usage0) {
		t.Fatal("RebuildUsage ignores the origin")
	}
	db.ReleaseNet(out, 0)
	for i, u := range db.usage {
		if u != 0 {
			t.Fatalf("bin %d holds %d after commit and release", i, u)
		}
	}
	untouched("commit, rebuild and release")

	// Restore on a placed net: a record of the result's own, same offset.
	out.Restore(0, r, was)
	own := out.Routes[0]
	if o := out.Origin(0); own == r || o != (Origin{DX: -3, DY: -9}) {
		t.Fatalf("Restore on a placed net: same record %v, origin %+v", own == r, o)
	}
	if !slices.Equal(own.Segments, segs) || !slices.Equal(own.PinNode, pins) || own.WL != was.WL {
		t.Fatal("Restore on a placed net lost the shape")
	}
	own.Segments[0].A.X++ // the copy shares nothing with the placed record
	untouched("Restore")

	// RouteNet on a placed net: a fresh record, on the grid itself.
	out.Place(0, r, -3, -9)
	got, err := db.RouteNet(out, d.Nets[0])
	if err != nil {
		t.Fatal(err)
	}
	if o := out.Origin(0); got == r || out.Routes[0] != got || o != (Origin{}) {
		t.Fatalf("RouteNet on a placed net: same record %v, origin %+v", got == r, o)
	}
	if !slices.Equal(got.Segments, res.Routes[0].Segments) || !slices.Equal(db.usage, usage0) {
		t.Fatal("RouteNet on a placed net did not route it where the design has it")
	}
	untouched("RouteNet")
}
