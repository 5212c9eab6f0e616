package route

import (
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

// TestRecountExact: Recount must reconstruct every aggregate — totals,
// per-layer wirelength and per-route metrics — exactly from the
// segments, regardless of prior corruption.
func TestRecountExact(t *testing.T) {
	d := multiNetDesign(12)
	db := db6(t, geom.R(0, 0, 300, 300), nil)
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	wantWL, wantVias, wantF2F, wantOver := res.WL, res.Vias, res.F2FBumps, res.Overflow
	wantLayers := append([]float64(nil), res.WLPerLayer...)
	wantNetWL := make([]float64, len(res.Routes))
	for i, r := range res.Routes {
		if r != nil {
			wantNetWL[i] = r.WL
		}
	}

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
		if r != nil && r.WL != wantNetWL[i] {
			t.Fatalf("Recount net %d WL = %v, want %v", i, r.WL, wantNetWL[i])
		}
	}
}

// TestTranslateRouteRoundTrip: translating by (dx, dy) and back —
// including negative offsets — must reproduce the original route
// exactly (segments, pin nodes, metrics) without mutating the input.
func TestTranslateRouteRoundTrip(t *testing.T) {
	d := twoPinDesign(210, 110)
	db := db6(t, geom.R(0, 0, 300, 300), nil)
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Routes[0]
	origSegs := append([]Seg(nil), r.Segments...)
	origPins := append([]Node(nil), r.PinNode...)

	var out Result
	back := out.Translate(r.Net, out.Translate(r.Net, r, -3, -9), 3, 9)
	if out.Routes[0] != back || back.Net != r.Net {
		t.Fatal("Translate did not store the bound copy under its net id")
	}
	if len(back.Segments) != len(origSegs) {
		t.Fatalf("round trip changed segment count: %d vs %d", len(back.Segments), len(origSegs))
	}
	for i := range origSegs {
		if back.Segments[i] != origSegs[i] {
			t.Fatalf("segment %d = %v after round trip, want %v", i, back.Segments[i], origSegs[i])
		}
	}
	if len(back.PinNode) != len(origPins) {
		t.Fatal("round trip changed pin-node count")
	}
	for i := range origPins {
		if back.PinNode[i] != origPins[i] {
			t.Fatalf("pin node %d = %v after round trip, want %v", i, back.PinNode[i], origPins[i])
		}
	}
	if back.WL != r.WL || back.Vias != r.Vias || back.F2F != r.F2F {
		t.Fatal("round trip changed metrics")
	}
	// Input untouched by either translation.
	for i := range origSegs {
		if r.Segments[i] != origSegs[i] {
			t.Fatal("Translate mutated its input")
		}
	}
	for i := range origPins {
		if r.PinNode[i] != origPins[i] {
			t.Fatal("Translate mutated input pin nodes")
		}
	}
}
