package extract

import (
	"math"
	"slices"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

func typical() tech.CornerScale {
	return tech.CornerScale{CellDelay: 1, WireR: 1, WireC: 1, Leakage: 1}
}

func setup(t *testing.T, dx, dy float64) (*netlist.Design, *route.DB, *route.Result) {
	t.Helper()
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("x", lib)
	a := d.AddInstance("a", lib.MustCell("INV_X4"))
	a.Loc = geom.Pt(10, 10)
	b := d.AddInstance("b", lib.MustCell("INV_X1"))
	b.Loc = geom.Pt(10+dx, 10+dy)
	d.AddNet("n", netlist.IPin(a, "Y"), netlist.IPin(b, "A"))
	beol, err := tech.NewBEOL28("logic", 6)
	if err != nil {
		t.Fatal(err)
	}
	db := route.NewDB(geom.R(0, 0, dx+dy+200, dx+dy+200), beol, nil, route.Options{GCellPitch: 10})
	res, err := route.RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	return d, db, res
}

func TestExtractTwoPin(t *testing.T) {
	d, db, res := setup(t, 300, 100)
	ex := Extract(d, res, db, typical())
	rc := ex.Nets[0]
	if rc == nil {
		t.Fatal("net not extracted")
	}
	// Wire C should be roughly length × cPer (≈0.2 fF/µm): 400 µm ≈
	// 80 fF plus vias.
	if rc.WireC < 40 || rc.WireC > 200 {
		t.Fatalf("WireC = %v fF for ~400 µm", rc.WireC)
	}
	sinkCap := d.Instances[1].Master.Pin("A").Cap
	if math.Abs(rc.PinC-sinkCap) > 1e-9 {
		t.Fatalf("PinC = %v, want %v", rc.PinC, sinkCap)
	}
	if rc.CTotal() <= rc.WireC {
		t.Fatal("CTotal must include pins")
	}
	if len(rc.ElmoreTo) != 1 || rc.ElmoreTo[0] <= 0 {
		t.Fatalf("Elmore = %v", rc.ElmoreTo)
	}
	if ex.CWireTotal != rc.WireC || ex.CPinTotal != rc.PinC {
		t.Fatal("design totals wrong")
	}
}

func TestElmoreGrowsQuadratically(t *testing.T) {
	// Unbuffered wire Elmore grows ~L²; doubling length should grow
	// delay by clearly more than 2×.
	_, db1, res1 := setup(t, 200, 0)
	d1, db1b, res1b := setup(t, 200, 0)
	_ = db1
	_ = res1
	ex1 := Extract(d1, res1b, db1b, typical())

	d2, db2, res2 := setup(t, 400, 0)
	ex2 := Extract(d2, res2, db2, typical())

	e1 := ex1.Nets[0].ElmoreTo[0]
	e2 := ex2.Nets[0].ElmoreTo[0]
	if e2 < 2.5*e1 {
		t.Fatalf("Elmore scaling: %v → %v (ratio %.2f), want superlinear", e1, e2, e2/e1)
	}
}

func TestCornerScaling(t *testing.T) {
	d, db, res := setup(t, 300, 0)
	typ := Extract(d, res, db, typical())
	slow := Extract(d, res, db, tech.CornerScale{CellDelay: 1.25, WireR: 1.12, WireC: 1.05, Leakage: 1})
	if slow.Nets[0].WireC <= typ.Nets[0].WireC {
		t.Fatal("slow corner wire C not larger")
	}
	if slow.Nets[0].ElmoreTo[0] <= typ.Nets[0].ElmoreTo[0] {
		t.Fatal("slow corner Elmore not larger")
	}
	// Elmore scales ≈ R·C factors.
	want := typ.Nets[0].ElmoreTo[0] * 1.12 * 1.05
	if math.Abs(slow.Nets[0].ElmoreTo[0]-want)/want > 0.15 {
		t.Fatalf("Elmore corner scale: got %v want ≈%v", slow.Nets[0].ElmoreTo[0], want)
	}
}

func TestMultiSinkElmoreOrdering(t *testing.T) {
	// Driver with near and far sinks: far sink has larger Elmore.
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("fan", lib)
	a := d.AddInstance("a", lib.MustCell("BUF_X8"))
	a.Loc = geom.Pt(10, 200)
	near := d.AddInstance("near", lib.MustCell("INV_X1"))
	near.Loc = geom.Pt(60, 200)
	far := d.AddInstance("far", lib.MustCell("INV_X1"))
	far.Loc = geom.Pt(700, 200)
	d.AddNet("n", netlist.IPin(a, "Y"), netlist.IPin(near, "A"), netlist.IPin(far, "A"))
	beol, _ := tech.NewBEOL28("logic", 6)
	db := route.NewDB(geom.R(0, 0, 800, 400), beol, nil, route.Options{GCellPitch: 10})
	res, err := route.RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	ex := Extract(d, res, db, typical())
	rc := ex.Nets[0]
	if rc.ElmoreTo[0] >= rc.ElmoreTo[1] {
		t.Fatalf("near sink (%v ps) slower than far sink (%v ps)", rc.ElmoreTo[0], rc.ElmoreTo[1])
	}
	if rc.PinC != near.Master.Pin("A").Cap+far.Master.Pin("A").Cap {
		t.Fatalf("PinC = %v", rc.PinC)
	}
}

func TestF2FViaAddsRC(t *testing.T) {
	// Same geometry, one route on a plain stack, one through the
	// macro die: the F2F route carries the bump's extra C.
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
	m.Loc = geom.Pt(300, 300)
	m.Fixed, m.Placed = true, true
	d.AddNet("n", netlist.IPin(a, "Y"), netlist.IPin(m, "D"))

	db := route.NewDB(geom.R(0, 0, 500, 500), comb, nil, route.Options{GCellPitch: 10})
	res, err := route.RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.F2FBumps != 1 {
		t.Fatalf("bumps = %d", res.F2FBumps)
	}
	ex := Extract(d, res, db, typical())
	rc := ex.Nets[0]
	if rc.ElmoreTo[0] <= 0 || rc.WireC <= 0 {
		t.Fatal("no RC extracted through F2F")
	}
}

func TestUnroutedNetSkipped(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("c", lib)
	p := d.AddPort("clk", cell.DirIn)
	ff := d.AddInstance("ff", lib.MustCell("DFF_X1"))
	n := d.AddNet("clk", netlist.PPin(p), netlist.IPin(ff, "CK"))
	n.Clock = true
	beol, _ := tech.NewBEOL28("logic", 6)
	db := route.NewDB(geom.R(0, 0, 100, 100), beol, nil, route.Options{})
	res, err := route.RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	ex := Extract(d, res, db, typical())
	if ex.Nets[0] != nil {
		t.Fatal("clock net extracted by signal extractor")
	}
}

func TestElmoreUpperBound(t *testing.T) {
	// Property: Elmore to any sink never exceeds total path R × total
	// C (the lumped worst case).
	for _, span := range []float64{100, 400, 900} {
		d, db, res := setup(t, span, span/3)
		ex := Extract(d, res, db, typical())
		rc := ex.Nets[0]
		bound := rc.WireR * rc.CTotal()
		for i, e := range rc.ElmoreTo {
			if e > bound+1e-9 {
				t.Fatalf("span %v sink %d: Elmore %v exceeds lumped bound %v", span, i, e, bound)
			}
			if e < 0 {
				t.Fatalf("negative Elmore %v", e)
			}
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	d, db, res := setup(t, 350, 120)
	a := Extract(d, res, db, typical())
	b := Extract(d, res, db, typical())
	if a.CWireTotal != b.CWireTotal || a.CPinTotal != b.CPinTotal {
		t.Fatal("extraction not deterministic")
	}
	if a.Nets[0].ElmoreTo[0] != b.Nets[0].ElmoreTo[0] {
		t.Fatal("Elmore not deterministic")
	}
}

func TestReextractMaintainsTotals(t *testing.T) {
	d, db, res := setup(t, 300, 100)
	ex := Extract(d, res, db, typical())
	w0, p0 := ex.CWireTotal, ex.CPinTotal
	rc, was := ex.Nets[0], *ex.Nets[0]
	was.ElmoreTo = slices.Clone(was.ElmoreTo)
	// Re-extract the same net: same record, totals unchanged.
	if got := ex.Reextract(&Scratch{}, d.Nets[0], res.Routes[0], db, typical()); got != rc {
		t.Fatal("Reextract did not rewrite the net's record")
	}
	if ex.CWireTotal != w0 || ex.CPinTotal != p0 {
		t.Fatalf("totals drifted: %v/%v vs %v/%v", ex.CWireTotal, ex.CPinTotal, w0, p0)
	}
	// Remove: totals drop by the net's contribution.
	ex.Restore(0, nil, NetRC{})
	if ex.Nets[0] != nil || ex.CWireTotal != w0-was.WireC || ex.CPinTotal != p0-was.PinC {
		t.Fatal("removal accounting wrong")
	}
	// Restore a copy into the record: contents and totals come back.
	clear(rc.ElmoreTo)
	rc.WireC, rc.PinC = -1, -1
	ex.Restore(0, rc, was)
	if ex.Nets[0] != rc || !equalRC(rc, &was) || ex.CWireTotal != w0 || ex.CPinTotal != p0 {
		t.Fatalf("restore: record %+v, want %+v; totals %v/%v vs %v/%v", *rc, was, ex.CWireTotal, ex.CPinTotal, w0, p0)
	}
}
