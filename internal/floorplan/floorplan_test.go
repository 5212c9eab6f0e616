package floorplan

import (
	"fmt"
	"math"
	"testing"

	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
)

func smallTile(t *testing.T) *piton.Tile {
	t.Helper()
	tile, err := piton.Generate(piton.SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	return tile
}

func TestDieForArea(t *testing.T) {
	d, err := DieForArea(1.2e6, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Area()-1.2e6)/1.2e6 > 0.01 {
		t.Fatalf("die area = %v", d.Area())
	}
	// Height snapped to whole rows.
	if math.Mod(d.H(), 1.2) > 1e-6 && 1.2-math.Mod(d.H(), 1.2) > 1e-6 {
		t.Fatalf("height %v not row-aligned", d.H())
	}
	d, err = DieForArea(2e6, 2.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if ar := d.W() / d.H(); ar < 1.8 || ar > 2.2 {
		t.Fatalf("aspect = %v", ar)
	}
}

func TestDieForAreaRejectsBadInputs(t *testing.T) {
	for _, c := range []struct {
		name                    string
		area, aspect, rowHeight float64
	}{
		{"zero area", 0, 1, 1.2},
		{"negative aspect", 1e6, -1, 1.2},
		{"NaN area", math.NaN(), 1, 1.2},
		{"zero row height", 1e6, 1, 0},
	} {
		if _, err := DieForArea(c.area, c.aspect, c.rowHeight); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestSizingRejectsBadUtilization(t *testing.T) {
	for _, util := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := SizeDesign(netlist.NewDesign("u", nil), util, 1, 1.2); err == nil {
			t.Errorf("SizeDesign accepted utilization %v", util)
		}
	}
}

func TestComputeSizing(t *testing.T) {
	tile := smallTile(t)
	_ = tile.Design.ComputeStats()
	s, err := SizeDesign(tile.Design, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("2D die %.2f mm², 3D die %.2f mm²", s.Die2D.Area()/1e6, s.Die3D.Area()/1e6)
	// The paper's fairness rule: 2D area = 2× 3D area.
	ratio := s.Die2D.Area() / s.Die3D.Area()
	if math.Abs(ratio-2) > 0.02 {
		t.Fatalf("area ratio = %v, want 2", ratio)
	}
	// Small-cache 2D footprint should land near the paper's 1.20 mm².
	mm2 := s.Die2D.Area() / 1e6
	if mm2 < 1.0 || mm2 > 1.45 {
		t.Fatalf("2D footprint = %.2f mm², want ≈1.2", mm2)
	}
	// 3D linear dimensions ≈ 1/√2 of 2D.
	if math.Abs(s.Die3D.W()/s.Die2D.W()-1/math.Sqrt2) > 0.02 {
		t.Fatalf("3D width ratio = %v", s.Die3D.W()/s.Die2D.W())
	}
}

func checkNoMacroOverlap(t *testing.T, d *netlist.Design, die netlist.Die, outline geom.Rect) {
	t.Helper()
	var rects []geom.Rect
	for _, m := range d.Macros() {
		if m.Die != die {
			continue
		}
		b := m.Bounds()
		if !outline.ContainsRect(b) {
			t.Fatalf("macro %s %v outside die %v", m.Name, b, outline)
		}
		for _, r := range rects {
			if r.Intersects(b) {
				t.Fatalf("macro %s overlaps another macro", m.Name)
			}
		}
		rects = append(rects, b)
	}
}

func TestPlaceMacros2D(t *testing.T) {
	tile := smallTile(t)
	d := tile.Design
	s, err := SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceMacros(d, s.Die2D, Style2D); err != nil {
		t.Fatal(err)
	}
	checkNoMacroOverlap(t, d, netlist.LogicDie, s.Die2D)
	for _, m := range d.Macros() {
		if m.Die != netlist.LogicDie || !m.Fixed || !m.Placed {
			t.Fatalf("macro %s not fixed on logic die", m.Name)
		}
	}
	// Periphery style: macros hug the edges — none should sit fully in
	// the central third of the die.
	cx0 := s.Die2D.Lx + s.Die2D.W()/3
	cx1 := s.Die2D.Ux - s.Die2D.W()/3
	cy0 := s.Die2D.Ly + s.Die2D.H()/3
	cy1 := s.Die2D.Uy - s.Die2D.H()/3
	center := geom.R(cx0, cy0, cx1, cy1)
	for _, m := range d.Macros() {
		if center.ContainsRect(m.Bounds()) {
			t.Fatalf("macro %s placed in die centre by periphery style", m.Name)
		}
	}
}

func TestPlaceMacrosMoL(t *testing.T) {
	tile := smallTile(t)
	d := tile.Design
	s, err := SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceMacros(d, s.Die3D, StyleMoL); err != nil {
		t.Fatal(err)
	}
	checkNoMacroOverlap(t, d, netlist.MacroDie, s.Die3D)
	for _, m := range d.Macros() {
		if m.Die != netlist.MacroDie {
			t.Fatalf("macro %s not on macro die", m.Name)
		}
	}
}

func TestPlaceMacrosBalanced(t *testing.T) {
	tile := smallTile(t)
	d := tile.Design
	s, err := SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = PlaceMacros(d, s.Die3D, StyleBalanced)
	if err != nil {
		t.Fatal(err)
	}
	checkNoMacroOverlap(t, d, netlist.LogicDie, s.Die3D)
	checkNoMacroOverlap(t, d, netlist.MacroDie, s.Die3D)
	nLogic, nMacro := 0, 0
	var overlapArea, macroDieArea float64
	var logicRects []geom.Rect
	for _, m := range d.Macros() {
		if m.Die == netlist.LogicDie {
			nLogic++
			logicRects = append(logicRects, m.Bounds())
		}
	}
	for _, m := range d.Macros() {
		if m.Die == netlist.MacroDie {
			nMacro++
			b := m.Bounds()
			macroDieArea += b.Area()
			for _, r := range logicRects {
				overlapArea += r.Intersect(b).Area()
			}
		}
	}
	if nLogic == 0 || nMacro == 0 {
		t.Fatalf("balanced split degenerate: %d/%d", nLogic, nMacro)
	}
	// The point of the balanced floorplan: substantial z-overlap.
	if overlapArea < 0.5*macroDieArea {
		t.Fatalf("z-overlap only %.0f%% of macro-die area", 100*overlapArea/macroDieArea)
	}
}

func TestBuildBlockages(t *testing.T) {
	tile := smallTile(t)
	d := tile.Design
	s, err := SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := PlaceMacros(d, s.Die2D, Style2D)
	if err != nil {
		t.Fatal(err)
	}
	BuildBlockages(fp, d, netlist.LogicDie)
	nm := len(d.Macros())
	if len(fp.PlaceBlk) != nm {
		t.Fatalf("place blockages = %d, want %d", len(fp.PlaceBlk), nm)
	}
	for _, b := range fp.PlaceBlk {
		if b.Fraction != 1 {
			t.Fatal("2D macro blockage not full")
		}
	}
	// 4 obstruction layers per SRAM.
	if len(fp.RouteBlk) != 4*nm {
		t.Fatalf("route blockages = %d, want %d", len(fp.RouteBlk), 4*nm)
	}
	// Blockage rect covers the macro's absolute bounds.
	m := d.Macros()[0]
	found := false
	for _, rb := range fp.RouteBlk {
		if rb.Layer == "M1" && rb.Rect == m.Bounds() {
			found = true
		}
	}
	if !found {
		t.Fatal("no M1 route blockage matching first macro bounds")
	}
}

func TestAssignPortsAlignment(t *testing.T) {
	tile := smallTile(t)
	d := tile.Design
	die := geom.R(0, 0, 800, 800)
	AssignPorts(tile, die)
	// Every port must sit on the die boundary.
	for _, p := range d.Ports {
		onX := p.Loc.X == die.Lx || p.Loc.X == die.Ux
		onY := p.Loc.Y == die.Ly || p.Loc.Y == die.Uy
		if !onX && !onY {
			t.Fatalf("port %s at %v not on boundary", p.Name, p.Loc)
		}
	}
	// Abutment alignment (§V-1): this tile's north OUTPUT bit b must
	// share x with the south INPUT bit b — the pin the tile above
	// presents when abutted.
	for b := 0; b < 4; b++ {
		n := d.Port(fmtPort("noc0_N_out_%d", b))
		s := d.Port(fmtPort("noc0_S_in_%d", b))
		if n == nil || s == nil {
			t.Fatal("expected ports missing")
		}
		if math.Abs(n.Loc.X-s.Loc.X) > 1e-9 {
			t.Fatalf("bit %d: north-out x=%v south-in x=%v misaligned", b, n.Loc.X, s.Loc.X)
		}
		if n.Loc.Y != die.Uy || s.Loc.Y != die.Ly {
			t.Fatal("north/south ports not on their edges")
		}
	}
	// Converse pair: north-in aligns with south-out.
	ni := d.Port(fmtPort("noc0_N_in_%d", 2))
	so := d.Port(fmtPort("noc0_S_out_%d", 2))
	if math.Abs(ni.Loc.X-so.Loc.X) > 1e-9 {
		t.Fatal("north-in / south-out misaligned")
	}
	// East/west abutment alignment in y.
	e := d.Port(fmtPort("noc1_E_out_%d", 0))
	w := d.Port(fmtPort("noc1_W_in_%d", 0))
	if math.Abs(e.Loc.Y-w.Loc.Y) > 1e-9 {
		t.Fatal("east-out / west-in misaligned")
	}
	// Clock landed on the west edge.
	clk := d.Port("clk_i")
	if clk.Loc.X != die.Lx {
		t.Fatalf("clock port at %v, want west edge", clk.Loc)
	}
}

func fmtPort(f string, b int) string { return fmt.Sprintf(f, b) }

func TestPartialBlockageMap(t *testing.T) {
	die := geom.R(0, 0, 100, 100)
	logic := []geom.Rect{geom.R(0, 0, 50, 50)}
	macro := []geom.Rect{geom.R(25, 25, 75, 75)}
	m := NewPartialBlockageMap(die, 25, logic, macro)
	// Bin (0,0): logic only → 0.5.
	if f := m.FractionAt(geom.Pt(10, 10)); f != 0.5 {
		t.Fatalf("logic-only bin = %v", f)
	}
	// Bin (1,1): both → 1.0.
	if f := m.FractionAt(geom.Pt(30, 30)); f != 1.0 {
		t.Fatalf("stacked bin = %v", f)
	}
	// Bin (2,2): macro only → 0.5.
	if f := m.FractionAt(geom.Pt(60, 60)); f != 0.5 {
		t.Fatalf("macro-only bin = %v", f)
	}
	// Far corner free.
	if f := m.FractionAt(geom.Pt(90, 90)); f != 0 {
		t.Fatalf("free bin = %v", f)
	}
	bl := m.Blockages()
	if len(bl) == 0 {
		t.Fatal("no blockages emitted")
	}
	for _, b := range bl {
		if b.Fraction != 0.5 && b.Fraction != 1.0 {
			t.Fatalf("unquantized fraction %v", b.Fraction)
		}
	}
}

func TestPartialBlockageResolutionLosesDetail(t *testing.T) {
	// The S2D failure mechanism: at coarse resolution, a macro edge is
	// mis-rasterized, so the blocked region differs from the true
	// macro extent. Verify that fine and coarse maps disagree near the
	// macro boundary.
	die := geom.R(0, 0, 400, 400)
	macro := []geom.Rect{geom.R(0, 0, 130, 130)}
	fine := NewPartialBlockageMap(die, 10, macro, nil)
	coarse := NewPartialBlockageMap(die, 100, macro, nil)
	p := geom.Pt(135, 55) // just outside the macro
	if fine.FractionAt(p) != 0 {
		t.Fatal("fine map blocks free space")
	}
	// Coarse 100 µm bin [100,200) is majority-free, so the macro strip
	// 100..130 is lost entirely — cells will be placed over the macro
	// after partitioning.
	q := geom.Pt(115, 55) // inside the macro
	if coarse.FractionAt(q) != 0 {
		t.Fatal("expected coarse map to lose the macro strip (majority-free bin)")
	}
	if fine.FractionAt(q) == 0 {
		t.Fatal("fine map lost the macro strip too")
	}
}

func TestStyleString(t *testing.T) {
	if Style2D.String() != "2D" || StyleMoL.String() != "MoL" || StyleBalanced.String() != "balanced" {
		t.Fatal("style names wrong")
	}
}

func TestSizeDesignDeterministic(t *testing.T) {
	tile := smallTile(t)
	a, err := SizeDesign(tile.Design, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SizeDesign(tile.Design, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Die2D != b.Die2D || a.Die3D != b.Die3D {
		t.Fatal("sizing not deterministic")
	}
}

func TestSizeDesignUtilMonotone(t *testing.T) {
	tile := smallTile(t)
	lo, err := SizeDesign(tile.Design, 0.55, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := SizeDesign(tile.Design, 0.85, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	// Not strictly monotone — the ring/shelf trial packing quantizes
	// the growth — but higher utilization must never need a
	// meaningfully larger die.
	if hi.Die2D.Area() > lo.Die2D.Area()*1.03 {
		t.Fatalf("higher utilization grew the die: %.2f vs %.2f",
			hi.Die2D.Area()/1e6, lo.Die2D.Area()/1e6)
	}
}
