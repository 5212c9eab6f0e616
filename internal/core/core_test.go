package core

import (
	"slices"
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// combined is the M6–M6 stack, or M6–M<macroMetals>.
func combined(t *testing.T, macroMetals int) *tech.BEOL {
	t.Helper()
	logic, _ := tech.NewBEOL28("logic", 6)
	macro, _ := tech.NewBEOL28("macro", macroMetals)
	c, err := tech.Combine(logic, macro, tech.DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEditMacroForMacroDie: a memory-on-logic SRAM's macro-die view at
// the filler footprint.
func TestEditMacroForMacroDie(t *testing.T) {
	comb := combined(t, 6)
	sram, err := cell.NewSRAM(cell.SRAMSpec{Name: "m", Words: 2048, Bits: 32})
	if err != nil {
		t.Fatal(err)
	}
	e, err := MacroDieView(sram, comb, 0.19, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "m_MD" || e.Width != 0.19 || e.Height != 1.2 {
		t.Fatalf("view %s at %v×%v, want m_MD at the filler size", e.Name, e.Width, e.Height)
	}
	// Pin and obstruction layers remapped, geometry untouched.
	for i, p := range e.Pins {
		if p.Layer != "M4_MD" || p.Offset != sram.Pins[i].Offset {
			t.Fatalf("pin %s on %s at %v, want M4_MD at %v", p.Name, p.Layer, p.Offset, sram.Pins[i].Offset)
		}
	}
	for i, o := range e.Obstructions {
		if o.Layer != sram.Obstructions[i].Layer+"_MD" || o.Rect != sram.Obstructions[i].Rect {
			t.Fatalf("obstruction %d: %+v from %+v", i, o, sram.Obstructions[i])
		}
	}
	// The master is not touched.
	if sram.Width == 0.19 || sram.Pins[0].Layer != "M4" || sram.Obstructions[0].Layer == e.Obstructions[0].Layer {
		t.Fatal("MacroDieView mutated the master")
	}
	// A view of a view is a bug.
	if _, err := MacroDieView(e, comb, 0.19, 1.2); err == nil || !strings.Contains(err.Error(), "already a macro-die view") {
		t.Fatalf("a view viewed again: %v", err)
	}
	// A macro die too thin for the pins: M4 on an M3 die.
	if _, err := MacroDieView(sram, combined(t, 3), 0.19, 1.2); err == nil || !strings.Contains(err.Error(), `on M4: tech: stack "logic+macro" has no macro-die layer "M4_MD"`) {
		t.Fatalf("an M4 macro on a three-metal macro die: %v", err)
	}
}

// TestCellForDie: a standard cell the partition moved keeps its
// footprint, one view per master.
func TestCellForDie(t *testing.T) {
	comb := combined(t, 6)
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	inv := lib.MustCell("INV_X1")
	views := &DieViews{Combined: comb}
	md, err := views.MacroDie(inv)
	if err != nil {
		t.Fatal(err)
	}
	if md == inv || md.Name != "INV_X1_MD" || md.Pins[0].Layer != "M1_MD" || md.Width != inv.Width || md.Height != inv.Height {
		t.Fatalf("macro-die view of INV_X1 wrong: %s %v×%v, pin on %s", md.Name, md.Width, md.Height, md.Pins[0].Layer)
	}
	if again, _ := views.MacroDie(inv); again != md {
		t.Fatal("a second request made a second view")
	}
	if inv.Pins[0].Layer != "M1" {
		t.Fatal("DieViews mutated the master")
	}
	if _, err := (&DieViews{}).MacroDie(inv); err == nil {
		t.Fatal("a view made without a combined stack")
	}
}

// TestRemapAbstractForMacroDie: a hardened abstract's view at its own
// footprint. Its timing arcs and provenance ride along; a layer already
// in the combined frame and the F2F via pass through.
func TestRemapAbstractForMacroDie(t *testing.T) {
	comb := combined(t, 6)
	abs := &cell.Cell{
		Name: "blk_abs", Kind: cell.KindMacro, Width: 40, Height: 40,
		Pins: []cell.Pin{
			{Name: "CK", Dir: cell.DirIn, Clock: true, Layer: "M6", Offset: geom.Pt(0, 20)},
			{Name: "Q", Dir: cell.DirOut, Layer: "M4", Offset: geom.Pt(40, 20), ClkQ: 80},
			{Name: "B", Dir: cell.DirIn, Layer: tech.F2FLayerName, Offset: geom.Pt(20, 20), Setup: 30},
		},
		Obstructions: []cell.Obstruction{
			{Layer: "M2", Rect: geom.R(0, 0, 40, 10)},
			{Layer: "M3_MD", Rect: geom.R(0, 10, 40, 20)},
		},
		Abstract: &cell.AbstractInfo{SourceFlow: "2D", MinPeriodPs: 500},
	}
	got, err := MacroDieView(abs, comb, abs.Width, abs.Height)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "blk_abs_MD" || got.Width != 40 || got.Height != 40 {
		t.Fatalf("view %s at %v×%v", got.Name, got.Width, got.Height)
	}
	for i, want := range []string{"M6_MD", "M4_MD", tech.F2FLayerName} {
		if got.Pins[i].Layer != want {
			t.Fatalf("pin %s on %s, want %s", got.Pins[i].Name, got.Pins[i].Layer, want)
		}
	}
	if got.Obstructions[0].Layer != "M2_MD" || got.Obstructions[1].Layer != "M3_MD" {
		t.Fatalf("obstruction layers %s/%s", got.Obstructions[0].Layer, got.Obstructions[1].Layer)
	}
	if got.Pins[1].ClkQ != 80 || got.Pins[2].Setup != 30 || got.Abstract.MinPeriodPs != 500 || got.Abstract == abs.Abstract {
		t.Fatal("the view lost the abstract's timing data, or shares it")
	}
	if abs.Pins[0].Layer != "M6" || abs.Obstructions[0].Layer != "M2" {
		t.Fatal("MacroDieView mutated the abstract")
	}
}

func prepared(t *testing.T) (*MoLDesign, *piton.Tile, floorplan.Sizing) {
	t.Helper()
	tile, err := piton.Generate(piton.SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	sz, err := floorplan.SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := floorplan.PlaceMacros(d, sz.Die3D, floorplan.StyleMoL); err != nil {
		t.Fatal(err)
	}
	floorplan.AssignPorts(tile, sz.Die3D)
	logic, _ := tech.NewBEOL28("logic", 6)
	macro, _ := tech.NewBEOL28("macro", 6)
	md, err := PrepareMoL(d, logic, macro, tech.DefaultF2F(), sz.Die3D, 0.19, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	return md, tile, sz
}

func TestPrepareMoL(t *testing.T) {
	md, tile, _ := prepared(t)
	d := tile.Design
	if md.EditedMacros != len(d.Macros()) {
		t.Fatalf("edited %d of %d macros", md.EditedMacros, len(d.Macros()))
	}
	// Combined stack: 6 + 6 layers, F2F via between.
	if md.Combined.NumLayers() != 12 || md.Combined.F2FViaIndex() != 5 {
		t.Fatalf("combined stack wrong: %v", md.Combined)
	}
	// No placement blockages: all macros are on the macro die with
	// filler footprints.
	if len(md.FP.PlaceBlk) != 0 {
		t.Fatalf("MoL floorplan has %d placement blockages", len(md.FP.PlaceBlk))
	}
	// Routing blockages on _MD layers only, 4 per SRAM.
	if len(md.FP.RouteBlk) != 4*len(d.Macros()) {
		t.Fatalf("route blockages = %d", len(md.FP.RouteBlk))
	}
	for _, rb := range md.FP.RouteBlk {
		if !strings.HasSuffix(rb.Layer, "_MD") {
			t.Fatalf("blockage on logic-die layer %s", rb.Layer)
		}
	}
	// Macro pins remain at their absolute floorplan locations despite
	// the footprint shrink.
	m := d.Macros()[0]
	pl := m.PinLoc("CLK")
	if !md.FP.Die.Contains(pl) {
		t.Fatalf("macro pin at %v outside die", pl)
	}
	if pl.X <= m.Loc.X {
		t.Fatal("pin offset lost by shrink")
	}
	// Separated layer sets share the F2F layer.
	if md.LogicLayers[len(md.LogicLayers)-1] != tech.F2FLayerName ||
		md.MacroLayers[len(md.MacroLayers)-1] != tech.F2FLayerName {
		t.Fatal("F2F layer missing from separated sets")
	}
}

func TestPrepareMoLRequiresFloorplan(t *testing.T) {
	tile, err := piton.Generate(piton.SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	for _, m := range d.Macros() {
		m.Die = netlist.MacroDie // assigned but never placed
	}
	logic, _ := tech.NewBEOL28("logic", 6)
	macro, _ := tech.NewBEOL28("macro", 6)
	if _, err := PrepareMoL(d, logic, macro, tech.DefaultF2F(),
		geom.R(0, 0, 100, 100), 0.19, 1.2); err == nil {
		t.Fatal("unplaced macros accepted")
	}
}

func TestSeparateProducesBothParts(t *testing.T) {
	md, tile, sz := prepared(t)
	d := tile.Design
	// Quick placement-free routing: scatter std cells on a coarse grid
	// (valid, reasonably spread routes without running the placer).
	cells := d.StdCells()
	nx := 96
	inner := sz.Die3D.Expand(-10)
	for i, inst := range cells {
		ix, iy := i%nx, (i/nx)%nx
		inst.Loc = geom.Pt(
			inner.Lx+inner.W()*float64(ix)/float64(nx),
			inner.Ly+inner.H()*float64(iy)/float64(nx),
		)
		inst.Placed = true
	}
	db := route.NewDB(sz.Die3D, md.Combined, md.FP.RouteBlk, route.Options{GCellPitch: 15, MaxIters: 1})
	res, err := route.RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.F2FBumps == 0 {
		t.Fatal("MoL routing produced no F2F bumps despite macro-die pins")
	}
	logic, macro, err := Separate(md, res, db)
	if err != nil {
		t.Fatal(err)
	}
	if logic.StdCells == 0 || macro.Macros != len(d.Macros()) {
		t.Fatalf("separation counts: %d cells / %d macros", logic.StdCells, macro.Macros)
	}
	// Both parts share the same bump list.
	if len(logic.Bumps) != len(macro.Bumps) || len(logic.Bumps) != res.F2FBumps {
		t.Fatalf("bump lists: %d / %d, routed %d", len(logic.Bumps), len(macro.Bumps), res.F2FBumps)
	}
	// Wire separation: the layers each part's stream is written from.
	// _MD metal only in the macro part, the F2F via in both.
	for name, part := range map[string]*DieLayout{"logic": logic, "macro": macro} {
		if !slices.Contains(part.Layers, tech.F2FLayerName) {
			t.Fatalf("%s part lacks %s: %v", name, tech.F2FLayerName, part.Layers)
		}
	}
	for _, name := range logic.Layers {
		if strings.HasSuffix(name, tech.MDSuffix) {
			t.Fatalf("logic part carries %s", name)
		}
	}
	for _, name := range macro.Layers {
		if !strings.HasSuffix(name, tech.MDSuffix) && name != tech.F2FLayerName {
			t.Fatalf("macro part carries %s", name)
		}
	}
}
