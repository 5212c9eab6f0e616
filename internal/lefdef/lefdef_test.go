package lefdef

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/core"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/tech"
)

func roundTripLEF(t *testing.T, b *tech.BEOL, lib *cell.Library) *LEFContent {
	t.Helper()
	var sb strings.Builder
	if err := WriteLEF(&sb, b, lib); err != nil {
		t.Fatal(err)
	}
	got, err := ParseLEF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse back: %v\n--- LEF ---\n%s", err, head(sb.String(), 2000))
	}
	return got
}

func head(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func TestLEFRoundTripBEOL(t *testing.T) {
	b, err := tech.NewBEOL28("x", 6)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripLEF(t, b, nil)
	if got.Beol == nil {
		t.Fatal("no stack parsed")
	}
	if got.Beol.NumLayers() != 6 || len(got.Beol.Vias) != 5 {
		t.Fatalf("stack shape %d/%d", got.Beol.NumLayers(), len(got.Beol.Vias))
	}
	for i, l := range b.Layers {
		g := got.Beol.Layers[i]
		if g.Name != l.Name || g.Dir != l.Dir {
			t.Fatalf("layer %d identity: %+v vs %+v", i, g, l)
		}
		if math.Abs(g.Pitch-l.Pitch) > 1e-9 || math.Abs(g.RPerUm-l.RPerUm) > 1e-9 {
			t.Fatalf("layer %d numbers differ", i)
		}
	}
	for i, v := range b.Vias {
		if math.Abs(got.Beol.Vias[i].R-v.R) > 1e-9 {
			t.Fatalf("via %d R differs", i)
		}
	}
}

func TestLEFRoundTripCombinedStack(t *testing.T) {
	logic, _ := tech.NewBEOL28("l", 6)
	macro, _ := tech.NewBEOL28("m", 4)
	comb, err := tech.Combine(logic, macro, tech.DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripLEF(t, comb, nil)
	if got.Beol.F2FViaIndex() != comb.F2FViaIndex() {
		t.Fatalf("F2F via index %d vs %d", got.Beol.F2FViaIndex(), comb.F2FViaIndex())
	}
	v := got.Beol.Vias[got.Beol.F2FViaIndex()]
	if !v.F2F || math.Abs(v.Pitch-1.0) > 1e-9 {
		t.Fatalf("F2F via lost: %+v", v)
	}
	if got.Beol.MacroDieLayers() != 4 {
		t.Fatalf("macro-die layers = %d", got.Beol.MacroDieLayers())
	}
}

func TestLEFRoundTripLibrary(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	got := roundTripLEF(t, nil, lib)
	if got.Lib.Len() != lib.Len() {
		t.Fatalf("master count %d vs %d", got.Lib.Len(), lib.Len())
	}
	for _, want := range lib.Cells() {
		g := got.Lib.Cell(want.Name)
		if g == nil {
			t.Fatalf("missing master %s", want.Name)
		}
		if g.Kind != want.Kind || g.Family != want.Family || g.Drive != want.Drive {
			t.Fatalf("%s identity: %v/%s/%d", want.Name, g.Kind, g.Family, g.Drive)
		}
		if math.Abs(g.Width-want.Width) > 1e-3 || math.Abs(g.DriveRes-want.DriveRes) > 1e-6 {
			t.Fatalf("%s numbers differ", want.Name)
		}
		if len(g.Pins) != len(want.Pins) {
			t.Fatalf("%s pins %d vs %d", want.Name, len(g.Pins), len(want.Pins))
		}
		for i, p := range want.Pins {
			gp := g.Pins[i]
			if gp.Name != p.Name || gp.Dir != p.Dir || gp.Clock != p.Clock || gp.Layer != p.Layer {
				t.Fatalf("%s pin %s identity", want.Name, p.Name)
			}
			if math.Abs(gp.Cap-p.Cap) > 1e-3 || gp.Offset.Dist(p.Offset) > 1e-3 {
				t.Fatalf("%s pin %s numbers", want.Name, p.Name)
			}
		}
	}
	// Delay model survives: evaluate an arc on both.
	a := lib.MustCell("NAND2_X4")
	b := got.Lib.MustCell("NAND2_X4")
	if math.Abs(a.Delay(37, 20)-b.Delay(37, 20)) > 1e-6 {
		t.Fatal("delay model lost in round trip")
	}
}

// TestLEFRoundTripLayerlessPin: a pin on no layer reads back on none.
func TestLEFRoundTripLayerlessPin(t *testing.T) {
	lib := cell.NewLibrary("x")
	lib.Add(&cell.Cell{Name: "A", Pins: []cell.Pin{{Name: "P", Dir: cell.DirIn, Offset: geom.Pt(1, 2)}}})
	got := roundTripLEF(t, nil, lib).Lib.Cell("A")
	if !reflect.DeepEqual(got, lib.Cell("A")) {
		t.Fatalf("read back as %+v", got.Pins)
	}
}

func TestLEFRoundTripSRAM(t *testing.T) {
	sram, err := cell.NewSRAM(cell.SRAMSpec{Name: "m", Words: 2048, Bits: 16})
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewLibrary("x")
	lib.Add(sram)
	got := roundTripLEF(t, nil, lib)
	g := got.Lib.Cell("m")
	if g == nil || g.Macro == nil {
		t.Fatal("SRAM metadata lost")
	}
	if g.Macro.Words != 2048 || g.Macro.Bits != 16 || g.Macro.CapacityBytes != 4096 {
		t.Fatalf("SRAM info %+v", g.Macro)
	}
	if len(g.Obstructions) != 4 {
		t.Fatalf("obstructions %d", len(g.Obstructions))
	}
	if !reflect.DeepEqual(g.Obstructions, sram.Obstructions) {
		t.Fatal("obstructions differ")
	}
}

func buildTinyDesign(t *testing.T) (*netlist.Design, *cell.Library, geom.Rect) {
	t.Helper()
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("rt", lib)
	clk := d.AddPort("clk", cell.DirIn)
	clk.Layer = "M6"
	clk.Loc = geom.Pt(0, 30)
	out := d.AddPort("dout", cell.DirOut)
	out.Layer = "M6"
	out.Loc = geom.Pt(100, 30)
	out.HalfCycle = true
	out.ExtCap = 7.5
	u := d.AddInstance("u1", lib.MustCell("INV_X2"))
	u.Loc = geom.Pt(10, 10)
	u.Placed = true
	ff := d.AddInstance("ff1", lib.MustCell("DFF_X1"))
	ff.Loc = geom.Pt(50, 10)
	ff.Placed = true
	ff.Orient = geom.OrientFS
	ff.Die = netlist.MacroDie
	d.AddNet("n1", netlist.IPin(u, "Y"), netlist.IPin(ff, "D"))
	d.AddNet("n2", netlist.IPin(ff, "Q"), netlist.IPin(u, "A"), netlist.PPin(out))
	cn := d.AddNet("clk", netlist.PPin(clk), netlist.IPin(ff, "CK"))
	cn.Clock = true
	return d, lib, geom.R(0, 0, 120, 60)
}

func TestDEFRoundTrip(t *testing.T) {
	d, lib, die := buildTinyDesign(t)
	var sb strings.Builder
	if err := WriteDEF(&sb, d, die); err != nil {
		t.Fatal(err)
	}
	got, err := ParseDEF(strings.NewReader(sb.String()), lib)
	if err != nil {
		t.Fatalf("%v\n--- DEF ---\n%s", err, sb.String())
	}
	if got.Die != die {
		t.Fatalf("die %v vs %v", got.Die, die)
	}
	g := got.Design
	if g.Name != "rt" || len(g.Instances) != 2 || len(g.Nets) != 3 || len(g.Ports) != 2 {
		t.Fatalf("shape: %d inst %d nets %d ports", len(g.Instances), len(g.Nets), len(g.Ports))
	}
	ff := g.Instance("ff1")
	if ff == nil || ff.Master.Name != "DFF_X1" {
		t.Fatal("ff1 lost")
	}
	if ff.Loc != geom.Pt(50, 10) || ff.Orient != geom.OrientFS || !ff.Placed {
		t.Fatalf("ff1 placement: %+v", ff)
	}
	if ff.Die != netlist.MacroDie {
		t.Fatal("die assignment lost")
	}
	out := g.Port("dout")
	if out == nil || !out.HalfCycle || math.Abs(out.ExtCap-7.5) > 1e-9 {
		t.Fatalf("port properties lost: %+v", out)
	}
	// Connectivity: clock flagged, driver/sink structure kept.
	cn := g.Net("clk")
	if cn == nil || !cn.Clock || cn.Driver.Port == nil {
		t.Fatal("clock net lost")
	}
	n2 := g.Net("n2")
	if n2 == nil || len(n2.Sinks) != 2 {
		t.Fatal("n2 connectivity lost")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// HPWL identical after round trip (same locations).
	if math.Abs(g.TotalHPWL()-d.TotalHPWL()) > 1e-6 {
		t.Fatal("HPWL changed across round trip")
	}
}

func TestParseLEFRejectsCorruptStack(t *testing.T) {
	lef := `
LAYER M1
  TYPE ROUTING ;
  DIRECTION HORIZONTAL ;
  PITCH 0 ;
  WIDTH 0.05 ;
END M1
`
	if _, err := ParseLEF(strings.NewReader(lef)); err == nil {
		t.Fatal("zero-pitch stack accepted")
	}
}

func TestParseDEFUnknownMaster(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	def := `
DESIGN x ;
COMPONENTS 1 ;
  - u1 NO_SUCH_CELL + PLACED ( 0 0 ) N + PROPERTY die 0 ;
END COMPONENTS
END DESIGN
`
	if _, err := ParseDEF(strings.NewReader(def), lib); err == nil {
		t.Fatal("unknown master accepted")
	}
}

func TestTokenizer(t *testing.T) {
	tk := newTokenizer(strings.NewReader("A B ; # comment\nC 1.5 ;\n"))
	var got []string
	for {
		w, ok := tk.next()
		if !ok {
			break
		}
		got = append(got, w)
	}
	want := []string{"A", "B", ";", "C", "1.5", ";"}
	if len(got) != len(want) {
		t.Fatalf("tokens %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %q", i, got[i])
		}
	}
}

func TestTokenizerNextFloat(t *testing.T) {
	tk := newTokenizer(strings.NewReader("2.25 nope"))
	v, err := tk.nextFloat()
	if err != nil || v != 2.25 {
		t.Fatalf("nextFloat = %v, %v", v, err)
	}
	if _, err := tk.nextFloat(); err == nil {
		t.Fatal("non-number accepted")
	}
	if _, err := tk.nextFloat(); err == nil {
		t.Fatal("EOF accepted")
	}
}

func TestDEFFullTileRoundTrip(t *testing.T) {
	// A full benchmark netlist survives the DEF round trip.
	tile, err := piton.Generate(piton.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	die := geom.R(0, 0, 500, 500)
	var sb strings.Builder
	if err := WriteDEF(&sb, d, die); err != nil {
		t.Fatal(err)
	}
	got, err := ParseDEF(strings.NewReader(sb.String()), d.Lib)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb2 := got.Design.ComputeStats(), d.ComputeStats()
	if sa.NumInstances != sb2.NumInstances || sa.NumNets != sb2.NumNets ||
		sa.NumPorts != sb2.NumPorts || sa.NumMacros != sb2.NumMacros {
		t.Fatalf("stats differ:\n%+v\n%+v", sa, sb2)
	}
	if err := got.Design.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLEFRoundTripAbstract pins the hardened-macro abstract view
// through the LEF writer and parser: size, boundary pins with their
// timing arcs, per-layer obstructions (including macro-die _MD
// layers) and the AbstractInfo provenance record all survive.
func TestLEFRoundTripAbstract(t *testing.T) {
	abs := &cell.Cell{
		Name: "tile_abs", Kind: cell.KindMacro,
		Width: 325.5021, Height: 326.4,
		DriveRes: 2.6, Leakage: 6373.2,
		Pins: []cell.Pin{
			{Name: "clk_i", Dir: cell.DirIn, Cap: 11.33, Offset: geom.Pt(0, 163.2), Layer: "M6", Clock: true},
			{Name: "noc_in", Dir: cell.DirIn, Cap: 7.8272, Offset: geom.Pt(172.923, 326.4), Layer: "M6", Setup: 35.5626},
			{Name: "noc_out", Dir: cell.DirOut, Offset: geom.Pt(193.267, 0), Layer: "M6", ClkQ: 167.3429},
		},
		Obstructions: []cell.Obstruction{
			{Layer: "M1", Rect: geom.R(14.7956, 0, 103.5689, 14.8364)},
			{Layer: "M4_MD", Rect: geom.R(0, 0, 325.5021, 14.8364)},
			{Layer: "F2F_VIA", Rect: geom.R(10, 10, 20, 20)},
		},
		Abstract: &cell.AbstractInfo{
			SourceFlow: "Macro-3D", SourceConfig: "piton_tiny",
			MinPeriodPs: 727.7372, EnergyPerCycleFJ: 5514.8886,
			LeakageUW: 6.3732, F2FBumps: 149,
		},
	}
	lib := cell.NewLibrary("x")
	lib.Add(abs)
	got := roundTripLEF(t, nil, lib)
	g := got.Lib.Cell("tile_abs")
	if g == nil {
		t.Fatal("abstract lost in round trip")
	}
	if g.Kind != cell.KindMacro {
		t.Fatalf("kind %v", g.Kind)
	}
	if math.Abs(g.Width-abs.Width) > 1e-3 || math.Abs(g.Height-abs.Height) > 1e-3 {
		t.Fatalf("size %v×%v vs %v×%v", g.Width, g.Height, abs.Width, abs.Height)
	}
	if len(g.Pins) != len(abs.Pins) {
		t.Fatalf("pins %d vs %d", len(g.Pins), len(abs.Pins))
	}
	for i, want := range abs.Pins {
		p := g.Pins[i]
		if p.Name != want.Name || p.Dir != want.Dir || p.Clock != want.Clock || p.Layer != want.Layer {
			t.Fatalf("pin %s identity lost", want.Name)
		}
		if p.Offset.Dist(want.Offset) > 1e-3 || math.Abs(p.Cap-want.Cap) > 1e-3 {
			t.Fatalf("pin %s geometry/cap lost", want.Name)
		}
		if math.Abs(p.Setup-want.Setup) > 1e-3 || math.Abs(p.ClkQ-want.ClkQ) > 1e-3 {
			t.Fatalf("pin %s boundary arc lost: setup %v vs %v, clkq %v vs %v",
				want.Name, p.Setup, want.Setup, p.ClkQ, want.ClkQ)
		}
	}
	if len(g.Obstructions) != len(abs.Obstructions) {
		t.Fatalf("obstructions %d vs %d", len(g.Obstructions), len(abs.Obstructions))
	}
	for i, want := range abs.Obstructions {
		o := g.Obstructions[i]
		if o.Layer != want.Layer {
			t.Fatalf("obstruction %d layer %s vs %s", i, o.Layer, want.Layer)
		}
		if math.Abs(o.Rect.Lx-want.Rect.Lx) > 1e-3 || math.Abs(o.Rect.Ly-want.Rect.Ly) > 1e-3 ||
			math.Abs(o.Rect.Ux-want.Rect.Ux) > 1e-3 || math.Abs(o.Rect.Uy-want.Rect.Uy) > 1e-3 {
			t.Fatalf("obstruction %d rect %v vs %v", i, o.Rect, want.Rect)
		}
	}
	a := g.Abstract
	if a == nil {
		t.Fatal("AbstractInfo lost in round trip")
	}
	if a.SourceFlow != abs.Abstract.SourceFlow || a.SourceConfig != abs.Abstract.SourceConfig ||
		a.F2FBumps != abs.Abstract.F2FBumps {
		t.Fatalf("AbstractInfo identity: %+v", a)
	}
	if math.Abs(a.MinPeriodPs-abs.Abstract.MinPeriodPs) > 1e-3 ||
		math.Abs(a.EnergyPerCycleFJ-abs.Abstract.EnergyPerCycleFJ) > 1e-3 ||
		math.Abs(a.LeakageUW-abs.Abstract.LeakageUW) > 1e-3 {
		t.Fatalf("AbstractInfo numbers: %+v", a)
	}
	// A second write from the parsed library is byte-identical —
	// the emit→parse→emit fixpoint.
	var first, second strings.Builder
	if err := WriteLEF(&first, nil, lib); err != nil {
		t.Fatal(err)
	}
	if err := WriteLEF(&second, nil, got.Lib); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("abstract LEF is not an emit→parse→emit fixpoint")
	}
}

// TestLEFAbstractPropertiesConditional pins cache-key stability: a
// library without abstracts emits byte-identical LEF before and after
// the abstract extension (no PROPERTY arc/abstract lines).
func TestLEFAbstractPropertiesConditional(t *testing.T) {
	var sb strings.Builder
	if err := WriteLEF(&sb, nil, cell.NewStdLib28(cell.DefaultLibOptions())); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "PROPERTY arc") || strings.Contains(sb.String(), "PROPERTY abstract") {
		t.Fatal("ordinary library LEF grew abstract properties — stage-cache keys would shift")
	}
}

// prepared is a tile taken through Macro-3D's prepare without running a
// flow: generated, its die sized, its macros floorplanned memory-on-logic
// and its ports assigned, then core.PrepareMoL — the combined stack, the
// macros' filler-sized macro-die views and the superimposed design.
func prepared(t *testing.T, pc piton.Config) (*core.MoLDesign, geom.Rect) {
	t.Helper()
	tile, err := piton.Generate(pc)
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
	filler := d.Lib.MustCell("FILL_X1")
	md, err := core.PrepareMoL(d, logic, macro, tech.DefaultF2F(), sz.Die3D, filler.Width, filler.Height)
	if err != nil {
		t.Fatal(err)
	}
	return md, sz.Die3D
}

// designLibrary is every master a design's LEF carries: its library, then
// each master an instance uses that the library lacks — the macro-die
// views — once per name.
func designLibrary(d *netlist.Design) *cell.Library {
	lib := cell.NewLibrary(d.Lib.Name)
	for _, c := range d.Lib.Cells() {
		lib.Add(c)
	}
	for _, inst := range d.Instances {
		if lib.Cell(inst.Master.Name) == nil {
			lib.Add(inst.Master)
		}
	}
	return lib
}

// TestWriteReadWriteFixedPoint: the files of a prepared tiny and small
// design — the combined stack and every master, macro-die views included,
// as LEF, and the design as DEF — read back to the values they were
// written from, so writing what was read gives the same bytes, and every
// master reads back equal to the one written.
func TestWriteReadWriteFixedPoint(t *testing.T) {
	for _, pc := range []piton.Config{piton.Tiny(), piton.SmallCache()} {
		t.Run(pc.Name, func(t *testing.T) {
			md, die := prepared(t, pc)
			lib := designLibrary(md.Design)
			if lib.Len() == md.Design.Lib.Len() {
				t.Fatal("the prepared design instantiates no macro-die view")
			}
			var lef, def bytes.Buffer
			if err := WriteLEF(&lef, md.Combined, lib); err != nil {
				t.Fatal(err)
			}
			if err := WriteDEF(&def, md.Design, die); err != nil {
				t.Fatal(err)
			}
			l, err := ParseLEF(bytes.NewReader(lef.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			d, err := ParseDEF(bytes.NewReader(def.Bytes()), l.Lib)
			if err != nil {
				t.Fatal(err)
			}
			var lef2, def2 bytes.Buffer
			if err := WriteLEF(&lef2, l.Beol, l.Lib); err != nil {
				t.Fatal(err)
			}
			if err := WriteDEF(&def2, d.Design, d.Die); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lef2.Bytes(), lef.Bytes()) || !bytes.Equal(def2.Bytes(), def.Bytes()) {
				t.Fatalf("write → read → write moved the LEF (%v) or the DEF (%v)",
					!bytes.Equal(lef2.Bytes(), lef.Bytes()), !bytes.Equal(def2.Bytes(), def.Bytes()))
			}
			if !reflect.DeepEqual(l.Beol.Layers, md.Combined.Layers) || !reflect.DeepEqual(l.Beol.Vias, md.Combined.Vias) {
				t.Error("the combined stack reads back changed")
			}
			for _, c := range lib.Cells() {
				if got := l.Lib.Cell(c.Name); !reflect.DeepEqual(got, c) {
					t.Errorf("%s reads back changed:\n got %+v\nwant %+v", c.Name, got, c)
				}
			}
		})
	}
}
