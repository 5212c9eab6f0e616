package viz

import (
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
)

func vizDesign(t *testing.T) (*netlist.Design, geom.Rect) {
	t.Helper()
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("v", lib)
	sram, err := cell.NewSRAM(cell.SRAMSpec{Name: "m", Words: 4096, Bits: 16})
	if err != nil {
		t.Fatal(err)
	}
	mm := d.AddInstance("l3_bank0", sram)
	mm.Loc = geom.Pt(50, 50)
	mm.Die = netlist.MacroDie
	mm.Fixed, mm.Placed = true, true
	u := d.AddInstance("u1", lib.MustCell("INV_X1"))
	u.Loc = geom.Pt(10, 10)
	u.Placed = true
	p := d.AddPort("clk", cell.DirIn)
	p.Loc = geom.Pt(0, 100)
	return d, geom.R(0, 0, 400, 300)
}

func TestLayoutSVGStructure(t *testing.T) {
	d, die := vizDesign(t)
	svg := LayoutSVG(d, die, Options{Title: "test layout", ShowCells: true, ShowPorts: true,
		Bumps: []geom.Point{{X: 100, Y: 100}}})
	for _, want := range []string{
		"<svg", "</svg>", "test layout",
		"l3_bank0",       // macro label
		`fill="#d9a9a9"`, // macro-die color
		`fill="#7fbf7f"`, // cell color
		`fill="#cc2222"`, // bump dot
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Macro on the macro die is red-toned; same macro on the logic die
	// renders blue-toned.
	d.Instance("l3_bank0").Die = netlist.LogicDie
	svg2 := LayoutSVG(d, die, Options{})
	if !strings.Contains(svg2, `fill="#9db7d9"`) {
		t.Error("logic-die macro color missing")
	}
}

func TestLayoutSVGDieFilter(t *testing.T) {
	d, die := vizDesign(t)
	ld := netlist.LogicDie
	svg := LayoutSVG(d, die, Options{DieFilter: &ld})
	if strings.Contains(svg, "l3_bank0") {
		t.Error("macro-die instance drawn despite logic-die filter")
	}
	md := netlist.MacroDie
	svg = LayoutSVG(d, die, Options{DieFilter: &md})
	if !strings.Contains(svg, "l3_bank0") {
		t.Error("macro missing under macro-die filter")
	}
}

func TestCrossSectionSVG(t *testing.T) {
	flat := CrossSectionSVG(6, 0, false)
	if !strings.Contains(flat, "M6") || strings.Contains(flat, "_MD") {
		t.Error("2D cross section wrong")
	}
	mol := CrossSectionSVG(6, 4, true)
	for _, want := range []string{"M1_MD", "M4_MD", "F2F_VIA", "macro-die substrate", "logic-die substrate"} {
		if !strings.Contains(mol, want) {
			t.Errorf("MoL cross section missing %q", want)
		}
	}
	if strings.Contains(mol, "M5_MD") {
		t.Error("MoL cross section has too many macro metals")
	}
}

func TestASCIIDensity(t *testing.T) {
	d, die := vizDesign(t)
	out := ASCIIDensity(d, die, 40, nil)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("too few rows: %d", len(lines))
	}
	for _, l := range lines {
		if len(l) != 40 {
			t.Fatalf("row width %d, want 40", len(l))
		}
	}
	if !strings.Contains(out, "M") {
		t.Error("macro marker missing from density map")
	}
	// Filtering to the logic die hides the macro.
	ld := netlist.LogicDie
	out2 := ASCIIDensity(d, die, 40, &ld)
	if strings.Contains(out2, "M") {
		t.Error("macro drawn despite die filter")
	}
}
