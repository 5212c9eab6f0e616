package macro3d_test

import (
	"context"
	"strings"
	"testing"

	"macro3d"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
)

// The facade tests run the public API end to end on the tiny tile.

func tinyFlowConfig() macro3d.FlowConfig {
	return macro3d.FlowConfig{Piton: macro3d.TinyTile(), Seed: 9}
}

func TestPublicAPITinyFlows(t *testing.T) {
	p2d, st2d, _, err := macro3d.RunFlow(context.Background(), "2d", tinyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p2d.FclkMHz <= 0 || st2d.Design == nil {
		t.Fatal("2D flow result incomplete")
	}
	p3d, st3d, mol, err := macro3d.RunFlow(context.Background(), "macro3d", tinyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if mol.EditedMacros == 0 {
		t.Fatal("no macros edited")
	}
	logic, macroDie, err := macro3d.SeparateDies(mol, st3d)
	if err != nil {
		t.Fatal(err)
	}
	if logic.StdCells == 0 || macroDie.Macros == 0 {
		t.Fatal("separation incomplete")
	}
	if len(logic.Bumps) != p3d.F2FBumps {
		t.Fatalf("bump accounting differs: %d vs %d", len(logic.Bumps), p3d.F2FBumps)
	}
}

func TestPublicAPITechAndCells(t *testing.T) {
	tech, err := macro3d.New28(6)
	if err != nil {
		t.Fatal(err)
	}
	macroStack, err := macro3d.NewBEOL28("m", 4)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := macro3d.CombineBEOL(tech.Logic, macroStack, macro3d.DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	if comb.NumLayers() != 10 {
		t.Fatalf("combined layers = %d", comb.NumLayers())
	}
	sram, err := macro3d.NewSRAM(macro3d.SRAMSpec{Name: "s", Words: 512, Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	edited, err := macro3d.EditMacroForMacroDie(sram, 0.19, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if edited.Pins[0].Layer != "M4_MD" {
		t.Fatalf("edit failed: %s", edited.Pins[0].Layer)
	}
}

func TestPublicAPILEFDEF(t *testing.T) {
	lib := macro3d.NewStdLib28(macro3d.DefaultLibOptions())
	b, _ := macro3d.NewBEOL28("l", 4)
	var sb strings.Builder
	if err := macro3d.WriteLEF(&sb, b, lib); err != nil {
		t.Fatal(err)
	}
	parsed, err := macro3d.ParseLEF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Lib.Len() != lib.Len() {
		t.Fatal("LEF round trip lost masters")
	}
	rew := macro3d.RewriteMacroDieLayers(sb.String(), 0.19, 1.2)
	if rew == "" {
		t.Fatal("rewrite produced nothing")
	}
}

func TestPublicAPIViz(t *testing.T) {
	tile, err := macro3d.GenerateTile(macro3d.TinyTile())
	if err != nil {
		t.Fatal(err)
	}
	// Unplaced design still renders the die and ports.
	svg := macro3d.LayoutSVG(tile.Design, tileDie(), macro3d.VizOptions{Title: "tiny"})
	if !strings.Contains(svg, "<svg") {
		t.Fatal("no SVG")
	}
	cs := macro3d.CrossSectionSVG(6, 4, true)
	if !strings.Contains(cs, "F2F_VIA") {
		t.Fatal("cross section lost the F2F layer")
	}
	var ld = netlist.LogicDie
	_ = macro3d.ASCIIDensity(tile.Design, tileDie(), 20, &ld)
}

func tileDie() geom.Rect { return geom.R(0, 0, 500, 500) }
