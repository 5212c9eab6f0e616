package flows

import (
	"testing"

	"macro3d/internal/piton"
)

// smallCfg returns the small-cache configuration used across tests.
func smallCfg() Config {
	return Config{Piton: piton.SmallCache(), Seed: 1}
}

func TestRun2DSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow in -short mode")
	}
	f, _ := runSmall(t, "2d")
	ppa, st := f.ppa, f.st
	t.Log(ppa)
	if ppa.Flow != "2D" || ppa.Dies != 1 {
		t.Fatalf("flow identity wrong: %+v", ppa)
	}
	// Paper-scale expectations (broad bands): fclk in the hundreds of
	// MHz, footprint ≈ 1.2 mm², no F2F bumps, 6-layer metal area.
	if ppa.FclkMHz < 100 || ppa.FclkMHz > 1200 {
		t.Fatalf("2D fclk = %.0f MHz", ppa.FclkMHz)
	}
	if ppa.FootprintMM2 < 0.9 || ppa.FootprintMM2 > 1.6 {
		t.Fatalf("2D footprint = %.2f mm²", ppa.FootprintMM2)
	}
	if ppa.F2FBumps != 0 {
		t.Fatalf("2D design has %d F2F bumps", ppa.F2FBumps)
	}
	if ppa.CritPathWLmm <= 0 || ppa.TotalWLm <= 0 {
		t.Fatal("missing wirelength metrics")
	}
	if st.Report == nil || st.Tree == nil {
		t.Fatal("state incomplete")
	}
}

func TestRunMacro3DSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow in -short mode")
	}
	f, _ := runSmall(t, "macro3d")
	ppa, st, md := f.ppa, f.st, f.md
	t.Log(ppa)
	if ppa.Dies != 2 {
		t.Fatal("Macro-3D must report two dies")
	}
	if ppa.F2FBumps == 0 {
		t.Fatal("Macro-3D produced no F2F bumps")
	}
	if md.EditedMacros == 0 {
		t.Fatal("no macros edited")
	}
	if st.Beol.F2FViaIndex() < 0 {
		t.Fatal("not routed on a combined stack")
	}
}

func TestMacro3DBeats2D(t *testing.T) {
	if testing.Short() {
		t.Skip("full flows in -short mode")
	}
	f2d, _ := runSmall(t, "2d")
	f3d, _ := runSmall(t, "macro3d")
	p2d, p3d := f2d.ppa, f3d.ppa
	t.Logf("2D:       %v", p2d)
	t.Logf("Macro-3D: %v", p3d)
	// The paper's headline: Macro-3D outperforms 2D (+20.5 % small
	// cache) at half the footprint with shorter wires.
	if p3d.FclkMHz <= p2d.FclkMHz {
		t.Fatalf("Macro-3D (%.0f MHz) not faster than 2D (%.0f MHz)", p3d.FclkMHz, p2d.FclkMHz)
	}
	if p3d.FootprintMM2 >= p2d.FootprintMM2*0.55 {
		t.Fatalf("footprint not halved: %.2f vs %.2f", p3d.FootprintMM2, p2d.FootprintMM2)
	}
	if p3d.TotalWLm >= p2d.TotalWLm {
		t.Fatalf("wirelength not reduced: %.2f vs %.2f m", p3d.TotalWLm, p2d.TotalWLm)
	}
	// Critical-path wirelength is path-class dependent (which path
	// ends up worst after optimization differs between runs), so it is
	// not asserted here; EXPERIMENTS.md discusses the deviation. The
	// energy check below keeps the wire-capacitance story honest.
	// Energy stays in the same ballpark (paper: ±1 %; accept ±25 %).
	r := p3d.EmeanFJ / p2d.EmeanFJ
	if r < 0.75 || r > 1.25 {
		t.Fatalf("Emean ratio = %.2f, diverged", r)
	}
}
