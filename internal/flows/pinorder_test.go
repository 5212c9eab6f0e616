package flows

import (
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/core"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/tech"
)

// TestMasterSwapsKeepPinOrder: a pin reference names its pin by its
// position in the master's pin list, so every master a swap can install
// lists the same pin names in the same order as the one it replaces.
// Walked here: each standard-cell family across its drive strengths (the
// optimizer's resize), the pseudo flows' scaled library against the real
// one (the pseudo generator's calibration, the transfer's resize), each
// SRAM against its macro-die edit (prepare) and each master against its
// macro-die view (the partition's die move), and the master a snapshot
// naming that view restores.
func TestMasterSwapsKeepPinOrder(t *testing.T) {
	real, err := newTile(piton.SmallCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := piton.SmallCache()
	pcfg.TargetLogicArea *= pseudoSpecs["S2D"].area
	pseudo, err := newTile(pcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := real.Design
	same := func(swap string, from, to *cell.Cell) {
		t.Helper()
		if err := from.SamePins(to); err != nil {
			t.Errorf("%s: %v", swap, err)
		}
	}
	views := &core.DieViews{Combined: m6m6(t)}
	swaps := 0
	for _, m := range d.Lib.Cells() {
		for _, size := range d.Lib.Family(m.Family) {
			same("resize", m, size)
			swaps++
		}
		if p := pseudo.Design.Lib.Cell(m.Name); p != nil && p != m {
			same("pseudo transfer", p, m)
			swaps++
		}
		view, err := views.MacroDie(m)
		if err != nil {
			t.Fatal(err)
		}
		same("macro-die view", m, view)
		restored, err := resolveMaster(d, m, m.Name+tech.MDSuffix, &core.DieViews{Combined: views.Combined})
		if err != nil {
			t.Fatalf("restoring %s's macro-die view: %v", m.Name, err)
		}
		same("checkpoint restore", m, restored)
		swaps += 2
	}
	macros := 0
	for _, inst := range d.Macros() {
		edited, err := core.MacroDieView(inst.Master, views.Combined, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		same("macro-die edit", inst.Master, edited)
		macros++
	}
	if macros == 0 || swaps < 2*d.Lib.Len() {
		t.Fatalf("walked %d macros and %d swaps of %d masters", macros, swaps, d.Lib.Len())
	}
}

// TestMutantPinOrderFailsSwap: in a library whose NAND2_X2 lists its two
// inputs the other way round, resizing a NAND2_X1 to it, and restoring a
// snapshot that names it for a NAND2_X1, fail with the two pin lists
// named — where the pin references would otherwise have timed the net on
// A through the pin that is B — and the instance keeps its master.
func TestMutantPinOrderFailsSwap(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	x2 := lib.MustCell("NAND2_X2")
	x2.Pins[0], x2.Pins[1] = x2.Pins[1], x2.Pins[0]
	d := netlist.NewDesign("mutant", lib)
	u := d.AddInstance("u", lib.MustCell("NAND2_X1"))
	drv := d.AddInstance("drv", lib.MustCell("INV_X1"))
	d.AddNet("a", netlist.IPin(drv, "Y"), netlist.IPin(u, "A"))
	const want = `NAND2_X1 and NAND2_X2 list different pins: "A" against "B" at position 0`
	if err := d.Resize(u, x2); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resize to the mutant: %v, want an error naming %s", err, want)
	}
	if u.Master.Name != "NAND2_X1" {
		t.Fatalf("a refused resize left %s on the instance", u.Master.Name)
	}
	if _, err := resolveMaster(d, u.Master, "NAND2_X2", &core.DieViews{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restoring the mutant: %v, want an error naming %s", err, want)
	}
	if got := d.Nets[0].Sinks[0].Pin(); got != "A" {
		t.Fatalf("the sink reads pin %s after the refused swaps", got)
	}
}
