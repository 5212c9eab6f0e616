package cell_test

import (
	"fmt"
	"sync"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/core"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/tech"
)

func wideMacro(t *testing.T) *cell.Cell {
	t.Helper()
	m, err := cell.NewSRAM(cell.SRAMSpec{Name: "sram_t_1024x32", Words: 1024, Bits: 32})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// resolvesEveryPin: Pin and PinIndex find each pin at its own position,
// and miss a name the cell does not have.
func resolvesEveryPin(t *testing.T, c *cell.Cell, when string) {
	t.Helper()
	for i := range c.Pins {
		name := c.Pins[i].Name
		if got := c.Pin(name); got != &c.Pins[i] {
			t.Fatalf("%s: %s.Pin(%q) is not pin %d", when, c.Name, name, i)
		}
		if got := c.PinIndex(name); got != i {
			t.Fatalf("%s: %s.PinIndex(%q) = %d, want %d", when, c.Name, name, got, i)
		}
	}
	if c.Pin("no_such_pin") != nil || c.PinIndex("no_such_pin") != -1 {
		t.Fatalf("%s: %s resolves a pin it does not have", when, c.Name)
	}
}

// TestPinIndexWideCellsOnly: a compiled macro carries the index from the
// compiler on, a gate never gets one (Library.Add included), and a wide
// cell that reaches a library without one gets it there.
func TestPinIndexWideCellsOnly(t *testing.T) {
	m := wideMacro(t)
	if len(m.Pins) < 50 || !cell.PinsIndexed(m) {
		t.Fatalf("SRAM with %d pins indexed=%v, want a wide indexed cell", len(m.Pins), cell.PinsIndexed(m))
	}
	resolvesEveryPin(t, m, "compiled")

	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	for _, c := range lib.Cells() {
		if cell.PinsIndexed(c) {
			t.Fatalf("%s (%d pins) is indexed: a gate's scan is faster", c.Name, len(c.Pins))
		}
		resolvesEveryPin(t, c, "library gate")
	}

	raw := &cell.Cell{Name: "wide_raw", Kind: cell.KindMacro}
	for i := 0; i < 40; i++ {
		raw.Pins = append(raw.Pins, cell.Pin{Name: fmt.Sprintf("P%d", i)})
	}
	if cell.PinsIndexed(raw) {
		t.Fatal("a cell literal is indexed before anyone fixed its pins")
	}
	resolvesEveryPin(t, raw, "unindexed")
	lib.Add(raw)
	if !cell.PinsIndexed(raw) {
		t.Fatal("Library.Add left a 40-pin cell unindexed")
	}
	resolvesEveryPin(t, raw, "added")

	// An edit after indexing stays correct: a renamed pin is found under
	// its new name and not under the old, an appended one is found.
	raw.Pins[3].Name = "RENAMED"
	raw.Pins = append(raw.Pins, cell.Pin{Name: "LATE"})
	resolvesEveryPin(t, raw, "edited")
	if raw.Pin("P3") != nil {
		t.Fatal("a renamed pin still answers to its old name")
	}
	// Equal names: the first wins, as in the scan.
	raw.Pins[7].Name = "P5"
	raw.IndexPins()
	if raw.PinIndex("P5") != 5 {
		t.Fatalf("PinIndex of a doubled name = %d, want the first (5)", raw.PinIndex("P5"))
	}
}

// TestPinIndexSurvivesViews: the views the flows make of a wide master —
// a process-scaled macro, its macro-die edit, a die view of it, a clone,
// an instance resized within a family — still resolve through an index.
func TestPinIndexSurvivesViews(t *testing.T) {
	m := wideMacro(t)
	piton.MacroProcess{ClkQScale: 1.4, EnergyScale: 0.8, LeakageScale: 0.1}.Apply(m)
	if !cell.PinsIndexed(m) {
		t.Fatal("MacroProcess.Apply dropped the pin index")
	}
	resolvesEveryPin(t, m, "process-scaled")

	logic, _ := tech.NewBEOL28("logic", 6)
	macro, _ := tech.NewBEOL28("macro", 6)
	combined, err := tech.Combine(logic, macro, tech.DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	md, err := core.MacroDieView(m, combined, 0.2, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	view, err := (&core.DieViews{Combined: combined}).MacroDie(m)
	if err != nil {
		t.Fatal(err)
	}
	for when, c := range map[string]*cell.Cell{"macro-die edit": md, "die view": view, "clone": m.Clone()} {
		if c == m || !cell.PinsIndexed(c) {
			t.Fatalf("%s: not an indexed copy of the master", when)
		}
		resolvesEveryPin(t, c, when)
	}
	if view.Pin("CLK").Layer == m.Pin("CLK").Layer {
		t.Fatal("die view shares its pins with the master")
	}

	// Resize swaps the master pointer; both family members come out of
	// the library, and a wide family member keeps its index across it.
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	wide := func(name string, drive int) *cell.Cell {
		c := m.Clone()
		c.Name, c.Family, c.Drive = name, "WIDE", drive
		lib.Add(c)
		return c
	}
	w1, w2 := wide("WIDE_X1", 1), wide("WIDE_X2", 2)
	d := netlist.NewDesign("resize", lib)
	inst := d.AddInstance("u", w1)
	if err := d.Resize(inst, w2); err != nil {
		t.Fatal(err)
	}
	if inst.Master != w2 || !cell.PinsIndexed(inst.Master) {
		t.Fatal("resized instance lost the indexed master")
	}
	resolvesEveryPin(t, inst.Master, "resized")
}

// TestPinIndexConcurrentReaders: lookups on one shared master, and on
// clones taken meanwhile, from many goroutines (run under -race).
func TestPinIndexConcurrentReaders(t *testing.T) {
	m := wideMacro(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := m
			if g%2 == 1 {
				c = m.Clone()
			}
			for round := 0; round < 50; round++ {
				for i := range c.Pins {
					if c.PinIndex(c.Pins[i].Name) != i {
						t.Errorf("goroutine %d: pin %d misresolved", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
