package lefdef

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/core"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/tech"
)

// tinyTileSeeds are the fuzz seeds: the tiny tile written as DEF and its
// library, over a six-layer stack, as LEF — cut down to a few of its
// records, since the engine minimizes every input that reaches new code
// at an execution per byte. The DEF holds five of the tile's nets, their
// sinks cut to two: the clock, one from an input port, one to an output
// port, one into a macro and the first gate-to-gate net; then the
// instances and ports they touch. The LEF holds the stack and the masters
// of those instances.
func tinyTileSeeds(f *testing.F) (lef, def []byte, lib *cell.Library) {
	tile, err := piton.Generate(piton.Tiny())
	if err != nil {
		f.Fatal(err)
	}
	src := tile.Design
	pick := make([]*netlist.Net, 5)
	for _, n := range src.Nets {
		var slot int
		switch {
		case n.Clock:
			slot = 0
		case n.Driver.Port != nil:
			slot = 1
		case n.Sinks[0].Port != nil:
			slot = 2
		case n.Sinks[0].Inst.IsMacro():
			slot = 3
		default:
			slot = 4
		}
		if pick[slot] == nil {
			pick[slot] = n
		}
	}
	d := netlist.NewDesign(src.Name, src.Lib)
	sub := cell.NewLibrary(src.Lib.Name)
	copyRef := func(r netlist.PinRef) netlist.PinRef {
		if r.Port != nil {
			p := d.Port(r.Port.Name)
			if p == nil {
				p = d.AddPort(r.Port.Name, r.Port.Dir)
				p.Layer, p.Loc, p.HalfCycle, p.ExtCap = r.Port.Layer, r.Port.Loc, r.Port.HalfCycle, r.Port.ExtCap
			}
			return netlist.PPin(p)
		}
		inst := d.Instance(r.Inst.Name)
		if inst == nil {
			inst = d.AddInstance(r.Inst.Name, r.Inst.Master)
			if sub.Cell(r.Inst.Master.Name) == nil {
				sub.Add(r.Inst.Master)
			}
		}
		return netlist.IPin(inst, r.Pin())
	}
	for _, n := range pick {
		if n == nil {
			f.Fatal("the tiny tile lacks a kind of net the seed needs")
		}
		sinks := make([]netlist.PinRef, 0, 2)
		for _, s := range n.Sinks[:min(2, len(n.Sinks))] {
			sinks = append(sinks, copyRef(s))
		}
		d.AddNet(n.Name, copyRef(n.Driver), sinks...).Clock = n.Clock
	}
	b, err := tech.NewBEOL28("x", 6)
	if err != nil {
		f.Fatal(err)
	}
	var l, w bytes.Buffer
	if err := WriteLEF(&l, b, sub); err != nil {
		f.Fatal(err)
	}
	if err := WriteDEF(&w, d, geom.R(0, 0, 500, 500)); err != nil {
		f.Fatal(err)
	}
	return l.Bytes(), w.Bytes(), src.Lib
}

// macroDieSeed is the LEF of a macro on the macro die: the M6–M4
// combined stack, with its CUT F2F layer, and an SRAM's macro-die view
// (core.MacroDieView) on the _MD layers at the filler footprint.
func macroDieSeed(f *testing.F) []byte {
	logic, _ := tech.NewBEOL28("logic", 6)
	macro, _ := tech.NewBEOL28("macro", 4)
	comb, err := tech.Combine(logic, macro, tech.DefaultF2F())
	if err != nil {
		f.Fatal(err)
	}
	sram, err := cell.NewSRAM(cell.SRAMSpec{Name: "m", Words: 256, Bits: 8})
	if err != nil {
		f.Fatal(err)
	}
	view, err := core.MacroDieView(sram, comb, 0.19, 1.2)
	if err != nil {
		f.Fatal(err)
	}
	lib := cell.NewLibrary("views")
	lib.Add(view)
	var b bytes.Buffer
	if err := WriteLEF(&b, comb, lib); err != nil {
		f.Fatal(err)
	}
	return b.Bytes()
}

// allocBound fails t when parse allocated more than 16 bytes per input
// byte plus 64 kB: no parse of outside input may allocate by a count it
// read rather than by the bytes it was given.
func allocBound(t *testing.T, in []byte, parse func()) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	parse()
	runtime.ReadMemStats(&m1)
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(16*len(in)+64<<10); got > limit {
		t.Fatalf("parsing %d bytes allocated %d, limit %d", len(in), got, limit)
	}
}

// FuzzParseLEF: ParseLEF on arbitrary bytes does not panic, and
// allocates within 16× the input plus 64 kB. Seeded with the tiny tile's
// stack and masters as WriteLEF writes them; with the combined stack,
// its CUT F2F layer, and an SRAM's macro-die view on the _MD layers; and
// with one macro of 20 000 shapeless pins (33× its size in pin records
// before a pin had to have a PORT). `go test` runs the seeds, `make
// fuzz` fuzzes for a bounded time.
func FuzzParseLEF(f *testing.F) {
	lef, _, _ := tinyTileSeeds(f)
	f.Add(lef)
	f.Add(macroDieSeed(f))
	f.Add([]byte("MACRO m\n" + strings.Repeat("PIN a END a\n", 20000) + "END m\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		allocBound(t, b, func() { ParseLEF(bytes.NewReader(b)) })
	})
}

// FuzzParseDEF: ParseDEF on arbitrary bytes, against the tiny tile's
// library, does not panic, and allocates within 16× the input plus
// 64 kB. Seeded with the tiny tile as WriteDEF writes it, a DIEAREA cut
// short (the parser read past EOF there forever), a second DESIGN (each
// made a design of its own), a net naming a pin its component's master
// lacks (an error where the name is resolved) and 20 000 pins with no
// DIRECTION and LAYER (34× their size in port records before a pin had
// to have both).
func FuzzParseDEF(f *testing.F) {
	_, def, lib := tinyTileSeeds(f)
	f.Add(def)
	f.Add([]byte("DESIGN x ;\nDIEAREA ( 0 0"))
	f.Add([]byte("DESIGN x ;\nDESIGN y ;\n"))
	f.Add([]byte(unknownPinDEF))
	var pins strings.Builder
	pins.WriteString("DESIGN x ;\nPINS 20000 ;\n")
	for i := range 20000 {
		fmt.Fprintf(&pins, "- %x ;\n", i)
	}
	f.Add([]byte(pins.String() + "END PINS\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		allocBound(t, b, func() { ParseDEF(bytes.NewReader(b), lib) })
	})
}
