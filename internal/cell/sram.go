package cell

import (
	"fmt"
	"math"
	"strconv"

	"macro3d/internal/geom"
)

// SRAM-compiler constants for the synthetic 28 nm node: a 6T bitcell
// of 0.12 µm² at 75 % array efficiency (0.16 µm² effective per bit),
// which lands macro areas in the range that makes memories occupy
// >50 % of the tile substrate — the regime the paper targets — while
// still letting all macros of the large-cache tile pack onto a macro
// die of half the 2D footprint.
const (
	bitcellArea     = 0.12 // µm² per bit
	arrayEfficiency = 0.75
	sramAspect      = 1.5 // width / height
)

// SRAMSpec requests a memory macro from the compiler.
type SRAMSpec struct {
	Name  string
	Words int
	Bits  int // data width
}

// CapacityBytes returns the macro capacity.
func (s SRAMSpec) CapacityBytes() int { return s.Words * s.Bits / 8 }

// AddrBits returns the address width.
func (s SRAMSpec) AddrBits() int {
	if s.Words <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(s.Words))))
}

// NewSRAM compiles a memory macro. The produced master has
//
//   - footprint area = bits·words·bitcellArea/efficiency, aspect 1.5;
//   - pins (CLK, CE, WE, A[·], D[·], Q[·]) spread along the bottom
//     edge on layer M4;
//   - obstructions covering the full footprint on M1–M4 (the paper:
//     "the internal routing of a memory block fully occupies the
//     first four layers");
//   - access time, energy and leakage scaling with capacity.
func NewSRAM(spec SRAMSpec) (*Cell, error) {
	if spec.Words < 2 || spec.Bits < 1 {
		return nil, fmt.Errorf("cell: SRAM %q needs words>=2, bits>=1 (got %d, %d)",
			spec.Name, spec.Words, spec.Bits)
	}
	bits := float64(spec.Words * spec.Bits)
	area := bits * bitcellArea / arrayEfficiency
	w := geom.Snap(math.Sqrt(area*sramAspect), 0.1)
	h := geom.Snap(area/w, 0.1)
	capKB := float64(spec.CapacityBytes()) / 1024

	c := &Cell{
		Name:   spec.Name,
		Kind:   KindMacro,
		Width:  w,
		Height: h,
		// Clocked macro: launches read data, captures write data.
		ClkQ:  150 + 55*math.Log2(capKB+1),
		Setup: 50,
		Hold:  8,
		// Output drive of the SRAM's data buffers.
		DriveRes:       1.6,
		SlewSens:       0.08,
		SlewIntrinsic:  18,
		SlewRes:        2.0,
		InternalEnergy: 0, // accounted via EnergyPerAccess
		Leakage:        50 * capKB,
		Macro: &MacroInfo{
			Words:           spec.Words,
			Bits:            spec.Bits,
			CapacityBytes:   spec.CapacityBytes(),
			EnergyPerAccess: 2000 + 60*capKB,
		},
	}

	// Pin list: controls, address, data-in, data-out.
	type pd struct {
		name  string
		dir   PinDir
		cap   float64
		clock bool
	}
	var pins []pd
	pins = append(pins,
		pd{"CLK", DirIn, 2.0, true},
		pd{"CE", DirIn, 2.5, false},
		pd{"WE", DirIn, 2.5, false},
	)
	for i := 0; i < spec.AddrBits(); i++ {
		pins = append(pins, pd{"A" + strconv.Itoa(i), DirIn, 2.5, false})
	}
	for i := 0; i < spec.Bits; i++ {
		pins = append(pins, pd{"D" + strconv.Itoa(i), DirIn, 2.2, false})
	}
	for i := 0; i < spec.Bits; i++ {
		pins = append(pins, pd{"Q" + strconv.Itoa(i), DirOut, 0, false})
	}
	// Spread along the bottom edge, slightly inset.
	n := len(pins)
	for i, p := range pins {
		x := w * (0.5 + float64(i)) / float64(n)
		c.Pins = append(c.Pins, Pin{
			Name:   p.name,
			Dir:    p.dir,
			Cap:    p.cap,
			Clock:  p.clock,
			Offset: geom.Pt(x, 0.5),
			Layer:  "M4",
		})
	}

	c.IndexPins()

	full := geom.R(0, 0, w, h)
	for _, ly := range []string{"M1", "M2", "M3", "M4"} {
		c.Obstructions = append(c.Obstructions, Obstruction{Layer: ly, Rect: full})
	}
	return c, nil
}

// NewSensor compiles an analog/sensor macro for sensor-on-logic
// stacks: an unclocked block with a configurable digital interface on
// M3 and M1–M3 obstructions (analog blocks use fewer metals).
func NewSensor(name string, w, h float64, dataBits int) (*Cell, error) {
	if w <= 0 || h <= 0 || dataBits < 1 {
		return nil, fmt.Errorf("cell: sensor %q needs positive size and >=1 bit", name)
	}
	c := &Cell{
		Name:   name,
		Kind:   KindMacro,
		Width:  w,
		Height: h,
		// Sensor digital outputs are registered internally.
		ClkQ:          400,
		Setup:         60,
		Hold:          10,
		DriveRes:      2.2,
		SlewSens:      0.08,
		SlewIntrinsic: 22,
		SlewRes:       2.4,
		Leakage:       800,
		Macro: &MacroInfo{
			Bits:            dataBits,
			EnergyPerAccess: 5000,
		},
	}
	pins := []Pin{
		{Name: "CLK", Dir: DirIn, Cap: 2.0, Clock: true},
		{Name: "EN", Dir: DirIn, Cap: 2.4},
	}
	for i := 0; i < dataBits; i++ {
		pins = append(pins, Pin{Name: fmt.Sprintf("OUT%d", i), Dir: DirOut})
	}
	n := len(pins)
	for i := range pins {
		pins[i].Offset = geom.Pt(w*(0.5+float64(i))/float64(n), 0.5)
		pins[i].Layer = "M3"
	}
	c.Pins = pins
	c.IndexPins()
	full := geom.R(0, 0, w, h)
	for _, ly := range []string{"M1", "M2", "M3"} {
		c.Obstructions = append(c.Obstructions, Obstruction{Layer: ly, Rect: full})
	}
	return c, nil
}
