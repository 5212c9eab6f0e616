// Package cell models the building blocks placed by the flow: a
// synthetic standard-cell library with a slew-aware linear delay model
// (the usual k·R·C abstraction of NLDM tables), and an SRAM macro
// compiler producing memory blocks with capacity-scaled area, timing
// and energy, pins on M4 and full M1–M4 internal-routing obstructions —
// matching the macro properties the Macro-3D paper relies on.
//
// Units: µm, kΩ, fF, ps, fJ, nW (leakage).
package cell

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"macro3d/internal/geom"
)

// PinDir is the signal direction of a cell pin.
type PinDir uint8

// Pin directions.
const (
	DirIn PinDir = iota
	DirOut
	DirInOut
)

func (d PinDir) String() string {
	switch d {
	case DirIn:
		return "in"
	case DirOut:
		return "out"
	default:
		return "inout"
	}
}

// Pin is a physical + electrical pin of a cell master.
type Pin struct {
	Name   string
	Dir    PinDir
	Cap    float64    // input capacitance, fF (0 for outputs)
	Offset geom.Point // location in the cell's local frame, µm
	Layer  string     // metal layer the pin shape sits on
	Clock  bool       // true for clock inputs

	// Boundary timing arcs of hardened-macro abstracts (Cell.Abstract
	// != nil), in sign-off-corner-absolute ps — STA consumes them
	// without applying a corner scale, unlike the cell-level
	// Setup/ClkQ. Zero on ordinary masters.
	//
	// Setup at a data input is the full internal budget of the pin:
	// worst path delay from the pin to an internal capture register
	// plus that register's setup, referenced to the abstract's clock
	// pin. ClkQ at an output is the worst internal clock-edge→pin
	// delay at the hardened block's own load.
	Setup float64
	ClkQ  float64
}

// Kind classifies cell masters.
type Kind uint8

// Cell kinds.
const (
	KindComb   Kind = iota // combinational gate
	KindSeq                // flip-flop / latch
	KindBuf                // buffer (used by CTS and net buffering)
	KindInv                // inverter
	KindFiller             // filler cell (also the Macro-3D shrink target)
	KindMacro              // hard macro (SRAM, sensor, ADC, …)
)

func (k Kind) String() string {
	switch k {
	case KindComb:
		return "comb"
	case KindSeq:
		return "seq"
	case KindBuf:
		return "buf"
	case KindInv:
		return "inv"
	case KindFiller:
		return "filler"
	case KindMacro:
		return "macro"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Obstruction is an internal-routing blockage of a master on one layer.
type Obstruction struct {
	Layer string
	Rect  geom.Rect // local frame
}

// Cell is a library master: a standard cell or a hard macro.
type Cell struct {
	Name   string
	Kind   Kind
	Family string // sizing family, e.g. "INV", "NAND2", "DFF"
	Drive  int    // drive strength (X1, X2, …); 0 for macros/fillers

	Width  float64 // µm
	Height float64 // µm (row height for standard cells)

	Pins []Pin
	// pinAt indexes Pins by name on wide cells (IndexPins); nil on
	// narrow ones, where Pin scans.
	pinAt map[string]int32

	// Linear delay model: for an in→out arc,
	//   delay = Intrinsic + DriveRes·Cload + SlewSens·inputSlew
	//   outSlew = SlewIntrinsic + SlewRes·Cload
	Intrinsic     float64 // ps
	DriveRes      float64 // kΩ
	SlewSens      float64 // ps delay per ps of input slew
	SlewIntrinsic float64 // ps
	SlewRes       float64 // kΩ (slew per fF of load)

	// Sequential timing (KindSeq and clocked macros).
	ClkQ  float64 // clock-to-output delay, ps
	Setup float64 // setup requirement at data inputs, ps
	Hold  float64 // hold requirement, ps

	// Energy.
	InternalEnergy float64 // fJ per output toggle (short-circuit + internal)
	Leakage        float64 // nW

	// Macro-only data.
	Obstructions []Obstruction
	Macro        *MacroInfo

	// Abstract marks a master produced by hardening a sub-block
	// through our own P&R (flows.Harden) rather than by a compiler.
	Abstract *AbstractInfo
}

// MacroInfo carries SRAM-compiler metadata for KindMacro cells.
type MacroInfo struct {
	Words           int
	Bits            int
	CapacityBytes   int
	EnergyPerAccess float64 // fJ
}

// AbstractInfo carries the sign-off summary of a hardened sub-block.
// An abstract's per-pin boundary arcs (Pin.Setup/Pin.ClkQ) plus
// MinPeriodPs fully describe its timing to a parent flow; the
// geometry side is the usual pins + per-layer Obstructions.
type AbstractInfo struct {
	// SourceFlow and SourceConfig record provenance: the flow kind the
	// sub-block was signed off with ("Macro-3D", "2D") and the
	// benchmark configuration name.
	SourceFlow   string
	SourceConfig string

	// MinPeriodPs is the sub-block's own sign-off minimum period
	// (slow corner). A parent clock cannot beat it: STA floors the
	// parent MinPeriod at the worst instantiated abstract.
	MinPeriodPs float64

	// EnergyPerCycleFJ and LeakageUW summarize the sub-block's
	// typical-corner power for parent-level accounting.
	EnergyPerCycleFJ float64
	LeakageUW        float64

	// F2FBumps is the bonding via count the hardened block consumes
	// internally (Macro-3D sub-blocks only).
	F2FBumps int
}

// Area returns the footprint area in µm².
func (c *Cell) Area() float64 { return c.Width * c.Height }

// scanPins is the widest pin list Pin still scans: a gate's handful of
// names compare faster than one of them hashes, an SRAM's two hundred
// do not.
const scanPins = 8

// IndexPins builds the name → position index Pin uses on a cell of more
// than scanPins pins. Call it where the pin list is final and before the
// cell is shared: the index is never written again, so concurrent Pin
// calls only read it, and Clone hands it on. A pin list edited after
// the call stays correct — Pin checks what the index returns and scans
// when it misses — but is slow until the next IndexPins.
func (c *Cell) IndexPins() {
	c.pinAt = nil
	if len(c.Pins) <= scanPins {
		return
	}
	c.pinAt = make(map[string]int32, len(c.Pins))
	for i := len(c.Pins) - 1; i >= 0; i-- { // the first of two equal names wins, as in the scan
		c.pinAt[c.Pins[i].Name] = int32(i)
	}
}

// Pin returns the named pin, or nil.
func (c *Cell) Pin(name string) *Pin {
	if i := c.PinIndex(name); i >= 0 {
		return &c.Pins[i]
	}
	return nil
}

// PinIndex returns the position of the named pin in Pins, or -1.
func (c *Cell) PinIndex(name string) int {
	if c.pinAt != nil {
		if i, ok := c.pinAt[name]; ok && int(i) < len(c.Pins) && c.Pins[i].Name == name {
			return int(i)
		}
	}
	for i := range c.Pins {
		if c.Pins[i].Name == name {
			return i
		}
	}
	return -1
}

// SamePins reports whether o lists the same pin names as c, in the same
// order — what a master swap must keep, since a netlist names an
// instance's pin by its position in the master's list. The error names
// the first position where the lists part.
func (c *Cell) SamePins(o *Cell) error {
	if c == o {
		return nil
	}
	for i := range max(len(c.Pins), len(o.Pins)) {
		var a, b string
		if i < len(c.Pins) {
			a = c.Pins[i].Name
		}
		if i < len(o.Pins) {
			b = o.Pins[i].Name
		}
		if a != b {
			return fmt.Errorf("cell: %s and %s list different pins: %q against %q at position %d", c.Name, o.Name, a, b, i)
		}
	}
	return nil
}

// Output returns the first output pin, or nil. Standard cells here have
// exactly one output.
func (c *Cell) Output() *Pin {
	for i := range c.Pins {
		if c.Pins[i].Dir == DirOut {
			return &c.Pins[i]
		}
	}
	return nil
}

// ClockPin returns the clock input, or nil.
func (c *Cell) ClockPin() *Pin {
	for i := range c.Pins {
		if c.Pins[i].Clock {
			return &c.Pins[i]
		}
	}
	return nil
}

// IsSequential reports whether the master launches/captures on a clock
// (flip-flops and clocked macros).
func (c *Cell) IsSequential() bool {
	return c.Kind == KindSeq || (c.Kind == KindMacro && c.ClockPin() != nil)
}

// Delay evaluates the arc delay for a load and input slew, in ps.
func (c *Cell) Delay(loadFF, inSlewPs float64) float64 {
	return c.Intrinsic + c.DriveRes*loadFF + c.SlewSens*inSlewPs
}

// OutSlew evaluates the output slew for a load, in ps.
func (c *Cell) OutSlew(loadFF float64) float64 {
	return c.SlewIntrinsic + c.SlewRes*loadFF
}

// Clone returns a deep copy of the master (pins and obstructions
// included). The Macro-3D layer-editing step works on clones so the
// original library is never mutated. The pin index is shared, not
// copied: it is immutable and the clone's pins keep their names.
func (c *Cell) Clone() *Cell {
	d := *c
	d.Pins = append([]Pin(nil), c.Pins...)
	d.Obstructions = append([]Obstruction(nil), c.Obstructions...)
	if c.Macro != nil {
		m := *c.Macro
		d.Macro = &m
	}
	if c.Abstract != nil {
		a := *c.Abstract
		d.Abstract = &a
	}
	return &d
}

// Library is a set of masters with sizing-family indices.
type Library struct {
	Name  string
	cells map[string]*Cell
	// families maps a family name ("INV") to its masters sorted by
	// ascending drive.
	families map[string][]*Cell
}

// NewLibrary returns an empty library.
func NewLibrary(name string) *Library {
	return &Library{
		Name:     name,
		cells:    make(map[string]*Cell),
		families: make(map[string][]*Cell),
	}
}

// Clone returns a library of the same masters — shared, not copied —
// whose registrations are its own: an Add to either leaves the other as
// it was.
func (l *Library) Clone() *Library {
	c := &Library{Name: l.Name, cells: maps.Clone(l.cells), families: make(map[string][]*Cell, len(l.families))}
	for f, cs := range l.families {
		c.families[f] = slices.Clone(cs)
	}
	return c
}

// Add registers a master. It panics on duplicate names — libraries are
// constructed once by generators, so a duplicate is a programming bug.
func (l *Library) Add(c *Cell) {
	if _, dup := l.cells[c.Name]; dup {
		panic(fmt.Sprintf("cell: duplicate master %q", c.Name))
	}
	l.cells[c.Name] = c
	if c.pinAt == nil && len(c.Pins) > scanPins {
		c.IndexPins()
	}
	if c.Family != "" {
		fam := l.families[c.Family]
		fam = append(fam, c)
		sort.Slice(fam, func(i, j int) bool { return fam[i].Drive < fam[j].Drive })
		l.families[c.Family] = fam
	}
}

// Cell returns the named master, or nil.
func (l *Library) Cell(name string) *Cell { return l.cells[name] }

// MustCell returns the named master or panics.
func (l *Library) MustCell(name string) *Cell {
	c := l.cells[name]
	if c == nil {
		panic(fmt.Sprintf("cell: unknown master %q", name))
	}
	return c
}

// Family returns the masters of a sizing family in ascending drive.
func (l *Library) Family(name string) []*Cell { return l.families[name] }

// Cells returns all masters in deterministic (name-sorted) order.
func (l *Library) Cells() []*Cell {
	names := make([]string, 0, len(l.cells))
	for n := range l.cells {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Cell, len(names))
	for i, n := range names {
		out[i] = l.cells[n]
	}
	return out
}

// Len returns the master count.
func (l *Library) Len() int { return len(l.cells) }
