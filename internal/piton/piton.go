// Package piton generates OpenPiton-like tile netlists: a 64-bit
// Ariane-style pipelined core, a three-level cache hierarchy built from
// compiled SRAM macros, three parallel NoC routers, and edge-aligned
// inter-tile ports constrained to half a clock cycle — the benchmark
// architecture of the Macro-3D case study (paper §V, Fig. 3).
//
// The generator is deterministic (seeded) and structural: it does not
// reproduce OpenPiton's RTL, but it reproduces the properties the flow
// comparison depends on — macro-dominated area (>50 %), wide shared
// buses fanning out to banked memories, local pipeline cones, and
// tileable I/O. Instance counts are reduced versus gate-level synthesis
// for runtime; standard-cell areas are inflated (cell.LibOptions
// .AreaScale) so total logic area matches the paper's physical scale.
package piton

import (
	"fmt"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
)

// Config selects the tile architecture.
type Config struct {
	Name string

	// Cache capacities in bytes.
	L1I, L1D, L2, L3 int

	// DataWidth is the bus/flit width used for memory and NoC
	// interfaces (reduced from 64/512-bit real buses for scale).
	DataWidth int

	// CoreStages and CoreWidth shape the Ariane-like pipeline:
	// CoreStages register banks of CoreWidth bits with combinational
	// clouds between them.
	CoreStages int
	CoreWidth  int

	// CloudDepth is the combinational levels per pipeline cloud.
	CloudDepth int

	// NoCs is the number of parallel on-chip networks (OpenPiton: 3).
	NoCs int

	// TargetLogicArea, when > 0, rescales standard-cell widths so the
	// summed logic area equals this value (µm²).
	TargetLogicArea float64

	// MacroProcess scales the memory macros' electrical properties to
	// model a macro die in a *different* process node — the
	// heterogeneity the paper's conclusion leaves as future work. The
	// zero value means same-node (all scales 1).
	MacroProcess MacroProcess

	Seed uint64
}

// MacroProcess describes a macro-die technology relative to the logic
// die's node: e.g. an older node optimized for memory density has
// slower access (ClkQScale > 1) but far lower leakage.
type MacroProcess struct {
	ClkQScale    float64 // access-time multiplier (0 → 1)
	EnergyScale  float64 // per-access energy multiplier (0 → 1)
	LeakageScale float64 // leakage multiplier (0 → 1)
}

func (m MacroProcess) orDefault() MacroProcess {
	if m.ClkQScale == 0 {
		m.ClkQScale = 1
	}
	if m.EnergyScale == 0 {
		m.EnergyScale = 1
	}
	if m.LeakageScale == 0 {
		m.LeakageScale = 1
	}
	return m
}

// Apply scales a compiled macro in place.
func (m MacroProcess) Apply(c *cell.Cell) {
	m = m.orDefault()
	c.ClkQ *= m.ClkQScale
	c.Setup *= m.ClkQScale
	c.Leakage *= m.LeakageScale
	if c.Macro != nil {
		c.Macro.EnergyPerAccess *= m.EnergyScale
	}
}

// SmallCache returns the paper's small-cache tile: 8 kB L1I, 16 kB L1D,
// 16 kB L2, 256 kB L3; logic area calibrated to 0.29 mm².
func SmallCache() Config {
	return Config{
		Name: "piton_small",
		L1I:  8 * 1024, L1D: 16 * 1024, L2: 16 * 1024, L3: 256 * 1024,
		DataWidth:  32,
		CoreStages: 6, CoreWidth: 96, CloudDepth: 5,
		NoCs:            3,
		TargetLogicArea: 0.29e6,
		Seed:            1,
	}
}

// LargeCache returns the paper's modern/large-cache tile: 16 kB L1I and
// L1D, 128 kB L2, 1 MB L3; logic area calibrated to 0.47 mm².
func LargeCache() Config {
	return Config{
		Name: "piton_large",
		L1I:  16 * 1024, L1D: 16 * 1024, L2: 128 * 1024, L3: 1024 * 1024,
		DataWidth:  32,
		CoreStages: 6, CoreWidth: 144, CloudDepth: 7,
		NoCs:            3,
		TargetLogicArea: 0.47e6,
		Seed:            2,
	}
}

// Tiny returns a reduced tile for fast flow-level tests and CI: the
// same structure (core, three cache levels, one NoC, aligned ports) at
// a fraction of the size. Not used by the paper experiments.
func Tiny() Config {
	return Config{
		Name: "piton_tiny",
		L1I:  4 * 1024, L1D: 4 * 1024, L2: 8 * 1024, L3: 32 * 1024,
		DataWidth:  8,
		CoreStages: 3, CoreWidth: 16, CloudDepth: 3,
		NoCs:            1,
		TargetLogicArea: 0.02e6,
		Seed:            3,
	}
}

// Edge names a die side for port placement.
type Edge uint8

// Die edges.
const (
	North Edge = iota
	South
	East
	West
)

func (e Edge) String() string {
	switch e {
	case North:
		return "N"
	case South:
		return "S"
	case East:
		return "E"
	}
	return "W"
}

// Opposite returns the facing edge.
func (e Edge) Opposite() Edge {
	switch e {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	}
	return East
}

// PortGroup is a bundle of ports on one edge. Groups come in aligned
// pairs: pair i on an edge must get the same cross-coordinate as pair
// i on the opposite edge so that abutted tiles connect without extra
// routing (paper §V-1).
type PortGroup struct {
	Edge  Edge
	Pair  int // alignment index shared with the opposite edge
	Names []string
}

// Tile is a generated design plus its tiling port plan.
type Tile struct {
	Design *netlist.Design
	Config Config
	Groups []PortGroup

	// ClockPort is the tile clock input.
	ClockPort string
}

// sramBankSpec splits a cache capacity into macros of at most 32 kB
// (mirroring memory-compiler limits), each DataWidth bits wide.
func sramBanks(level string, bytes, width int) []cell.SRAMSpec {
	const maxBank = 32 * 1024
	banks := 1
	if bytes > maxBank {
		banks = bytes / maxBank
		// 1 MB L3 uses 8 × 128 kB banks rather than 32 × 32 kB to keep
		// macro counts at the paper's scale.
		if banks > 8 {
			banks = 8
		}
	}
	per := bytes / banks
	words := per * 8 / width
	specs := make([]cell.SRAMSpec, banks)
	for i := range specs {
		specs[i] = cell.SRAMSpec{
			Name:  fmt.Sprintf("sram_%s_b%d_%dx%d", level, i, words, width),
			Words: words,
			Bits:  width,
		}
	}
	return specs
}

// gen carries generator state.
type gen struct {
	cfg  Config
	lib  *cell.Library
	d    *netlist.Design
	rng  *geom.RNG
	nns  int // net name sequence
	ins  int // instance name sequence
	clk  []netlist.PinRef
	tile *Tile

	// netOf maps a driver to its net so fanout() can extend existing
	// nets instead of creating parallel ones.
	netOf map[netlist.PinRef]*netlist.Net
}

func (g *gen) netName(hint string) string {
	g.nns++
	return fmt.Sprintf("n_%s_%d", hint, g.nns)
}

func (g *gen) instName(hint string) string {
	g.ins++
	return fmt.Sprintf("u_%s_%d", hint, g.ins)
}

// dff adds a flip-flop and registers its clock pin.
func (g *gen) dff(hint string) *netlist.Instance {
	ff := g.d.AddInstance(g.instName(hint+"_ff"), g.lib.MustCell("DFF_X1"))
	g.clk = append(g.clk, netlist.IPin(ff, "CK"))
	return ff
}

// gate adds a random 2-to-4-input gate and wires the given drivers to
// its inputs (cycling when fewer drivers than inputs). It returns the
// gate; its output net must be created by the caller.
var gateFamilies = []struct {
	name   string
	inputs int
}{
	{"NAND2_X1", 2}, {"NOR2_X1", 2}, {"NAND3_X1", 3},
	{"AOI22_X1", 4}, {"OAI22_X1", 4}, {"XOR2_X1", 2}, {"MUX2_X1", 3},
	{"INV_X1", 1}, {"BUF_X1", 1},
}

// cloud builds a layered random combinational cone from the driver
// refs to `outs` outputs over `depth` levels. Returns output PinRefs
// (gate Y pins).
func (g *gen) cloud(hint string, drivers []netlist.PinRef, outs, depth int) []netlist.PinRef {
	if len(drivers) == 0 {
		panic("piton: cloud with no drivers")
	}
	level := drivers
	for l := 0; l < depth; l++ {
		// Taper the cloud towards the output count.
		n := len(level) + (outs-len(level))*(l+1)/depth
		if n < 1 {
			n = 1
		}
		next := make([]netlist.PinRef, 0, n)
		for k := 0; k < n; k++ {
			spec := gateFamilies[g.rng.Intn(len(gateFamilies))]
			inst := g.d.AddInstance(g.instName(hint), g.lib.MustCell(spec.name))
			// Wire inputs from random members of the previous level,
			// with a locality bias (nearby indices) so the cone has
			// structure rather than uniform randomness.
			ii := 0 // index among the input pins
			for pi := range inst.Master.Pins {
				ip := &inst.Master.Pins[pi]
				if ip.Dir != cell.DirIn {
					continue
				}
				src := level[(k+ii*3+g.rng.Intn(5))%len(level)]
				g.fanout(src, netlist.IPin(inst, ip.Name))
				ii++
			}
			next = append(next, netlist.IPin(inst, "Y"))
		}
		level = next
	}
	return level[:min(outs, len(level))]
}

// fanout connects src → sink, creating or extending src's net.
func (g *gen) fanout(src, sink netlist.PinRef) {
	if n, ok := g.netOf[src]; ok {
		n.Sinks = append(n.Sinks, sink)
		return
	}
	g.netOf[src] = g.d.AddNet(g.netName("w"), src, sink)
}

// drive creates a named net from src to sinks and records it as the
// driver's net.
func (g *gen) drive(name string, src netlist.PinRef, sinks ...netlist.PinRef) *netlist.Net {
	n := g.d.AddNet(name, src, sinks...)
	g.netOf[src] = n
	return n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
