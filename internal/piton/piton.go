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
//
// Generation is one pass: the netlist is built once, against the
// unscaled library — nothing in the generator reads a cell width — its
// raw logic area is measured, and every standard cell is re-pointed at
// the same-named master of the library scaled to the target (see
// gen.calibrate). Nothing is built to be thrown away.
//
// A tile is a pure function of its Config, so it need not be generated
// more than once per process: the flows keep one read-only template per
// configuration and start every run from Tile.Clone, an exact-size copy
// that shares the template's names, masters and library (DESIGN.md §17).
package piton

import (
	"fmt"
	"slices"
	"strconv"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/slab"
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

// Clone returns a copy of the tile for one flow run to own and edit: the
// design copied record for record (netlist.Design.Clone, which shares
// the names, masters and library) and the port groups copied, their
// name lists shared like the names themselves.
func (t *Tile) Clone() *Tile {
	return &Tile{Design: t.Design.Clone(), Config: t.Config, Groups: slices.Clone(t.Groups), ClockPort: t.ClockPort}
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

	// macros are the compiled masters registered on lib, in creation
	// order; calibrate re-registers them on the scaled library.
	macros []*cell.Cell

	// netOf maps a driver to its net so fanout() can extend existing
	// nets instead of creating parallel ones.
	netOf map[pinID]*netlist.Net

	names   slab.Names // every seqName is cut from it
	nameBuf []byte     // seqName's scratch
}

// pinID identifies a connection point by the records behind it — the
// instance and its master's pin, or the port — so hashing one reads three
// words and no pin-name bytes. Valid while the instance keeps its master:
// the generator's maps are done with before calibrate re-points them.
type pinID struct {
	inst *netlist.Instance
	pin  *cell.Pin
	port *netlist.Port
}

func idOf(r netlist.PinRef) pinID {
	if r.Port != nil {
		return pinID{port: r.Port}
	}
	return pinID{inst: r.Inst, pin: r.Inst.Master.Pin(r.Pin)}
}

// newGen starts a generator on an empty design over the unscaled
// library.
func newGen(name string, cfg Config, seed uint64) *gen {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	g := &gen{
		cfg:   cfg,
		lib:   lib,
		d:     netlist.NewDesign(name, lib),
		rng:   geom.NewRNG(seed),
		netOf: make(map[pinID]*netlist.Net),
	}
	g.tile = &Tile{Design: g.d, Config: cfg}
	return g
}

// addMacro registers a compiled macro master (so DEF/LEF round trips
// resolve it) and instantiates it.
func (g *gen) addMacro(name string, m *cell.Cell) *netlist.Instance {
	g.lib.Add(m)
	g.macros = append(g.macros, m)
	return g.d.AddInstance(name, m)
}

// calibrate rescales standard-cell widths so the summed logic area
// equals target µm² (0 = leave the unscaled library). Structure, names
// and random draws do not depend on cell widths, so instead of
// regenerating against the scaled library the design is re-pointed at
// it: every standard cell moves to the same-named master, the macros
// are registered again in creation order, and the design's Lib is
// swapped.
func (g *gen) calibrate(target float64) error {
	if target <= 0 {
		return nil
	}
	// The standard-cell area, as netlist.ComputeStats sums it.
	raw := 0.0
	for _, inst := range g.d.Instances {
		if !inst.IsMacro() && inst.Master.Kind != cell.KindFiller {
			raw += inst.Master.Area()
		}
	}
	if raw <= 0 {
		return fmt.Errorf("piton: %s generated no logic area", g.d.Name)
	}
	opt := cell.DefaultLibOptions()
	opt.AreaScale = target / raw
	lib := cell.NewStdLib28(opt)
	for _, m := range g.macros {
		lib.Add(m)
	}
	for _, inst := range g.d.Instances {
		if !inst.IsMacro() {
			inst.Master = lib.MustCell(inst.Master.Name)
		}
	}
	g.lib, g.d.Lib = lib, lib
	return nil
}

// seqName builds prefix+hint+"_"+seq in the generator's scratch buffer
// and cuts it from the name arena, so a name costs its bytes and no heap
// object of its own.
func (g *gen) seqName(prefix, hint string, seq int) string {
	b := append(g.nameBuf[:0], prefix...)
	b = append(b, hint...)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(seq), 10)
	g.nameBuf = b
	return g.names.Cut(b)
}

func (g *gen) netName(hint string) string {
	g.nns++
	return g.seqName("n_", hint, g.nns)
}

func (g *gen) instName(hint string) string {
	g.ins++
	return g.seqName("u_", hint, g.ins)
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

// fanoutRoom is the sink capacity a fanout-grown net reserves in the
// design's sink arena when it is created: nine nets in ten never
// outgrow it, and it costs the bytes that growing 1 → 2 → 4 on the heap
// did.
const fanoutRoom = 4

// fanout connects src → sink, creating or extending src's net.
func (g *gen) fanout(src, sink netlist.PinRef) {
	id := idOf(src)
	if n, ok := g.netOf[id]; ok {
		n.Sinks = append(n.Sinks, sink)
		return
	}
	sinks := g.d.SinkSpan(fanoutRoom)[:1]
	sinks[0] = sink
	g.netOf[id] = g.d.AddNet(g.netName("w"), src, sinks...)
}

// drive creates a named net from src to a fanout known up front and
// records it as the driver's net. The sinks are copied into an
// exact-size span of the design's sink arena, so callers may reuse the
// slice they pass.
func (g *gen) drive(name string, src netlist.PinRef, sinks ...netlist.PinRef) *netlist.Net {
	span := g.d.SinkSpan(len(sinks))
	copy(span, sinks)
	n := g.d.AddNet(name, src, span...)
	g.netOf[idOf(src)] = n
	return n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
