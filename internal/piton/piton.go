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
	"strings"

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
	ClkQScale    float64 `json:"clkq_scale,omitempty"`    // access-time multiplier (0 → 1)
	EnergyScale  float64 `json:"energy_scale,omitempty"`  // per-access energy multiplier (0 → 1)
	LeakageScale float64 `json:"leakage_scale,omitempty"` // leakage multiplier (0 → 1)
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
			Name:  "sram_" + level + "_b" + strconv.Itoa(i) + "_" + strconv.Itoa(words) + "x" + strconv.Itoa(width),
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
	b    netlist.Builder // every record is added through it, unindexed
	rng  *geom.RNG
	nns  int // net name sequence
	ins  int // instance name sequence
	clk  []netlist.PinRef
	tile *Tile

	// std holds lib's masters of stdCells, by position; calibrate
	// re-points every standard cell through it.
	std []*cell.Cell
	// macros are the compiled masters registered on lib, in creation
	// order; calibrate re-registers them on the scaled library.
	macros []*cell.Cell

	// pins records the net at every pin the generator connects.
	pins pinNets

	// The names seqName does not number — macros, the clock net, ports —
	// by kind, for checkNames.
	ownInsts, ownNets, ownPorts []string

	names   slab.Names // every seqName is cut from it
	nameBuf []byte     // seqName's scratch
}

// stdCells are the standard-cell masters the generator instantiates: the
// gates a cloud draws from (the first nGates), then the flip-flop.
var stdCells = []string{
	"NAND2_X1", "NOR2_X1", "NAND3_X1", "AOI22_X1", "OAI22_X1", "XOR2_X1", "MUX2_X1", "INV_X1", "BUF_X1",
	"DFF_X1",
}

// Positions in stdCells.
const (
	nGates = 9
	mux2   = 6
	dffX1  = 9
)

// pinNets records which net sits at each pin the generator connects — the
// net a driver drives, the net that drives a sink — so that fanout
// extends a driver's net instead of starting a parallel one, and
// sweepUndriven finds the inputs no net drives.
type pinNets interface {
	net(r netlist.PinRef) *netlist.Net // nil until a net is set at r
	set(r netlist.PinRef, n *netlist.Net)
}

// pinTable is the generator's pinNets, dense by record ID: each instance
// owns one slot per master pin from its offset on, each port the slot of
// its ID, and a slot holds the ID+1 of the net at that pin, 0 for none.
// It grows as the pins of later instances and ports are asked for.
type pinTable struct {
	d    *netlist.Design
	off  []int32 // instance ID → its first slot in inst
	inst []int32
	port []int32
}

// extend lengthens s to n slots. Slots past a slice's length are zero:
// the table only ever grows.
func extend(s []int32, n int) []int32 {
	if n <= len(s) {
		return s
	}
	return slices.Grow(s, n-len(s))[:n]
}

func (t *pinTable) slot(r netlist.PinRef) *int32 {
	if r.Port != nil {
		t.port = extend(t.port, r.Port.ID+1)
		return &t.port[r.Port.ID]
	}
	for id := len(t.off); id <= r.Inst.ID; id++ {
		t.off = append(t.off, int32(len(t.inst)))
		t.inst = extend(t.inst, len(t.inst)+len(t.d.Instances[id].Master.Pins))
	}
	return &t.inst[int(t.off[r.Inst.ID])+r.PinIndex()]
}

func (t *pinTable) net(r netlist.PinRef) *netlist.Net {
	if id := *t.slot(r); id > 0 {
		return t.d.Nets[id-1]
	}
	return nil
}

func (t *pinTable) set(r netlist.PinRef, n *netlist.Net) { *t.slot(r) = int32(n.ID + 1) }

// newGen starts a generator on an empty design over the standard-cell
// library at areaScale (1: unscaled).
func newGen(name string, cfg Config, seed uint64, areaScale float64) *gen {
	opt := cell.DefaultLibOptions()
	opt.AreaScale = areaScale
	lib := cell.NewStdLib28(opt)
	d := netlist.NewDesign(name, lib)
	b, err := d.Build()
	if err != nil {
		panic(err) // a new design is empty
	}
	g := &gen{cfg: cfg, lib: lib, d: d, b: b, rng: geom.NewRNG(seed), pins: &pinTable{d: d}}
	g.std = make([]*cell.Cell, len(stdCells))
	for i, name := range stdCells {
		g.std[i] = lib.MustCell(name)
	}
	g.tile = &Tile{Design: d, Config: cfg}
	return g
}

// addMacro registers a compiled macro master (so DEF/LEF round trips
// resolve it) and instantiates it.
func (g *gen) addMacro(name string, m *cell.Cell) *netlist.Instance {
	g.lib.Add(m)
	g.macros = append(g.macros, m)
	g.ownInsts = append(g.ownInsts, name)
	return g.b.AddInstance(name, m)
}

// addPort adds a top-level port.
func (g *gen) addPort(name string, dir cell.PinDir) *netlist.Port {
	g.ownPorts = append(g.ownPorts, name)
	return g.b.AddPort(name, dir)
}

// addClock adds the clock net from the clock port to every registered
// clock pin.
func (g *gen) addClock(port *netlist.Port) {
	g.ownNets = append(g.ownNets, "clk")
	g.b.AddNet("clk", netlist.PPin(port), g.clk...).Clock = true
}

// checkNames proves the design's names distinct, which a by-name index
// would have checked on every add. A name seqName cuts is distinct from
// every other of its kind by its number — one counter per kind, the
// number after the last '_' — and carries its kind's prefix, which no
// name of the generator's own may: those few are compared among
// themselves, here.
func (g *gen) checkNames() error {
	for _, k := range []struct {
		kind, numbered string
		own            []string
	}{{"instance", "u_", g.ownInsts}, {"net", "n_", g.ownNets}, {"port", "", g.ownPorts}} {
		slices.Sort(k.own)
		for i, name := range k.own {
			if k.numbered != "" && strings.HasPrefix(name, k.numbered) {
				return fmt.Errorf("piton: %s %q carries the prefix %q of numbered names", k.kind, name, k.numbered)
			}
			if i > 0 && k.own[i-1] == name {
				return fmt.Errorf("piton: duplicate %s %q", k.kind, name)
			}
		}
	}
	return nil
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
	scaled := make([]*cell.Cell, len(g.std))
	for i, m := range g.std {
		scaled[i] = lib.MustCell(m.Name)
	}
	for _, inst := range g.d.Instances {
		if !inst.IsMacro() {
			if err := inst.SetMaster(scaled[slices.Index(g.std, inst.Master)]); err != nil {
				return fmt.Errorf("piton: %w", err)
			}
		}
	}
	g.lib, g.d.Lib, g.std = lib, lib, scaled
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

// instance adds a standard cell of stdCells[k] under a numbered name.
func (g *gen) instance(hint string, k int) *netlist.Instance {
	return g.b.AddInstance(g.instName(hint), g.std[k])
}

// dff adds a flip-flop and registers its clock pin.
func (g *gen) dff(hint string) *netlist.Instance {
	ff := g.instance(hint+"_ff", dffX1)
	g.clk = append(g.clk, netlist.IPin(ff, "CK"))
	return ff
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
			inst := g.instance(hint, g.rng.Intn(nGates))
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
	n := g.pins.net(src)
	if n != nil {
		n.Sinks = append(n.Sinks, sink)
	} else {
		sinks := g.d.SinkSpan(fanoutRoom)[:1]
		sinks[0] = sink
		n = g.b.AddNet(g.netName("w"), src, sinks...)
		g.pins.set(src, n)
	}
	g.pins.set(sink, n)
}

// drive creates a net, named by hint, from src to a fanout known up front
// and records it at every pin. The sinks are copied into an exact-size
// span of the design's sink arena, so callers may reuse the slice they
// pass.
func (g *gen) drive(hint string, src netlist.PinRef, sinks ...netlist.PinRef) {
	span := g.d.SinkSpan(len(sinks))
	copy(span, sinks)
	n := g.b.AddNet(g.netName(hint), src, span...)
	g.pins.set(src, n)
	for _, s := range span {
		g.pins.set(s, n)
	}
}
