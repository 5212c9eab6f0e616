// Package netlist models the gate-level design handed to the physical
// flow: cell/macro instances, top-level ports and the nets connecting
// them. Instances carry their placement state (location, orientation,
// die, fixed flag) so the same structure flows through floorplanning,
// placement, optimization and analysis.
package netlist

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/slab"
)

// Die identifies which die of an F2F stack an object belongs to.
type Die uint8

// Dies of a macro-on-logic stack. 2D designs use only LogicDie.
const (
	LogicDie Die = iota
	MacroDie
)

func (d Die) String() string {
	if d == MacroDie {
		return "macro"
	}
	return "logic"
}

// Instance is one placed occurrence of a library master.
type Instance struct {
	Name   string
	Master *cell.Cell
	ID     int // index in Design.Instances

	Loc    geom.Point // lower-left corner, µm
	Orient geom.Orient
	Fixed  bool // pre-placed (macros, pads); placers must not move it
	Die    Die

	// Placed marks instances that have been assigned a legal location.
	Placed bool
}

// Bounds returns the occupied substrate rectangle.
func (i *Instance) Bounds() geom.Rect {
	return geom.RectWH(i.Loc, i.Master.Width, i.Master.Height)
}

// Center returns the footprint centre.
func (i *Instance) Center() geom.Point {
	return geom.Pt(i.Loc.X+i.Master.Width/2, i.Loc.Y+i.Master.Height/2)
}

// PinLoc returns the absolute location of the named pin under the
// instance's orientation.
func (i *Instance) PinLoc(pin string) geom.Point {
	p := i.Master.Pin(pin)
	if p == nil {
		panic(fmt.Sprintf("netlist: instance %q has no pin %q on %s", i.Name, pin, i.Master.Name))
	}
	local := i.Orient.Apply(p.Offset, i.Master.Width, i.Master.Height)
	return i.Loc.Add(local)
}

// IsMacro reports whether the master is a hard macro.
func (i *Instance) IsMacro() bool { return i.Master.Kind == cell.KindMacro }

// Port is a top-level I/O of the design.
type Port struct {
	Name  string
	Dir   cell.PinDir
	Loc   geom.Point // fixed edge location
	Layer string     // pin layer (the case study pins everything on M6)
	ID    int

	// HalfCycle marks inter-tile ports: the path through this port is
	// constrained to half a clock period so that abutted tile
	// instances close timing at the full period (paper §V-1).
	HalfCycle bool

	// ExtCap is the external load seen by output ports, fF.
	ExtCap float64
	// ExtDelay is the arrival time offset for input ports, ps.
	ExtDelay float64
}

// PinRef identifies one connection point of a net: either an instance
// pin (Inst != nil) or a top-level port.
type PinRef struct {
	Inst *Instance
	Pin  string // pin name on Inst's master; empty for ports
	Port *Port
}

// IsPort reports whether the reference is a top-level port.
func (r PinRef) IsPort() bool { return r.Port != nil }

// Loc returns the absolute location of the connection point.
func (r PinRef) Loc() geom.Point {
	if r.Port != nil {
		return r.Port.Loc
	}
	return r.Inst.PinLoc(r.Pin)
}

// Layer returns the metal layer of the connection point.
func (r PinRef) Layer() string {
	if r.Port != nil {
		return r.Port.Layer
	}
	return r.Inst.Master.Pin(r.Pin).Layer
}

// Cap returns the input capacitance contributed by this connection, fF.
func (r PinRef) Cap() float64 {
	if r.Port != nil {
		return r.Port.ExtCap
	}
	return r.Inst.Master.Pin(r.Pin).Cap
}

func (r PinRef) String() string {
	if r.Port != nil {
		return "port:" + r.Port.Name
	}
	return r.Inst.Name + "/" + r.Pin
}

// Net is a signal with one driver and any number of sinks.
type Net struct {
	Name   string
	ID     int
	Driver PinRef
	Sinks  []PinRef

	// Clock marks clock-distribution nets; they are routed by CTS, not
	// the signal router.
	Clock bool

	// Weight biases the placer's attraction for this net (criticality).
	Weight float64
}

// NumPins returns the number of connection points: the driver plus
// every sink.
func (n *Net) NumPins() int { return len(n.Sinks) + 1 }

// PinAt returns connection point i — the driver at 0, then the sinks in
// order. Together with NumPins it is the allocation-free pin walk the
// engines' inner loops use; route.NetRoute.PinNode is indexed the same
// way.
func (n *Net) PinAt(i int) PinRef {
	if i == 0 {
		return n.Driver
	}
	return n.Sinks[i-1]
}

// HPWL returns the half-perimeter wirelength of the net, µm: a running
// bounding box over the pin walk (math.Min/Max, like geom.BoundingBox).
func (n *Net) HPWL() float64 {
	if len(n.Sinks) == 0 {
		return 0
	}
	p := n.Driver.Loc()
	lx, ly, ux, uy := p.X, p.Y, p.X, p.Y
	for _, s := range n.Sinks {
		p = s.Loc()
		lx, ly = math.Min(lx, p.X), math.Min(ly, p.Y)
		ux, uy = math.Max(ux, p.X), math.Max(uy, p.Y)
	}
	return (ux - lx) + (uy - ly)
}

// Design is a flat gate-level netlist plus its placement state.
//
// The design owns its records: AddInstance, AddNet and AddPort carve
// them out of chunked slabs, and SinkSpan hands out sink lists from a
// per-design arena. A chunk never moves, so every pointer in Instances,
// Nets and Ports stays valid for the life of the design.
//
// The records are the design; the by-name indexes are derived from them,
// and map a name to a record ID. A design built by Add* keeps them from
// the start (the duplicate check of an Add* is a lookup). One composed in
// bulk (Compose) or copied (Clone) starts without and builds them on the
// first by-name use — a lookup or an Add* — so a flat array that is only
// ever walked by ID never hashes its names.
//
// A sealed design (Seal) is a template: read only, its indexes built
// once. An ID names the same record in every exact copy, so a copy of a
// template shares the template's indexes as its base and keeps maps of
// its own only for the names its edits add.
//
// Concurrent first lookups are safe; like the maps they replace, lookups
// concurrent with an edit are not.
type Design struct {
	Name      string
	Lib       *cell.Library
	Instances []*Instance
	Nets      []*Net
	Ports     []*Port

	byName  atomic.Pointer[nameIndex] // the design's own; nil while not built
	indexMu sync.Mutex                // serializes the build
	// base is the sealed template's index a copy of it shares, read only;
	// zero (nil maps) for every other design.
	base   nameIndex
	sealed bool

	insts slab.Slab[Instance]
	nets  slab.Slab[Net]
	ports slab.Slab[Port]
	sinks slab.Slab[PinRef]
}

// nameIndex is the by-name view of a design's records, by ID. A map left
// nil is made on its first insert.
type nameIndex struct {
	inst, net, port map[string]int32
}

// NewDesign returns an empty design over the given library.
func NewDesign(name string, lib *cell.Library) *Design {
	d := &Design{Name: name, Lib: lib}
	d.byName.Store(&nameIndex{})
	return d
}

// index returns the design's own by-name indexes, building them from the
// records when a bulk composition or a copy left them unbuilt (a copy of
// a template starts with empty ones, Clone). Whoever finds them missing
// takes the lock; the first in builds, the rest find them built.
func (d *Design) index() *nameIndex {
	if ix := d.byName.Load(); ix != nil {
		return ix
	}
	d.indexMu.Lock()
	defer d.indexMu.Unlock()
	if ix := d.byName.Load(); ix != nil {
		return ix
	}
	ix := &nameIndex{
		inst: indexNames(d.Instances, instName),
		net:  indexNames(d.Nets, netName),
		port: indexNames(d.Ports, portName),
	}
	// Compose admits only names it can prove distinct; a name lost here
	// means that proof is broken.
	if len(ix.inst) != len(d.Instances) || len(ix.net) != len(d.Nets) || len(ix.port) != len(d.Ports) {
		panic(fmt.Sprintf("netlist: design %q holds duplicate names", d.Name))
	}
	d.byName.Store(ix)
	return ix
}

// indexNames maps the name of every record to its ID.
func indexNames[T any](recs []*T, name func(*T) string) map[string]int32 {
	m := make(map[string]int32, len(recs))
	for id, r := range recs {
		m[name(r)] = int32(id)
	}
	return m
}

// find returns the ID of the record of recs the name maps to — in the
// design's own index, else in the base, whose entry counts only while the
// copy still holds a record of that name under that ID — or -1.
func find[T any](own, base map[string]int32, recs []*T, name string, nameOf func(*T) string) int {
	if id, ok := own[name]; ok {
		return int(id)
	}
	if id, ok := base[name]; ok && int(id) < len(recs) && nameOf(recs[id]) == name {
		return int(id)
	}
	return -1
}

func instName(i *Instance) string { return i.Name }
func netName(n *Net) string       { return n.Name }
func portName(p *Port) string     { return p.Name }

// put records a name's ID in an index map, making the map on first use.
func put(m *map[string]int32, name string, id int) {
	if *m == nil {
		*m = make(map[string]int32)
	}
	(*m)[name] = int32(id)
}

// Seal makes d a template: its by-name indexes are built now, and from
// then on d is read only — an Add*, Reserve or TruncateTo panics — so
// that its copies can share the indexes instead of building their own.
// Sealing a copy of a template builds it a whole index of its own.
func (d *Design) Seal() {
	if d.base.inst != nil {
		d.base = nameIndex{}
		d.byName.Store(nil)
	}
	d.index()
	d.sealed = true
}

// edit panics on a sealed design.
func (d *Design) edit() {
	if d.sealed {
		panic(fmt.Sprintf("netlist: edit of sealed design %q", d.Name))
	}
}

// OwnNames is the number of names of each kind the design's own by-name
// index holds: every record's once it is built, but for a copy of a
// sealed template only those its edits added.
func (d *Design) OwnNames() (instances, nets, ports int) {
	ix := d.byName.Load()
	if ix == nil {
		return 0, 0, 0
	}
	return len(ix.inst), len(ix.net), len(ix.port)
}

// AddInstance creates an instance of the named master.
func (d *Design) AddInstance(name string, master *cell.Cell) *Instance {
	return d.addInstance(d.index(), name, master)
}

// addInstance, addPort and addNet append a record. The name goes into ix
// — a duplicate panics — unless ix is nil: the indexes are not built, and
// the caller (a Composer) answers for the name being new.
func (d *Design) addInstance(ix *nameIndex, name string, master *cell.Cell) *Instance {
	d.edit()
	if master == nil {
		panic(fmt.Sprintf("netlist: nil master for instance %q", name))
	}
	if ix != nil && find(ix.inst, d.base.inst, d.Instances, name, instName) >= 0 {
		panic(fmt.Sprintf("netlist: duplicate instance %q", name))
	}
	inst := d.insts.Alloc()
	*inst = Instance{Name: name, Master: master, ID: len(d.Instances)}
	d.Instances = append(d.Instances, inst)
	if ix != nil {
		put(&ix.inst, name, inst.ID)
	}
	return inst
}

// AddPort creates a top-level port.
func (d *Design) AddPort(name string, dir cell.PinDir) *Port {
	return d.addPort(d.index(), name, dir)
}

func (d *Design) addPort(ix *nameIndex, name string, dir cell.PinDir) *Port {
	d.edit()
	if ix != nil && find(ix.port, d.base.port, d.Ports, name, portName) >= 0 {
		panic(fmt.Sprintf("netlist: duplicate port %q", name))
	}
	p := d.ports.Alloc()
	*p = Port{Name: name, Dir: dir, ID: len(d.Ports)}
	d.Ports = append(d.Ports, p)
	if ix != nil {
		put(&ix.port, name, p.ID)
	}
	return p
}

// AddNet creates a net driven by driver feeding sinks. The net keeps the
// sinks slice it is handed: a caller-owned one, or — for builders that
// know the fanout — an exact-size span from SinkSpan.
func (d *Design) AddNet(name string, driver PinRef, sinks ...PinRef) *Net {
	return d.addNet(d.index(), name, driver, sinks)
}

func (d *Design) addNet(ix *nameIndex, name string, driver PinRef, sinks []PinRef) *Net {
	d.edit()
	if ix != nil && find(ix.net, d.base.net, d.Nets, name, netName) >= 0 {
		panic(fmt.Sprintf("netlist: duplicate net %q", name))
	}
	n := d.nets.Alloc()
	*n = Net{Name: name, ID: len(d.Nets), Driver: driver, Sinks: sinks, Weight: 1}
	d.Nets = append(d.Nets, n)
	if ix != nil {
		put(&ix.net, name, n.ID)
	}
	return n
}

// Reserve sizes the design for a builder that knows what it will add:
// room for that many more instances, nets and SinkSpan pin references,
// each in one allocation instead of by geometric growth.
func (d *Design) Reserve(instances, nets, sinkPins int) {
	d.edit()
	d.insts.Reserve(instances)
	d.nets.Reserve(nets)
	d.sinks.ReserveSpans(sinkPins)
	d.Instances = slices.Grow(d.Instances, instances)
	d.Nets = slices.Grow(d.Nets, nets)
	// A map cannot be grown in place; an empty one is simply made at
	// size. Unbuilt indexes are sized when they are built.
	if ix := d.byName.Load(); ix != nil {
		if len(ix.inst) == 0 {
			ix.inst = make(map[string]int32, instances)
		}
		if len(ix.net) == 0 {
			ix.net = make(map[string]int32, nets)
		}
	}
}

// Clone returns a copy of d that shares no record with it: every
// instance, net and port is the copy's own, each kind carved from one
// exact-size slab chunk (Reserve), the sink lists from one exact-size
// run (Span), and every pin reference re-pointed by ID at the copy's
// records. What the records only point at is shared: the names, the
// masters and the library, none of which an edit of a design writes.
// A copy of a sealed template shares its by-name indexes too, as the
// copy's read-only base; a copy of any other design starts, like a
// composed one, without indexes and builds them on the first by-name use.
//
// Every pin reference of d must name a record of d, as Validate
// demands; Clone panics on one that does not.
func (d *Design) Clone() *Design {
	c := &Design{Name: d.Name, Lib: d.Lib}
	if d.sealed {
		c.base = *d.byName.Load()
		c.byName.Store(&nameIndex{})
	}
	sinks := 0
	for _, n := range d.Nets {
		sinks += len(n.Sinks)
	}
	c.insts.Reserve(len(d.Instances))
	c.nets.Reserve(len(d.Nets))
	c.ports.Reserve(len(d.Ports))
	c.sinks.ReserveSpans(sinks)
	c.Instances = make([]*Instance, len(d.Instances))
	for i, src := range d.Instances {
		inst := c.insts.Alloc()
		*inst = *src
		c.Instances[i] = inst
	}
	c.Ports = make([]*Port, len(d.Ports))
	for i, src := range d.Ports {
		p := c.ports.Alloc()
		*p = *src
		c.Ports[i] = p
	}
	c.Nets = make([]*Net, len(d.Nets))
	for i, src := range d.Nets {
		n := c.nets.Alloc()
		*n = *src
		n.Driver = repoint(c, d, src.Driver)
		n.Sinks = c.sinks.Span(len(src.Sinks))
		for j, s := range src.Sinks {
			n.Sinks[j] = repoint(c, d, s)
		}
		c.Nets[i] = n
	}
	return c
}

// repoint maps a pin reference of src onto the records of its copy c
// with the same IDs.
func repoint(c, src *Design, r PinRef) PinRef {
	if r.Inst != nil {
		if !src.owns(r.Inst) {
			panic(fmt.Sprintf("netlist: clone of %q: pin %s is not on an instance of the design", src.Name, r))
		}
		r.Inst = c.Instances[r.Inst.ID]
	}
	if r.Port != nil {
		if id := r.Port.ID; id < 0 || id >= len(src.Ports) || src.Ports[id] != r.Port {
			panic(fmt.Sprintf("netlist: clone of %q: port %q is not the design's", src.Name, r.Port.Name))
		}
		r.Port = c.Ports[r.Port.ID]
	}
	return r
}

// SinkSpan returns n zero pin references from the design's sink arena,
// to be filled and handed to AddNet. len and cap are both n, so growing
// the net later copies out of the arena instead of into a neighbour;
// the span is the caller's alone, so a net created over a prefix of it
// may grow into the rest. Spans are not reclaimed by TruncateTo; nets
// added on a rollback path (ddb.Txn.AddNet) carry caller-owned sinks.
func (d *Design) SinkSpan(n int) []PinRef { return d.sinks.Span(n) }

// Instance returns the named instance, or nil.
func (d *Design) Instance(name string) *Instance {
	return byID(d.Instances, find(d.index().inst, d.base.inst, d.Instances, name, instName))
}

// Net returns the named net, or nil.
func (d *Design) Net(name string) *Net {
	return byID(d.Nets, find(d.index().net, d.base.net, d.Nets, name, netName))
}

// Port returns the named port, or nil.
func (d *Design) Port(name string) *Port {
	return byID(d.Ports, find(d.index().port, d.base.port, d.Ports, name, portName))
}

// byID returns recs[id], or nil for id -1.
func byID[T any](recs []*T, id int) *T {
	if id < 0 {
		return nil
	}
	return recs[id]
}

// IPin makes a PinRef for inst/pin.
func IPin(inst *Instance, pin string) PinRef { return PinRef{Inst: inst, Pin: pin} }

// PPin makes a PinRef for a top-level port.
func PPin(p *Port) PinRef { return PinRef{Port: p} }

// Validate checks structural sanity: every net has a legal driver,
// every referenced instance belongs to the design, every referenced pin
// exists with the right direction, and no instance pin is driven by two
// nets.
func (d *Design) Validate() error {
	// No instance pin may be driven by two nets: one bit per master pin of
	// every instance — two allocations whatever the design's size, and
	// nothing is formatted unless the check fails. The first pin found
	// driven twice is reported once every net has passed the other checks.
	pinOff := make([]int32, len(d.Instances)+1)
	for i, inst := range d.Instances {
		pinOff[i+1] = pinOff[i] + int32(len(inst.Master.Pins))
	}
	driven := make([]uint64, (int(pinOff[len(d.Instances)])+63)/64)
	var twice PinRef
	var second *Net

	for _, n := range d.Nets {
		if n.Driver.Inst == nil && n.Driver.Port == nil {
			return fmt.Errorf("netlist: net %q has no driver", n.Name)
		}
		if n.Driver.Inst != nil {
			if !d.owns(n.Driver.Inst) {
				return fmt.Errorf("netlist: net %q driver %s is not an instance of the design", n.Name, n.Driver)
			}
			p := n.Driver.Inst.Master.Pin(n.Driver.Pin)
			if p == nil {
				return fmt.Errorf("netlist: net %q driver pin %s missing", n.Name, n.Driver)
			}
			if p.Dir != cell.DirOut {
				return fmt.Errorf("netlist: net %q driven by non-output %s", n.Name, n.Driver)
			}
		} else if n.Driver.Port.Dir != cell.DirIn {
			return fmt.Errorf("netlist: net %q driven by non-input port %s", n.Name, n.Driver.Port.Name)
		}
		for _, s := range n.Sinks {
			if s.Inst != nil {
				if !d.owns(s.Inst) {
					return fmt.Errorf("netlist: net %q sink %s is not an instance of the design", n.Name, s)
				}
				k := s.Inst.Master.PinIndex(s.Pin)
				if k < 0 {
					return fmt.Errorf("netlist: net %q sink pin %s missing", n.Name, s)
				}
				if s.Inst.Master.Pins[k].Dir != cell.DirIn {
					return fmt.Errorf("netlist: net %q sinks at non-input %s", n.Name, s)
				}
				bit := uint(pinOff[s.Inst.ID]) + uint(k)
				if driven[bit/64]&(1<<(bit%64)) != 0 && second == nil {
					twice, second = s, n
				}
				driven[bit/64] |= 1 << (bit % 64)
			} else if s.Port == nil {
				return fmt.Errorf("netlist: net %q has empty sink ref", n.Name)
			} else if s.Port.Dir != cell.DirOut {
				return fmt.Errorf("netlist: net %q sinks at non-output port %s", n.Name, s.Port.Name)
			}
		}
	}
	if second != nil {
		return fmt.Errorf("netlist: pin %s driven by both %q and %q", twice, d.firstNetAt(twice).Name, second.Name)
	}
	return nil
}

// firstNetAt returns the first net, in ID order, that sinks at the pin.
func (d *Design) firstNetAt(pin PinRef) *Net {
	for _, n := range d.Nets {
		if slices.Contains(n.Sinks, pin) {
			return n
		}
	}
	return nil
}

// owns reports whether inst is a record of this design.
func (d *Design) owns(inst *Instance) bool {
	return inst.ID >= 0 && inst.ID < len(d.Instances) && d.Instances[inst.ID] == inst
}

// Stats summarizes the design for reports and generators.
type Stats struct {
	NumInstances int
	NumStdCells  int
	NumMacros    int
	NumSeq       int
	NumNets      int
	NumPorts     int

	StdCellArea float64 // µm²
	MacroArea   float64 // µm²
	TotalHPWL   float64 // µm
}

// ComputeStats walks the design once.
func (d *Design) ComputeStats() Stats {
	var s Stats
	s.NumInstances = len(d.Instances)
	s.NumNets = len(d.Nets)
	s.NumPorts = len(d.Ports)
	for _, i := range d.Instances {
		switch {
		case i.IsMacro():
			s.NumMacros++
			s.MacroArea += i.Master.Area()
		case i.Master.Kind == cell.KindFiller:
			// fillers are not logic
		default:
			s.NumStdCells++
			s.StdCellArea += i.Master.Area()
		}
		if i.Master.IsSequential() {
			s.NumSeq++
		}
	}
	for _, n := range d.Nets {
		s.TotalHPWL += n.HPWL()
	}
	return s
}

// TotalHPWL sums net half-perimeter wirelengths, µm.
func (d *Design) TotalHPWL() float64 {
	t := 0.0
	for _, n := range d.Nets {
		t += n.HPWL()
	}
	return t
}

// NetsOfInstance builds the instance→nets adjacency used by placers
// and optimizers. The result is indexed by Instance.ID; each row lists
// the instance's nets in net order, once per pin. The rows are
// exact-size views of one flat array (count, then fill), so growing one
// copies it out rather than overwriting the next.
func (d *Design) NetsOfInstance() [][]*Net {
	deg := make([]int32, len(d.Instances))
	total := 0
	for _, n := range d.Nets {
		for i, np := 0, n.NumPins(); i < np; i++ {
			if inst := n.PinAt(i).Inst; inst != nil {
				deg[inst.ID]++
				total++
			}
		}
	}
	flat := make([]*Net, total)
	adj := make([][]*Net, len(d.Instances))
	off := 0
	for id, k := range deg {
		adj[id] = flat[off : off : off+int(k)]
		off += int(k)
	}
	for _, n := range d.Nets {
		for i, np := 0, n.NumPins(); i < np; i++ {
			if inst := n.PinAt(i).Inst; inst != nil {
				adj[inst.ID] = append(adj[inst.ID], n)
			}
		}
	}
	return adj
}

// Macros returns all macro instances in deterministic order, in one
// exact-size allocation.
func (d *Design) Macros() []*Instance {
	n := 0
	for _, i := range d.Instances {
		if i.IsMacro() {
			n++
		}
	}
	ms := make([]*Instance, 0, n)
	for _, i := range d.Instances {
		if i.IsMacro() {
			ms = append(ms, i)
		}
	}
	sort.Slice(ms, func(a, b int) bool { return ms[a].Name < ms[b].Name })
	return ms
}

// StdCells returns all movable standard-cell instances (excluding
// macros and fillers), in one allocation sized to the design.
func (d *Design) StdCells() []*Instance {
	cs := make([]*Instance, 0, len(d.Instances))
	for _, i := range d.Instances {
		if !i.IsMacro() && i.Master.Kind != cell.KindFiller {
			cs = append(cs, i)
		}
	}
	return cs
}

// Counts returns the current instance and net counts, used together
// with TruncateTo to checkpoint/rollback incremental edits.
func (d *Design) Counts() (instances, nets int) {
	return len(d.Instances), len(d.Nets)
}

// TruncateTo drops instances and nets appended after a checkpoint
// (they must be the trailing entries). The design's own name indices
// are kept consistent (a template's base, shared, is not written: its
// entries for dropped IDs stop counting) and the slab cursors rewind
// over the dropped records, zeroing them, so the cost is that of the
// edit and the next AddInstance / AddNet reuses them. It panics if asked
// to grow.
func (d *Design) TruncateTo(instances, nets int) {
	d.edit()
	if instances > len(d.Instances) || nets > len(d.Nets) {
		panic("netlist: TruncateTo cannot grow a design")
	}
	if ix := d.byName.Load(); ix != nil {
		for _, inst := range d.Instances[instances:] {
			delete(ix.inst, inst.Name)
		}
		for _, n := range d.Nets[nets:] {
			delete(ix.net, n.Name)
		}
	}
	d.insts.Release(len(d.Instances) - instances)
	d.Instances = d.Instances[:instances]
	d.nets.Release(len(d.Nets) - nets)
	d.Nets = d.Nets[:nets]
}

// Resize swaps an instance's master within its sizing family, keeping
// the connection pin names valid (families share pin names).
func (d *Design) Resize(inst *Instance, to *cell.Cell) error {
	if to == nil {
		return fmt.Errorf("netlist: resize of %q to nil master", inst.Name)
	}
	if inst.Master.Family == "" || to.Family != inst.Master.Family {
		return fmt.Errorf("netlist: resize of %q across families %q→%q",
			inst.Name, inst.Master.Family, to.Family)
	}
	inst.Master = to
	return nil
}
