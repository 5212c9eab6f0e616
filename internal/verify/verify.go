// Package verify is the sign-off checker: after a flow finishes, it
// re-derives from first principles that the produced implementation is
// physically consistent — placement legality, routing connectivity of
// every net, routes through macro obstructions, routing usage against
// track and bump capacity, F2F bump spacing against
// the bonding pitch, and tile-port alignment. Flows and tests run it
// as an independent witness (it shares no state with the tools it
// checks).
package verify

import (
	"fmt"
	"sort"

	"macro3d/internal/cell"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// Violation is one finding. Identical findings reported repeatedly
// are collapsed into one entry with Count > 1.
type Violation struct {
	Kind  string // "overlap", "off-die", "zero-area", "open-net", "obstruction", "capacity", "bump-pitch", "port-align"
	Msg   string
	Count int // occurrences of this exact finding (≥ 1)
}

func (v Violation) String() string {
	s := v.Kind + ": " + v.Msg
	if v.Count > 1 {
		s += fmt.Sprintf(" (×%d)", v.Count)
	}
	return s
}

// maxFindings bounds the number of *distinct* findings a report keeps
// so a systematic failure does not explode; Total keeps counting.
const maxFindings = 200

// Report collects findings per check.
type Report struct {
	Violations []Violation
	// Total counts every reported violation, including duplicates of
	// kept findings and distinct findings dropped past the cap.
	Total int
	// Truncated is set when distinct findings beyond maxFindings were
	// dropped — Violations is then a sample, Total the real count.
	Truncated bool

	Checked struct {
		Instances int
		Nets      int
		Bumps     int
		// PinAccess counts the obstructed gcell-layers routes enter in
		// their own pins' columns (Obstructions), which are no violation.
		PinAccess int
		// Overflow counts the gcell-layers and bump bins whose recounted
		// usage is past capacity (Capacity).
		Overflow int
	}

	seen map[string]int // finding key → index in Violations
}

// Clean reports whether sign-off passed.
func (r *Report) Clean() bool { return r.Total == 0 }

func (r *Report) add(kind, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	r.Total++
	if r.seen == nil {
		r.seen = make(map[string]int)
	}
	key := kind + "\x00" + msg
	if i, dup := r.seen[key]; dup {
		r.Violations[i].Count++
		return
	}
	if len(r.Violations) >= maxFindings {
		r.Truncated = true
		return
	}
	r.seen[key] = len(r.Violations)
	r.Violations = append(r.Violations, Violation{Kind: kind, Msg: msg, Count: 1})
}

// Error wraps a dirty Report as an error, so flows can surface failed
// sign-off through their typed stage-error chain.
type Error struct {
	Report *Report
}

func (e *Error) Error() string {
	r := e.Report
	s := fmt.Sprintf("verify: %d violations", r.Total)
	if r.Truncated {
		s += fmt.Sprintf(" (%d distinct kept)", len(r.Violations))
	}
	for i, v := range r.Violations {
		if i == 3 {
			s += "; …"
			break
		}
		s += "; " + v.String()
	}
	return s
}

// Placement checks cell legality per die: no overlaps among placed
// standard cells sharing a die, everything inside the die outline, no
// standard cell over a same-die macro.
func Placement(rep *Report, d *netlist.Design, die geom.Rect) {
	type obj struct {
		r    geom.Rect
		name string
		die  netlist.Die
	}
	var cells []obj
	var macros []obj
	for _, inst := range d.Instances {
		if !inst.Placed {
			continue
		}
		rep.Checked.Instances++
		b := inst.Bounds()
		if !die.ContainsRect(b.Expand(-1e-7)) {
			rep.add("off-die", "%s at %v outside %v", inst.Name, b, die)
		}
		if b.W() <= 1e-9 || b.H() <= 1e-9 {
			rep.add("zero-area", "%s has degenerate footprint %v", inst.Name, b)
			continue
		}
		if inst.IsMacro() {
			macros = append(macros, obj{b, inst.Name, inst.Die})
			continue
		}
		if inst.Master.Kind == cell.KindFiller {
			continue
		}
		cells = append(cells, obj{b, inst.Name, inst.Die})
	}
	// Sweep for overlaps within each die.
	sort.Slice(cells, func(i, j int) bool { return cells[i].r.Lx < cells[j].r.Lx })
	for i := 0; i < len(cells); i++ {
		for j := i + 1; j < len(cells) && cells[j].r.Lx < cells[i].r.Ux-1e-9; j++ {
			if cells[i].die == cells[j].die &&
				cells[i].r.Expand(-1e-7).Intersects(cells[j].r) {
				rep.add("overlap", "%s overlaps %s", cells[i].name, cells[j].name)
			}
		}
	}
	// Cells over same-die macros.
	for _, c := range cells {
		for _, m := range macros {
			if c.die == m.die && m.r.Expand(-1e-7).Intersects(c.r) {
				rep.add("overlap", "%s sits on macro %s", c.name, m.name)
			}
		}
	}
}

// Connectivity checks that every non-clock net's route connects all of
// its pins (graph reachability over the route segments). A net's
// segment nodes are joined in a union-find over one node table that
// every net reuses; a pin is reachable when it is the driver's node or
// shares its set.
func Connectivity(rep *Report, d *netlist.Design, res *route.Result) {
	var t nodeTable
	for _, n := range d.Nets {
		if n.Clock || len(n.Sinks) == 0 {
			continue
		}
		rep.Checked.Nets++
		if n.ID >= len(res.Routes) || res.Routes[n.ID] == nil {
			rep.add("open-net", "%s has no route", n.Name)
			continue
		}
		r := res.Routes[n.ID]
		if len(r.PinNode) == 0 {
			rep.add("open-net", "%s lost its pin nodes", n.Name)
			continue
		}
		nodes := 0
		for _, s := range r.Segments {
			nodes += steps(s) + 1
		}
		t.reset(nodes)
		for _, s := range r.Segments {
			prev := t.id(s.A)
			s.Walk(func(n route.Node) {
				next := t.id(n)
				t.union(prev, next)
				prev = next
			})
		}
		p0 := r.PinNode[0]
		root := t.lookup(p0)
		if root >= 0 {
			root = t.root(root)
		}
		for i, pn := range r.PinNode {
			if pn == p0 {
				continue
			}
			if id := t.lookup(pn); root < 0 || id < 0 || t.root(id) != root {
				rep.add("open-net", "%s pin %d unreachable from driver", n.Name, i)
			}
		}
	}
}

// nodeTable numbers the nodes of one net's route densely and keeps a
// union-find over them: an open-addressed hash table whose slots are
// valid only under the current generation, so moving to the next net
// empties it in O(1), and it reallocates only for a net with more
// nodes than any before.
type nodeTable struct {
	slots  []nodeSlot
	gen    uint32
	parent []int32 // union-find parent of each node id
}

type nodeSlot struct {
	key uint64
	gen uint32
	id  int32
}

// reset empties the table and makes room for n nodes at a load of at
// most one half.
func (t *nodeTable) reset(n int) {
	size := max(len(t.slots), 64)
	for size < 2*n {
		size *= 2
	}
	if size > len(t.slots) {
		t.slots, t.gen = make([]nodeSlot, size), 0
	}
	t.gen++
	if t.gen == 0 { // generation wrap: stale stamps could collide
		clear(t.slots)
		t.gen = 1
	}
	t.parent = t.parent[:0]
}

// slot returns the slot holding key k, or the empty slot where it
// belongs.
func (t *nodeTable) slot(k uint64) *nodeSlot {
	mask := uint64(len(t.slots) - 1)
	for i := (k * 0x9E3779B97F4A7C15 >> 32) & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.gen != t.gen || s.key == k {
			return s
		}
	}
}

func nodeKey(n route.Node) uint64 {
	return uint64(uint16(n.X)) | uint64(uint16(n.Y))<<16 | uint64(uint8(n.L))<<32
}

// id returns n's node id, numbering it on first sight.
func (t *nodeTable) id(n route.Node) int32 {
	k := nodeKey(n)
	s := t.slot(k)
	if s.gen != t.gen {
		*s = nodeSlot{key: k, gen: t.gen, id: int32(len(t.parent))}
		t.parent = append(t.parent, s.id)
	}
	return s.id
}

// lookup returns n's node id, or -1 when no segment touches n.
func (t *nodeTable) lookup(n route.Node) int32 {
	if s := t.slot(nodeKey(n)); s.gen == t.gen {
		return s.id
	}
	return -1
}

// root returns the representative of x's set, halving the path.
func (t *nodeTable) root(x int32) int32 {
	for t.parent[x] != x {
		t.parent[x] = t.parent[t.parent[x]]
		x = t.parent[x]
	}
	return x
}

func (t *nodeTable) union(a, b int32) {
	if ra, rb := t.root(a), t.root(b); ra != rb {
		t.parent[max(ra, rb)] = min(ra, rb)
	}
}

func abs(v int16) int16 {
	if v < 0 {
		return -v
	}
	return v
}

// steps is the number of steps from A to B along segment s: a wire's
// gcells past A, a via stack's cuts.
func steps(s route.Seg) int {
	return int(max(abs(s.B.X-s.A.X), abs(s.B.Y-s.A.Y), abs(int16(s.B.L)-int16(s.A.L))))
}

// Blockages is the routing geometry the obstruction check reads: the
// grid and stack a result's nodes index (a route.DB's Grid and Beol; its
// capacities are not read) and the floorplan's routing blockages.
type Blockages struct {
	Grid  geom.Grid
	Beol  *tech.BEOL
	Rects []floorplan.RouteBlockage
}

// Obstructions checks that no route enters an obstructed gcell-layer:
// one that a routing blockage rect fills whole on that layer. Every
// gcell of every wire and both landings of every via count; a net's
// gcell-layer is counted once. One in the column of one of the net's own
// pins is pin access, counted in Checked.PinAccess instead.
func Obstructions(rep *Report, d *netlist.Design, res *route.Result, blk Blockages) {
	g, nl := blk.Grid, blk.Beol.NumLayers()
	layer := make(map[string]int, nl)
	for i, l := range blk.Beol.Layers {
		layer[l.Name] = i
	}
	blocked := make([]bool, nl*g.Bins())
	for _, rb := range blk.Rects {
		l, ok := layer[rb.Layer]
		x0, y0, x1, y1, in := g.CoverRange(rb.Rect)
		if !ok || !in {
			continue
		}
		cover := rb.Rect.Expand(1e-6)
		for iy := y0; iy <= y1; iy++ {
			for ix := x0; ix <= x1; ix++ {
				if cover.ContainsRect(g.BinRect(ix, iy)) {
					blocked[l*g.Bins()+g.Index(ix, iy)] = true
				}
			}
		}
	}
	seen := make([]int32, len(blocked)) // net ID + 1 of the last net counted
	for id, r := range res.Routes {
		if r == nil || id >= len(d.Nets) {
			continue
		}
		o := res.Origin(id)
		visit := func(n route.Node) {
			i := int(n.L)*g.Bins() + g.Index(int(n.X+o.DX), int(n.Y+o.DY))
			if !blocked[i] || seen[i] == int32(id+1) {
				return
			}
			seen[i] = int32(id + 1)
			for _, p := range r.PinNode {
				if p.X == n.X && p.Y == n.Y {
					rep.Checked.PinAccess++
					return
				}
			}
			rep.add("obstruction", "%s enters the %s obstruction at gcell (%d, %d)",
				d.Nets[id].Name, blk.Beol.Layers[n.L].Name, n.X+o.DX, n.Y+o.DY)
		}
		for _, s := range r.Segments {
			s.Walk(visit)
		}
	}
}

// Capacity recounts routing usage from the result's segments — every
// gcell of every wire, every F2F crossing on its bump bin — against
// capacity derived from the technology and the blockages alone: a layer's
// tracks per gcell from its pitch and direction (route.CapacityFill),
// less the fraction each blockage rect fills, and a gcell's bump sites
// from the F2F via pitch (route.BumpCapacity). A gcell-layer a blockage
// leaves no track holds one for each pin of the routes in its column,
// the access the router grants. Checked.Overflow is the recount. It must
// be the result's own Overflow, the route overflow the tables print:
// usage past capacity the result does not report is a violation, as is
// a report the recount does not find.
func Capacity(rep *Report, res *route.Result, blk Blockages) {
	g, bins := blk.Grid, blk.Grid.Bins()
	capacity := make([]int32, blk.Beol.NumLayers()*bins)
	for l, ly := range blk.Beol.Layers {
		span := g.DY
		if ly.Dir == tech.DirVertical {
			span = g.DX
		}
		tracks := max(int32(span/ly.Pitch*route.CapacityFill), 1)
		for b := range bins {
			capacity[l*bins+b] = tracks
		}
	}
	for _, rb := range blk.Rects {
		l := blk.Beol.LayerIndex(rb.Layer)
		x0, y0, x1, y1, in := g.CoverRange(rb.Rect)
		if l < 0 || !in {
			continue
		}
		for iy := y0; iy <= y1; iy++ {
			for ix := x0; ix <= x1; ix++ {
				bin := g.BinRect(ix, iy)
				i := l*bins + g.Index(ix, iy)
				capacity[i] = int32(float64(capacity[i]) * (1 - rb.Rect.Intersect(bin).Area()/bin.Area()))
			}
		}
	}
	var bumps, bumpUse []int32
	f2f := blk.Beol.F2FViaIndex()
	if f2f >= 0 {
		p := blk.Beol.Vias[f2f].Pitch
		bumps, bumpUse = make([]int32, bins), make([]int32, bins)
		for b := range bumps {
			ix, iy := g.Coords(b)
			bumps[b] = route.BumpCapacity(g, p, ix, iy)
		}
	}
	usage := make([]int32, len(capacity))
	pins := make([]int32, bins) // pins per gcell column
	for id, r := range res.Routes {
		if r == nil {
			continue
		}
		o := res.Origin(id)
		at := func(n route.Node) int { return g.Index(int(n.X+o.DX), int(n.Y+o.DY)) }
		for _, p := range r.PinNode {
			pins[at(p)]++
		}
		for _, s := range r.Segments {
			if s.IsVia() {
				if s.Spans(f2f) {
					bumpUse[at(s.A)]++
				}
				continue
			}
			s.Walk(func(n route.Node) { usage[int(n.L)*bins+at(n)]++ })
		}
	}
	var over []string
	for i, u := range usage {
		c := capacity[i]
		if c == 0 {
			c = pins[i%bins]
		}
		if u > c {
			ix, iy := g.Coords(i % bins)
			over = append(over, fmt.Sprintf("%s gcell (%d, %d) holds %d wires, capacity %d",
				blk.Beol.Layers[i/bins].Name, ix, iy, u, c))
		}
	}
	for b, u := range bumpUse {
		if u > bumps[b] {
			ix, iy := g.Coords(b)
			over = append(over, fmt.Sprintf("bump bin (%d, %d) holds %d F2F crossings, capacity %d", ix, iy, u, bumps[b]))
		}
	}
	rep.Checked.Overflow = len(over)
	if len(over) == res.Overflow {
		return
	}
	rep.add("capacity", "%d gcell-layers over capacity, the route result reports %d", len(over), res.Overflow)
	for _, msg := range over {
		rep.add("capacity", "%s", msg)
	}
}

// BumpRules checks F2F bump spacing against the bonding pitch: no two
// bumps closer than the minimum pitch (bumps sit on the bonding grid).
func BumpRules(rep *Report, bumps []geom.Point, f2f tech.F2FSpec) {
	rep.Checked.Bumps = len(bumps)
	// Grid hash at the pitch for neighbour lookup.
	cellOf := func(p geom.Point) [2]int {
		return [2]int{int(p.X / f2f.Pitch), int(p.Y / f2f.Pitch)}
	}
	byCell := map[[2]int][]geom.Point{}
	for _, b := range bumps {
		byCell[cellOf(b)] = append(byCell[cellOf(b)], b)
	}
	minD := f2f.Pitch - 1e-6
	for _, b := range bumps {
		c := cellOf(b)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, o := range byCell[[2]int{c[0] + dx, c[1] + dy}] {
					if o == b {
						continue
					}
					if b.Dist(o) < minD {
						rep.add("bump-pitch", "bumps %v and %v at %.3f µm < pitch %.3f",
							b, o, b.Dist(o), f2f.Pitch)
					}
				}
			}
		}
	}
}

// PortAlignment checks the §V-1 tiling invariant: for each port whose
// name encodes an edge+direction (noc…_N_out_b etc.), its abutment
// partner exists and shares the cross-coordinate.
func PortAlignment(rep *Report, d *netlist.Design, die geom.Rect, pairs map[string]string) {
	for name, partner := range pairs {
		a := d.Port(name)
		b := d.Port(partner)
		if a == nil || b == nil {
			rep.add("port-align", "pair %s/%s missing", name, partner)
			continue
		}
		onNS := a.Loc.Y == die.Ly || a.Loc.Y == die.Uy
		if onNS {
			if a.Loc.X != b.Loc.X {
				rep.add("port-align", "%s x=%.3f vs %s x=%.3f", name, a.Loc.X, partner, b.Loc.X)
			}
		} else if a.Loc.Y != b.Loc.Y {
			rep.add("port-align", "%s y=%.3f vs %s y=%.3f", name, a.Loc.Y, partner, b.Loc.Y)
		}
	}
}

// Full runs every applicable check on a finished implementation.
// bumps and pairs may be nil for 2D designs / untiled SoCs; the
// obstruction and capacity checks run against each blk given.
func Full(d *netlist.Design, die geom.Rect, res *route.Result,
	bumps []geom.Point, f2f tech.F2FSpec, pairs map[string]string, blk ...Blockages) *Report {

	rep := &Report{}
	Placement(rep, d, die)
	if res != nil {
		Connectivity(rep, d, res)
		for _, b := range blk {
			Obstructions(rep, d, res, b)
			Capacity(rep, res, b)
		}
	}
	if len(bumps) > 0 {
		BumpRules(rep, bumps, f2f)
	}
	if len(pairs) > 0 {
		PortAlignment(rep, d, die, pairs)
	}
	return rep
}
