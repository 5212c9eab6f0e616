package sta

import (
	"cmp"
	"fmt"
	"slices"

	"macro3d/internal/cell"
	"macro3d/internal/netlist"
)

// The engine's topology tables, the one place that builds each of them
// from scratch (rebuildTopo) and the one that patches them around an
// edit (patchTopo).
//
// Every table is keyed by something an incremental edit leaves alone —
// a net id, an instance id — so that an edit changes the rows of the
// nets it rewired and of the instances on them, and appends or truncates
// rows at the tail, and nothing else moves:
//
//   - fan, by net: the combinational sink instances, in sink order;
//   - ep, by net: the endpoint rows (capturing data pins and output
//     ports), in sink order;
//   - in, by instance: the arcs that arrive at it, in net-then-sink
//     order — what a combinational instance evaluates, and for a
//     sequential one the way from the instance to its endpoint rows;
//   - netDrv, drvPrev by net and lastNet by node: the nets a node
//     drives, as a chain from the highest id down;
//   - level by instance: for a combinational instance, an integer above
//     the level of every combinational instance that drives it.
//
// Reading the fan and ep tables net by net, and a node's chain, visits
// sinks in net-then-sink order, the order tie-breaks among equal
// arrivals and the TNS sum depend on.
//
// Levels are what orders the propagation: an Update drains its dirty
// nodes by level, and the full passes walk the instances sorted by level
// (topoOrder). Every arrival is a max or a min over the node's own arc
// row, so any order in which each arc's driver comes before its sink
// gives the same floats; the levels need not be the least ones, and a
// patch only raises them.

// span locates one row in a rows arena.
type span struct{ off, n int32 }

// rows is a table of variable-length rows of T under dense keys, in one
// arena. A build lays the rows out tight and in key order (count,
// layout, push) with a little slack behind them; set rewrites one row
// where it lies when the new one is no longer, and at the arena's end
// when it is, leaving the old cells behind until the next build.
type rows[T any] struct {
	at   []span
	data []T
	live int // Σ len(row)
}

func (t *rows[T]) row(k int) []T {
	s := t.at[k]
	return t.data[s.off : s.off+s.n]
}

// keys resizes the table to n keys, with room for c, and empties every
// row at or above from.
func (t *rows[T]) keys(n, c, from int) {
	for k := from; k < len(t.at); k++ {
		t.live -= int(t.at[k].n)
	}
	t.at = resize(t.at, n, c)
	if from < n {
		clear(t.at[from:])
	}
}

// layout turns the row lengths a build counted into at[k].n into
// offsets, tight and in key order, and sizes the arena for them plus
// slack for the rows patches move — a share of a small table, but no
// more than an optimizer run's worth of a large one: edits follow the
// budget, not the design. The rows are then filled by push.
func (t *rows[T]) layout() {
	total := int32(0)
	for k := range t.at {
		t.at[k].off, total = total, total+t.at[k].n
		t.at[k].n = 0
	}
	t.live = int(total)
	t.data = slices.Grow(t.data[:0], int(total)+min(int(total)/16, 4096)+64)[:total]
}

func (t *rows[T]) push(k int, v T) {
	s := &t.at[k]
	t.data[s.off+s.n] = v
	s.n++
}

// bloated reports that the rows a patch moved have left more cells
// behind than are live: time for a build to lay the table out again.
func (t *rows[T]) bloated() bool { return len(t.data) > 2*t.live+64 }

func (t *rows[T]) set(k int, row []T) {
	s := &t.at[k]
	t.live += len(row) - int(s.n)
	if len(row) > int(s.n) {
		s.off = int32(len(t.data))
		t.data = append(t.data, row...)
	} else {
		copy(t.data[s.off:], row)
	}
	s.n = int32(len(row))
}

// inEdge is one arc into an instance. Elmore and pin references are
// looked up live at evaluation time (net ID + sink index), so a reroute
// or re-extraction never leaves a stale cached value.
type inEdge struct {
	drv int32 // driver node
	net int32
	si  int32
}

// instArc is an inEdge on its way into the row of inst.
type instArc struct {
	inst int32
	inEdge
}

// What a sink is to the timing graph.
const (
	sinkOther   = iota // clock pins, fillers, input ports: not an arc
	sinkComb           // a combinational instance: an arc the propagation follows
	sinkCapture        // a sequential data pin: an endpoint
	sinkPort           // an output port: an endpoint
)

func (e *Engine) sinkKind(s netlist.PinRef) int {
	switch {
	case s.Inst != nil && e.isComb[s.Inst.ID]:
		return sinkComb
	case s.Inst != nil && e.isSeq[s.Inst.ID] && !s.MasterPin().Clock:
		return sinkCapture
	case s.Port != nil && s.Port.Dir == cell.DirOut:
		return sinkPort
	}
	return sinkOther
}

// classify caches what instance id's master makes of it and reports
// whether that changed.
func (e *Engine) classify(id int) (changed bool) {
	m := e.d.Instances[id].Master
	seq := m.IsSequential()
	comb := !seq && m.Kind != cell.KindFiller && m.Output() != nil
	changed = comb != e.isComb[id] || seq != e.isSeq[id]
	e.isComb[id], e.isSeq[id] = comb, seq
	if m.Abstract != nil {
		e.hasAbstract = true
	}
	return changed
}

// driverOf is the node that launches net n, -1 for a clock net or one
// without a driver: those are no part of the timing graph.
func (e *Engine) driverOf(n *netlist.Net) int32 {
	if n.Clock {
		return -1
	}
	drv, ok := e.refNode(n.Driver)
	if !ok {
		return -1
	}
	return int32(drv)
}

// link appends net id n, higher than any net drv drives so far, to the
// node's chain.
func (e *Engine) link(n, drv int32) {
	e.netDrv[n], e.drvPrev[n] = drv, -1
	if drv >= 0 {
		e.drvPrev[n], e.lastNet[drv] = e.lastNet[drv], n
	}
}

// endpointRow is the endpoint-table row of sink si of net n, which
// sinkKind classed as a capture pin or an output port.
func (e *Engine) endpointRow(n *netlist.Net, si int, drv int32, kind int) epRow {
	s := n.Sinks[si]
	row := epRow{si: int32(si), drv: drv, inst: -1}
	if kind == sinkPort {
		row.port, row.portHalf = true, s.Port.HalfCycle
		return row
	}
	row.inst = int32(s.Inst.ID)
	row.setup, row.capLat = e.setupOf(s), e.clockLatency(s.Inst)
	return row
}

// sizeNodes sizes the per-node and per-instance arrays that are not
// tables to the current design, with room for its ID capacity, and
// re-initializes their slots at or above instance instFrom (node
// resetFrom).
func (e *Engine) sizeNodes(instFrom int) {
	nInst := len(e.d.Instances)
	nodeCap, instCap, _ := e.idCap()
	e.nNodes = e.nPorts + nInst
	e.isComb, e.isSeq = resize(e.isComb, nInst, instCap), resize(e.isSeq, nInst, instCap)
	e.level = resize(e.level, nInst, instCap)
	e.lastNet = resize(e.lastNet, e.nNodes, nodeCap)
	if instFrom < nInst {
		clear(e.isComb[instFrom:])
		clear(e.isSeq[instFrom:])
		clear(e.level[instFrom:])
	}
	for node := e.nPorts + instFrom; node < e.nNodes; node++ {
		e.lastNet[node] = -1
	}
	for id := instFrom; id < nInst; id++ {
		e.classify(id)
	}
	// A launchGen slot that comes back from beyond the old length holds
	// the stamp of a report long past, never the next one's.
	e.launchGen = resize(e.launchGen, e.nNodes, nodeCap)
	e.launchBest = resize(e.launchBest, e.nNodes, nodeCap)
	e.resizePass(&e.full, nodeCap)
	e.resizePass(&e.half, nodeCap)
	e.dirtyFull = resize(e.dirtyFull, e.nNodes, nodeCap)
	e.dirtyHalf = resize(e.dirtyHalf, e.nNodes, nodeCap)
	e.resetFrom, e.netFrom = int(^uint(0)>>1), int(^uint(0)>>1)
}

// rebuildTopo derives every topology table from the current design, in
// two sweeps over the nets: the first counts row lengths and chains
// each net to its driver, the second fills the rows. Everything is
// built into buffers the engine keeps. NewEngine and Run use it; an
// Update patches the tables instead (patchTopo).
func (e *Engine) rebuildTopo() error {
	d := e.d
	e.nPorts = len(d.Ports)
	e.hasAbstract = false
	e.sizeNodes(0)
	for node := range e.lastNet {
		e.lastNet[node] = -1
	}

	nNets := len(d.Nets)
	_, instCap, netCap := e.idCap()
	e.netDrv, e.drvPrev = resize(e.netDrv, nNets, netCap), resize(e.drvPrev, nNets, netCap)
	e.fan.keys(nNets, netCap, 0)
	e.ep.keys(nNets, netCap, 0)
	e.in.keys(len(d.Instances), instCap, 0)
	for _, n := range d.Nets {
		drv := e.driverOf(n)
		e.link(int32(n.ID), drv)
		if drv < 0 {
			continue
		}
		for _, s := range n.Sinks {
			switch e.sinkKind(s) {
			case sinkComb:
				e.fan.at[n.ID].n++
				e.in.at[s.Inst.ID].n++
			case sinkCapture:
				e.ep.at[n.ID].n++
				e.in.at[s.Inst.ID].n++
			case sinkPort:
				e.ep.at[n.ID].n++
			}
		}
	}
	e.fan.layout()
	e.ep.layout()
	e.in.layout()
	for _, n := range d.Nets {
		drv := e.netDrv[n.ID]
		if drv < 0 {
			continue
		}
		for si, s := range n.Sinks {
			arc := inEdge{drv: drv, net: int32(n.ID), si: int32(si)}
			switch kind := e.sinkKind(s); kind {
			case sinkComb:
				e.fan.push(n.ID, int32(s.Inst.ID))
				e.in.push(s.Inst.ID, arc)
			case sinkCapture:
				e.ep.push(n.ID, e.endpointRow(n, si, drv, kind))
				e.in.push(s.Inst.ID, arc)
			case sinkPort:
				e.ep.push(n.ID, e.endpointRow(n, si, drv, kind))
			}
		}
	}
	return e.levelize()
}

// patchTopo brings the tables from the design they were last built or
// patched for to the current one, given the pending invalidation: the
// nets whose sinks were rewired (pendNets) and the tail of nets and
// instances appended or truncated since (netFrom, resetFrom). It
// rewrites the fan and ep rows of those nets from their sink lists,
// re-links the tail nets to their drivers, and rewrites the in rows of
// the instances that were or are on those nets — the arcs of the dirty
// nets dropped, the regenerated ones merged in by net id. Every row it
// leaves equals the row rebuildTopo would build. The levels are then
// repaired along the dirty nets' arcs alone (raiseLevels). The cost
// follows the edit, not the design.
//
// It relies on what a ddb.Txn guarantees: a net keeps its driver and
// its id, and every net whose sink list changed is invalidated. Where
// it finds otherwise — a pending instance changed its class, a net its
// driver — it rebuilds; so it does when moved rows have bloated a table.
func (e *Engine) patchTopo() error {
	d := e.d
	if e.fan.bloated() || e.ep.bloated() || e.in.bloated() {
		return e.rebuildTopo()
	}
	oldNets, oldInsts := len(e.netDrv), len(e.isComb)
	newNets, newInsts := len(d.Nets), len(d.Instances)
	_, instCap, netCap := e.idCap()
	netFrom := min(e.netFrom, oldNets, newNets)
	instFrom := min(e.resetFrom-e.nPorts, oldInsts, newInsts)
	for _, id := range e.pendInsts {
		if id < instFrom && e.classify(id) {
			return e.rebuildTopo()
		}
	}

	// The dirty nets, ascending: the pending ids below the tail, then
	// the tail as it was and as it is.
	topNets := max(oldNets, newNets)
	e.netMark = resize(e.netMark, topNets, netCap)
	dn := e.dirtyNets[:0]
	for _, id := range e.pendNets {
		if id < netFrom && !e.netMark[id] {
			e.netMark[id] = true
			dn = append(dn, int32(id))
		}
	}
	slices.Sort(dn)
	for id := netFrom; id < topNets; id++ {
		e.netMark[id] = true
		dn = append(dn, int32(id))
	}
	e.dirtyNets = dn

	// The instances on those nets as the tables know them: their in rows
	// lose arcs.
	e.instMark = resize(e.instMark, max(oldInsts, newInsts), instCap)
	di := e.dirtyInsts[:0]
	touch := func(id int32) {
		if !e.instMark[id] {
			e.instMark[id] = true
			di = append(di, id)
		}
	}
	for _, n := range dn {
		if int(n) >= oldNets {
			break
		}
		for _, f := range e.fan.row(int(n)) {
			touch(f)
		}
		for _, r := range e.ep.row(int(n)) {
			if r.inst >= 0 {
				touch(r.inst)
			}
		}
	}
	// Tail nets leave their drivers' chains, highest first.
	for n := oldNets - 1; n >= netFrom; n-- {
		if drv := e.netDrv[n]; drv >= 0 {
			e.lastNet[drv] = e.drvPrev[n]
		}
	}

	e.sizeNodes(instFrom)
	e.netDrv, e.drvPrev = resize(e.netDrv, newNets, netCap), resize(e.drvPrev, newNets, netCap)
	e.fan.keys(newNets, netCap, netFrom)
	e.ep.keys(newNets, netCap, netFrom)
	e.in.keys(newInsts, instCap, instFrom)

	// The dirty nets as the design has them now.
	arcs := e.arcTmp[:0]
	for _, n := range dn {
		if int(n) >= newNets {
			break
		}
		net := d.Nets[n]
		drv := e.driverOf(net)
		if int(n) >= netFrom {
			e.link(n, drv)
		} else if drv != e.netDrv[n] {
			e.clearMarks(dn, di)
			return e.rebuildTopo()
		}
		fan, ep := e.fanTmp[:0], e.epTmp[:0]
		for si, s := range net.Sinks {
			if drv < 0 {
				break // not in the timing graph: empty rows
			}
			kind := e.sinkKind(s)
			switch kind {
			case sinkComb:
				fan = append(fan, int32(s.Inst.ID))
			case sinkCapture, sinkPort:
				ep = append(ep, e.endpointRow(net, si, drv, kind))
			}
			if kind == sinkComb || kind == sinkCapture {
				touch(int32(s.Inst.ID))
				arcs = append(arcs, instArc{int32(s.Inst.ID), inEdge{drv: drv, net: n, si: int32(si)}})
			}
		}
		e.fan.set(int(n), fan)
		e.ep.set(int(n), ep)
		e.fanTmp, e.epTmp = fan, ep
	}

	// In rows: what is left of the old row, and the instance's new arcs,
	// merged by net id. The stable sort keeps each instance's arcs in the
	// net-then-sink order they were generated in.
	slices.SortStableFunc(arcs, func(a, b instArc) int { return cmp.Compare(a.inst, b.inst) })
	slices.Sort(di)
	k := 0
	for _, x := range di {
		lo := k
		for k < len(arcs) && arcs[k].inst == x {
			k++
		}
		if int(x) >= newInsts {
			continue // truncated: its row went with its key
		}
		fresh, row := arcs[lo:k], e.inTmp[:0]
		for _, a := range e.in.row(int(x)) {
			if e.netMark[a.net] {
				continue
			}
			for len(fresh) > 0 && fresh[0].net < a.net {
				row, fresh = append(row, fresh[0].inEdge), fresh[1:]
			}
			row = append(row, a)
		}
		for _, a := range fresh {
			row = append(row, a.inEdge)
		}
		e.in.set(int(x), row)
		e.inTmp = row
	}
	e.arcTmp = arcs[:0]
	e.dirtyInsts = di
	e.clearMarks(dn, di)
	if instFrom < max(oldInsts, newInsts) {
		e.orderStale = true // instances came or went
	}
	return e.raiseLevels(dn)
}

// clearMarks leaves the patch's mark arrays all false for the next one.
func (e *Engine) clearMarks(nets, insts []int32) {
	for _, n := range nets {
		e.netMark[n] = false
	}
	for _, x := range insts {
		e.instMark[x] = false
	}
}

// levelize gives every combinational instance the least level above
// its combinational drivers' by Kahn's pass over the fan rows and node
// chains, and takes its queue as the order: a first-in first-out Kahn
// releases an instance while it relaxes the last of its drivers, which
// is the one of the highest level, so the queue holds the levels in
// ascending order. The order is sized before the first release for
// every combinational instance and every instance the design's ID
// capacity has room for. It reads the flat tables only, never a net.
func (e *Engine) levelize() error {
	insts := e.d.Instances
	_, instCap, _ := e.idCap()
	indeg := resize(e.indeg, len(insts), instCap)
	clear(indeg)
	clear(e.level)
	for id, c := range e.isComb {
		if c {
			for n := e.lastNet[e.nPorts+id]; n >= 0; n = e.drvPrev[n] {
				for _, f := range e.fan.row(int(n)) {
					indeg[f]++
				}
			}
		}
	}
	comb := e.combCount()
	order := slices.Grow(e.order[:0], comb+instCap-len(insts))
	for id, c := range e.isComb {
		if c && indeg[id] == 0 {
			order = append(order, insts[id])
		}
	}
	for head := 0; head < len(order); head++ {
		x := order[head].ID
		up := e.level[x] + 1
		for n := e.lastNet[e.nPorts+x]; n >= 0; n = e.drvPrev[n] {
			for _, f := range e.fan.row(int(n)) {
				e.level[f] = max(e.level[f], up)
				if indeg[f]--; indeg[f] == 0 {
					order = append(order, insts[f])
				}
			}
		}
	}
	e.indeg, e.order, e.orderStale = indeg, order, false
	if len(order) != comb {
		return fmt.Errorf("sta: combinational loop detected (%d of %d gates levelized)", len(order), comb)
	}
	return nil
}

// combCount is the number of combinational instances.
func (e *Engine) combCount() int {
	comb := 0
	for _, c := range e.isComb {
		if c {
			comb++
		}
	}
	return comb
}

// raiseLevels repairs the levels after a patch, along the arcs of the
// dirty nets dn alone: a sink at or below its driver's level is raised
// above it, then its own fanout, until nothing rises. An arc the patch
// dropped leaves its sink where it was, so a rollback or truncation
// raises nothing. Kahn's levels lie below the instance count; a level
// past it is a loop, which raises forever, or the residue of raises over
// many edits, and the repair hands both to levelize, which re-levels the
// second and returns the loop error for the first. The stack holds an
// instance once (instMark, all false before and after).
func (e *Engine) raiseLevels(dn []int32) error {
	stack := e.rise[:0]
	for _, n := range dn {
		if int(n) < len(e.netDrv) {
			stack = e.raiseFanout(n, stack)
		}
	}
	if len(stack) > 0 {
		e.orderStale = true
	}
	bound := int32(len(e.isComb))
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e.instMark[x] = false
		if e.level[x] > bound {
			for _, y := range stack {
				e.instMark[y] = false
			}
			e.rise = stack[:0]
			return e.levelize()
		}
		for n := e.lastNet[e.nPorts+int(x)]; n >= 0; n = e.drvPrev[n] {
			stack = e.raiseFanout(n, stack)
		}
	}
	e.rise = stack
	return nil
}

// raiseFanout lifts the combinational sinks of net n above its driver's
// level where it is combinational, pushing each one it lifted that is
// not on the stack already.
func (e *Engine) raiseFanout(n int32, stack []int32) []int32 {
	drv := int(e.netDrv[n]) - e.nPorts
	if drv < 0 || !e.isComb[drv] {
		return stack
	}
	up := e.level[drv] + 1
	for _, f := range e.fan.row(int(n)) {
		if e.level[f] < up {
			e.level[f] = up
			if !e.instMark[f] {
				e.instMark[f] = true
				stack = append(stack, f)
			}
		}
	}
	return stack
}

// topoOrder is the combinational instances by ascending level: the
// order the full passes walk. Levelize leaves it as its queue; after a
// patch moved levels or instances came or went, it is sorted again, by
// counting, ties by ID, within the room levelize sized.
func (e *Engine) topoOrder() []*netlist.Instance {
	if !e.orderStale {
		return e.order
	}
	insts := e.d.Instances
	_, instCap, _ := e.idCap()
	top, comb := int32(0), 0
	for id, c := range e.isComb {
		if c {
			top, comb = max(top, e.level[id]), comb+1
		}
	}
	at := resize(e.levelAt, int(top)+2, int(top)+2)
	clear(at)
	for id, c := range e.isComb {
		if c {
			at[e.level[id]+1]++
		}
	}
	for l := 1; l < len(at); l++ {
		at[l] += at[l-1]
	}
	order := resize(e.order, comb, comb+instCap-len(insts))
	for id, c := range e.isComb {
		if c {
			order[at[e.level[id]]] = insts[id]
			at[e.level[id]]++
		}
	}
	e.order, e.levelAt, e.orderStale = order, at, false
	return order
}

// checkLevels holds the levels and the order to their invariant: every
// combinational instance once in the order, levels ascending along it
// and rising strictly along every combinational arc.
func (e *Engine) checkLevels() error {
	order := e.topoOrder()
	seen := make([]bool, len(e.isComb))
	for k, inst := range order {
		if id := inst.ID; id >= len(e.isComb) || e.d.Instances[id] != inst || !e.isComb[id] || seen[id] {
			return fmt.Errorf("sta: order entry %d (%s) is no combinational instance, or a repeated one", k, inst.Name)
		}
		seen[inst.ID] = true
		if k > 0 && e.level[inst.ID] < e.level[order[k-1].ID] {
			return fmt.Errorf("sta: order entry %d (%s) at level %d follows level %d", k, inst.Name, e.level[inst.ID], e.level[order[k-1].ID])
		}
	}
	if comb := e.combCount(); len(order) != comb {
		return fmt.Errorf("sta: order holds %d of %d combinational instances", len(order), comb)
	}
	for n, drv := range e.netDrv {
		if d := int(drv) - e.nPorts; d >= 0 && e.isComb[d] {
			for _, f := range e.fan.row(n) {
				if e.level[f] <= e.level[d] {
					return fmt.Errorf("sta: %s at level %d is driven by %s at level %d through net %s",
						e.d.Instances[f].Name, e.level[f], e.d.Instances[d].Name, e.level[d], e.d.Nets[n].Name)
				}
			}
		}
	}
	return nil
}

// CheckTopo compares the engine's topology tables, as its updates have
// patched them, with the tables a fresh engine builds for the current
// design: the instance classes, every row of the fan, endpoint and arc
// tables and the driver chains, element for element; and it holds the
// levels and the order to their invariant (checkLevels), which the
// patched levels need not meet with the fresh engine's values. It is the
// optimizer's self-check and the tests' oracle for patchTopo; the
// pending invalidation must have been consumed (Update).
func (e *Engine) CheckTopo() error {
	opt := e.opt
	opt.Obs = nil
	f, err := NewEngine(e.d, e.ex, opt)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		what string
		same bool
	}{
		{"combinational classes", slices.Equal(e.isComb, f.isComb)},
		{"sequential classes", slices.Equal(e.isSeq, f.isSeq)},
		{"net drivers", slices.Equal(e.netDrv, f.netDrv)},
		{"driver chains", slices.Equal(e.drvPrev, f.drvPrev) && slices.Equal(e.lastNet, f.lastNet)},
		{"fanout rows", equalRows(&e.fan, &f.fan)},
		{"endpoint rows", equalRows(&e.ep, &f.ep)},
		{"arc rows", equalRows(&e.in, &f.in)},
	} {
		if !c.same {
			return fmt.Errorf("sta: patched %s differ from a fresh engine's", c.what)
		}
	}
	return e.checkLevels()
}

func equalRows[T comparable](a, b *rows[T]) bool {
	if len(a.at) != len(b.at) || a.live != b.live {
		return false
	}
	for k := range a.at {
		if !slices.Equal(a.row(k), b.row(k)) {
			return false
		}
	}
	return true
}
