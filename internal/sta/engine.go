package sta

import (
	"fmt"
	"math"
	"slices"

	"macro3d/internal/cell"
	"macro3d/internal/extract"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
)

// Engine is a persistent, incremental analyzer over one design. It
// caches the levelized topology and the per-pass arrival state between
// calls, so after a small edit only the dirty frontier (the edited
// nets' fan-in/fan-out cone) is re-evaluated, in level order. Because
// every node's value is a pure function of its final upstream values,
// recomputing only nodes whose inputs changed — and propagating only
// while a value actually changes — yields results bit-identical to a
// from-scratch Analyze.
//
// Node ids are ports-first: ports 0..len(Ports)-1, instances after.
// Ports are never added by incremental edits, so instance growth and
// rollback truncation only ever extend or shrink the tail of the
// per-node arrays; no id ever changes meaning across a topology epoch.
type Engine struct {
	d   *netlist.Design
	ex  *extract.Design
	opt Options

	nPorts int
	nNodes int

	// What each instance's master makes of it, by instance ID (classify).
	isComb, isSeq []bool
	// hasAbstract short-circuits the per-arc launch adjustment of
	// hardened-macro abstracts; designs without abstracts (every flat
	// flow) take bit-identical pre-existing paths. A patch can set it (an
	// abstract appended) but only a rebuild clears it.
	hasAbstract bool

	// The topology tables (topo.go): built by rebuildTopo, patched by
	// patchTopo.
	fan     rows[int32]
	ep      rows[epRow]
	in      rows[inEdge]
	netDrv  []int32
	drvPrev []int32
	lastNet []int32
	level   []int32

	// The combinational instances sorted by level (topoOrder), and
	// whether levels moved or instances came or went since the sort.
	order      []*netlist.Instance
	orderStale bool

	// Scratch of the topology builders: Kahn in-degrees by instance, the
	// level repair's stack, the order sort's level offsets, and
	// patchTopo's dirty sets, marks (all false between patches) and row
	// buffers.
	indeg      []int32
	rise       []int32
	levelAt    []int32
	netMark    []bool
	instMark   []bool
	dirtyNets  []int32
	dirtyInsts []int32
	arcTmp     []instArc
	fanTmp     []int32
	epTmp      []epRow
	inTmp      []inEdge

	full, half pass

	// The report pass's own buffers: the endpoints of the pass, and the
	// per-launch-node worst endpoint (valid where launchGen holds the
	// pass's epGen stamp) from which the paths to trace are selected.
	eps        []endpoint
	launchGen  []uint32 // by node
	launchBest []int32  // by node: index into eps
	epGen      uint32
	launches   []int32 // nodes stamped this pass, in first-seen order
	sel        []int32 // selected endpoints, worst first

	dirtyFull, dirtyHalf []bool // by node; scratch between Update calls
	// work holds a pass's dirty combinational instances by level while
	// an Update drains them (nothing between calls).
	work worklist

	// Pending invalidation accumulated by Invalidate until the next
	// Update consumes it.
	pendNets  []int
	pendInsts []int
	pendTopo  bool
	// resetFrom is the lowest node count the design has had while the
	// pending invalidation accumulated: every node at or above it holds
	// values for an instance that may since have been truncated and
	// re-created, so the slot is reset before reuse. netFrom is the same
	// for the net count and the rows of the tables keyed by net.
	resetFrom, netFrom int

	// Observability handles (nil when Options.Obs is unset; all
	// operations on them no-op).
	mFull, mInc, mFrontier *obs.Counter
	mRatio                 *obs.Gauge
}

// pass holds the persistent per-node state of one launch pass
// (full-cycle or half-cycle): the arrival tuple, and where the arrival
// came from — prev the upstream node and via the net it won through
// (the net's Driver sits on prev), both -1 at a launch point. A path's
// wirelength is summed along them when it is traced (pathWL).
type pass struct {
	arr, slew []float64
	prev, via []int32
}

func (e *Engine) nodeOfInst(i *netlist.Instance) int { return e.nPorts + i.ID }
func (e *Engine) nodeOfPort(p *netlist.Port) int     { return p.ID }

func (e *Engine) refNode(r netlist.PinRef) (int, bool) {
	if r.Port != nil {
		return e.nodeOfPort(r.Port), true
	}
	if r.Inst != nil {
		return e.nodeOfInst(r.Inst), true
	}
	return 0, false
}

// clockLatency returns the tree latency of a sequential instance: 0
// under an ideal clock, and for an instance younger than the tree.
func (e *Engine) clockLatency(inst *netlist.Instance) float64 {
	if e.opt.Clock == nil {
		return 0
	}
	return e.opt.Clock.LatencyOf(inst.ID)
}

// ioRef is the virtual port clock I/O constraints reference: the tree's
// mean insertion delay (a balanced tree makes every tile pin see nearly
// this edge), so half-cycle budgets measure tile-relative delay rather
// than double-counting the absolute clock latency — essential when the
// same tile is verified inside a deep-tree array (§V-1).
func (e *Engine) ioRef() float64 {
	if e.opt.Clock == nil {
		return 0
	}
	return e.opt.Clock.MeanLatency
}

// NewEngine builds an engine over the design and its extraction. The
// parasitics are checked for finiteness and the combinational topology
// levelized; both can fail.
func NewEngine(d *netlist.Design, ex *extract.Design, opt Options) (*Engine, error) {
	if err := ex.CheckFinite(); err != nil {
		return nil, fmt.Errorf("sta: %w", err)
	}
	e := &Engine{d: d, ex: ex, opt: opt.withDefaults()}
	if reg := opt.Obs.Reg(); reg != nil {
		e.mFull = reg.Counter("sta_full_runs_total",
			"From-scratch STA passes (Engine.Run and sta.Analyze).")
		e.mInc = reg.Counter("sta_incremental_updates_total",
			"Incremental STA passes re-evaluating only the dirty frontier.")
		e.mRatio = reg.Gauge("sta_incremental_ratio",
			"Incremental updates over all STA passes this run.")
		e.mFrontier = reg.Counter("sta_dirty_frontier_nodes_total",
			"Nodes marked dirty over all incremental updates (over sta_incremental_updates_total: the mean frontier).")
	}
	if err := e.rebuildTopo(); err != nil {
		return nil, err
	}
	return e, nil
}

// updateRatio republishes incremental/(incremental+full) after either
// counter moved.
func (e *Engine) updateRatio() {
	if e.mRatio == nil {
		return
	}
	inc, full := float64(e.mInc.Value()), float64(e.mFull.Value())
	if inc+full > 0 {
		e.mRatio.Set(inc / (inc + full))
	}
}

// loadOf is the total capacitance a node drives on its output net (the
// highest-numbered net it drives), 0 without one.
func (e *Engine) loadOf(node int) float64 {
	if on := e.lastNet[node]; on >= 0 {
		if rc := e.ex.Nets[on]; rc != nil {
			return rc.CTotal()
		}
	}
	return 0
}

// markFanout dirties the combinational fanout of a node.
func (e *Engine) markFanout(node int, dirty []bool) {
	for n := e.lastNet[node]; n >= 0; n = e.drvPrev[n] {
		for _, f := range e.fan.row(int(n)) {
			e.markDirty(f, dirty)
		}
	}
}

// markDirty dirties combinational instance id, queueing it on the
// worklist when it was clean. A full pass, which dirties every node
// before it starts, queues none.
func (e *Engine) markDirty(id int32, dirty []bool) {
	if node := e.nPorts + int(id); !dirty[node] {
		dirty[node] = true
		e.work.push(e.level[id], id)
	}
}

// resizePass grows or shrinks a pass's arrays to nNodes, with room for
// nodeCap, and re-initializes every slot at or above resetFrom.
func (e *Engine) resizePass(p *pass, nodeCap int) {
	from := min(e.resetFrom, len(p.arr))
	p.arr = resize(p.arr, e.nNodes, nodeCap)
	p.slew = resize(p.slew, e.nNodes, nodeCap)
	p.prev = resize(p.prev, e.nNodes, nodeCap)
	p.via = resize(p.via, e.nNodes, nodeCap)
	e.initPass(p, from)
}

// idCap is the design's ID capacity (netlist.Design.IDCap) in nodes,
// instances and nets: what every table keyed by one of them is
// allocated for, so that an optimizer's insertions up to it patch the
// tables where they lie.
func (e *Engine) idCap() (nodes, insts, nets int) {
	insts, nets = e.d.IDCap()
	return e.nPorts + insts, insts, nets
}

// resize returns s with length n, keeping the elements both lengths
// share. Growth past the capacity makes room for c, the ID capacity of
// the key, or — once the keys outgrow that too — append's geometric
// growth, so a run of one-buffer insertions beyond the reservation
// reallocates and copies each array O(log n) times, not once per
// insertion. Slots exposed by growing hold whatever the backing array
// held — callers re-initialize them (resizePass from resetFrom, the
// topology builders by clearing).
func resize[T any](s []T, n, c int) []T {
	if n > cap(s) {
		s = slices.Grow(s, max(n, c)-len(s))
	}
	return s[:n]
}

// initPass re-initializes every slot of a pass from node from up (from
// 0: a from-scratch run).
func (e *Engine) initPass(p *pass, from int) {
	for i := from; i < len(p.arr); i++ {
		p.arr[i] = negInf
		p.slew[i] = defaultSlew
		p.prev[i], p.via[i] = -1, -1
	}
}

// Invalidate records edits since the last Run/Update: the ids of
// re-extracted or re-wired nets, resized/moved/added instances, and
// whether the topology changed (instances or nets added or removed,
// sink membership edited). The next Update consumes the set.
func (e *Engine) Invalidate(nets, insts []int, topo bool) {
	e.pendNets = append(e.pendNets, nets...)
	e.pendInsts = append(e.pendInsts, insts...)
	if topo {
		e.pendTopo = true
		e.resetFrom = min(e.resetFrom, e.nPorts+len(e.d.Instances))
		e.netFrom = min(e.netFrom, len(e.d.Nets))
	}
}

// Run performs a full from-scratch analysis (also discarding any
// pending invalidation — every arrival is recomputed anyway). The
// topology caches are derived again only when a topology or master edit
// was invalidated since they were last built: the one-shot Analyze
// (NewEngine, then Run) levelizes once.
func (e *Engine) Run(period float64) (*Report, error) {
	if err := e.ex.CheckFinite(); err != nil {
		return nil, fmt.Errorf("sta: %w", err)
	}
	if e.pendTopo || len(e.pendInsts) > 0 {
		if err := e.rebuildTopo(); err != nil {
			return nil, err
		}
	}
	e.pendNets, e.pendInsts, e.pendTopo = e.pendNets[:0], e.pendInsts[:0], false

	for _, p := range []*pass{&e.full, &e.half} {
		half := p == &e.half
		e.initPass(p, 0)
		dirty := e.dirtyFull
		if half {
			dirty = e.dirtyHalf
		}
		for i := range dirty {
			dirty[i] = true
		}
		e.seed(p, half, dirty)
		for _, inst := range e.topoOrder() {
			node := e.nodeOfInst(inst)
			dirty[node] = false
			e.eval(p, inst, node, dirty)
		}
		// Leave the scratch set all-false for the next Update (the pass
		// only clears the combinational nodes it visits).
		for i := range dirty {
			dirty[i] = false
		}
	}
	e.mFull.Inc()
	e.updateRatio()
	return e.buildReport(period, nil)
}

// Update consumes the pending invalidation and re-analyzes only the
// dirty cone. Results are bit-identical to Run on the same state.
//
// The report is written into buf, a report the caller hands back — one
// an earlier Run or Update returned, which it no longer reads — reusing
// its path and step arrays; nil allocates a new one. Any other report
// the caller holds is left as it is. After an error buf's contents are
// unspecified.
func (e *Engine) Update(period float64, buf *Report) (*Report, error) {
	if err := e.consume(); err != nil {
		return nil, err
	}
	return e.buildReport(period, buf)
}

// Pending reports whether edits have been invalidated since the last
// Run, Update or Hold — what the next of them consumes first.
func (e *Engine) Pending() bool {
	return len(e.pendNets) > 0 || len(e.pendInsts) > 0 || e.pendTopo
}

// Hold is the hold check (Options.CheckHold) of the engine's current
// state, alone: any pending invalidation is consumed first, exactly as
// Update does, and then only the min-delay pass runs — no setup pass, no
// paths. The report carries the Hold* fields only, equal to those of a
// from-scratch Analyze with CheckHold. Hold does not depend on the clock
// period.
func (e *Engine) Hold() (*Report, error) {
	if e.Pending() {
		if err := e.consume(); err != nil {
			return nil, err
		}
	}
	rep := &Report{}
	e.analyzeHold(rep)
	if math.IsNaN(rep.HoldWNS) || math.IsInf(rep.HoldWNS, 0) {
		return nil, fmt.Errorf("sta: non-finite hold WNS (%v) — corrupt parasitics upstream", rep.HoldWNS)
	}
	return rep, nil
}

// consume brings the passes up to date with the pending invalidation:
// the parasitics of the re-extracted nets checked, the topology and
// masters patched, and the dirty cone re-propagated on both passes.
func (e *Engine) consume() error {
	// Finiteness of the parasitics only needs re-checking where they
	// changed.
	for _, id := range e.pendNets {
		if id < len(e.ex.Nets) {
			if err := e.ex.CheckNet(id); err != nil {
				return fmt.Errorf("sta: %w", err)
			}
		}
	}
	if e.work == nil {
		// Room for a dirty frontier, or a level repair, of a sixty-fourth
		// of the design's instances; a larger one grows it.
		_, instCap, _ := e.idCap()
		e.work, e.rise = make(worklist, 0, instCap/64+16), make([]int32, 0, instCap/64+16)
	}
	if e.pendTopo {
		if err := e.patchTopo(); err != nil {
			return err
		}
	}
	if err := e.patchMasters(); err != nil {
		return err
	}

	frontier := 0
	for _, p := range []*pass{&e.full, &e.half} {
		half := p == &e.half
		dirty := e.dirtyFull
		if half {
			dirty = e.dirtyHalf
		}
		frontier += e.markPending(dirty)
		e.seed(p, half, dirty)
		for len(e.work) > 0 {
			id := e.work.pop()
			node := e.nPorts + int(id)
			dirty[node] = false
			e.eval(p, e.d.Instances[id], node, dirty)
		}
	}
	e.pendNets, e.pendInsts, e.pendTopo = e.pendNets[:0], e.pendInsts[:0], false
	e.mInc.Inc()
	e.mFrontier.Add(uint64(frontier))
	e.updateRatio()
	return nil
}

// markPending seeds the dirty set from the pending net/instance ids:
// sinks and drivers of every dirty net (elm and load changed), every
// dirty instance (master, location, or input membership changed).
// Returns the number of nodes newly marked — the frontier size the
// engine reports to observability.
func (e *Engine) markPending(dirty []bool) int {
	marked := 0
	mark := func(node int) {
		if node >= e.nPorts && e.isComb[node-e.nPorts] {
			if !dirty[node] {
				marked++
			}
			e.markDirty(int32(node-e.nPorts), dirty)
		}
	}
	for _, id := range e.pendNets {
		if id >= len(e.d.Nets) {
			continue
		}
		n := e.d.Nets[id]
		if n.Clock {
			continue
		}
		if drv, ok := e.refNode(n.Driver); ok {
			mark(drv)
		}
		for _, s := range n.Sinks {
			if s.Inst != nil {
				mark(e.nodeOfInst(s.Inst))
			}
		}
	}
	for _, id := range e.pendInsts {
		if id < len(e.d.Instances) {
			mark(e.nPorts + id)
		}
	}
	return marked
}

// seed (re)computes launch arrivals: sequential outputs on the full
// pass, input ports on the pass matching their half-cycle class. Seeds
// are compared against the stored value; a changed seed dirties its
// combinational fanout.
func (e *Engine) seed(p *pass, half bool, dirty []bool) {
	ioRef := e.ioRef()
	if !half {
		for id, inst := range e.d.Instances {
			if !e.isSeq[id] {
				continue
			}
			node := e.nPorts + id
			load := e.loadOf(node)
			var v float64
			if inst.Master.Abstract != nil {
				// Hardened abstracts launch at the clock edge; the
				// per-pin clk→out arc and the drive into the parent
				// load are applied per driven net (arcLaunch), since
				// each output pin carries its own arc.
				v = e.clockLatency(inst)
			} else {
				v = e.clockLatency(inst) +
					(inst.Master.ClkQ+inst.Master.DriveRes*load)*e.opt.Corner.CellDelay
			}
			e.setSeed(p, node, v, dirty)
		}
	}
	for _, pt := range e.d.Ports {
		if pt.Dir == cell.DirIn && pt.HalfCycle == half {
			e.setSeed(p, e.nodeOfPort(pt), pt.ExtDelay+ioRef, dirty)
		}
	}
}

func (e *Engine) setSeed(p *pass, node int, v float64, dirty []bool) {
	if p.arr[node] == v {
		return
	}
	p.arr[node] = v
	p.slew[node] = defaultSlew
	e.markFanout(node, dirty)
}

// arcLaunch returns the launch adjustment of a driver node when it is
// a hardened-abstract output: the pin's clk→out arc (sign-off-absolute,
// so no corner scale) plus the drive into the parent net's load (corner
// scaled like any gate delay). Ordinary drivers return 0 and designs
// without abstracts skip the lookup entirely, keeping flat flows on the
// bit-identical pre-existing path.
func (e *Engine) arcLaunch(drv int, n *netlist.Net, rc *extract.NetRC) float64 {
	if !e.hasAbstract || drv < e.nPorts {
		return 0
	}
	inst := e.d.Instances[drv-e.nPorts]
	if inst.Master.Abstract == nil {
		return 0
	}
	p := n.Driver.MasterPin()
	if p == nil {
		return 0
	}
	return p.ClkQ + inst.Master.DriveRes*rc.CTotal()*e.opt.Corner.CellDelay
}

// evalNode computes a combinational instance's output tuple from the
// current state of its inputs — identical arithmetic and tie-break
// order to the original from-scratch pass.
func (e *Engine) evalNode(p *pass, inst *netlist.Instance) (arr, slew float64, prev, via int32) {
	load := e.loadOf(e.nodeOfInst(inst))
	best := negInf
	bestPrev, bestVia := int32(-1), int32(-1)
	bestSlew := defaultSlew
	for _, ev := range e.in.row(inst.ID) {
		if at := e.arcAt(p, inst, load, ev); at > best {
			best = at
			bestPrev, bestVia = ev.drv, ev.net
			bestSlew = inst.Master.OutSlew(load)
		}
	}
	if bestPrev < 0 {
		return negInf, defaultSlew, -1, -1
	}
	return best, bestSlew, bestPrev, bestVia
}

// arcAt is the arrival at inst's output through one input edge, at the
// given load; -Inf where the edge has no parasitics or its driver no
// arrival.
func (e *Engine) arcAt(p *pass, inst *netlist.Instance, load float64, ev inEdge) float64 {
	rc := e.ex.Nets[ev.net]
	if rc == nil {
		return negInf
	}
	ia := p.arr[ev.drv]
	if ia <= negInf {
		return negInf
	}
	if e.hasAbstract {
		ia += e.arcLaunch(int(ev.drv), e.d.Nets[ev.net], rc)
	}
	elm := rc.ElmoreTo[ev.si]
	inArr := ia + elm
	inSlew := p.slew[ev.drv] + elm // slew degrades along RC wire
	d := inst.Master.Delay(load, inSlew) * e.opt.Corner.CellDelay
	return inArr + d
}

// wonAt returns the sink of the net via at which node's arrival was
// won: of its input edges from prev through via, the one evalNode chose
// — the latest arrival, the first of equals.
func (e *Engine) wonAt(p *pass, node int) int32 {
	inst := e.d.Instances[node-e.nPorts]
	prev, via := p.prev[node], p.via[node]
	load := e.loadOf(node)
	best, si := negInf, int32(-1)
	for _, ev := range e.in.row(inst.ID) {
		if ev.drv != prev || ev.net != via {
			continue
		}
		if at := e.arcAt(p, inst, load, ev); at > best {
			best, si = at, ev.si
		}
	}
	return si
}

// eval re-evaluates a dirty combinational instance, dirtying its fanout
// only when a value actually changed.
func (e *Engine) eval(p *pass, inst *netlist.Instance, node int, dirty []bool) {
	arr, slew, prev, via := e.evalNode(p, inst)
	if arr != p.arr[node] || slew != p.slew[node] ||
		prev != p.prev[node] || via != p.via[node] {
		p.arr[node] = arr
		p.slew[node] = slew
		p.prev[node], p.via[node] = prev, via
		e.markFanout(node, dirty)
	}
}

// worklist is a binary min-heap of combinational instances keyed by
// level, then ID. Every arc rises in level, so an instance popped has
// no dirty driver left: its arrival is evaluated once, from final
// inputs.
type worklist []uint64

func (w *worklist) push(level, id int32) {
	h := append(*w, uint64(level)<<32|uint64(uint32(id)))
	for k := len(h) - 1; k > 0; {
		up := (k - 1) / 2
		if h[up] <= h[k] {
			break
		}
		h[up], h[k] = h[k], h[up]
		k = up
	}
	*w = h
}

func (w *worklist) pop() int32 {
	h := *w
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for k := 0; ; {
		c := 2*k + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[k] <= h[c] {
			break
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
	*w = h
	return int32(uint32(top))
}
