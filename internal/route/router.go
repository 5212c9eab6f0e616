package route

import (
	"cmp"
	"fmt"
	"slices"

	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
)

// netTask is the per-net unit of work: the deterministic prep (pin
// nodes, MST edges) plus the old segments when the task is a negotiation
// rip-up. The prep is a pure function of the frozen placement, so
// RouteDesign preps every net once and a rip-up wave reuses the task —
// and the route record — of each victim.
type netTask struct {
	net   *netlist.Net
	route *NetRoute
	edges [][2]int // MST edges as pin-index pairs
	old   []Seg    // a rip-up victim's committed segments; else empty
}

// prepTask resolves t.net's pin nodes into t.route.PinNode and
// decomposes the net into two-pin MST edges appended to t.edges. The
// caller supplies both at their final size — PinNode one node per pin,
// edges with room for one edge less — as spans of the arrays RouteDesign
// sizes up front (or RouteNet's three objects); the in-tree marks are
// the scratch's. Pure function of the placement — independent of
// congestion, so prep order never affects results.
func (db *DB) prepTask(t *netTask, s *mazeScratch) error {
	n, r := t.net, t.route
	for i := range r.PinNode {
		nd, err := db.PinNode(n.PinAt(i))
		if err != nil {
			return fmt.Errorf("net %s: %w", n.Name, err)
		}
		r.PinNode[i] = nd
	}
	np := len(r.PinNode)
	if np < 2 {
		return nil
	}
	// Prim MST over pin grid locations.
	s.inTree = slices.Grow(s.inTree[:0], np)[:np]
	inTree := s.inTree
	clear(inTree)
	inTree[0] = true
	for k := 1; k < np; k++ {
		best, bi, bj := 1<<30, -1, -1
		for i := range inTree {
			if !inTree[i] {
				continue
			}
			for j := range inTree {
				if inTree[j] {
					continue
				}
				d := gridDist(r.PinNode[i], r.PinNode[j])
				if d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		inTree[bj] = true
		t.edges = append(t.edges, [2]int{bi, bj})
	}
	return nil
}

// gridDist is the Manhattan gcell distance between two nodes' columns.
func gridDist(a, b Node) int {
	return geom.AbsInt(int(a.X)-int(b.X)) + geom.AbsInt(int(a.Y)-int(b.Y))
}

// routeTask computes the task's segments against current congestion,
// one MST edge at a time, into the scratch's segment buffer; the result
// is valid until the scratch routes its next task. A failed maze search
// falls back to the pattern route.
func (db *DB) routeTask(t *netTask, maze bool, s *mazeScratch) []Seg {
	segs := s.segs[:0]
	for _, e := range t.edges {
		a, b := t.route.PinNode[e[0]], t.route.PinNode[e[1]]
		if maze {
			out, err := db.mazeRouteScratch(s, a, b, segs)
			if err == nil {
				segs = out
				continue
			}
		}
		segs = db.patternRoute(a, b, segs)
	}
	s.segs = segs
	return segs
}

// routePass is the router: the tasks in order, each released (a rip-up
// victim's old usage), routed against the congestion every task before
// it left, and committed. The order is the algorithm — long nets first
// set the landscape the short ones dodge, and a negotiation wave's
// victims see each other's reroutes — so the pass runs on one goroutine
// (DESIGN.md §10). A net's segments are stored
// exact-size in the result's segment slab: growth by doubling happens
// once, in the scratch buffer, not per net, and a victim's old span is
// simply abandoned (at most MaxIters × maxVictims of them per run).
func (db *DB) routePass(tasks []*netTask, maze bool, res *Result, s *mazeScratch) {
	for _, t := range tasks {
		db.addSegs(t.old, Origin{}, -1)
		t.old = nil
		segs := db.routeTask(t, maze, s)
		t.route.Segments = res.SegSpan(len(segs))
		copy(t.route.Segments, segs)
		db.addSegs(t.route.Segments, Origin{}, 1)
	}
}

// RouteDesign globally routes every non-clock signal net of the design
// over the database's grid, then runs negotiation iterations until
// overflow clears or the iteration budget is spent.
//
// Routing is one ordered pass (routePass) on the calling goroutine, and
// so are net prep and the overflow scans around it: their fan-out paid
// under 1.15× at two workers on a tile (DESIGN.md §10).
//
// The per-net records are not one heap object each: route records, pin
// nodes, tasks and MST edges are sized once from the pin counts and
// filled in spans, and a net's segments are stored exact-size in the
// result's slab (Result doc, DESIGN.md §17).
func RouteDesign(d *netlist.Design, db *DB) (*Result, error) {
	if db.err != nil {
		return nil, db.err
	}
	res := &Result{
		Routes:     make([]*NetRoute, len(d.Nets)),
		WLPerLayer: make([]float64, db.Beol.NumLayers()),
	}

	// Initial pattern routing, long nets first (they set the congestion
	// landscape the short nets then dodge).
	// The placement is frozen for the whole run, so each net's HPWL sort
	// key is computed once, here, and serves the rip-up victim order too.
	order := make([]*netlist.Net, 0, len(d.Nets))
	hpwl := make([]float64, len(d.Nets))
	for _, n := range d.Nets {
		if n.Clock || len(n.Sinks) == 0 {
			continue
		}
		order = append(order, n)
		hpwl[n.ID] = n.HPWL()
	}
	// A total order (net ids are unique).
	slices.SortFunc(order, func(p, q *netlist.Net) int {
		if c := cmp.Compare(hpwl[q.ID], hpwl[p.ID]); c != 0 {
			return c
		}
		return cmp.Compare(p.ID, q.ID)
	})
	// Metric handles are hoisted out of the negotiation loop; every
	// call is a no-op when no recorder backs the stage span.
	sp := db.opt.Obs
	reg := sp.Reg()
	routedC := reg.Counter("route_nets_routed_total",
		"Signal nets routed by the initial pattern pass.")
	iterC := reg.Counter("route_negotiation_iterations_total",
		"Rip-up-and-reroute negotiation iterations executed.")
	ripupC := reg.Counter("route_ripup_nets_total",
		"Overflowed nets ripped up and rerouted during negotiation.")
	overG := reg.Gauge("route_overflow_gcells",
		"Gcell-layers above capacity after the latest negotiation state.")

	// One scratch — the in-tree marks, the maze search state and the
	// segment buffer — reused across every net and two-pin search of the
	// run.
	pass := &mazeScratch{}

	// Net prep (pin nodes, MST decomposition) is a pure function of
	// the placement, so it happens once: a rip-up wave reuses its
	// victims' tasks and route records. Spans are laid out first, then
	// filled.
	nPins := 0
	for _, n := range order {
		nPins += n.NumPins()
	}
	res.Reserve(len(order), nPins, 0)
	tasks := make([]netTask, len(d.Nets)) // by net ID
	edges := make([][2]int, nPins-len(order))
	wave := make([]*netTask, len(order))
	for i, n := range order {
		np := n.NumPins()
		t := &tasks[n.ID]
		t.net = n
		t.route = res.NewRoute(n.ID)
		t.route.PinNode = res.PinSpan(np)
		t.edges, edges = edges[:0:np-1], edges[np-1:]
		wave[i] = t
	}
	for _, t := range wave {
		if err := db.prepTask(t, pass); err != nil {
			return nil, err
		}
	}

	psp := sp.Child("pass")
	db.routePass(wave, false, res, pass)
	psp.End()
	routedC.Add(uint64(len(order)))

	// Negotiated rip-up and reroute. Early iterations reroute with
	// congestion-aware pattern routes (cheap); later iterations escal-
	// ate to full maze search for the stubborn remainder.
	for it := 0; it < db.opt.MaxIters; it++ {
		over := db.Overflow()
		overG.Set(float64(over))
		if over == 0 {
			break
		}
		db.bumpHistory()
		victims := db.overflowedNets(res, d.Nets)
		if len(victims) == 0 {
			break
		}
		isp := sp.Child("rip-up-iter",
			obs.KV("iter", it), obs.KV("overflow", over), obs.KV("victims", len(victims)))
		iterC.Inc()
		// Bound the work per iteration; the worst offenders first
		// (longest nets through congestion).
		// By length only — not a total order, and the wave reroutes in
		// this order. Ties fall where pdqsort leaves them, as they did
		// under sort.Slice (place.TestSortFuncKeepsSortSliceTies).
		slices.SortFunc(victims, func(p, q *netlist.Net) int { return cmp.Compare(hpwl[q.ID], hpwl[p.ID]) })
		const maxVictims = 600
		if len(victims) > maxVictims {
			victims = victims[:maxVictims]
		}
		useMaze := it >= 2
		wave = wave[:0]
		for _, n := range victims {
			t := &tasks[n.ID]
			t.old = t.route.Segments
			wave = append(wave, t)
		}
		psp := isp.Child("pass")
		db.routePass(wave, useMaze, res, pass)
		psp.End()
		ripupC.Add(uint64(len(victims)))
		isp.End()
	}

	// Final accounting.
	for _, r := range res.Routes {
		if r == nil {
			continue
		}
		r.WL, r.Vias, r.F2F = db.tally(r.Segments, res.WLPerLayer)
		res.WL += r.WL
		res.Vias += r.Vias
		res.F2FBumps += r.F2F
	}
	res.Overflow = db.Overflow()
	overG.Set(float64(res.Overflow))

	// Scratch reuse for this run.
	reg.Counter("route_scratch_hits_total",
		"Maze searches served by an already-sized scratch allocation.").Add(pass.hits)
	reg.Counter("route_scratch_misses_total",
		"Maze searches that had to grow their scratch backing arrays.").Add(pass.misses)
	if n := pass.hits + pass.misses; n > 0 {
		reg.Gauge("route_scratch_hit_ratio",
			"Fraction of maze searches reusing scratch memory, latest run.").
			Set(float64(pass.hits) / float64(n))
	}
	return res, nil
}

// RouteNet routes a single net against current congestion into res and
// commits its usage. Used by the optimizer for incrementally created
// nets (buffer insertion) and by flows for ECO reroutes. The net's
// record in res is rewritten where it lies — a caller that may undo the
// edit copies it first (ddb.Txn.Reroute), and releases the usage of the
// route it held (ReleaseNet) — and only what does not fit comes from the
// result's ECO slabs: a record when the net has none or borrows a placed
// one, pin nodes or segments when there are more than the net's span
// holds. At steady state a reroute allocates nothing. After an error the
// record's contents are unspecified.
func (db *DB) RouteNet(res *Result, n *netlist.Net) (*NetRoute, error) {
	if db.err != nil {
		return nil, db.err
	}
	var r *NetRoute
	if n.ID < len(res.Routes) && !res.Origin(n.ID).Placed {
		r = res.Routes[n.ID]
	}
	if r == nil {
		r = res.ecoRecs.Alloc()
		res.SetRoute(n.ID, r)
	}
	if n.ID < len(res.origins) {
		res.origins[n.ID] = Origin{} // routed on this grid, into its own record
	}
	s := db.scratch()
	np := n.NumPins()
	r.PinNode = res.ecoNodes.Fit(r.PinNode, np)
	s.edges = slices.Grow(s.edges[:0], np)
	t := netTask{net: n, route: r, edges: s.edges}
	if err := db.prepTask(&t, s); err != nil {
		return nil, err
	}
	segs := db.routeTask(&t, false, s)
	r.Segments = res.ecoSegs.Fit(r.Segments, len(segs))
	copy(r.Segments, segs)
	db.opt.Obs.Reg().Counter("route_eco_reroutes_total",
		"Single-net ECO routes (optimizer buffer nets and reroutes).").Inc()
	db.addSegs(r.Segments, Origin{}, 1)
	r.WL, r.Vias, r.F2F = db.tally(r.Segments, nil)
	return r, nil
}

// tally returns a shape's metrics — wirelength summed in segment order,
// vias, F2F crossings — adding each run's length to a non-nil perLayer.
func (db *DB) tally(segs []Seg, perLayer []float64) (wl float64, vias, f2f int) {
	for _, s := range segs {
		if s.IsVia() {
			vias++
			if db.isF2F(s) {
				f2f++
			}
			continue
		}
		l := db.segLen(s)
		wl += l
		if perLayer != nil {
			perLayer[s.A.L] += l
		}
	}
	return wl, vias, f2f
}

// Restore makes r net netID's route again with the contents of was — a
// copy taken before RouteNet rewrote the record, whose pin nodes and
// segments fit r's spans because a span is only ever replaced by a
// larger one. A nil r clears the entry; a net that borrows a placed
// record gets its own first, at the same offset. Usage is the caller's
// to release and commit.
func (res *Result) Restore(netID int, r *NetRoute, was NetRoute) {
	if r != nil {
		if res.Origin(netID).Placed {
			r, res.origins[netID].Placed = res.ecoRecs.Alloc(), false
		}
		pins, segs := append(r.PinNode[:0], was.PinNode...), append(r.Segments[:0], was.Segments...)
		*r = was
		r.PinNode, r.Segments = pins, segs
	}
	res.SetRoute(netID, r)
}

// CommitRoute registers the congestion usage of net netID's route in
// res, if any, where res places it (counterpart of ReleaseNet).
func (db *DB) CommitRoute(res *Result, netID int) { db.addUsage(res, netID, 1) }

// RebuildUsage recomputes the database's congestion state from scratch
// out of the given routes — used after a rollback of incremental
// edits.
func (db *DB) RebuildUsage(res *Result) {
	clear(db.usage)
	clear(db.f2fUse)
	for id := range res.Routes {
		db.addUsage(res, id, 1)
	}
}

// SetRoute stores (or replaces) the route of a net, growing the table
// for incrementally added nets.
func (res *Result) SetRoute(netID int, r *NetRoute) {
	for netID >= len(res.Routes) {
		res.Routes = append(res.Routes, nil)
	}
	res.Routes[netID] = r
}

// ReleaseNet removes the usage of net netID's route in res (rip-up)
// ahead of a reroute.
func (db *DB) ReleaseNet(res *Result, netID int) { db.addUsage(res, netID, -1) }

// Recount recomputes the result's aggregate metrics from the segments
// after incremental edits (added/changed routes). It writes no route
// record: a placed one is another result's, and each record's own
// metrics are current since the call that routed it.
func (res *Result) Recount(db *DB) {
	res.WL, res.Vias, res.F2FBumps = 0, 0, 0
	clear(res.WLPerLayer)
	for _, r := range res.Routes {
		if r == nil {
			continue
		}
		wl, vias, f2f := db.tally(r.Segments, res.WLPerLayer)
		res.WL += wl
		res.Vias += vias
		res.F2FBumps += f2f
	}
	res.Overflow = db.Overflow()
}

// overflowedNets returns the nets — nets is the design's table, by ID —
// whose routes touch an overflowed gcell-layer, in net-ID order.
func (db *DB) overflowedNets(res *Result, nets []*netlist.Net) []*netlist.Net {
	bad := make([]bool, len(db.usage))
	any := false
	for i := range db.usage {
		if db.usage[i] > db.cap[i] {
			bad[i] = true
			any = true
		}
	}
	badF2F := make([]bool, len(db.f2fUse)) // empty without an F2F via
	for i := range db.f2fUse {
		if db.f2fUse[i] > db.f2fCap[i] {
			badF2F[i] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	var out []*netlist.Net
	for id, r := range res.Routes {
		if r == nil {
			continue
		}
		hit, o := false, res.Origin(id)
		for _, s := range r.Segments {
			s = o.at(s)
			if s.IsVia() {
				if db.isF2F(s) && badF2F[db.Grid.Index(int(s.A.X), int(s.A.Y))] {
					hit = true
				}
				continue
			}
			forEachStep(s, func(n Node) {
				if bad[db.idx(n)] {
					hit = true
				}
			})
			if hit {
				break
			}
		}
		if hit {
			out = append(out, nets[id])
		}
	}
	return out
}

// appendViaStack appends the via segments moving from layer la to lb
// at (x, y).
func appendViaStack(dst []Seg, x, y, la, lb int) []Seg {
	step := 1
	if lb < la {
		step = -1
	}
	for l := la; l != lb; l += step {
		dst = append(dst, Seg{At(x, y, l), At(x, y, l+step)})
	}
	return dst
}

// viaStackCost prices a via stack, including F2F crossings.
func (db *DB) viaStackCost(x, y, la, lb int) float64 {
	cost := float64(geom.AbsInt(lb-la)) * db.opt.ViaCost
	lo, hi := min(la, lb), max(la, lb)
	if db.f2fIdx >= 0 && lo <= db.f2fIdx && hi > db.f2fIdx {
		i := db.Grid.Index(x, y)
		if db.f2fUse[i]+1 > db.f2fCap[i] {
			cost += 64
		} else {
			// Bump crossings are cheap (44 mΩ, 1 fF): hybrid bonding is
			// dense enough that the router may route through the other
			// die to avoid congestion — the paper's routability
			// argument for Macro-3D.
			cost += 0.3
		}
	}
	return cost
}

// runCost prices a straight run on a layer.
func (db *DB) runCost(a, b Node) float64 {
	cost := 0.0
	forEachStep(Seg{a, b}, func(n Node) {
		cost += 1 + db.congestionCost(db.idx(n))
	})
	return cost
}

// patternRoute connects two nodes with the cheapest L-shape over the
// distance bucket's H/V layer pairs (see patternPairs), appending its
// segments to dst. Candidates are only priced — the cost never reads
// the segments — and the winner alone is emitted, so a connection
// allocates nothing beyond dst's own growth.
func (db *DB) patternRoute(a, b Node, dst []Seg) []Seg {
	pairs := db.patternPairs[db.distBucket(gridDist(a, b))]
	ax, ay, al := int(a.X), int(a.Y), int(a.L)
	bx, by, bl := int(b.X), int(b.Y), int(b.L)
	if len(pairs) == 0 {
		// Degenerate single-direction stack: direct via stack plus run.
		return append(appendViaStack(dst, ax, ay, al, bl), Seg{At(ax, ay, bl), b})
	}
	best := -1.0
	var bestL lShape
	for _, pr := range pairs {
		h, v := pr[0], pr[1]
		// a → (b.X, a.Y) horizontal on h then vertical on v, or
		// a → (a.X, b.Y) vertical on v then horizontal on h.
		for _, l := range [2]lShape{{bx, ay, h, v}, {ax, by, v, h}} {
			if cost := db.lCost(a, b, l); best < 0 || cost < best {
				best, bestL = cost, l
			}
		}
	}
	l := bestL
	dst = appendViaStack(dst, ax, ay, al, l.l1)
	if l.x != ax || l.y != ay {
		dst = append(dst, Seg{At(ax, ay, l.l1), At(l.x, l.y, l.l1)})
	}
	dst = appendViaStack(dst, l.x, l.y, l.l1, l.l2)
	if l.x != bx || l.y != by {
		dst = append(dst, Seg{At(l.x, l.y, l.l2), At(bx, by, l.l2)})
	}
	return appendViaStack(dst, bx, by, l.l2, bl)
}

// lShape is one pattern candidate between two nodes a and b: a run on
// layer l1 from a's column to the corner (x, y), then a run on l2 from
// the corner to b's column, joined by via stacks at a, the corner and b.
type lShape struct {
	x, y, l1, l2 int
}

// lCost prices an L-shape: via stacks and runs summed in route order.
func (db *DB) lCost(a, b Node, l lShape) float64 {
	ax, ay, bx, by := int(a.X), int(a.Y), int(b.X), int(b.Y)
	cost := 0.0
	cost += db.viaStackCost(ax, ay, int(a.L), l.l1)
	if l.x != ax || l.y != ay {
		cost += db.runCost(At(ax, ay, l.l1), At(l.x, l.y, l.l1))
	}
	cost += db.viaStackCost(l.x, l.y, l.l1, l.l2)
	if l.x != bx || l.y != by {
		cost += db.runCost(At(l.x, l.y, l.l2), At(bx, by, l.l2))
	}
	cost += db.viaStackCost(bx, by, l.l2, int(b.L))
	return cost
}
