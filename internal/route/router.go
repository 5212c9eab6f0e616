package route

import (
	"cmp"
	"fmt"
	"math"
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
// is valid until the scratch routes its next task. The one routing rule
// (DESIGN.md, "Routing contract"): the pattern route, or the maze when
// maze is set or no L clears the walls; a maze failure is the error.
// pattern reports that no connection took the maze.
func (db *DB) routeTask(t *netTask, maze bool, s *mazeScratch) (segs []Seg, pattern bool, err error) {
	segs, pattern = s.segs[:0], true
	for _, e := range t.edges {
		a, b := t.route.PinNode[e[0]], t.route.PinNode[e[1]]
		if !maze {
			if out := db.patternRoute(a, b, segs); len(out) > len(segs) {
				segs = out
				continue
			}
		}
		out, err := db.mazeRouteScratch(s, a, b, segs)
		if err != nil {
			return nil, false, fmt.Errorf("net %s: %w", t.net.Name, err)
		}
		segs, pattern = out, false
	}
	s.segs = segs
	return segs, pattern, nil
}

// routePass is the router, under a "pass" span of sp: the tasks in
// order, each released (a rip-up victim's old usage), routed against the
// congestion every task before it left, and committed. The order is the
// algorithm — long nets first set the landscape the short ones dodge, and
// a negotiation wave's victims see each other's reroutes — so the pass
// runs on one goroutine (DESIGN.md §10). A net's segments are stored in
// the result's segment slab: growth by doubling happens once, in the
// scratch buffer, not per net. A first route takes an exact-size span; a
// rip-up victim's reroute is written over its old span when it fits, and
// only one that outgrows it takes a new span, abandoning the old. A net
// routed pattern-first is stamped settled (settle.go).
func (db *DB) routePass(sp *obs.Span, tasks []*netTask, maze bool, res *Result, s *mazeScratch) error {
	defer sp.Child("pass").End()
	for _, t := range tasks {
		db.addSegs(t.old, Origin{}, -1)
		t.old = nil
		segs, pattern, err := db.routeTask(t, maze, s)
		if err != nil {
			return err
		}
		t.route.Segments = res.segs.Fit(t.route.Segments, len(segs))
		copy(t.route.Segments, segs)
		db.addSegs(t.route.Segments, Origin{}, 1)
		db.settleNet(t.net.ID, pattern)
	}
	return nil
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
// filled in spans, and a net's segments are stored in the result's slab,
// a rip-up victim's in its own span when they fit (Result doc, DESIGN.md
// §17). The overflow a wave negotiates is what a reroute can fix: a
// wall's pin access is capacity, not overflow (overflowed, DESIGN.md
// §19).
func RouteDesign(d *netlist.Design, db *DB) (*Result, error) {
	if db.err != nil {
		return nil, db.err
	}
	res := &Result{
		Routes:     make([]*NetRoute, len(d.Nets)),
		WLPerLayer: make([]float64, db.Beol.NumLayers()),
	}
	_, netCap := d.IDCap()
	db.startStamps(len(d.Nets), netCap)

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
	accessG := reg.Gauge("route_pin_access_gcells",
		"Zero-capacity gcell-layers used within their pins' access tracks, latest negotiation state.")

	// The DB's scratch — the in-tree marks, the maze search state and
	// the segment buffer — serves every net and two-pin search of the run.
	pass := db.scratch()

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

	if err := db.routePass(sp, wave, false, res, pass); err != nil {
		return nil, err
	}
	routedC.Add(uint64(len(order)))

	// Negotiated rip-up and reroute. Early iterations reroute with
	// congestion-aware pattern routes (cheap); later iterations escal-
	// ate to full maze search for the stubborn remainder.
	for it := 0; it < db.opt.MaxIters; it++ {
		cells, bins, access := db.overflowed(res)
		over := len(cells) + len(bins)
		overG.Set(float64(over))
		accessG.Set(float64(access))
		if over == 0 {
			break
		}
		db.bumpHistory(cells)
		victims := db.overflowedNets(res, d.Nets, cells, bins)
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
		if err := db.routePass(isp, wave, useMaze, res, pass); err != nil {
			isp.End()
			return nil, err
		}
		ripupC.Add(uint64(len(victims)))
		isp.End()
	}

	// Final accounting.
	segs := 0
	for _, r := range res.Routes {
		if r == nil {
			continue
		}
		r.WL, r.Vias, r.F2F = db.tally(r.Segments, res.WLPerLayer)
		res.WL += r.WL
		res.Vias += r.Vias
		res.F2FBumps += r.F2F
		segs += len(r.Segments)
	}
	cells, bins, access := db.overflowed(res)
	res.Overflow = len(cells) + len(bins)
	overG.Set(float64(res.Overflow))
	accessG.Set(float64(access))
	sp.SetAttr("pin_access", access)
	sp.SetAttr("segments", segs)
	sp.SetAttr("via_cuts", res.Vias)

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
	segs, pattern, err := db.routeTask(&t, false, s)
	if err != nil {
		return nil, err
	}
	r.Segments = res.ecoSegs.Fit(r.Segments, len(segs))
	copy(r.Segments, segs)
	db.opt.Obs.Reg().Counter("route_eco_reroutes_total",
		"Single-net ECO routes (optimizer buffer nets and reroutes).").Inc()
	db.addSegs(r.Segments, Origin{}, 1)
	db.settleNet(n.ID, pattern)
	r.WL, r.Vias, r.F2F = db.tally(r.Segments, nil)
	return r, nil
}

// tally returns a shape's metrics — wirelength summed in segment order,
// via cuts, F2F crossings — adding each run's length to a non-nil
// perLayer.
func (db *DB) tally(segs []Seg, perLayer []float64) (wl float64, vias, f2f int) {
	for _, s := range segs {
		if s.IsVia() {
			vias += s.Cuts()
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

// RebuildUsage recomputes the database's wire and F2F usage from
// scratch out of the given routes, with stamping off. A rebuild that
// changes either unsettles every net; one that matches changes nothing.
func (db *DB) RebuildUsage(res *Result) {
	s := &db.st
	net := s.net
	if net != nil {
		s.rebuilt = append(append(s.rebuilt[:0], db.usage...), db.f2fUse...)
	}
	s.net = nil
	clear(db.usage)
	clear(db.f2fUse)
	for id, r := range res.Routes {
		if r != nil {
			db.addSegs(r.Segments, res.Origin(id), 1)
		}
	}
	s.net = net
	if net != nil && (!slices.Equal(s.rebuilt[:len(db.usage)], db.usage) || !slices.Equal(s.rebuilt[len(db.usage):], db.f2fUse)) {
		db.resetStamps()
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
	res.Overflow = db.Overflow(res)
}

// overflowedNets returns the nets — nets is the design's table, by ID —
// whose routes touch one of the overflowed gcell-layers cells or bump
// bins bins (overflowed), in net-ID order: the rip-up victims. A net's
// use of a wall in its own pin's column is not one: no reroute can leave
// it.
func (db *DB) overflowedNets(res *Result, nets []*netlist.Net, cells, bins []int32) []*netlist.Net {
	if len(cells)+len(bins) == 0 {
		return nil
	}
	sc := &db.ov
	sc.bad = slices.Grow(sc.bad[:0], len(db.usage))[:len(db.usage)]
	bad := sc.bad
	clear(bad)
	for _, i := range cells {
		bad[i] = true
	}
	sc.badF2F = slices.Grow(sc.badF2F[:0], len(db.f2fUse))[:len(db.f2fUse)] // empty without an F2F via
	badF2F := sc.badF2F
	clear(badF2F)
	for _, i := range bins {
		badF2F[i] = true
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
			s.Walk(func(n Node) {
				if i := db.idx(n); bad[i] && (db.cap[i] != 0 || !hasPinAt(r, o, n)) {
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

// hasPinAt reports whether route r, at o, has a pin in node n's column.
func hasPinAt(r *NetRoute, o Origin, n Node) bool {
	for _, p := range r.PinNode {
		if p.X+o.DX == n.X && p.Y+o.DY == n.Y {
			return true
		}
	}
	return false
}

// appendViaStack appends the via stack moving from layer la to lb at
// (x, y) to dst: one segment, none when la == lb, and none but a longer
// last one when dst[base:] ends in a stack this one continues in its
// direction (an L's corner in a pin's column).
func appendViaStack(dst []Seg, base, x, y, la, lb int) []Seg {
	if la == lb {
		return dst
	}
	s := Seg{At(x, y, la), At(x, y, lb)}
	if n := len(dst); n > base && dst[n-1].B == s.A && continues(dst[n-1], s.A, s.B) {
		dst[n-1].B = s.B
		return dst
	}
	return append(dst, s)
}

// viaStackCost prices a via stack, including F2F crossings.
func (db *DB) viaStackCost(x, y, la, lb int) float64 {
	cost := float64(geom.AbsInt(lb-la)) * viaCost
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

// runCost prices a straight run on a layer, +Inf through a wall of the
// connection between pins a and b. It steps by flat index (stride),
// adding what a Walk of the run's nodes would, in its order.
func (db *DB) runCost(from, to, a, b Node) float64 {
	i, step, k := db.stride(Seg{from, to})
	dx, dy := sign(to.X-from.X), sign(to.Y-from.Y)
	cost := 0.0
	for n := from; k > 0; i, k = i+step, k-1 {
		if db.blockedAt(i, n, a, b) {
			cost = math.Inf(1)
		}
		cost += 1 + db.congestionCost(i)
		n.X, n.Y = n.X+dx, n.Y+dy
	}
	return cost
}

// patternRoute connects two nodes with the cheapest L-shape over the
// distance bucket's H/V layer pairs (see patternPairs), appending its
// segments to dst, or nothing when every L enters a blocked node (its
// runs hold all its via landings outside the pins' columns). Candidates
// are only priced — the cost never reads the segments — and the winner
// alone is emitted, so a connection allocates nothing beyond dst's own growth.
func (db *DB) patternRoute(a, b Node, dst []Seg) []Seg {
	pairs := db.patternPairs[db.distBucket(gridDist(a, b))]
	ax, ay, al := int(a.X), int(a.Y), int(a.L)
	bx, by, bl := int(b.X), int(b.Y), int(b.L)
	base := len(dst)
	if len(pairs) == 0 {
		// Degenerate single-direction stack: direct via stack plus run.
		return append(appendViaStack(dst, base, ax, ay, al, bl), Seg{At(ax, ay, bl), b})
	}
	best := math.Inf(1)
	var bestL lShape
	for _, pr := range pairs {
		h, v := pr[0], pr[1]
		// a → (b.X, a.Y) horizontal on h then vertical on v, or
		// a → (a.X, b.Y) vertical on v then horizontal on h.
		for _, l := range [2]lShape{{bx, ay, h, v}, {ax, by, v, h}} {
			if cost := db.lCost(a, b, l); cost < best {
				best, bestL = cost, l
			}
		}
	}
	if math.IsInf(best, 1) {
		return dst
	}
	l := bestL
	dst = appendViaStack(dst, base, ax, ay, al, l.l1)
	if l.x != ax || l.y != ay {
		dst = append(dst, Seg{At(ax, ay, l.l1), At(l.x, l.y, l.l1)})
	}
	dst = appendViaStack(dst, base, l.x, l.y, l.l1, l.l2)
	if l.x != bx || l.y != by {
		dst = append(dst, Seg{At(l.x, l.y, l.l2), At(bx, by, l.l2)})
	}
	return appendViaStack(dst, base, bx, by, l.l2, bl)
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
		cost += db.runCost(At(ax, ay, l.l1), At(l.x, l.y, l.l1), a, b)
	}
	cost += db.viaStackCost(l.x, l.y, l.l1, l.l2)
	if l.x != bx || l.y != by {
		cost += db.runCost(At(l.x, l.y, l.l2), At(bx, by, l.l2), a, b)
	}
	cost += db.viaStackCost(bx, by, l.l2, int(b.L))
	return cost
}
