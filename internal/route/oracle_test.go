package route

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/tech"
)

// The allocating implementations the flat kernels replaced, kept here
// verbatim as oracles: the six-candidate pattern router that
// materialised every L-shape and re-sorted the layer pairs per
// connection, and the per-object net prep (a NetRoute, a pin-node list,
// a task, an edge list and the in-tree marks per net, segments grown by
// doubling) under the serial router that re-prepped every rip-up victim.
// They emit a via stack as they did then, one segment per cut
// (viaStackOracle, tracePathOracle), so the equivalence tests below
// demand exact equality of the router's routes with their cuts expanded
// (expandCuts).

func viaStackOracle(x, y, la, lb int) []Seg {
	var segs []Seg
	step := 1
	if lb < la {
		step = -1
	}
	for l := la; l != lb; l += step {
		segs = append(segs, Seg{At(x, y, l), At(x, y, l+step)})
	}
	return segs
}

func compactSegsOracle(segs []Seg) []Seg {
	out := segs[:0]
	for _, s := range segs {
		if s.A == s.B {
			continue
		}
		out = append(out, s)
	}
	return out
}

func (db *DB) patternRouteOracle(an, bn Node) []Seg {
	// The oracle predates the narrow Node; it works on plain ints.
	type ints struct{ X, Y, L int }
	a, b := ints{int(an.X), int(an.Y), int(an.L)}, ints{int(bn.X), int(bn.Y), int(bn.L)}
	pairs := db.hvPairs()
	if len(pairs) == 0 {
		return append(viaStackOracle(a.X, a.Y, a.L, b.L), Seg{At(a.X, a.Y, b.L), bn})
	}
	dist := geom.AbsInt(a.X-b.X) + geom.AbsInt(a.Y-b.Y)
	sort.SliceStable(pairs, func(i, j int) bool {
		pref := 0
		if dist > 24 && db.f2fIdx >= 0 {
			pref = db.f2fIdx + 1
		} else if dist > 12 {
			pref = db.Beol.LogicDieLayers() - 1
		} else if dist > 4 {
			pref = 2
		}
		di := geom.AbsInt((pairs[i][0]+pairs[i][1])/2 - pref)
		dj := geom.AbsInt((pairs[j][0]+pairs[j][1])/2 - pref)
		return di < dj
	})
	if len(pairs) > 3 {
		pairs = pairs[:3]
	}

	best := -1.0
	var bestSegs []Seg
	for _, pr := range pairs {
		h, v := pr[0], pr[1]
		for _, firstH := range []bool{true, false} {
			var segs []Seg
			cost := 0.0
			if firstH {
				segs = append(segs, viaStackOracle(a.X, a.Y, a.L, h)...)
				cost += db.viaStackCost(a.X, a.Y, a.L, h)
				if b.X != a.X {
					s := Seg{At(a.X, a.Y, h), At(b.X, a.Y, h)}
					segs = append(segs, s)
					cost += db.runCost(s.A, s.B, an, bn)
				}
				segs = append(segs, viaStackOracle(b.X, a.Y, h, v)...)
				cost += db.viaStackCost(b.X, a.Y, h, v)
				if b.Y != a.Y {
					s := Seg{At(b.X, a.Y, v), At(b.X, b.Y, v)}
					segs = append(segs, s)
					cost += db.runCost(s.A, s.B, an, bn)
				}
				segs = append(segs, viaStackOracle(b.X, b.Y, v, b.L)...)
				cost += db.viaStackCost(b.X, b.Y, v, b.L)
			} else {
				segs = append(segs, viaStackOracle(a.X, a.Y, a.L, v)...)
				cost += db.viaStackCost(a.X, a.Y, a.L, v)
				if b.Y != a.Y {
					s := Seg{At(a.X, a.Y, v), At(a.X, b.Y, v)}
					segs = append(segs, s)
					cost += db.runCost(s.A, s.B, an, bn)
				}
				segs = append(segs, viaStackOracle(a.X, b.Y, v, h)...)
				cost += db.viaStackCost(a.X, b.Y, v, h)
				if b.X != a.X {
					s := Seg{At(a.X, b.Y, h), At(b.X, b.Y, h)}
					segs = append(segs, s)
					cost += db.runCost(s.A, s.B, an, bn)
				}
				segs = append(segs, viaStackOracle(b.X, b.Y, h, b.L)...)
				cost += db.viaStackCost(b.X, b.Y, h, b.L)
			}
			if !math.IsInf(cost, 1) && (best < 0 || cost < best) {
				best = cost
				bestSegs = segs
			}
		}
	}
	return compactSegsOracle(bestSegs)
}

func (db *DB) prepTaskOracle(n *netlist.Net) (*netTask, error) {
	np := n.NumPins()
	r := &NetRoute{PinNode: make([]Node, np)}
	for i := range r.PinNode {
		nd, err := db.PinNode(n.PinAt(i))
		if err != nil {
			return nil, fmt.Errorf("net %s: %w", n.Name, err)
		}
		r.PinNode[i] = nd
	}
	t := &netTask{net: n, route: r}
	if np < 2 {
		return t, nil
	}
	inTree := make([]bool, np)
	inTree[0] = true
	t.edges = make([][2]int, 0, np-1)
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
				d := geom.AbsInt(int(r.PinNode[i].X)-int(r.PinNode[j].X)) +
					geom.AbsInt(int(r.PinNode[i].Y)-int(r.PinNode[j].Y))
				if d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		inTree[bj] = true
		t.edges = append(t.edges, [2]int{bi, bj})
	}
	return t, nil
}

// routeTaskOracle follows the routing contract edge by edge: the
// pattern route unless maze is set or it found no L clear of the walls,
// then the maze, whose failure is the task's.
func (db *DB) routeTaskOracle(t *netTask, maze bool, s *mazeScratch) error {
	for _, e := range t.edges {
		a, b := t.route.PinNode[e[0]], t.route.PinNode[e[1]]
		if !maze {
			if segs := db.patternRouteOracle(a, b); len(segs) > 0 {
				t.route.Segments = append(t.route.Segments, segs...)
				continue
			}
		}
		segs, err := db.mazeRouteOracle(s, a, b, t.route.Segments)
		if err != nil {
			return err
		}
		t.route.Segments = segs
	}
	return nil
}

// mazeRouteOracle is mazeRouteScratch as it emitted paths when each via
// cut was a segment of its own: the same search, traced by
// tracePathOracle.
func (db *DB) mazeRouteOracle(s *mazeScratch, a, b Node, dst []Seg) ([]Seg, error) {
	win := db.mazeWindow(a, b, mazeMargin)
	ok := db.mazeSearch(s, win, a, b)
	if !ok {
		win = db.mazeWindow(a, b, MaxGridDim)
		ok = db.mazeSearch(s, win, a, b)
	}
	if !ok {
		return dst, fmt.Errorf("route: maze route %v→%v failed", a, b)
	}
	return db.tracePathOracle(s, win, a, b, dst), nil
}

// tracePathOracle is tracePath before via steps merged: collinear wire
// steps merge, every via step is a segment.
func (db *DB) tracePathOracle(s *mazeScratch, win window, a, b Node, dst []Seg) []Seg {
	// Collect nodes b → a into the scratch buffer.
	s.nodes = s.nodes[:0]
	cur := int32(win.idx(b))
	for cur >= 0 {
		n := win.node(int(cur))
		s.nodes = append(s.nodes, n)
		if n == a {
			break
		}
		cur = s.prev[cur]
	}
	// Reverse to a → b.
	for i, j := 0, len(s.nodes)-1; i < j; i, j = i+1, j-1 {
		s.nodes[i], s.nodes[j] = s.nodes[j], s.nodes[i]
	}
	base := len(dst)
	for i := 1; i < len(s.nodes); i++ {
		p, n := s.nodes[i-1], s.nodes[i]
		if len(dst) > base {
			last := &dst[len(dst)-1]
			// Extend the last straight segment when collinear.
			if !last.IsVia() && !(Seg{p, n}).IsVia() &&
				((last.A.Y == last.B.Y && last.B.Y == n.Y && last.A.L == n.L) ||
					(last.A.X == last.B.X && last.B.X == n.X && last.A.L == n.L)) {
				last.B = n
				continue
			}
		}
		dst = append(dst, Seg{p, n})
	}
	return dst
}

// expandCuts returns segs with every via stack expanded into its cuts
// (Seg.Cut), in order: the form every route had when each cut was a
// segment of its own, which the oracles emit.
func expandCuts(segs []Seg) []Seg {
	out := make([]Seg, 0, Elements(segs))
	for _, s := range segs {
		if !s.IsVia() {
			out = append(out, s)
			continue
		}
		for k := range s.Cuts() {
			out = append(out, s.Cut(k))
		}
	}
	return out
}

// routeDesignOracle is RouteDesign's serial path as it stood over
// per-object tasks; ripups counts the victims it rerouted.
func routeDesignOracle(d *netlist.Design, db *DB) (res *Result, ripups int, err error) {
	res = &Result{
		Routes:     make([]*NetRoute, len(d.Nets)),
		WLPerLayer: make([]float64, db.Beol.NumLayers()),
	}
	var order []*netlist.Net
	hpwl := make([]float64, len(d.Nets))
	for _, n := range d.Nets {
		if n.Clock || len(n.Sinks) == 0 {
			continue
		}
		order = append(order, n)
		hpwl[n.ID] = n.HPWL()
	}
	sort.Slice(order, func(i, j int) bool {
		hi, hj := hpwl[order[i].ID], hpwl[order[j].ID]
		if hi != hj {
			return hi > hj
		}
		return order[i].ID < order[j].ID
	})
	s := &mazeScratch{}
	for _, n := range order {
		t, err := db.prepTaskOracle(n)
		if err != nil {
			return nil, 0, err
		}
		if err := db.routeTaskOracle(t, false, s); err != nil {
			return nil, 0, err
		}
		res.Routes[n.ID] = t.route
		db.addUsage(res, n.ID, 1)
	}
	for it := 0; it < db.opt.MaxIters; it++ {
		cells, bins, _ := db.overflowed(res)
		if len(cells)+len(bins) == 0 {
			break
		}
		db.bumpHistory(cells)
		victims := db.overflowedNets(res, d.Nets, cells, bins)
		if len(victims) == 0 {
			break
		}
		sort.Slice(victims, func(i, j int) bool { return hpwl[victims[i].ID] > hpwl[victims[j].ID] })
		if len(victims) > 600 {
			victims = victims[:600]
		}
		for _, n := range victims {
			t, err := db.prepTaskOracle(n)
			if err != nil {
				continue
			}
			db.addUsage(res, n.ID, -1)
			if err := db.routeTaskOracle(t, it >= 2, s); err != nil {
				return nil, 0, err
			}
			res.Routes[n.ID] = t.route
			db.addUsage(res, n.ID, 1)
		}
		ripups += len(victims)
	}
	// Per-route metrics as the router stood: one loop, written out.
	for _, r := range res.Routes {
		if r == nil {
			continue
		}
		for _, sg := range r.Segments {
			if !sg.IsVia() {
				r.WL += db.segLen(sg)
				continue
			}
			r.Vias++
			if db.isF2F(sg) {
				r.F2F++
			}
		}
	}
	res.Recount(db)
	return res, ripups, nil
}

// congest fills the database with seeded pseudo-random usage, history
// and bump occupancy — from empty to past capacity — so candidate
// costs differ and every branch of the cost model is live.
func congest(db *DB, rng *geom.RNG) {
	hist := db.history()
	for i := range db.usage {
		db.usage[i] = int32(rng.Intn(int(db.cap[i]) + 3))
		if rng.Intn(4) == 0 {
			hist[i] = float32(2 * rng.Intn(4))
		}
	}
	for i := range db.f2fUse {
		db.f2fUse[i] = int32(rng.Intn(int(db.f2fCap[i]) + 2))
	}
}

// TestPatternRouteMatchesOracle: on a 2D stack, a combined F2F stack
// and a degenerate single-direction stack, under random congestion,
// the winner-only pattern router returns exactly the segments the
// six-candidate router picked — same candidate order, same tie-break —
// for thousands of pin pairs spanning every distance bucket, aligned
// pins, coincident pins and F2F-crossing via stacks.
func TestPatternRouteMatchesOracle(t *testing.T) {
	logic, _ := tech.NewBEOL28("logic", 6)
	macro, _ := tech.NewBEOL28("macro", 4)
	comb, err := tech.Combine(logic, macro, tech.DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	oneDir := logic.Clone()
	for i := range oneDir.Layers {
		oneDir.Layers[i].Dir = tech.DirHorizontal
	}
	for bi, beol := range []*tech.BEOL{logic, comb, oneDir} {
		db := NewDB(geom.R(0, 0, 600, 600), beol, nil, Options{GCellPitch: 10})
		if (bi == 2) != (len(db.hvPairs()) == 0) {
			t.Fatalf("stack %d: unexpected pair count %d", bi, len(db.hvPairs()))
		}
		rng := geom.NewRNG(uint64(100 + bi))
		congest(db, rng)
		nl := beol.NumLayers()
		crossed := 0
		for i := 0; i < 3000; i++ {
			a := At(rng.Intn(db.Grid.NX), rng.Intn(db.Grid.NY), rng.Intn(nl))
			// Spans cycle through the four distance buckets.
			span := []int{3, 7, 14, db.Grid.NX}[i%4]
			b := At(
				geom.ClampInt(int(a.X)+rng.Intn(2*span+1)-span, 0, db.Grid.NX-1),
				geom.ClampInt(int(a.Y)+rng.Intn(2*span+1)-span, 0, db.Grid.NY-1),
				rng.Intn(nl),
			)
			switch i % 7 {
			case 0:
				b.X = a.X
			case 1:
				b.Y = a.Y
			case 2:
				b.X, b.Y = a.X, a.Y
			}
			want := db.patternRouteOracle(a, b)
			prefix := []Seg{{A: At(1, 2, 3), B: At(1, 2, 4)}}
			got := db.patternRoute(a, b, prefix)
			if got[0] != prefix[0] {
				t.Fatalf("stack %d case %d: patternRoute overwrote dst", bi, i)
			}
			got = expandCuts(got[1:])
			if len(got) != len(want) {
				t.Fatalf("stack %d case %d %v→%v: %d segments, oracle %d", bi, i, a, b, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("stack %d case %d %v→%v: segment %d = %v, oracle %v", bi, i, a, b, k, got[k], want[k])
				}
				if want[k].Spans(db.f2fIdx) {
					crossed++
				}
			}
		}
		if bi == 1 && crossed == 0 {
			t.Fatal("combined stack: no case crossed the F2F boundary")
		}
	}
}

// TestPatternRouteAllocs: a two-pin pattern connection appended into a
// slice with room allocates nothing — no candidate is materialised, no
// pair list rebuilt.
func TestPatternRouteAllocs(t *testing.T) {
	db := db6(t, geom.R(0, 0, 400, 400), nil)
	dst := make([]Seg, 0, 64)
	a, b := At(1, 2, 0), At(30, 17, 3)
	allocs := testing.AllocsPerRun(100, func() {
		dst = db.patternRoute(a, b, dst[:0])
	})
	if allocs != 0 || len(dst) == 0 {
		t.Fatalf("pattern route allocates %.0f objects per connection (%d segments), want 0", allocs, len(dst))
	}
}

// TestRouteDesignAllocs: RouteDesign sizes its route records, pin nodes,
// tasks and MST edges once and stores each net's segments exact-size in
// an arena, so a run costs a constant number of objects per net, well
// under the five-plus-doublings of per-object prep; RouteNet's ECO
// route stays three objects of its own.
func TestRouteDesignAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("tile placement in -short mode")
	}
	d, die, blk := placedSmallTile(t)
	b6, _ := tech.NewBEOL28("logic", 6)
	nets := 0
	for _, n := range d.Nets {
		if !n.Clock && len(n.Sinks) > 0 {
			nets++
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := RouteDesign(d, NewDB(die, b6, blk, Options{})); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RouteDesign (with NewDB): %.0f objects for %d nets", allocs, nets)
	if allocs > 1.5*float64(nets) {
		t.Fatalf("RouteDesign allocates %.0f objects for %d nets, want ≤ 1.5 per net", allocs, nets)
	}
	// An ECO route rewrites the net's record where it lies: once the
	// DB's scratch and the record's spans are sized, nothing.
	db := NewDB(die, b6, blk, Options{})
	res := &Result{}
	n := d.Nets[0]
	if _, err := db.RouteNet(res, n); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		db.ReleaseNet(res, n.ID)
		if _, err := db.RouteNet(res, n); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("RouteNet allocates %.0f objects per call, want 0", allocs)
	}
}
