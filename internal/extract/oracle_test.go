package extract

import (
	"fmt"
	"math"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/par"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// extractNetOracle is the map-based extraction the flat kernel
// replaced, kept verbatim as the oracle: five maps keyed by route.Node
// and a boxed parent edge per tree node. The equivalence test demands
// exact equality of every NetRC field against it.
func extractNetOracle(n *netlist.Net, r *route.NetRoute, db *route.DB, corner tech.CornerScale) *NetRC {
	type eNode = route.Node
	type eEdge struct {
		to eNode
		r  float64
	}
	rc := &NetRC{ElmoreTo: make([]float64, len(n.Sinks))}

	adj := make(map[eNode][]eEdge)
	capAt := make(map[eNode]float64)
	addEdge := func(a, b eNode, res float64, c float64) {
		adj[a] = append(adj[a], eEdge{b, res})
		adj[b] = append(adj[b], eEdge{a, res})
		capAt[a] += c / 2
		capAt[b] += c / 2
		rc.WireR += res
	}

	for _, s := range r.Segments {
		if s.IsVia() {
			lo := s.A.L
			if s.B.L < lo {
				lo = s.B.L
			}
			v := db.Beol.Vias[lo]
			res := v.R * corner.WireR
			c := v.C * corner.WireC
			rc.WireC += c
			addEdge(s.A, s.B, res, c)
			continue
		}
		ly := db.Beol.Layers[s.A.L]
		length := float64(geom.AbsInt(int(s.B.X)-int(s.A.X)))*db.Grid.DX + float64(geom.AbsInt(int(s.B.Y)-int(s.A.Y)))*db.Grid.DY
		res := length * ly.RPerUm * corner.WireR
		c := length * ly.CPerUm * corner.WireC
		rc.WireC += c
		addEdge(s.A, s.B, res, c)
	}

	pins := append([]netlist.PinRef{n.Driver}, n.Sinks...)
	for i, p := range pins {
		if i == 0 {
			continue
		}
		capAt[r.PinNode[i]] += p.Cap()
		rc.PinC += p.Cap()
	}

	if len(pins) < 2 {
		return rc
	}
	driver := r.PinNode[0]

	parent := map[eNode]*eEdge{}
	order := []eNode{driver}
	seen := map[eNode]bool{driver: true}
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		for i := range adj[u] {
			e := adj[u][i]
			if !seen[e.to] {
				seen[e.to] = true
				parent[e.to] = &eEdge{to: u, r: e.r}
				order = append(order, e.to)
			}
		}
	}

	down := make(map[eNode]float64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		down[u] += capAt[u]
		if p := parent[u]; p != nil {
			down[p.to] += down[u]
		}
	}

	delay := make(map[eNode]float64, len(order))
	for _, u := range order {
		if p := parent[u]; p != nil {
			delay[u] = delay[p.to] + p.r*down[u]
		}
	}
	for i := range n.Sinks {
		rc.ElmoreTo[i] = delay[r.PinNode[i+1]]
	}
	return rc
}

// perCut is r with every via stack expanded into its cuts
// (route.Seg.Cut), in order: the form the oracle reads, one segment per
// cut.
func perCut(r *route.NetRoute) *route.NetRoute {
	c := *r
	c.Segments = make([]route.Seg, 0, route.Elements(r.Segments))
	for _, s := range r.Segments {
		if !s.IsVia() {
			c.Segments = append(c.Segments, s)
			continue
		}
		for k := range s.Cuts() {
			c.Segments = append(c.Segments, s.Cut(k))
		}
	}
	return &c
}

// randomNet builds one net with 0–6 sinks and a hand-made route over
// the combined stack: a random graph grown from the driver's node by
// straight runs and via stacks (through the F2F boundary too), with
// loops back to earlier nodes, repeated (parallel) edges and the odd
// zero-length segment. Sinks mostly sit on graph nodes; some sit on a
// node the segments never reach. It returns the indices of those.
func randomNet(rng *geom.RNG, d *netlist.Design, db *route.DB, id int) (*netlist.Net, *route.NetRoute, []int) {
	lib := d.Lib
	name := func(kind string, i int) string { return fmt.Sprintf("%s%d_%d", kind, id, i) }
	drv := d.AddInstance(name("d", 0), lib.MustCell("INV_X4"))
	sinkCells := []string{"INV_X1", "INV_X4", "BUF_X1"}
	var sinks []netlist.PinRef
	for i, k := 0, rng.Intn(7); i < k; i++ {
		s := d.AddInstance(name("s", i), lib.MustCell(sinkCells[rng.Intn(len(sinkCells))]))
		sinks = append(sinks, netlist.IPin(s, "A"))
	}
	n := d.AddNet(name("n", 0), netlist.IPin(drv, "Y"), sinks...)

	nl := db.Beol.NumLayers()
	nodes := []route.Node{route.At(20+rng.Intn(10), 20+rng.Intn(10), rng.Intn(nl))}
	r := &route.NetRoute{}
	for i, k := 0, rng.Intn(25); i < k; i++ {
		from := nodes[rng.Intn(len(nodes))]
		to := from
		switch rng.Intn(10) {
		case 0, 1, 2: // via stack of one to three cuts, across the F2F bump when it is next
			up := int(to.L)+1 < nl && (to.L == 0 || rng.Intn(2) == 0)
			for k := 1 + rng.Intn(3); k > 0; k-- {
				if up && int(to.L)+1 < nl {
					to.L++
				} else if !up && to.L > 0 {
					to.L--
				}
			}
		case 3, 4, 5:
			to.X += int16(1 + rng.Intn(8))
		case 6, 7:
			to.Y -= int16(1 + rng.Intn(8))
		case 8: // loop: close back onto an earlier node of the same layer or column
			for _, c := range nodes {
				if c != from && ((c.L == from.L && (c.X == from.X || c.Y == from.Y)) ||
					(c.X == from.X && c.Y == from.Y && c.L != from.L)) {
					to = c
					break
				}
			}
		case 9: // parallel edge: repeat an earlier segment, or a zero-length one
			if len(r.Segments) > 0 && rng.Intn(3) > 0 {
				s := r.Segments[rng.Intn(len(r.Segments))]
				from, to = s.B, s.A
			}
		}
		r.Segments = append(r.Segments, route.Seg{A: from, B: to})
		nodes = append(nodes, to)
	}
	r.PinNode = []route.Node{nodes[0]}
	var unreached []int
	for i := range sinks {
		if rng.Intn(8) == 0 {
			r.PinNode = append(r.PinNode, route.At(90+i, 90, rng.Intn(nl)))
			unreached = append(unreached, i)
			continue
		}
		r.PinNode = append(r.PinNode, nodes[rng.Intn(len(nodes))])
	}
	return n, r, unreached
}

func equalRC(a, b *NetRC) bool {
	if a.WireC != b.WireC || a.WireR != b.WireR || a.PinC != b.PinC ||
		len(a.ElmoreTo) != len(b.ElmoreTo) {
		return false
	}
	for i := range a.ElmoreTo {
		if a.ElmoreTo[i] != b.ElmoreTo[i] {
			return false
		}
	}
	return true
}

func combinedDB(t *testing.T) *route.DB {
	t.Helper()
	logic, _ := tech.NewBEOL28("logic", 6)
	macro, _ := tech.NewBEOL28("macro", 4)
	comb, err := tech.Combine(logic, macro, tech.DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	return route.NewDB(geom.R(0, 0, 1000, 1000), comb, nil, route.Options{GCellPitch: 10})
}

// TestExtractMatchesOracle: over thousands of seeded random nets — trees,
// looped routes with parallel edges, sinks the segments do not reach,
// single-pin nets, via stacks of up to three cuts through the F2F bump —
// one reused scratch yields NetRC values exactly equal (==, no
// tolerance) to the map-based oracle's over the same route one segment
// per cut (perCut). A sink off the routed graph has Elmore delay 0, as
// before.
// The nets share eight table slots, so nearly every extraction rewrites
// the record and Elmore vector another net left behind.
func TestExtractMatchesOracle(t *testing.T) {
	db := combinedDB(t)
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("x", lib)
	rng := geom.NewRNG(2024)
	corner := tech.CornerScale{CellDelay: 1.1, WireR: 1.07, WireC: 1.13, Leakage: 1}
	f2f := db.Beol.F2FViaIndex()
	var s Scratch
	var ex Design
	var singles, loops, offGraph, crossings, stacks int
	for id := 0; id < 4000; id++ {
		made, r, unreached := randomNet(rng, d, db, id)
		slot := *made
		slot.ID = id % 8
		n := &slot
		if id == 1500 {
			s.gen = math.MaxUint32 - 1 // run the table's generation wrap
		}
		want := extractNetOracle(n, perCut(r), db, corner)
		got := ex.Reextract(&s, n, r, db, corner)
		if got != ex.Nets[n.ID] || id >= 8 && len(ex.Nets) != 8 {
			t.Fatalf("net %d: Reextract did not rewrite slot %d of %d", id, n.ID, len(ex.Nets))
		}
		if !equalRC(got, want) {
			t.Fatalf("net %d (%d sinks, %d segments): got %+v, oracle %+v",
				id, len(n.Sinks), len(r.Segments), got, want)
		}
		for _, i := range unreached {
			// Unreached unless the random node happens to be the driver's.
			if r.PinNode[i+1] != r.PinNode[0] && got.ElmoreTo[i] != 0 {
				t.Fatalf("net %d: sink %d is off the routed graph but has Elmore %v", id, i, got.ElmoreTo[i])
			}
			offGraph++
		}
		if len(n.Sinks) == 0 {
			singles++
		}
		seen := map[route.Node]bool{r.PinNode[0]: true}
		for _, sg := range r.Segments {
			if seen[sg.A] && seen[sg.B] {
				loops++
			}
			seen[sg.A], seen[sg.B] = true, true
			if sg.Spans(f2f) {
				crossings++
			}
			if sg.Cuts() > 1 {
				stacks++
			}
		}
	}
	if singles == 0 || loops == 0 || offGraph == 0 || crossings == 0 || stacks == 0 {
		t.Fatalf("generator missed a class: %d single-pin nets, %d loop edges, %d off-graph sinks, %d F2F vias, %d multi-cut stacks",
			singles, loops, offGraph, crossings, stacks)
	}
}

// routedNets is a design of 300 multi-pin nets routed on the combined
// stack, their MST paths overlapping.
func routedNets(t *testing.T) (*netlist.Design, *route.DB, *route.Result) {
	t.Helper()
	db := combinedDB(t)
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("x", lib)
	rng := geom.NewRNG(7)
	for i := 0; i < 300; i++ {
		drv := d.AddInstance(fmt.Sprintf("d%d", i), lib.MustCell("INV_X4"))
		drv.Loc = geom.Pt(rng.Range(20, 960), rng.Range(20, 960))
		var sinks []netlist.PinRef
		for k := 0; k <= rng.Intn(6); k++ {
			s := d.AddInstance(fmt.Sprintf("%ss%d", drv.Name, k), lib.MustCell("INV_X1"))
			s.Loc = geom.Pt(rng.Range(20, 960), rng.Range(20, 960))
			sinks = append(sinks, netlist.IPin(s, "A"))
		}
		d.AddNet("n"+drv.Name, netlist.IPin(drv, "Y"), sinks...)
	}
	res, err := route.RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	return d, db, res
}

// TestExtractMatchesOracleRouted repeats the comparison on real router
// output.
func TestExtractMatchesOracleRouted(t *testing.T) {
	d, db, res := routedNets(t)
	ex := Extract(d, res, db, typical())
	for _, n := range d.Nets {
		if want := extractNetOracle(n, perCut(res.Routes[n.ID]), db, typical()); !equalRC(ex.Nets[n.ID], want) {
			t.Fatalf("net %s: got %+v, oracle %+v", n.Name, ex.Nets[n.ID], want)
		}
	}
	// The full pass carves its records from per-chunk arrays: what it
	// allocates is those, the table and each worker's scratch growth —
	// not two objects per net.
	allocs := testing.AllocsPerRun(3, func() { Extract(d, res, db, typical()) })
	t.Logf("full Extract: %.0f objects for %d nets", allocs, len(d.Nets))
	if allocs > 1.5*float64(len(d.Nets)) {
		t.Fatalf("full Extract allocates %.0f objects for %d nets, want ≤ 1.5 per net", allocs, len(d.Nets))
	}
}

// TestExtractOnWideTeam: on teams so wide that ⌈n/workers⌉-net chunks
// run out before the workers do (300 nets on 32 workers are 30 chunks of
// ten, on 64 workers 60 of five), ExtractOn prepares only the chunks the
// team runs, and every record and total equals the serial Extract's.
func TestExtractOnWideTeam(t *testing.T) {
	d, db, res := routedNets(t)
	want := Extract(d, res, db, typical())
	for _, workers := range []int{2, 32, 64, 300} {
		var team par.Team
		team.Start(workers, nil)
		got := ExtractOn(&team, d, res, db, typical())
		team.Close()
		if got.CWireTotal != want.CWireTotal || got.CPinTotal != want.CPinTotal {
			t.Errorf("workers=%d: totals %v/%v, serial %v/%v", workers, got.CWireTotal, got.CPinTotal, want.CWireTotal, want.CPinTotal)
		}
		for id, w := range want.Nets {
			if g := got.Nets[id]; (g == nil) != (w == nil) || g != nil && !equalRC(g, w) {
				t.Fatalf("workers=%d: net %s: got %+v, serial %+v", workers, d.Nets[id].Name, g, w)
			}
		}
	}
}

// TestReextractAllocs: on a warmed scratch, re-extracting a net that has
// a record rewrites it where it lies and allocates nothing.
func TestReextractAllocs(t *testing.T) {
	d, db, res := setup(t, 300, 100)
	ex := Extract(d, res, db, typical())
	var s Scratch
	ex.Reextract(&s, d.Nets[0], res.Routes[0], db, typical()) // warm-up sizes the scratch
	allocs := testing.AllocsPerRun(100, func() {
		ex.Reextract(&s, d.Nets[0], res.Routes[0], db, typical())
	})
	if allocs != 0 {
		t.Fatalf("Reextract allocates %.0f objects per net on a warm scratch, want 0", allocs)
	}
}

// TestCapsAllocs: summing the capacitance totals builds no node table
// and no record — it allocates nothing.
func TestCapsAllocs(t *testing.T) {
	d, db, res := routedNets(t)
	if allocs := testing.AllocsPerRun(20, func() { Caps(d, res, db, typical()) }); allocs != 0 {
		t.Fatalf("Caps allocates %.0f objects per call, want 0", allocs)
	}
}
