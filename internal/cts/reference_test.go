package cts

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/tech"
)

// refTree is what the copy-per-level builder produced: the Tree fields
// and a latency map keyed by instance ID.
type refTree struct {
	Tree
	latencyOf map[int]float64
}

// refBuild is the builder Build replaced, kept as the reference: every
// node copies its sink set before sorting it, the bounding box goes
// through a point slice, latencies land in a map and the mean is summed
// over its sorted keys. Build must reproduce it bit for bit.
func refBuild(clk *netlist.Net, src geom.Point, lib *cell.Library, beol *tech.BEOL, opt Options) *refTree {
	opt = opt.withDefaults()
	buf := lib.MustCell(ClockBuffer)
	rPer, cPer := clockWireRC(beol)

	var sinks []Sink
	for _, s := range clk.Sinks {
		if s.Inst == nil {
			continue
		}
		sinks = append(sinks, Sink{Inst: s.Inst, Loc: s.Loc(), Cap: s.Cap()})
	}
	t := &refTree{latencyOf: make(map[int]float64, len(sinks))}
	if len(sinks) == 0 {
		return t
	}

	t.MinLatency = math.MaxFloat64
	t.RootDelay = refNode(t, sinks, src, 1, 0, buf, rPer, cPer, opt)
	if t.MinLatency == math.MaxFloat64 {
		t.MinLatency = 0
	}
	t.Skew = t.MaxLatency - t.MinLatency

	if !opt.NoSkewBalance && len(t.latencyOf) > 1 {
		spread := residualSkew
		if t.Skew < spread {
			spread = t.Skew
		}
		for id, l := range t.latencyOf {
			frac := 0.0
			if t.Skew > 0 {
				frac = (t.MaxLatency - l) / t.Skew
			}
			t.latencyOf[id] = t.MaxLatency - frac*spread
		}
		t.MinLatency = t.MaxLatency - spread
		t.Skew = spread
	}

	ids := make([]int, 0, len(t.latencyOf))
	for id := range t.latencyOf {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	sum := 0.0
	for _, id := range ids {
		sum += t.latencyOf[id]
	}
	t.MeanLatency = sum / float64(len(t.latencyOf))
	t.Sinks = len(t.latencyOf)
	return t
}

func refNode(t *refTree, sinks []Sink, at geom.Point, depth int, pathLatency float64, buf *cell.Cell, rPer, cPer float64, opt Options) float64 {
	t.Buffers++
	if depth > t.Depth {
		t.Depth = depth
	}
	t.PinCap += buf.Pin("A").Cap

	if len(sinks) <= opt.MaxLeafSinks {
		var load, wl float64
		for _, s := range sinks {
			dist := at.Manhattan(s.Loc)
			wl += dist
			load += s.Cap + dist*cPer
		}
		t.Wirelength += wl
		t.WireCap += wl * cPer
		caps := 0.0
		for _, k := range sinks {
			caps += k.Cap
		}
		t.PinCap += caps
		drv := buf.Delay(load, 0)
		for _, s := range sinks {
			dist := at.Manhattan(s.Loc)
			wire := dist * rPer * (dist*cPer/2 + s.Cap)
			lat := pathLatency + drv + wire
			t.latencyOf[s.Inst.ID] = lat
			if lat > t.MaxLatency {
				t.MaxLatency = lat
			}
			if lat < t.MinLatency {
				t.MinLatency = lat
			}
		}
		return pathLatency + drv
	}

	pts := make([]geom.Point, len(sinks))
	for i, s := range sinks {
		pts[i] = s.Loc
	}
	bb := geom.BoundingBox(pts)
	byX := bb.W() >= bb.H()
	sorted := append([]Sink(nil), sinks...)
	slices.SortFunc(sorted, func(p, q Sink) int {
		if byX {
			return cmp.Compare(p.Loc.X, q.Loc.X)
		}
		return cmp.Compare(p.Loc.Y, q.Loc.Y)
	})
	mid := len(sorted) / 2
	halves := [][]Sink{sorted[:mid], sorted[mid:]}

	var childLocs [2]geom.Point
	var load float64
	for i, h := range halves {
		childLocs[i] = centroid(h)
		dist := at.Manhattan(childLocs[i])
		load += dist*cPer + buf.Pin("A").Cap
	}
	drv := buf.Delay(load, 0)

	for i, h := range halves {
		dist := at.Manhattan(childLocs[i])
		t.Wirelength += dist
		t.WireCap += dist * cPer
		nRep := int(dist / opt.RepeaterSpan)
		repDelay := 0.0
		childDepth := depth + 1 + nRep
		if nRep > 0 {
			t.Buffers += nRep
			t.PinCap += float64(nRep) * buf.Pin("A").Cap
			seg := dist / float64(nRep+1)
			segRC := seg * rPer * (seg*cPer/2 + buf.Pin("A").Cap)
			repDelay = float64(nRep)*buf.Delay(seg*cPer+buf.Pin("A").Cap, 0) + float64(nRep+1)*segRC
		} else {
			repDelay = dist * rPer * (dist*cPer/2 + buf.Pin("A").Cap)
		}
		refNode(t, h, childLocs[i], childDepth, pathLatency+drv+repDelay, buf, rPer, cPer, opt)
	}
	return pathLatency + drv
}

// sameAsReference builds the tree both ways and compares every Tree
// field and every instance's latency with ==.
func sameAsReference(t *testing.T, d *netlist.Design, clk *netlist.Net, src geom.Point, opt Options) *Tree {
	t.Helper()
	b := beol(t)
	want := refBuild(clk, src, d.Lib, b, opt)
	got := Build(d, clk, src, d.Lib, b, opt)
	g, w := *got, want.Tree
	g.Latency, w.Latency = nil, nil
	if !equalTreeFields(g, w) {
		t.Fatalf("tree fields differ:\n got  %+v\n want %+v", g, w)
	}
	if len(got.Latency) != len(d.Instances) {
		t.Fatalf("Latency covers %d instances, design has %d", len(got.Latency), len(d.Instances))
	}
	for id := range d.Instances {
		if got.LatencyOf(id) != want.latencyOf[id] {
			t.Fatalf("instance %d: latency %v, reference %v", id, got.LatencyOf(id), want.latencyOf[id])
		}
	}
	if got.LatencyOf(len(d.Instances)+7) != 0 {
		t.Fatal("LatencyOf past the design's instances is not 0")
	}
	return got
}

func equalTreeFields(a, b Tree) bool {
	return a.Depth == b.Depth && a.Buffers == b.Buffers && a.Sinks == b.Sinks &&
		a.Wirelength == b.Wirelength && a.WireCap == b.WireCap && a.PinCap == b.PinCap &&
		a.MaxLatency == b.MaxLatency && a.MinLatency == b.MinLatency && a.Skew == b.Skew &&
		a.MeanLatency == b.MeanLatency && a.RootDelay == b.RootDelay
}

// placedTinyTile is a floorplanned, placed tiny tile: real sink
// positions, with the ties a row-based placement produces.
func placedTinyTile(t *testing.T) (*piton.Tile, geom.Rect) {
	t.Helper()
	tile, err := piton.Generate(piton.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	sz, err := floorplan.SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.PlaceMacros(d, sz.Die2D, floorplan.Style2D)
	if err != nil {
		t.Fatal(err)
	}
	floorplan.BuildBlockages(fp, d, netlist.LogicDie)
	floorplan.AssignPorts(tile, sz.Die2D)
	if _, err := place.Place(d, fp, 1.2, place.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return tile, sz.Die2D
}

// TestBuildMatchesCopyPerLevelReference: the in-place bisection equals
// the copy-per-level one on every Tree field and every sink latency —
// on a placed tile, on its 4×4 array (where sixteen copies repeat every
// coordinate difference), and on a synthetic built out of ties.
func TestBuildMatchesCopyPerLevelReference(t *testing.T) {
	tile, die := placedTinyTile(t)
	d := tile.Design
	for _, opt := range []Options{{}, {NoSkewBalance: true}, {MaxLeafSinks: 3, RepeaterSpan: 40}} {
		tr := sameAsReference(t, d, d.Net("clk"), d.Port("clk_i").Loc, opt)
		if tr.Sinks < 100 {
			t.Fatalf("tile tree reaches %d sinks — too small to exercise the bisection", tr.Sinks)
		}
	}

	arr, _, err := piton.Abut(tile, die, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := sameAsReference(t, arr, arr.Net("clk"), arr.Port("clk_i").Loc, Options{})
	if want := 16 * len(d.Net("clk").Sinks); tr.Sinks != want {
		t.Fatalf("array tree reaches %d sinks, want %d", tr.Sinks, want)
	}

	// Ties: 600 flip-flops in three columns, so that every X sort is all
	// ties and most Y sorts tie in threes; a few share both coordinates.
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	td := netlist.NewDesign("ties", lib)
	port := td.AddPort("clk", cell.DirIn)
	rng := geom.NewRNG(11)
	var sinks []netlist.PinRef
	for i := 0; i < 600; i++ {
		if i%50 == 0 { // a gate between the flip-flops: an instance the tree does not reach
			td.AddInstance("g"+itoa(i), lib.MustCell("INV_X1"))
		}
		ff := td.AddInstance("ff"+itoa(i), lib.MustCell("DFF_X1"))
		ff.Loc = geom.Pt(float64(i%3)*0.5, float64(rng.Intn(200))*1.2)
		if i < 400 {
			ff.Loc.X = 7 // hundreds of sinks sharing one X
		}
		sinks = append(sinks, netlist.IPin(ff, "CK"))
	}
	clk := td.AddNet("clk", netlist.PPin(port), sinks...)
	clk.Clock = true
	for _, opt := range []Options{{}, {MaxLeafSinks: 2}, {NoSkewBalance: true}} {
		if tr := sameAsReference(t, td, clk, geom.Pt(0, 0), opt); tr.Sinks != 600 {
			t.Fatalf("synthetic tree reaches %d sinks, want 600", tr.Sinks)
		}
	}
}

// TestBuildAllocationBudget: a build allocates the tree, the latency
// table and the one sink array — a constant number of objects, and bytes
// linear in the design — however deep the bisection goes. A copy per
// level or per bounding box would cost an object per node.
func TestBuildAllocationBudget(t *testing.T) {
	b := beol(t)
	for _, n := range []int{16, 64} {
		d, clk, src := gridDesign(n, n, 30)
		var tr *Tree
		objs := testing.AllocsPerRun(3, func() { tr = Build(d, clk, src, d.Lib, b, Options{}) })
		if objs > 6 {
			t.Errorf("%d sinks: %v objects per Build, want a constant ≤ 6", n*n, objs)
		}
		if tr.Buffers < n*n/12 {
			t.Fatalf("%d sinks: only %d buffers — the tree was not built", n*n, tr.Buffers)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		Build(d, clk, src, d.Lib, b, Options{})
		runtime.ReadMemStats(&m1)
		const perSink = 64 // a Sink record (40 B) and a latency slot (8 B), with room
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(perSink*n*n+512); got > limit {
			t.Errorf("%d sinks: %d B per Build, budget %d", n*n, got, limit)
		}
	}
}
