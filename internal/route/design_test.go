package route

import (
	"slices"
	"testing"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/tech"
)

// placedSmallTile generates, floorplans and places the small-cache
// piton tile — the shared fixture of the tile-scale router tests.
func placedSmallTile(t *testing.T) (*netlist.Design, geom.Rect, []floorplan.RouteBlockage) {
	t.Helper()
	tile, err := piton.Generate(piton.SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	sz, err := floorplan.SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := floorplan.PlaceMacros(d, sz.Die2D, floorplan.Style2D)
	if err != nil {
		t.Fatal(err)
	}
	floorplan.BuildBlockages(fp, d, netlist.LogicDie)
	floorplan.AssignPorts(tile, sz.Die2D)
	if _, err := place.Place(d, fp, 1.2, place.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return d, sz.Die2D, fp.RouteBlk
}

// TestRouteDesignMatchesOracle pins the router's core contracts on a
// placed tile: the slab-backed RouteDesign produces results
// byte-identical to the per-object router kept as the oracle
// (oracle_test.go) — every usage and history counter, every pin node and
// segment of every net, every per-route and aggregate metric — and after
// the rip-up waves the incrementally maintained usage equals a rebuild
// from the final routes.
func TestRouteDesignMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("tile routing in -short mode")
	}
	d, die, blk := placedSmallTile(t)
	b6, _ := tech.NewBEOL28("logic", 6)

	refDB := NewDB(die, b6, blk, Options{})
	ref, ripups, err := routeDesignOracle(d, refDB)
	if err != nil {
		t.Fatal(err)
	}
	if ripups == 0 || refDB.hist == nil {
		t.Fatal("the oracle ripped up no net; the test needs negotiation waves")
	}

	db := NewDB(die, b6, blk, Options{})
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.WL != ref.WL || res.Vias != ref.Vias ||
		res.F2FBumps != ref.F2FBumps || res.Overflow != ref.Overflow {
		t.Fatalf("aggregates diverged: WL %v/%v vias %d/%d f2f %d/%d overflow %d/%d",
			res.WL, ref.WL, res.Vias, ref.Vias,
			res.F2FBumps, ref.F2FBumps, res.Overflow, ref.Overflow)
	}
	if !slices.Equal(res.WLPerLayer, ref.WLPerLayer) {
		t.Fatalf("per-layer WL %v, oracle %v", res.WLPerLayer, ref.WLPerLayer)
	}
	if !slices.Equal(db.usage, refDB.usage) || !slices.Equal(db.f2fUse, refDB.f2fUse) ||
		!slices.Equal(db.hist, refDB.hist) {
		t.Fatal("usage / F2F usage / history diverged from the oracle")
	}
	for id, rr := range ref.Routes {
		pr := res.Routes[id]
		if (rr == nil) != (pr == nil) {
			t.Fatalf("net %d presence diverged", id)
		}
		if rr == nil {
			continue
		}
		if pr.WL != rr.WL || pr.Vias != rr.Vias || pr.F2F != rr.F2F {
			t.Fatalf("net %d record %+v, oracle %+v", id, *pr, *rr)
		}
		if !slices.Equal(pr.PinNode, rr.PinNode) {
			t.Fatalf("net %d pin nodes %v, oracle %v", id, pr.PinNode, rr.PinNode)
		}
		if !slices.Equal(pr.Segments, rr.Segments) {
			t.Fatalf("net %d segments %v, oracle %v", id, pr.Segments, rr.Segments)
		}
		if cap(pr.Segments) != len(pr.Segments) {
			t.Fatalf("net %d: %d segments stored with capacity %d, want exact size",
				id, len(pr.Segments), cap(pr.Segments))
		}
	}
	usage, f2f := slices.Clone(db.usage), slices.Clone(db.f2fUse)
	db.RebuildUsage(res)
	if !slices.Equal(db.usage, usage) || !slices.Equal(db.f2fUse, f2f) {
		t.Fatal("usage after the rip-up waves differs from RebuildUsage")
	}
}

// TestMazeAllocs bounds the steady-state allocation count of one
// two-pin maze connection. The pre-window implementation allocated
// whole-grid dist/prev arrays plus one boxed container/heap item per
// push — hundreds of allocations per connection. With the reusable
// scratch only the returned segment slice survives.
func TestMazeAllocs(t *testing.T) {
	db := db6(t, geom.R(0, 0, 200, 200), nil)
	a, b := Node{0, 0, 0}, Node{10, 10, 3}
	if _, err := db.mazeRoute(a, b); err != nil {
		t.Fatal(err) // warm-up sizes the scratch
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.mazeRoute(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("maze route allocates %.0f objects per connection, want ≤ 10", allocs)
	}
}

// TestScratchReuse verifies the scratch actually gets reused: the
// first search grows the backing arrays (a miss), repeats over the
// same window are served from the existing allocation (hits).
func TestScratchReuse(t *testing.T) {
	db := db6(t, geom.R(0, 0, 200, 200), nil)
	a, b := Node{0, 0, 0}, Node{10, 10, 3}
	for i := 0; i < 3; i++ {
		if _, err := db.mazeRoute(a, b); err != nil {
			t.Fatal(err)
		}
	}
	s := db.scratch()
	if s.misses == 0 {
		t.Fatal("first search should have grown the scratch (miss)")
	}
	if s.hits < 2 {
		t.Fatalf("repeat searches should reuse the scratch: hits = %d", s.hits)
	}
}

// TestScratchGrowsGeometrically: windows growing one node at a time
// reallocate the scratch O(log) times, not once each, and a grown
// scratch keeps the generation reset — nothing from an earlier search
// reads as visited.
func TestScratchGrowsGeometrically(t *testing.T) {
	var s mazeScratch
	for size := 1; size <= 4096; size++ {
		s.reset(size)
		for i := 0; i < size; i++ {
			if s.visited(i) {
				t.Fatalf("size %d: node %d visited before the search", size, i)
			}
		}
		s.visit(size-1, 1, -1)
	}
	if s.misses > 13 {
		t.Fatalf("4096 ever-larger windows reallocated the scratch %d times, want ≤ 13", s.misses)
	}
}
