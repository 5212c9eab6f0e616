package opt

import (
	"testing"

	"macro3d/internal/cts"
	"macro3d/internal/ddb"
	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
)

// tilePreOpt takes the small-cache tile through the 2D flow up to the
// optimizer: floorplan, placement, CTS, routing, slow-corner extraction.
func tilePreOpt(t *testing.T) *Context {
	t.Helper()
	tc, err := tech.New28(6)
	if err != nil {
		t.Fatal(err)
	}
	tile, err := piton.Generate(piton.SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	sz, err := floorplan.SizeDesign(d, 0.70, 1.0, tc.RowHeight)
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := floorplan.PlaceMacros(d, sz.Die2D, floorplan.Style2D)
	if err != nil {
		t.Fatal(err)
	}
	floorplan.BuildBlockages(fp, d, netlist.LogicDie)
	floorplan.AssignPorts(tile, sz.Die2D)
	if _, err := place.Place(d, fp, tc.RowHeight, place.Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	src := geom.Pt(sz.Die2D.Lx, sz.Die2D.Center().Y)
	if p := d.Port("clk_i"); p != nil {
		src = p.Loc
	}
	tree := cts.Build(d, d.Net("clk"), src, d.Lib, tc.Logic, cts.Options{})
	grid := route.NewDB(sz.Die2D, tc.Logic, fp.RouteBlk, route.Options{})
	routes, err := route.RouteDesign(d, grid)
	if err != nil {
		t.Fatal(err)
	}
	slow := tc.CornerScaleFor(tech.CornerSlow)
	return &Context{
		Clock: tree, FP: fp, RowHeight: tc.RowHeight,
		DDB: ddb.New(d, grid, routes, extract.Extract(d, routes, grid, slow), slow),
	}
}

// TestJournalsMatchScratchOnTile runs the optimizer over the small 2D
// tile with SelfCheck on, which after every commit and every rollback
// compares the journaled free space with a fresh NewFreeSpace (== on
// every interval) and the journaled adjacency with a from-scratch
// build (row for row). Both outcomes must occur for the run to count.
// It also holds the buffer gauge to what the design actually gained:
// buffers of rolled-back iterations are not counted.
func TestJournalsMatchScratchOnTile(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tile optimization")
	}
	ctx := tilePreOpt(t)
	ctx.Obs = obs.New().StartSpan("opt")
	ctx.DDB.AttachObs(ctx.Obs)
	before := len(ctx.DDB.Design.Instances)
	res, err := Optimize(ctx, sta.Options{}, Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := ctx.Obs.Reg()
	commits := reg.Counter("ddb_txn_commits_total", "").Value()
	rollbacks := reg.Counter("ddb_txn_rollbacks_total", "").Value()
	if commits == 0 || rollbacks == 0 {
		t.Fatalf("%d commits, %d rollbacks: the run must exercise both", commits, rollbacks)
	}
	if gained := len(ctx.Design.Instances) - before; res.Buffers != gained {
		t.Fatalf("Result.Buffers = %d, the design gained %d instances", res.Buffers, gained)
	}
	t.Logf("%d commits, %d rollbacks, %d buffers kept", commits, rollbacks, res.Buffers)
}
