// External test package: flows imports verify (the sign-off stage),
// and these tests drive full flows, so an in-package test would create
// an import cycle.
package verify_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/core"
	"macro3d/internal/floorplan"
	"macro3d/internal/flows"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/route"
	"macro3d/internal/tech"
	"macro3d/internal/verify"
)

func TestPlacementCatchesOverlap(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("v", lib)
	a := d.AddInstance("a", lib.MustCell("INV_X4"))
	a.Loc = geom.Pt(10, 10)
	a.Placed = true
	b := d.AddInstance("b", lib.MustCell("INV_X4"))
	b.Loc = geom.Pt(10.1, 10) // overlapping
	b.Placed = true
	rep := &verify.Report{}
	verify.Placement(rep, d, geom.R(0, 0, 100, 100))
	if rep.Clean() {
		t.Fatal("overlap missed")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Kind == "overlap" {
			found = true
		}
	}
	if !found {
		t.Fatalf("wrong kind: %v", rep.Violations)
	}
	// Different dies may overlap in (x, y).
	b.Die = netlist.MacroDie
	rep2 := &verify.Report{}
	verify.Placement(rep2, d, geom.R(0, 0, 100, 100))
	if !rep2.Clean() {
		t.Fatalf("cross-die overlap flagged: %v", rep2.Violations)
	}
}

func TestPlacementCatchesOffDieAndMacroOverlap(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("v", lib)
	a := d.AddInstance("a", lib.MustCell("INV_X1"))
	a.Loc = geom.Pt(-5, 10)
	a.Placed = true
	sram, _ := cell.NewSRAM(cell.SRAMSpec{Name: "m", Words: 512, Bits: 8})
	m := d.AddInstance("mem", sram)
	m.Loc = geom.Pt(20, 20)
	m.Placed = true
	c := d.AddInstance("c", lib.MustCell("INV_X1"))
	c.Loc = geom.Pt(25, 25) // on the macro, same die
	c.Placed = true
	rep := &verify.Report{}
	verify.Placement(rep, d, geom.R(0, 0, 200, 200))
	kinds := map[string]int{}
	for _, v := range rep.Violations {
		kinds[v.Kind]++
	}
	if kinds["off-die"] == 0 || kinds["overlap"] == 0 {
		t.Fatalf("kinds: %v", kinds)
	}
}

func TestPlacementCatchesZeroAreaMacro(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("v", lib)
	degenerate := &cell.Cell{Name: "ZERO", Kind: cell.KindMacro, Width: 0, Height: 0}
	lib.Add(degenerate)
	m := d.AddInstance("z", degenerate)
	m.Loc = geom.Pt(10, 10)
	m.Placed = true
	rep := &verify.Report{}
	verify.Placement(rep, d, geom.R(0, 0, 100, 100))
	found := false
	for _, v := range rep.Violations {
		if v.Kind == "zero-area" {
			found = true
		}
	}
	if !found {
		t.Fatalf("zero-area macro missed: %v", rep.Violations)
	}
}

func TestReportDedupAndTruncation(t *testing.T) {
	// Identical findings collapse into one entry with a count.
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("v", lib)
	a := d.AddInstance("a", lib.MustCell("INV_X4"))
	a.Loc = geom.Pt(10, 10)
	a.Placed = true
	b := d.AddInstance("b", lib.MustCell("INV_X4"))
	b.Loc = geom.Pt(10.05, 10)
	b.Placed = true
	rep := &verify.Report{}
	verify.Placement(rep, d, geom.R(0, 0, 100, 100))
	verify.Placement(rep, d, geom.R(0, 0, 100, 100)) // same findings again
	for _, v := range rep.Violations {
		if v.Kind == "overlap" && v.Count != 2 {
			t.Fatalf("duplicate overlap not collapsed: %+v", v)
		}
	}
	if rep.Total != 2*len(rep.Violations) {
		t.Fatalf("Total %d, want %d", rep.Total, 2*len(rep.Violations))
	}

	// Past the cap, distinct findings are dropped but counted.
	many := &verify.Report{}
	var bumps []geom.Point
	// 300 bumps in a tight 0.1 µm row at a 1 µm pitch → well over 200
	// distinct pair violations.
	for i := 0; i < 300; i++ {
		bumps = append(bumps, geom.Pt(float64(i)*0.1, 0))
	}
	verify.BumpRules(many, bumps, tech.DefaultF2F())
	if !many.Truncated {
		t.Fatal("cap hit but Truncated not set")
	}
	if len(many.Violations) != 200 {
		t.Fatalf("kept %d findings, want 200", len(many.Violations))
	}
	if many.Total <= 200 {
		t.Fatalf("Total %d did not keep counting past the cap", many.Total)
	}
}

func TestErrorRendersSummary(t *testing.T) {
	rep := &verify.Report{}
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("v", lib)
	a := d.AddInstance("a", lib.MustCell("INV_X1"))
	a.Loc = geom.Pt(-5, 10)
	a.Placed = true
	verify.Placement(rep, d, geom.R(0, 0, 100, 100))
	err := &verify.Error{Report: rep}
	if !strings.Contains(err.Error(), "off-die") {
		t.Fatalf("error lacks finding kinds: %v", err)
	}
}

func TestBumpRules(t *testing.T) {
	f2f := tech.DefaultF2F()
	rep := &verify.Report{}
	verify.BumpRules(rep, []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2.4, Y: 0}}, f2f)
	if rep.Clean() {
		t.Fatal("0.4 µm bump spacing accepted at 1 µm pitch")
	}
	rep2 := &verify.Report{}
	verify.BumpRules(rep2, []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}, f2f)
	if !rep2.Clean() {
		t.Fatalf("legal grid flagged: %v", rep2.Violations)
	}
}

func TestFullSignoffOnMacro3DFlow(t *testing.T) {
	cfg := flows.Config{Piton: piton.Tiny(), Seed: 5}
	_, st, mol, err := flows.RunMacro3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logicPart, _, err := core.Separate(mol, st.Routes, st.DB)
	if err != nil {
		t.Fatal(err)
	}
	// The tile's abutment pairs, as its flow's verify stage checks them.
	pairs := map[string]string{}
	for name, p := range st.Tile.Partners() {
		pairs[name] = p.Name
	}
	if len(pairs) == 0 {
		t.Fatal("the tile has no abutment pairs")
	}
	t28, _ := tech.New28(6)
	rep := verify.Full(st.Design, st.Die, st.Routes, logicPart.Bumps, t28.F2F, pairs)
	if !rep.Clean() {
		for i, v := range rep.Violations {
			t.Errorf("violation: %v", v)
			if i > 5 {
				break
			}
		}
		t.Fatalf("Macro-3D sign-off found %d violations", rep.Total)
	}
	if rep.Checked.Instances == 0 || rep.Checked.Nets == 0 || rep.Checked.Bumps == 0 {
		t.Fatalf("checks did not run: %+v", rep.Checked)
	}
}

func TestFullSignoffOn2DFlow(t *testing.T) {
	cfg := flows.Config{Piton: piton.Tiny(), Seed: 5}
	_, st, err := flows.Run2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := verify.Full(st.Design, st.Die, st.Routes, nil, tech.DefaultF2F(), nil)
	if !rep.Clean() {
		t.Fatalf("2D sign-off: %v", rep.Violations[:min(3, len(rep.Violations))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestObstructionsGeometry: a gcell-layer one blockage rect covers whole
// is blocked, one it covers in part is not. Each blocked gcell-layer a
// net's wire or via stack enters — at an end or at a layer it climbs
// through — is one violation, however many of its segments touch it,
// unless it lies in the column of one of the net's own pins: that is pin
// access, counted apart.
func TestObstructionsGeometry(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("v", lib)
	a := d.AddInstance("a", lib.MustCell("INV_X1"))
	b := d.AddInstance("b", lib.MustCell("INV_X1"))
	d.AddNet("n", netlist.IPin(a, "Y"), netlist.IPin(b, "A"))
	beol, err := tech.NewBEOL28("logic", 6)
	if err != nil {
		t.Fatal(err)
	}
	// 10 × 10 gcells of 10 µm; on M2 the rect covers columns 2–4 whole
	// and column 5 in half.
	blk := verify.Blockages{
		Grid:  geom.NewGrid(geom.R(0, 0, 100, 100), 10),
		Beol:  beol,
		Rects: []floorplan.RouteBlockage{{Layer: beol.Layers[1].Name, Rect: geom.R(20, 0, 55, 100)}},
	}
	res := &route.Result{Routes: []*route.NetRoute{{
		PinNode: []route.Node{route.At(3, 2, 0), route.At(9, 5, 0)},
		Segments: []route.Seg{
			{A: route.At(3, 2, 0), B: route.At(3, 2, 1)}, // pin access at (3, 2)
			{A: route.At(3, 2, 1), B: route.At(3, 5, 1)}, // enters (3, 3)–(3, 5)
			{A: route.At(3, 5, 1), B: route.At(9, 5, 1)}, // (3, 5) again, (4, 5)
			{A: route.At(9, 5, 1), B: route.At(9, 5, 0)},
		},
	}}}
	rep := &verify.Report{}
	verify.Obstructions(rep, d, res, blk)
	if rep.Total != 4 || rep.Checked.PinAccess != 1 {
		t.Fatalf("%d crossings, %d pin access; want 4 and 1: %v", rep.Total, rep.Checked.PinAccess, rep.Violations)
	}
	for _, v := range rep.Violations {
		if v.Kind != "obstruction" || !strings.Contains(v.Msg, beol.Layers[1].Name) {
			t.Fatalf("finding %v", v)
		}
	}
	// A stack from layer 0 to 3 at (4, 8) climbs through the M2 wall.
	r := res.Routes[0]
	r.Segments = append(r.Segments, route.Seg{A: route.At(4, 8, 0), B: route.At(4, 8, 3)})
	rep = &verify.Report{}
	verify.Obstructions(rep, d, res, blk)
	if rep.Total != 5 || !strings.Contains(rep.Violations[4].Msg, "(4, 8)") {
		t.Fatalf("a stack through the wall: %d crossings, %v", rep.Total, rep.Violations)
	}
}

// TestCapacityRecount: the capacity check counts a wall's pin access
// against one track per pin in its column, and a wire past a gcell-layer's
// tracks as overflow, which is a violation unless the route result
// reports it.
func TestCapacityRecount(t *testing.T) {
	beol, err := tech.NewBEOL28("logic", 6)
	if err != nil {
		t.Fatal(err)
	}
	// 10 × 10 gcells of 10 µm; layer 2 is a wall over columns 3–5.
	blk := verify.Blockages{
		Grid:  geom.NewGrid(geom.R(0, 0, 100, 100), 10),
		Beol:  beol,
		Rects: []floorplan.RouteBlockage{{Layer: beol.Layers[2].Name, Rect: geom.R(30, 0, 60, 100)}},
	}
	db := route.NewDB(blk.Grid.Region, beol, blk.Rects, route.Options{Grid: &blk.Grid})
	check := func(res *route.Result) *verify.Report {
		rep := &verify.Report{}
		verify.Capacity(rep, res, blk)
		return rep
	}
	// The pin at (3, 5) on layer 2 escapes west out of the wall.
	res := &route.Result{Routes: []*route.NetRoute{{
		PinNode:  []route.Node{route.At(3, 5, 2), route.At(0, 5, 2)},
		Segments: []route.Seg{{A: route.At(3, 5, 2), B: route.At(0, 5, 2)}},
	}}}
	if rep := check(res); !rep.Clean() || rep.Checked.Overflow != 0 {
		t.Fatalf("pin access: recount %d, %v", rep.Checked.Overflow, rep.Violations)
	}
	// A second net's wire in the wall is one past its one track.
	res.Routes = append(res.Routes, &route.NetRoute{
		PinNode:  []route.Node{route.At(1, 5, 2), route.At(1, 5, 0)},
		Segments: []route.Seg{{A: route.At(1, 5, 2), B: route.At(3, 5, 2)}},
	})
	rep := check(res)
	if rep.Checked.Overflow != 1 || rep.Clean() || rep.Violations[0].Kind != "capacity" {
		t.Fatalf("wire in a wall: recount %d, %v", rep.Checked.Overflow, rep.Violations)
	}
	if res.Overflow = 1; !check(res).Clean() {
		t.Fatal("overflow the result reports is a violation")
	}
	// A gcell-layer filled to its tracks, then one wire more.
	at := route.At(8, 8, 1)
	tracks, _ := db.Tracks(at)
	full := &route.NetRoute{PinNode: []route.Node{at, at}}
	for range tracks {
		full.Segments = append(full.Segments, route.Seg{A: at, B: at})
	}
	res = &route.Result{Routes: []*route.NetRoute{full}}
	if rep := check(res); !rep.Clean() {
		t.Fatalf("a full gcell-layer: %v", rep.Violations)
	}
	full.Segments = append(full.Segments, route.Seg{A: at, B: at})
	if rep := check(res); rep.Checked.Overflow != 1 || rep.Clean() {
		t.Fatalf("one wire past %d tracks: recount %d, %v", tracks, rep.Checked.Overflow, rep.Violations)
	}
}

// TestCapacityCountsStackBumps: a via stack that climbs through the F2F
// via from any layer below it to any above takes one bump of its gcell,
// so one stack past the bin's bump sites is overflow.
func TestCapacityCountsStackBumps(t *testing.T) {
	logic, _ := tech.NewBEOL28("logic", 6)
	macro, _ := tech.NewBEOL28("macro", 4)
	beol, err := tech.Combine(logic, macro, tech.DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	blk := verify.Blockages{Grid: geom.NewGrid(geom.R(0, 0, 100, 100), 10), Beol: beol}
	f2f := beol.F2FViaIndex()
	p := beol.Vias[f2f].Pitch
	bumps := max(int(blk.Grid.DX/p*blk.Grid.DY/p*route.BumpFill), 1)
	at := route.At(4, 4, 0)
	r := &route.NetRoute{PinNode: []route.Node{at, route.At(4, 4, beol.NumLayers()-1)}}
	for i := range bumps + 1 {
		// Stacks from layer 0 to the top, and from the top down to one
		// layer below the F2F via: each holds the F2F cut among others.
		s := route.Seg{A: at, B: route.At(4, 4, beol.NumLayers()-1)}
		if i%2 == 1 {
			s = route.Seg{A: s.B, B: route.At(4, 4, f2f-1)}
		}
		r.Segments = append(r.Segments, s)
	}
	rep := &verify.Report{}
	verify.Capacity(rep, &route.Result{Routes: []*route.NetRoute{r}}, blk)
	if rep.Checked.Overflow != 1 || rep.Clean() || !strings.Contains(rep.Violations[len(rep.Violations)-1].Msg, "bump bin (4, 4)") {
		t.Fatalf("%d stacks through %d bump sites: recount %d, %v", bumps+1, bumps, rep.Checked.Overflow, rep.Violations)
	}
}

// TestCapacityAgreesWithRouter: on a design whose nets all cross one
// gcell row of walls, with pins inside the walls too, the capacity
// check's recount — from the technology, the blockages and the segments
// alone — is the router's own overflow, after one negotiation iteration
// and after eight.
func TestCapacityAgreesWithRouter(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("cong", lib)
	for i := range 240 {
		a := d.AddInstance(fmt.Sprint("a", i), lib.MustCell("INV_X1"))
		a.Loc = geom.Pt(5, float64(100+i/2))
		b := d.AddInstance(fmt.Sprint("b", i), lib.MustCell("INV_X1"))
		b.Loc = geom.Pt(395, float64(100+i/2))
		d.AddNet(fmt.Sprint("n", i), netlist.IPin(a, "Y"), netlist.IPin(b, "A"))
	}
	// Cells inside the walls: their pins' escape wires are pin access.
	for i := range 4 {
		a := d.AddInstance(fmt.Sprint("w", i), lib.MustCell("INV_X1"))
		a.Loc = geom.Pt(165, float64(30+20*i))
		b := d.AddInstance(fmt.Sprint("v", i), lib.MustCell("INV_X1"))
		b.Loc = geom.Pt(135, float64(30+20*i))
		d.AddNet(fmt.Sprint("p", i), netlist.IPin(a, "Y"), netlist.IPin(b, "A"))
	}
	beol, err := tech.NewBEOL28("logic", 6)
	if err != nil {
		t.Fatal(err)
	}
	var rects []floorplan.RouteBlockage
	// Walls on M1–M4 across the die, and on M5 but for one gcell row:
	// the only way across.
	for _, l := range beol.Layers[:4] {
		rects = append(rects, floorplan.RouteBlockage{Layer: l.Name, Rect: geom.R(150, 0, 250, 400)})
	}
	m5 := beol.Layers[4].Name
	rects = append(rects, floorplan.RouteBlockage{Layer: m5, Rect: geom.R(150, 0, 250, 180)},
		floorplan.RouteBlockage{Layer: m5, Rect: geom.R(150, 200, 250, 400)})
	for _, iters := range []int{1, 8} {
		db := route.NewDB(geom.R(0, 0, 400, 400), beol, rects, route.Options{GCellPitch: 20, MaxIters: iters})
		res, err := route.RouteDesign(d, db)
		if err != nil {
			t.Fatal(err)
		}
		rep := &verify.Report{}
		verify.Capacity(rep, res, verify.Blockages{Grid: db.Grid, Beol: beol, Rects: rects})
		verify.Obstructions(rep, d, res, verify.Blockages{Grid: db.Grid, Beol: beol, Rects: rects})
		t.Logf("%d iterations: overflow %d, recount %d, pin access %d", iters, res.Overflow, rep.Checked.Overflow, rep.Checked.PinAccess)
		if rep.Checked.PinAccess == 0 {
			t.Fatal("no route enters a wall for pin access; the test needs some")
		}
		if !rep.Clean() || rep.Checked.Overflow != res.Overflow {
			t.Fatalf("%d iterations: the router reports %d, the recount finds %d: %v",
				iters, res.Overflow, rep.Checked.Overflow, rep.Violations)
		}
	}
}

// TestTableIRoutesClearObstructions holds the routing contract on Table
// I's small-tile cells at seed 1: in 2D, MoL S2D, BF S2D and Macro-3D no
// route enters a gcell-layer a macro obstruction covers outside one of
// its own pins' columns, and the capacity check's recount finds no
// gcell-layer past capacity — the route overflow Table I prints is 0 in
// each. The runs are plain: what Config.Check adds, the optimizer's
// per-iteration self-check and the verify stage, runs on these four
// cells in the determinism harness's small checks axis
// (flows.TestDeterminism), and flows.TestKernelRewriteKeepsQoR pins
// their RouteOverflow at 0.
func TestTableIRoutesClearObstructions(t *testing.T) {
	if testing.Short() {
		t.Skip("four small-tile flows")
	}
	for _, key := range []string{"2d", "s2d", "bfs2d", "macro3d"} {
		cfg := flows.Config{Piton: piton.SmallCache(), Seed: 1}
		_, st, _, err := flows.Run(context.Background(), key, cfg)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		rep := &verify.Report{}
		verify.Obstructions(rep, st.Design, st.Routes,
			verify.Blockages{Grid: st.DB.Grid, Beol: st.DB.Beol, Rects: st.FP.RouteBlk})
		t.Logf("%s: %d crossings, %d obstructed gcell-layers entered for pin access", key, rep.Total, rep.Checked.PinAccess)
		if rep.Total != 0 {
			t.Errorf("%s: %d routes through macro obstructions: %v", key, rep.Total, rep.Violations[:min(3, len(rep.Violations))])
		}
		rep = &verify.Report{}
		verify.Capacity(rep, st.Routes,
			verify.Blockages{Grid: st.DB.Grid, Beol: st.DB.Beol, Rects: st.FP.RouteBlk})
		if !rep.Clean() || rep.Checked.Overflow != 0 || st.Routes.Overflow != 0 {
			t.Errorf("%s: overflow %d, recount %d: %v", key, st.Routes.Overflow, rep.Checked.Overflow, rep.Violations)
		}
	}
}

func TestConnectivityCatchesMissingRoute(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("v", lib)
	a := d.AddInstance("a", lib.MustCell("INV_X1"))
	b := d.AddInstance("b", lib.MustCell("INV_X1"))
	d.AddNet("n", netlist.IPin(a, "Y"), netlist.IPin(b, "A"))
	rep := &verify.Report{}
	verify.Connectivity(rep, d, &route.Result{Routes: []*route.NetRoute{nil}})
	if rep.Clean() {
		t.Fatal("missing route accepted")
	}
}

// TestConnectivityThroughStack: a pin on a layer a via stack climbs
// through is on the route; one beside the stack's column is not.
func TestConnectivityThroughStack(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("v", lib)
	a := d.AddInstance("a", lib.MustCell("INV_X1"))
	b := d.AddInstance("b", lib.MustCell("INV_X1"))
	c := d.AddInstance("c", lib.MustCell("INV_X1"))
	d.AddNet("n", netlist.IPin(a, "Y"), netlist.IPin(b, "A"), netlist.IPin(c, "A"))
	r := &route.NetRoute{
		PinNode: []route.Node{route.At(2, 2, 0), route.At(2, 2, 2), route.At(6, 2, 3)},
		Segments: []route.Seg{
			{A: route.At(2, 2, 0), B: route.At(2, 2, 3)}, // through the second pin's layer
			{A: route.At(2, 2, 3), B: route.At(6, 2, 3)},
		},
	}
	res := &route.Result{Routes: []*route.NetRoute{r}}
	rep := &verify.Report{}
	if verify.Connectivity(rep, d, res); !rep.Clean() {
		t.Fatalf("pin inside a stack: %v", rep.Violations)
	}
	r.PinNode[1] = route.At(3, 2, 2)
	if verify.Connectivity(rep, d, res); rep.Clean() {
		t.Fatal("a pin beside the stack's column reads as connected")
	}
}

// reachableFindings is the reference connectivity check — an adjacency
// map per net and a breadth-first search from the driver's node — as
// the open-net messages it reports, in order.
func reachableFindings(d *netlist.Design, res *route.Result) []string {
	var out []string
	for _, n := range d.Nets {
		if n.Clock || len(n.Sinks) == 0 {
			continue
		}
		if n.ID >= len(res.Routes) || res.Routes[n.ID] == nil {
			out = append(out, fmt.Sprintf("%s has no route", n.Name))
			continue
		}
		r := res.Routes[n.ID]
		adj := map[route.Node][]route.Node{}
		link := func(a, b route.Node) {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		step := func(v int16) int16 { return int16(min(max(int(v), -1), 1)) }
		for _, s := range r.Segments {
			if s.IsVia() {
				for k := range s.Cuts() {
					c := s.Cut(k)
					link(c.A, c.B)
				}
				continue
			}
			dx, dy := step(s.B.X-s.A.X), step(s.B.Y-s.A.Y)
			for p := s.A; p != s.B; {
				next := route.Node{X: p.X + dx, Y: p.Y + dy, L: p.L}
				link(p, next)
				p = next
			}
		}
		if len(r.PinNode) == 0 {
			out = append(out, fmt.Sprintf("%s lost its pin nodes", n.Name))
			continue
		}
		seen := map[route.Node]bool{r.PinNode[0]: true}
		queue := []route.Node{r.PinNode[0]}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		for i, pn := range r.PinNode {
			if !seen[pn] {
				out = append(out, fmt.Sprintf("%s pin %d unreachable from driver", n.Name, i))
			}
		}
	}
	return out
}

// TestConnectivityMatchesReachability: the union-find check reports
// exactly what a breadth-first search over the route graph does, in the
// same order, on a signed-off tile whose routes are then damaged at
// random — segments dropped, routes halved or emptied, pin nodes moved
// off the route or lost, records removed.
func TestConnectivityMatchesReachability(t *testing.T) {
	_, st, err := flows.Run2D(flows.Config{Piton: piton.Tiny(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := geom.NewRNG(3)
	res := &route.Result{Routes: make([]*route.NetRoute, len(st.Routes.Routes))}
	for id, r := range st.Routes.Routes {
		if r == nil {
			continue
		}
		c := *r
		c.Segments, c.PinNode = slices.Clone(r.Segments), slices.Clone(r.PinNode)
		switch k := len(c.Segments); rng.Intn(40) {
		case 0:
			if k > 0 {
				i := rng.Intn(k)
				c.Segments = slices.Delete(c.Segments, i, i+1)
			}
		case 1:
			c.Segments = c.Segments[:k/2]
		case 2:
			c.Segments = nil
		case 3:
			if len(c.PinNode) > 0 {
				c.PinNode[rng.Intn(len(c.PinNode))].X++
			}
		case 4:
			c.PinNode = nil
		case 5:
			continue
		}
		res.Routes[id] = &c
	}
	want := reachableFindings(st.Design, res)
	t.Logf("%d findings over %d nets", len(want), len(res.Routes))
	rep := &verify.Report{}
	verify.Connectivity(rep, st.Design, res)
	if len(want) == 0 || len(want) > 200 {
		t.Fatalf("%d reference findings: the damage must open some nets and stay under the report cap", len(want))
	}
	var got []string
	for _, v := range rep.Violations {
		if v.Kind != "open-net" || v.Count != 1 {
			t.Fatalf("unexpected finding %v", v)
		}
		got = append(got, v.Msg)
	}
	if !slices.Equal(got, want) || rep.Total != len(want) {
		t.Fatalf("union-find findings (%d total)\n%v\nreference\n%v", rep.Total, got, want)
	}
	clean := &verify.Report{}
	if verify.Connectivity(clean, st.Design, st.Routes); !clean.Clean() {
		t.Fatalf("the undamaged routes report %v", clean.Violations)
	}
}
