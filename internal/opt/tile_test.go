package opt

import (
	"maps"
	"reflect"
	"strconv"
	"strings"
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
func tilePreOpt(t *testing.T) *Context { return tilePreOptOf(t, piton.SmallCache()) }

func tilePreOptOf(t *testing.T, cfg piton.Config) *Context {
	t.Helper()
	tc, err := tech.New28(6)
	if err != nil {
		t.Fatal(err)
	}
	tile, err := piton.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	sz, err := floorplan.SizeDesign(d, 0.70, 1.0, tc.RowHeight)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.PlaceMacros(d, sz.Die2D, floorplan.Style2D)
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
	d.ReserveIDs() // as a flow does before it routes a design it will edit
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
// compares the journaled free space with a fresh NewFreeSpace (every
// interval bound within 1e-9 µm) and the journaled adjacency with a from-scratch
// build (row for row), and routes every net a reroute skips as settled
// anyway, to the same segments. Both outcomes must occur for the run to
// count, and skips too. It also holds the buffer gauge to what the
// design actually gained: buffers of rolled-back iterations are not
// counted; and the report the result holds, written into the two
// reports the loop rotates, to a fresh analysis of the final design.
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
	// The reroute counters are shares of all reroutes, the rolled-back
	// ones there because the run rolled iterations back.
	reroutes := reg.Counter("ddb_incremental_reroutes_total", "").Value()
	unchanged := reg.Counter("opt_reroutes_unchanged_total", "").Value()
	skipped := reg.Counter("opt_reroutes_skipped_total", "").Value()
	rolledBack := reg.Counter("opt_rolled_back_reroutes_total", "").Value()
	if unchanged > reroutes || skipped == 0 || skipped > unchanged || rolledBack == 0 || rolledBack > reroutes {
		t.Fatalf("%d reroutes, %d unchanged, %d skipped, %d rolled back", reroutes, unchanged, skipped, rolledBack)
	}
	staOpt := sta.Options{Clock: ctx.Clock, Corner: ctx.Corner, TopPaths: 48}
	if fresh, err := sta.Analyze(ctx.Design, ctx.Ex, 1e6, staOpt); err != nil || !reflect.DeepEqual(res.Report, fresh) {
		t.Fatalf("the result's report differs from a fresh analysis of the final design (%v)", err)
	}
	t.Logf("%d commits, %d rollbacks, %d buffers kept; %d reroutes, %d unchanged, %d skipped, %d rolled back",
		commits, rollbacks, res.Buffers, reroutes, unchanged, skipped, rolledBack)
}

// TestTablesStayPut: on the small 2D tile, its IDs reserved as a flow
// reserves them, an editing Optimize inserts its buffers (816 of them,
// within the reservation) into the tables it set up. From the engine's
// creation to the end of the run, each of the engine's tables keyed by
// node, instance or net and the database's adjacency by instance keep
// their backing arrays: the same capacity, the same first element. So
// does the router's settled-net table, from routing on: RouteDesign
// allocates it at the reserved net capacity.
func TestTablesStayPut(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tile optimization")
	}
	type table struct {
		ptr uintptr
		cap int
	}
	// tables reads the named slice fields of the structs behind the
	// pointers, a dotted path through nested fields.
	tables := func(of any, paths ...string) map[string]table {
		out := map[string]table{}
		for _, path := range paths {
			v := reflect.ValueOf(of).Elem()
			for _, f := range strings.Split(path, ".") {
				v = v.FieldByName(f)
			}
			if v.Kind() != reflect.Slice || v.Cap() == 0 {
				t.Fatalf("%T.%s is no allocated slice", of, path)
			}
			out[path] = table{v.Pointer(), v.Cap()}
		}
		return out
	}
	engTables := []string{
		"lastNet", "launchGen", "launchBest", "dirtyFull", "dirtyHalf",
		"full.arr", "full.slew", "full.prev", "full.via",
		"half.arr", "half.slew", "half.prev", "half.via",
		"isComb", "isSeq", "level", "indeg", "in.at", "order",
		"netDrv", "drvPrev", "fan.at", "ep.at",
	}
	dbTables := []string{"drivenI", "inputs"}

	ctx := tilePreOpt(t)
	d := ctx.DDB.Design
	settled := tables(ctx.DDB.Grid, "st.net")
	before := len(d.Instances)
	var atSetup map[string]table
	var eng *sta.Engine
	ctx.setupDone = func(e *sta.Engine) {
		eng = e
		atSetup = tables(e, engTables...)
		maps.Copy(atSetup, tables(ctx.DDB, dbTables...))
	}
	res, err := Optimize(ctx, sta.Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != eng {
		t.Fatal("the result's engine is not the one set up")
	}
	nInst, _ := d.IDCap()
	if grown := len(d.Instances) - before; grown == 0 || len(d.Instances) > nInst {
		t.Fatalf("the run grew the design by %d instances to %d, want some, within the %d reserved", grown, len(d.Instances), nInst)
	}
	atEnd := tables(eng, engTables...)
	maps.Copy(atEnd, tables(ctx.DDB, dbTables...))
	for _, path := range append(engTables, dbTables...) {
		if a, b := atSetup[path], atEnd[path]; a != b {
			t.Errorf("%s was reallocated: cap %d at setup, %d after %d buffers", path, a.cap, b.cap, res.Buffers)
		}
	}
	_, nNets := d.IDCap()
	if a, b := settled["st.net"], tables(ctx.DDB.Grid, "st.net")["st.net"]; a != b || a.cap != nNets {
		t.Errorf("the settled-net table was reallocated: cap %d after routing, %d after %d buffers, %d nets reserved", a.cap, b.cap, res.Buffers, nNets)
	}
}

// TestEngineTopoPatchEqualsRebuild drives the timing engine through
// random sequences of the optimizer's own topology edits — fanout
// buffering, buffer chains, each bundle then committed or rolled back —
// on the tiny and the small tile. After every Update the engine's
// patched tables equal a fresh engine's element for element (rows,
// driver chains, endpoint table) and its levels rise along every arc
// (sta.Engine.CheckTopo), its
// report equals a fresh engine's full run (reflect.DeepEqual, paths and
// all), and the journaled extraction, free space and adjacency pass the
// optimizer's self-check. The optimizer then runs over the edited design
// with SelfCheck on, which holds every one of its own updates to the same.
func TestEngineTopoPatchEqualsRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tile optimization")
	}
	const period = 1e6
	for _, tc := range []struct {
		name  string
		cfg   piton.Config
		steps int
	}{{"tiny", piton.Tiny(), 60}, {"small", piton.SmallCache(), 30}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tilePreOptOf(t, tc.cfg)
			db := ctx.DDB
			ctx.Design, ctx.DB, ctx.Routes, ctx.Ex, ctx.Corner = db.Design, db.Grid, db.Routes, db.Ex, db.Corner
			db.Free = place.NewFreeSpace(db.Design, ctx.FP, ctx.RowHeight)
			staOpt := sta.Options{Clock: ctx.Clock, Corner: ctx.Corner, TopPaths: 48}
			eng, err := sta.NewEngine(db.Design, db.Ex, staOpt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(period); err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				rep, err := eng.Update(period, nil)
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if err := eng.CheckTopo(); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				fresh, err := sta.Analyze(db.Design, db.Ex, period, staOpt)
				if err != nil {
					t.Fatalf("%s: fresh analysis: %v", when, err)
				}
				if !reflect.DeepEqual(rep, fresh) {
					t.Fatalf("%s: the patched engine's report differs from a fresh engine's", when)
				}
				if err := selfCheck(ctx, staOpt, period, rep); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			rng := geom.NewRNG(17)
			seq, fanouts, chains, rollbacks := 0, 0, 0, 0
			for step := 0; step < tc.steps; step++ {
				txn := db.Begin()
				ctx.txn = txn
				for k := 1 + rng.Intn(3); k > 0; k-- {
					n := db.Design.Nets[rng.Intn(len(db.Design.Nets))]
					if n.Clock || len(n.Sinks) == 0 || db.Ex.Nets[n.ID] == nil {
						continue
					}
					if len(n.Sinks) >= 2 && rng.Intn(2) == 0 {
						if err := insertFanoutBuffer(ctx, n, &seq); err != nil {
							t.Fatal(err)
						}
						fanouts++
					} else {
						if _, err := insertBufferChain(ctx, n, rng.Intn(len(n.Sinks)), &seq); err != nil {
							t.Fatal(err)
						}
						chains++
					}
				}
				eng.Invalidate(txn.DirtyNets(), txn.DirtyInsts(), txn.TopoChanged())
				check("step " + strconv.Itoa(step))
				if rng.Intn(3) == 0 {
					eng.Invalidate(txn.Rollback())
					rollbacks++
					check("step " + strconv.Itoa(step) + " rolled back")
				} else {
					txn.Commit()
				}
				if err := checkJournals(ctx); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if fanouts == 0 || chains == 0 || rollbacks == 0 {
				t.Fatalf("%d fanout bufferings, %d chains, %d rollbacks: the run must exercise all three", fanouts, chains, rollbacks)
			}
			if _, err := Optimize(ctx, sta.Options{}, Options{SelfCheck: true, MaxIters: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFanoutBufferAllocs pins what one fanout-buffer insertion — the
// edit the optimizer makes most — allocates on the tiny tile, inside a
// transaction that is then rolled back: the transaction, the driver's
// new sink list and the one copy of the sinks the new nets keep. Its
// buffer and net names come from the context's name arena and its
// adjacency rows from the database's row slab, so neither costs an
// object per edit once their chunks are there.
func TestFanoutBufferAllocs(t *testing.T) {
	ctx := tilePreOptOf(t, piton.Tiny())
	d := ctx.DDB.Design
	ctx.Design, ctx.Ex = d, ctx.DDB.Ex
	ctx.DDB.Free = place.NewFreeSpace(d, ctx.FP, ctx.RowHeight)
	ctx.names.First = nameChunk
	var n *netlist.Net
	for _, m := range d.Nets {
		if !m.Clock && m.Driver.Inst != nil && (n == nil || len(m.Sinks) > len(n.Sinks)) {
			n = m
		}
	}
	seq := 0
	insert := func() {
		ctx.txn = ctx.DDB.Begin()
		if err := insertFanoutBuffer(ctx, n, &seq); err != nil {
			t.Fatal(err)
		}
		ctx.txn.Rollback()
	}
	insert()
	if a := testing.AllocsPerRun(200, insert); a > 3 {
		t.Fatalf("one fanout-buffer insertion on %d sinks allocates %.0f objects, want ≤ 3", len(n.Sinks), a)
	}
}
