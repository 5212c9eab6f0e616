// Optimizer micro-benchmarks: the same routed, extracted pre-opt state
// the 2D flow hands to opt.Optimize, timed with the incremental engine
// (journal rollback + dirty-cone STA updates) against the full-STA
// baseline. `make bench` runs these together with BenchmarkTableII and
// records the ns/op comparison in BENCH_opt.json.
package macro3d_test

import (
	"testing"

	"macro3d/internal/cts"
	"macro3d/internal/ddb"
	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/opt"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
)

// buildPreOpt replicates the 2D flow up to (but excluding) the
// optimization stage: generate, floorplan, place, CTS, the ID
// reservation the flow makes before it routes a design it will edit,
// route, extract.
// Each call returns a fresh state, because Optimize mutates it.
func buildPreOpt(b *testing.B) *opt.Context {
	b.Helper()
	t, err := tech.New28(6)
	if err != nil {
		b.Fatal(err)
	}
	tile, err := piton.Generate(piton.SmallCache())
	if err != nil {
		b.Fatal(err)
	}
	d := tile.Design
	sz, err := floorplan.SizeDesign(d, 0.70, 1.0, t.RowHeight)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := floorplan.PlaceMacros(d, sz.Die2D, floorplan.Style2D)
	if err != nil {
		b.Fatal(err)
	}
	floorplan.BuildBlockages(fp, d, netlist.LogicDie)
	floorplan.AssignPorts(tile, sz.Die2D)
	if _, err := place.Place(d, fp, t.RowHeight, place.Options{Seed: 2}); err != nil {
		b.Fatal(err)
	}
	clk := d.Net("clk")
	src := geom.Pt(sz.Die2D.Lx, sz.Die2D.Center().Y)
	if p := d.Port("clk_i"); p != nil {
		src = p.Loc
	}
	tree := cts.Build(d, clk, src, d.Lib, t.Logic, cts.Options{})
	db := route.NewDB(sz.Die2D, t.Logic, fp.RouteBlk, route.Options{})
	d.ReserveIDs()
	routes, err := route.RouteDesign(d, db)
	if err != nil {
		b.Fatal(err)
	}
	slow := t.CornerScaleFor(tech.CornerSlow)
	ex := extract.Extract(d, routes, db, slow)
	if err := ex.CheckFinite(); err != nil {
		b.Fatal(err)
	}
	return &opt.Context{
		Clock: tree,
		FP:    fp, RowHeight: t.RowHeight,
		DDB: ddb.New(d, db, routes, ex, slow),
	}
}

func benchOptimize(b *testing.B, o opt.Options) {
	var last *opt.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := buildPreOpt(b)
		b.StartTimer()
		res, err := opt.Optimize(ctx, sta.Options{}, o)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(float64(last.Iters), "iters")
		b.ReportMetric(last.Report.MinPeriod, "minPeriod_ps")
	}
}

// BenchmarkOptimizeIncremental is the production configuration:
// dirty-cone STA updates seeded from the transaction journal.
func BenchmarkOptimizeIncremental(b *testing.B) {
	benchOptimize(b, opt.Options{})
}

// criticalArc returns the net and sink index of the first wire arc of
// the pre-opt state's critical path, with its timing engine run once.
func criticalArc(b *testing.B, ctx *opt.Context) (*sta.Engine, *netlist.Net, int) {
	b.Helper()
	db := ctx.DDB
	eng, err := sta.NewEngine(db.Design, db.Ex, sta.Options{Clock: ctx.Clock, Corner: db.Corner, TopPaths: 48})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := eng.Run(1e6)
	if err != nil {
		b.Fatal(err)
	}
	steps := rep.Critical.Steps
	for _, id := range db.DrivenBy(steps[0].Ref) {
		n := db.Design.Nets[id]
		for si, s := range n.Sinks {
			if !n.Clock && s.Inst != nil && s.Inst == steps[1].Ref.Inst {
				return eng, n, si
			}
		}
	}
	b.Fatal("critical path has no first arc")
	return nil, nil, 0
}

// insertBuffer opens a transaction and splits sink si of n behind a
// BUF_X16 at the arc's midpoint: the optimizer's buffer-insert bundle
// (free-space claim, rewiring, two reroutes), left open for the caller to
// time what follows and roll back.
func insertBuffer(b *testing.B, db *ddb.DB, n *netlist.Net, si int) *ddb.Txn {
	b.Helper()
	buf := db.Design.Lib.MustCell("BUF_X16")
	txn := db.Begin()
	sink := txn.RemoveSinkAt(n, si)
	a, z := n.Driver.Loc(), sink.Loc()
	inst := txn.AddInstance("benchbuf", buf)
	if loc, ok := txn.Alloc(netlist.LogicDie, buf.Width, geom.Pt((a.X+z.X)/2, (a.Y+z.Y)/2)); ok {
		inst.Loc, inst.Placed = loc, true
	}
	txn.AppendSink(n, netlist.IPin(inst, "A"))
	nn := txn.AddNet("benchnet", netlist.IPin(inst, "Y"), sink)
	for _, r := range []*netlist.Net{n, nn} {
		if err := txn.Reroute(r); err != nil {
			b.Fatal(err)
		}
	}
	return txn
}

// BenchmarkOptimizeRollback is one rejected optimizer iteration on the
// pre-opt small 2D state: a buffer-insert bundle through the journal,
// the STA update, and the rollback. The bundle's own cost and
// allocations follow the bundle, not the design; of the update's, the
// report still follows the design — see BenchmarkEngineUpdateTopo.
func BenchmarkOptimizeRollback(b *testing.B) {
	ctx := buildPreOpt(b)
	db := ctx.DDB
	db.Free = place.NewFreeSpace(db.Design, ctx.FP, ctx.RowHeight)
	eng, n, si := criticalArc(b, ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := insertBuffer(b, db, n, si)
		eng.Invalidate(txn.DirtyNets(), txn.DirtyInsts(), txn.TopoChanged())
		if _, err := eng.Update(1e6, nil); err != nil {
			b.Fatal(err)
		}
		eng.Invalidate(txn.Rollback())
	}
}

// BenchmarkEngineUpdateTopo is sta.Engine.Update after a topology edit,
// alone: one buffer inserted on the critical arc of the pre-opt small 2D
// state, Invalidate(topo), Update. The Update patches the rows of the
// two nets of the bundle and of the instances on them (sta patchTopo),
// raises levels along their arcs and drains the dirty cone by level.
// Before the patched tables it re-derived adjacency, order and endpoint
// table from every net of the design (1.3 ms), and before the levels it
// re-ran Kahn over the flat rows (0.54 ms). The edit, its rollback and
// the rollback's own Update are off the clock.
func BenchmarkEngineUpdateTopo(b *testing.B) {
	ctx := buildPreOpt(b)
	db := ctx.DDB
	db.Free = place.NewFreeSpace(db.Design, ctx.FP, ctx.RowHeight)
	eng, n, si := criticalArc(b, ctx)
	update := func() {
		if _, err := eng.Update(1e6, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		txn := insertBuffer(b, db, n, si)
		if !txn.TopoChanged() {
			b.Fatal("a buffer insertion did not change the topology")
		}
		b.StartTimer()
		eng.Invalidate(txn.DirtyNets(), txn.DirtyInsts(), true)
		update()
		b.StopTimer()
		eng.Invalidate(txn.Rollback())
		update()
		b.StartTimer()
	}
}

// BenchmarkTxnReroute is the journal's unit of work, alone: one
// committed transaction that moves the gate at the end of the pre-opt
// small 2D state's first critical arc by a few rows and re-routes and
// re-extracts every net on it. The route and RC records are rewritten
// where they lie, so at steady state the transaction allocates its Txn
// and nothing else.
func BenchmarkTxnReroute(b *testing.B) {
	ctx := buildPreOpt(b)
	db := ctx.DDB
	_, n, si := criticalArc(b, ctx)
	gate := n.Sinks[si].Inst
	var nets []*netlist.Net
	for _, ids := range [][]int32{db.Driven(gate), db.InputNets(gate)} {
		for _, id := range ids {
			if r := db.Design.Nets[id]; !r.Clock {
				nets = append(nets, r)
			}
		}
	}
	spots := [2]geom.Point{gate.Loc, geom.Pt(gate.Loc.X+9, gate.Loc.Y+6*ctx.RowHeight)}
	round := func(i int) {
		txn := db.Begin()
		txn.SetLoc(gate, spots[i%2])
		for _, r := range nets {
			if err := txn.Reroute(r); err != nil {
				b.Fatal(err)
			}
		}
		txn.Commit()
	}
	round(1)
	round(0) // both spots routed once: every span has its final size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i + 1)
	}
	b.ReportMetric(float64(len(nets)), "nets")
}

// BenchmarkOptimizeUpdateReport is the kernel of an accepted sizing
// iteration: sta.Engine.Update after one resize, no topology change —
// a dirty-cone propagation, then the report from the kept endpoint
// table.
func BenchmarkOptimizeUpdateReport(b *testing.B) {
	ctx := buildPreOpt(b)
	eng, n, si := criticalArc(b, ctx)
	d, gate := ctx.DDB.Design, n.Sinks[si].Inst
	fam := d.Lib.Family(gate.Master.Family)
	ids := []int{gate.ID}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Resize(gate, fam[i%len(fam)]); err != nil {
			b.Fatal(err)
		}
		eng.Invalidate(nil, ids, false)
		if _, err := eng.Update(1e6, nil); err != nil {
			b.Fatal(err)
		}
	}
}
