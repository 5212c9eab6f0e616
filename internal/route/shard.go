package route

import (
	"fmt"

	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs/trace"
	"macro3d/internal/par"
)

// --- region-sharded fast routing ---
//
// The deterministic batch engine (batch.go) is bit-identical to the
// serial reference, but it pays for that with a serial planning scan
// and an ordered commit every round. On large flat designs those
// serial segments bound the speedup (Amdahl). The sharded engine
// trades bit-identity with the *default* engine for a schedule with
// almost no serial footprint:
//
//   - the gcell grid is partitioned into a fixed rx×ry region grid
//     (ShardRegions, default 8 — a constant of the configuration,
//     never derived from the worker count);
//   - a net whose entire read/write footprint (pattern frame or maze
//     window, union over its MST edges) fits inside one region is
//     owned by that region. Regions are spatially disjoint, so every
//     region routes its nets concurrently against the shared usage
//     grid with no synchronization at all — reads and writes cannot
//     leave the region;
//   - boundary-crossing nets — the halo traffic — are routed first,
//     in their original serial order, through the deterministic batch
//     engine. Long nets are exactly the ones that cross regions, so
//     this also preserves the "long nets set the congestion landscape"
//     ordering heuristic;
//   - rip-up releases all happen up front, in task order, before any
//     concurrent work.
//
// Results are NOT bit-identical to the default engine (region-local
// nets no longer interleave with boundary nets in global order), but
// they are deterministic at any -j: the region grid is fixed, region
// buckets preserve serial order, regions are disjoint, and the
// boundary pass is the ordered batch engine. Options.ShardVerify
// re-routes with the serial reference and enforces the documented
// PPA bounds (shardVerifyWLTol / shardVerifyOverflowSlack).

// defaultShardRegions is the fixed region count of the sharded
// router. Eight regions keep every -j ≤ 8 fully fed while remaining a
// configuration constant: changing it changes results, changing -j
// does not.
const defaultShardRegions = 8

// Sharded-vs-serial verification bounds (Options.ShardVerify): the
// fast result must stay within these limits of the serial reference.
const (
	// shardVerifyWLTol bounds the relative routed-wirelength drift.
	shardVerifyWLTol = 0.10
	// shardVerifyOverflowFrac and shardVerifyOverflowSlack bound the
	// overflow regression: fast ≤ serial×(1+frac) + slack gcells.
	shardVerifyOverflowFrac  = 0.10
	shardVerifyOverflowSlack = 16
)

// shardPlan is the fixed rectangular region decomposition of a grid.
type shardPlan struct {
	rx, ry int // region grid dimensions (rx*ry regions)
	bx, by int // gcells per region step (last row/col absorbs remainder)
}

// newShardPlan factors `regions` into the rx×ry split whose regions
// are closest to square in gcells — a pure function of the grid, so
// every run over the same die shards identically.
func newShardPlan(g geom.Grid, regions int) *shardPlan {
	if regions < 1 {
		regions = 1
	}
	best := &shardPlan{rx: 1, ry: 1}
	bestScore := -1.0
	for rx := 1; rx <= regions; rx++ {
		if regions%rx != 0 {
			continue
		}
		ry := regions / rx
		if rx > g.NX || ry > g.NY {
			continue
		}
		w := float64(g.NX) / float64(rx)
		h := float64(g.NY) / float64(ry)
		score := w / h
		if score > 1 {
			score = 1 / score // aspect ratio in (0,1], 1 is square
		}
		if score > bestScore {
			bestScore = score
			best = &shardPlan{rx: rx, ry: ry}
		}
	}
	best.bx = (g.NX + best.rx - 1) / best.rx
	best.by = (g.NY + best.ry - 1) / best.ry
	return best
}

func (p *shardPlan) regions() int { return p.rx * p.ry }

// regionOf maps a gcell to its owning region index.
func (p *shardPlan) regionOf(x, y int) int {
	ix := min(x/p.bx, p.rx-1)
	iy := min(y/p.by, p.ry-1)
	return iy*p.rx + ix
}

// assign returns the owning region of a task whose whole footprint
// bbox sits inside one region, or -1 for a boundary-crossing task.
// The bbox is the union over MST edges of the pattern pin bbox (the
// L-shape frames never leave it) or the expanded maze window (the
// declared search read/write volume).
func (db *DB) shardAssign(p *shardPlan, t *netTask, maze bool) int {
	if len(t.edges) == 0 {
		if len(t.route.PinNode) == 0 {
			return 0
		}
		n := t.route.PinNode[0]
		return p.regionOf(n.X, n.Y)
	}
	x0, y0 := db.Grid.NX, db.Grid.NY
	x1, y1 := 0, 0
	for _, e := range t.edges {
		a, b := t.route.PinNode[e[0]], t.route.PinNode[e[1]]
		if maze {
			w := db.mazeWindow(a, b)
			x0, y0 = min(x0, w.x0), min(y0, w.y0)
			x1, y1 = max(x1, w.x1), max(y1, w.y1)
			continue
		}
		x0, y0 = min(x0, min(a.X, b.X)), min(y0, min(a.Y, b.Y))
		x1, y1 = max(x1, max(a.X, b.X)), max(y1, max(a.Y, b.Y))
	}
	r := p.regionOf(x0, y0)
	if p.regionOf(x1, y1) != r {
		return -1
	}
	return r
}

// shardPlanFor lazily builds (and caches) the DB's region plan.
func (db *DB) shardPlanFor() *shardPlan {
	if db.shards == nil {
		db.shards = newShardPlan(db.Grid, db.opt.ShardRegions)
	}
	return db.shards
}

// routeAllSharded routes the ordered tasks with the region-sharded
// schedule: up-front ordered rip-up releases, boundary nets through
// the deterministic batch engine (in order), then every region's
// local nets concurrently. commit(t) must only write state disjoint
// per net (usage along the route) — the same contract routeAll's batch
// commits rely on.
func (db *DB) routeAllSharded(tasks []*netTask, maze bool, workers int, pool []*mazeScratch,
	met *routeMetrics, commit func(*netTask)) {

	p := db.shardPlanFor()
	nr := p.regions()

	// Ordered releases first: every rip-up victim's old usage comes
	// off before any routing reads congestion, so the concurrent
	// phase sees one consistent pre-pass snapshot of released state.
	rsp := met.main.Begin("route", "route/shard-release")
	released := 0
	for _, t := range tasks {
		if len(t.old) > 0 {
			db.addSegs(t.old, -1)
			t.old = nil
			released++
		}
	}
	rsp.End(trace.N("nets", int64(released)))

	// Region assignment is a pure function of placement and grid —
	// it fans out freely.
	region := make([]int16, len(tasks))
	met.busy += par.ItemsTr(met.ts, "route/shard-assign", workers, len(tasks), func(w, i int) {
		region[i] = int16(db.shardAssign(p, tasks[i], maze))
	})

	// Bucket in task order: per-region lists and the boundary set
	// each preserve the serial order of their members.
	buckets := make([][]*netTask, nr)
	var boundary []*netTask
	for i, t := range tasks {
		if r := region[i]; r >= 0 {
			buckets[r] = append(buckets[r], t)
		} else {
			boundary = append(boundary, t)
		}
	}
	met.shardBoundary.Add(uint64(len(boundary)))

	// Boundary-crossing nets first, through the ordered batch engine:
	// the long nets that span regions set the congestion landscape the
	// region-local nets then dodge — the same priority the serial
	// HPWL sort encodes.
	db.routeAll(boundary, maze, workers, pool, met, commit)

	// Concurrent region routing: regions are spatially disjoint, so
	// each worker routes and commits its regions' nets directly
	// against the shared grid — no planning, no ordered merge, no
	// synchronization beyond the final barrier.
	met.busy += par.ItemsTr(met.ts, "route/shard", workers, nr, func(w, r int) {
		s := pool[w]
		for _, t := range buckets[r] {
			db.routeStored(t, maze, s)
			commit(t)
		}
	})
}

// verifySharded re-routes the design with the serial reference engine
// on a fresh usage view and checks the sharded result against the
// documented PPA bounds. Called once, after the sharded run's final
// accounting; roughly doubles routing cost while enabled.
func (db *DB) verifySharded(d *netlist.Design, res *Result) error {
	ref := db.cloneEmpty()
	refRes, err := RouteDesign(d, ref)
	if err != nil {
		return fmt.Errorf("route: shard verify reference run: %w", err)
	}
	if refRes.WL > 0 {
		drift := (res.WL - refRes.WL) / refRes.WL
		if drift < 0 {
			drift = -drift
		}
		if drift > shardVerifyWLTol {
			return fmt.Errorf("route: shard verify: WL %.0f µm drifts %.1f%% from serial reference %.0f µm (bound %.0f%%)",
				res.WL, 100*drift, refRes.WL, 100*shardVerifyWLTol)
		}
	}
	bound := int(float64(refRes.Overflow)*(1+shardVerifyOverflowFrac)) + shardVerifyOverflowSlack
	if res.Overflow > bound {
		return fmt.Errorf("route: shard verify: overflow %d exceeds serial reference %d beyond bound %d",
			res.Overflow, refRes.Overflow, bound)
	}
	return nil
}

// cloneEmpty copies the DB's immutable configuration (grid, BEOL,
// capacities) with fresh usage/history state — the verification
// reference view. Capacity arrays are read-only after NewDB and are
// shared, not copied.
func (db *DB) cloneEmpty() *DB {
	opt := db.opt
	opt.Workers = 1
	opt.Sharded = false
	opt.ShardVerify = false
	opt.Obs = nil
	opt.Trace = nil
	c := &DB{
		Grid:     db.Grid,
		Beol:     db.Beol,
		opt:      opt,
		layerIdx: db.layerIdx,
		cap:      db.cap,
		usage:    make([]int32, len(db.usage)),
		hist:     make([]float32, len(db.hist)),
		f2fIdx:   db.f2fIdx,
		gcellWL:  db.gcellWL,

		patternPairs: db.patternPairs,
	}
	if db.f2fCap != nil {
		c.f2fCap = db.f2fCap
		c.f2fUse = make([]int32, len(db.f2fUse))
	}
	return c
}
