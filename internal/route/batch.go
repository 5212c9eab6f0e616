package route

import (
	"fmt"
	"slices"

	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs/trace"
	"macro3d/internal/par"
)

// --- deterministic parallel batching ---
//
// The router's serial semantics are: nets are processed in a fixed
// order, and each net routes against the congestion left by every net
// before it. The parallel engine keeps those semantics bit-identical
// by only routing nets concurrently whose read/write footprints are
// spatially disjoint:
//
//   - a pattern route's footprint is the frame of each MST edge's
//     bounding box (the four edge lines carrying every candidate
//     L-shape, via stack and congestion lookup);
//   - a maze reroute's footprint is the whole expanded A* window;
//   - a rip-up victim additionally claims its old route's segments
//     (released usage is a write).
//
// Batches are planned by scanning the pending nets in serial order
// and stamping every scanned footprint into a coarse tile raster: a
// net joins the current batch only if none of its tiles were stamped
// by an earlier-scanned net (batched OR deferred — a net may never
// jump the queue past a conflicting predecessor). Batch members are
// routed concurrently against the frozen pre-batch congestion and
// committed in order; deferred nets retry next round. Because every
// pair of concurrently routed nets is disjoint, and usage commits are
// integer adds merged in net order, the result is byte-identical to
// the workers==1 serial reference at any worker count.

// netTask is the per-net unit of work: the deterministic prep (pin
// nodes, MST edges) shared by the batch planner and the routing
// workers, plus the old segments when the task is a negotiation rip-up.
// The prep is a pure function of the frozen placement, so RouteDesign
// preps every net once and a rip-up wave reuses the task — and the
// route record — of each victim.
type netTask struct {
	net   *netlist.Net
	route *NetRoute
	edges [][2]int // MST edges as pin-index pairs
	old   []Seg    // a rip-up victim's committed segments; else empty

	// rects is the task's read/write footprint in tile space, a pure
	// function of the task and its wave's mode. planFootprints fills it
	// once per wave (a window of the DB's flat planRects buffer); every
	// planning round that scans the task re-stamps the same rects.
	rects []tileRect
}

// prepTask resolves t.net's pin nodes into t.route.PinNode and
// decomposes the net into two-pin MST edges appended to t.edges. The
// caller supplies both at their final size — PinNode one node per pin,
// edges with room for one edge less — as spans of the arrays RouteDesign
// sizes up front (or RouteNet's three objects); the in-tree marks are
// the worker's scratch. Pure function of the placement — independent of
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
				d := geom.AbsInt(r.PinNode[i].X-r.PinNode[j].X) +
					geom.AbsInt(r.PinNode[i].Y-r.PinNode[j].Y)
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

// routeTask computes the task's segments against current congestion,
// one MST edge at a time, into the worker's segment buffer; the result
// is valid until the scratch routes its next task. Maze-mode failures
// fall back to the pattern route exactly like the serial router. Only
// reads shared state; all mutable search state lives in s.
func (db *DB) routeTask(t *netTask, maze bool, s *mazeScratch) []Seg {
	segs := s.segs[:0]
	for _, e := range t.edges {
		a, b := t.route.PinNode[e[0]], t.route.PinNode[e[1]]
		if maze {
			out, err := db.mazeRouteScratch(s, a, b, segs)
			if err == nil {
				segs = out
				continue
			}
		}
		segs = db.patternRoute(a, b, segs)
	}
	s.segs = segs
	return segs
}

// routeStored routes the task and stores its segments, exact-size, in
// the worker's segment arena: growth by doubling happens once, in the
// scratch buffer, not per net. A rip-up victim's old span is simply
// abandoned (at most MaxIters × maxVictims of them per run).
func (db *DB) routeStored(t *netTask, maze bool, s *mazeScratch) {
	segs := db.routeTask(t, maze, s)
	t.route.Segments = s.store.Span(len(segs))
	copy(t.route.Segments, segs)
}

// tileMap is the conflict raster of the batch planner: the gcell grid
// coarsened to tilePx×tilePx tiles. Each tile records (epoch, token)
// packed into one uint64, so rounds reset in O(1) (epoch bump) and a
// task can stamp-and-detect in a single visit: tiles marked this epoch
// by a *different* token are conflicts, its own token is not — which
// is what lets the conflict check and the claim share one pass where
// the historical planner walked every footprint twice.
type tileMap struct {
	tx, ty int
	epoch  uint32
	mark   []uint64
}

// tilePx is the conflict-tile edge in gcells. Coarser tiles cost
// parallelism (false conflicts), finer tiles cost planning time; 4
// keeps planning under 1% of routing on the large tile.
const tilePx = 4

func newTileMap(g geom.Grid) *tileMap {
	tx := (g.NX + tilePx - 1) / tilePx
	ty := (g.NY + tilePx - 1) / tilePx
	return &tileMap{tx: tx, ty: ty, mark: make([]uint64, tx*ty)}
}

func (m *tileMap) next() { m.epoch++ }

// tileRect is one stamped rectangle in tile coordinates — the
// precomputed unit the serial planner scan marks. Footprints are
// reduced to tile rects in parallel ahead of the scan, so the scan
// itself is pure integer marking.
type tileRect struct {
	x0, y0, x1, y1 int32
}

// stampTok claims the tile rect for (current epoch, tok) and reports
// whether any tile was already claimed this epoch by a different
// token. Rectangles of one task may overlap each other; sharing the
// token keeps self-overlap from reading as a conflict.
func (m *tileMap) stampTok(r tileRect, tok uint32) bool {
	v := uint64(m.epoch)<<32 | uint64(tok)
	hit := false
	for ty := r.y0; ty <= r.y1; ty++ {
		row := int(ty) * m.tx
		for tx := r.x0; tx <= r.x1; tx++ {
			i := row + int(tx)
			if cur := m.mark[i]; cur>>32 == uint64(m.epoch) && cur != v {
				hit = true
			}
			m.mark[i] = v
		}
	}
	return hit
}

// appendFootprint appends, as tile-space rects, every gcell rectangle
// the task may read or write: per MST edge the pattern frame (or the
// maze window), plus the old route's segments for rip-ups.
func (db *DB) appendFootprint(dst []tileRect, t *netTask, maze bool) []tileRect {
	rect := func(x0, y0, x1, y1 int) tileRect {
		return tileRect{
			x0: int32(x0 / tilePx), y0: int32(y0 / tilePx),
			x1: int32(x1 / tilePx), y1: int32(y1 / tilePx),
		}
	}
	for _, e := range t.edges {
		a, b := t.route.PinNode[e[0]], t.route.PinNode[e[1]]
		if maze {
			w := db.mazeWindow(a, b)
			dst = append(dst, rect(w.x0, w.y0, w.x1, w.y1))
			continue
		}
		x0, x1 := min(a.X, b.X), max(a.X, b.X)
		y0, y1 := min(a.Y, b.Y), max(a.Y, b.Y)
		dst = append(dst, rect(x0, y0, x1, y0), rect(x0, y1, x1, y1),
			rect(x0, y0, x0, y1), rect(x1, y0, x1, y1))
	}
	for _, s := range t.old {
		dst = append(dst, rect(min(s.A.X, s.B.X), min(s.A.Y, s.B.Y),
			max(s.A.X, s.B.X), max(s.A.Y, s.B.Y)))
	}
	return dst
}

// footprintLen is the number of rects appendFootprint emits for t.
func footprintLen(t *netTask, maze bool) int {
	n := 4 * len(t.edges)
	if maze {
		n = len(t.edges)
	}
	return n + len(t.old)
}

// planFootprints reduces every task's footprint to tile rects, once
// for the whole wave: offsets into the DB's flat rect buffer are laid
// out serially, then the geometric work (windows, frames, tile
// reduction) fans out over the workers, each task writing only its own
// window of the buffer. The planning rounds that follow are pure
// integer marking over these rects.
func (db *DB) planFootprints(tasks []*netTask, maze bool, workers int, ts *trace.Set) {
	total := 0
	for _, t := range tasks {
		total += footprintLen(t, maze)
	}
	if cap(db.planRects) < total {
		db.planRects = make([]tileRect, total)
	}
	off := 0
	for _, t := range tasks {
		n := footprintLen(t, maze)
		t.rects = db.planRects[off : off : off+n]
		off += n
	}
	par.ChunksTr(ts, "route/plan-footprints", workers, len(tasks), func(w, lo, hi int) {
		for _, t := range tasks[lo:hi] {
			t.rects = db.appendFootprint(t.rects, t, maze)
		}
	})
}

// Per-round planning caps. Scanning stops after scanCap tasks (or
// batchCap accepted ones); everything past the cutoff defers
// wholesale, keeping its order. Without the cutoff, planning rescans
// every pending footprint each round — quadratic when conflicts keep
// batches small. Both are constants, never derived from the worker
// count: batch composition feeds each net a specific congestion
// snapshot, so a workers-dependent cap would break the bit-identical
// guarantee across -j settings. The caps were grown 4× from the
// first parallel engine (128/512): on flat multi-tile designs the
// small caps throttled batches far below what spatial disjointness
// allows, making the per-round serial overhead dominate.
const (
	batchCap = 512
	scanCap  = 2048
)

// planBatch splits pending (in order) into the next conflict-free
// batch and the deferred remainder. Every scanned task stamps its
// footprint — batched or not — so no later task can overtake a
// conflicting predecessor; that ordering invariant is what makes the
// parallel schedule equivalent to the serial one. Stamp order — and
// therefore batch composition — is a pure function of the scan order,
// so results are independent of the worker count.
//
// A round costs O(scanned window), never O(pending): the deferred
// members of the window are compacted in place and slid up against the
// unscanned tail, and the remainder is returned as a suffix of pending
// — the tail is not copied. The batch lives in a DB-owned buffer that
// the next round overwrites. Tasks must carry their rects
// (planFootprints).
func (db *DB) planBatch(pending []*netTask, m *tileMap) (batch, rest []*netTask) {
	m.next()
	n := min(len(pending), scanCap)
	batch = db.planBatchBuf[:0]
	k := 0 // deferred so far, kept in order at pending[:k]
	for i := 0; i < n; i++ {
		t := pending[i]
		tok := uint32(i + 1) // 0 is the unstamped sentinel
		hit := false
		for _, r := range t.rects {
			if m.stampTok(r, tok) {
				hit = true
			}
		}
		if hit {
			pending[k] = t
			k++
			continue
		}
		batch = append(batch, t)
		if len(batch) == batchCap {
			n = i + 1 // everything past the cutoff defers unscanned
			break
		}
	}
	db.planBatchBuf = batch[:0]
	copy(pending[n-k:n], pending[:k])
	return batch, pending[n-k:]
}

// routeAll routes the ordered tasks and commits each with commit(t),
// preserving serial semantics. Options.Workers 0 ("fastest") and 1 run
// the plain sequential reference — the batch engine is bit-identical to
// it by contract and has yet to beat it (ROADMAP, routing item), so it
// runs only when asked for by Workers > 1: tasks then execute as
// deterministic conflict-free batches: rip-up releases in order,
// concurrent routing against the frozen snapshot (one scratch per
// worker), commits merged back in order.
func (db *DB) routeAll(tasks []*netTask, maze bool, workers int, pool []*mazeScratch,
	met *routeMetrics, commit func(*netTask)) {

	if db.opt.Workers == 0 || workers <= 1 {
		ssp := met.main.Begin("route", "route/serial-pass")
		s := pool[0]
		for _, t := range tasks {
			db.addSegs(t.old, -1)
			t.old = nil
			db.routeStored(t, maze, s)
			commit(t)
		}
		ssp.End(trace.N("nets", int64(len(tasks))))
		return
	}
	m := db.tiles
	if m == nil {
		m = newTileMap(db.Grid)
		db.tiles = m
	}
	db.planFootprints(tasks, maze, workers, met.ts)
	// The rounds consume a DB-owned copy of the queue, so the caller's
	// slice keeps its order.
	db.planPending = append(db.planPending[:0], tasks...)
	pending := db.planPending
	defer clear(pending) // drop the task pointers, keep the buffer
	for len(pending) > 0 {
		psp := met.main.Begin("route", "route/plan")
		var batch []*netTask
		batch, pending = db.planBatch(pending, m)
		psp.End(trace.N("batch", int64(len(batch))), trace.N("deferred", int64(len(pending))))
		met.batches.Inc()
		met.batchNets.Observe(float64(len(batch)))
		met.conflicts.Add(uint64(len(pending)))
		// Rip-up releases, in order, before the concurrent phase. A
		// released route lies inside its task's stamped footprint, so
		// it is invisible to every other batch member.
		rsp := met.main.Begin("route", "route/release")
		released := 0
		for _, t := range batch {
			if len(t.old) > 0 {
				db.addSegs(t.old, -1)
				t.old = nil
				released++
			}
		}
		rsp.End(trace.N("nets", int64(released)))
		met.busy += par.ChunksTr(met.ts, "route/batch", workers, len(batch), func(w, lo, hi int) {
			s := pool[w]
			for _, t := range batch[lo:hi] {
				db.routeStored(t, maze, s)
			}
		})
		// Ordered merge: usage deltas commit in net order.
		csp := met.main.Begin("route", "route/commit")
		for _, t := range batch {
			commit(t)
		}
		csp.End(trace.N("nets", int64(len(batch))))
	}
}
