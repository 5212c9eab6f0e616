// Package opt is the timing-driven optimization engine: iterative
// critical-path gate sizing and long-wire buffer insertion, with
// incremental reroute and re-extraction of touched nets.
//
// Two modes matter for the paper's comparison. In the normal mode the
// optimizer co-optimizes against the *true* parasitics — which is what
// Macro-3D (and plain 2D) flows enjoy. In Frozen mode no sizing or
// buffering changes are allowed; S2D/C2D flows use it after tier
// partitioning, when the cells were already sized against the shrunk
// or scaled pseudo-design and the real double-stack parasitics only
// become visible afterwards (paper §III: over-/under-optimized paths
// cannot be fixed because the second routing cannot be co-optimized
// with placement).
//
// Every edit flows through a ddb.Txn change journal: the journal keeps
// the per-net extraction patched in place, feeds the dirty frontier to
// the incremental sta.Engine, and rolls a rejected iteration back in
// O(edits) — routes, parasitics, connectivity, adjacency and the ECO
// free space alike — instead of re-deriving any of them from the whole
// design.
package opt

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"macro3d/internal/cell"
	"macro3d/internal/cts"
	"macro3d/internal/ddb"
	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/place"
	"macro3d/internal/route"
	"macro3d/internal/slab"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
)

// Context carries the live design state the optimizer mutates.
type Context struct {
	Design *netlist.Design
	DB     *route.DB
	Routes *route.Result
	Ex     *extract.Design

	Corner tech.CornerScale
	Clock  *cts.Tree

	// FP and RowHeight enable ECO placement: every resize that grows a
	// cell and every inserted buffer claims legal free space near its
	// target, so the optimized design stays physically legal. When FP
	// is nil edits are electrical-only (unit-test mode).
	FP        *floorplan.Floorplan
	RowHeight float64

	// DDB is the design database the edits are journaled through. When
	// set, the state fields above are populated from it; when nil, an
	// Optimize that edits builds one over them, and a Frozen one, which
	// only analyses, builds none.
	DDB *ddb.DB

	// Obs, when non-nil, is the opt stage's span: the loop publishes
	// iteration/rollback counts to its registry, hands it to the STA
	// engine and opens its phases under it — setup (the engine, the first
	// timing run, the free-space map), then per iteration edit, reroute
	// and timing. nil disables instrumentation.
	Obs *obs.Span

	txn *ddb.Txn

	// clusterSinks and name scratch, reused from one edit to the next.
	pts     []geom.Point
	groups  [][]netlist.PinRef
	nameBuf []byte
	// names holds the names of inserted buffers and nets. Optimize
	// sizes its first chunk (nameChunk); it comes with the first
	// insertion.
	names slab.Names
}

// nameChunk is the first chunk of a context's name arena: the few
// hundred bytes of names an Optimize that buffers a few nets cuts.
const nameChunk = 1 << 10

// name formats prefix_a_b, the name of an inserted buffer or net, and
// cuts it from the context's name arena.
func (ctx *Context) name(prefix string, a, b int) string {
	buf := append(append(ctx.nameBuf[:0], prefix...), '_')
	buf = append(strconv.AppendInt(buf, int64(a), 10), '_')
	buf = strconv.AppendInt(buf, int64(b), 10)
	ctx.nameBuf = buf
	return ctx.names.Cut(buf)
}

// Options tunes the loop.
type Options struct {
	// MaxIters bounds the sizing/buffering rounds (default 250).
	MaxIters int
	// MaxMovesPerIter bounds edits per round (default 48).
	MaxMovesPerIter int
	// BufferElmore is the per-arc Elmore delay (ps) above which a
	// buffer chain is inserted (default 90).
	BufferElmore float64
	// TargetPeriod stops optimization once MinPeriod ≤ target (0 =
	// optimize to the best achievable — max-performance mode).
	TargetPeriod float64
	// Frozen forbids all edits; Optimize only analyses.
	Frozen bool
	// SelfCheck verifies after every analysis that the incrementally
	// maintained extraction and timing match a from-scratch
	// extract.Extract + sta.Analyze and the engine's patched topology
	// tables a fresh engine's, and after every commit and rollback that
	// the journaled free space and adjacency, and the route DB's usage,
	// match a from-scratch build (flows.Config.Check; slow).
	SelfCheck bool
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 250
	}
	if o.MaxMovesPerIter <= 0 {
		o.MaxMovesPerIter = 48
	}
	if o.BufferElmore <= 0 {
		o.BufferElmore = 90
	}
	return o
}

// bufferSpan is the wire length one buffer of a chain drives, µm.
const bufferSpan = 250.0

// fanoutCap is the driver load, fF, above which a decoupling buffer is
// inserted between the driver and all its sinks.
const fanoutCap = 90.0

// Result wraps the final timing plus edit statistics.
type Result struct {
	Report *sta.Report
	// Engine is the incremental analyzer the loop ran on, over the final
	// design and the context's extraction. A rolled-back last iteration
	// leaves its invalidation pending; the engine's next Update or Hold
	// consumes it.
	Engine *sta.Engine
	// Resized and Buffers count the edits of kept iterations only.
	Resized  int
	Buffers  int
	Rerouted int
	Iters    int
}

// intSet is a reusable dense set over instance/net ids — the loop's
// bookkeeping runs on integer ids instead of hashed maps, so the per
// iteration allocation churn of the old map-based sets is gone.
type intSet struct {
	in  []bool
	ids []int
}

func (s *intSet) add(id int) {
	for id >= len(s.in) {
		s.in = append(s.in, false)
	}
	if !s.in[id] {
		s.in[id] = true
		s.ids = append(s.ids, id)
	}
}

func (s *intSet) has(id int) bool { return id >= 0 && id < len(s.in) && s.in[id] }

func (s *intSet) remove(id int) {
	if s.has(id) {
		s.in[id] = false
	}
}

// len counts live members (remove may leave stale ids entries).
func (s *intSet) len() int {
	n := 0
	for _, id := range s.ids {
		if s.in[id] {
			n++
		}
	}
	return n
}

// sorted returns the live members ascending (ids are appended in
// insertion order and never re-added while live, so a plain sort of
// the live subset is deterministic).
func (s *intSet) sorted() []int {
	out := make([]int, 0, len(s.ids))
	for _, id := range s.ids {
		if s.in[id] {
			out = append(out, id)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (s *intSet) reset() {
	for _, id := range s.ids {
		s.in[id] = false
	}
	s.ids = s.ids[:0]
}

// Optimize runs the loop until timing converges, the target is met, or
// the budget is spent.
func Optimize(ctx *Context, staOpt sta.Options, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if ctx.DDB != nil {
		ctx.Design = ctx.DDB.Design
		ctx.DB = ctx.DDB.Grid
		ctx.Routes = ctx.DDB.Routes
		ctx.Ex = ctx.DDB.Ex
		ctx.Corner = ctx.DDB.Corner
	}
	staOpt.Clock = ctx.Clock
	staOpt.Corner = ctx.Corner
	if staOpt.TopPaths == 0 {
		staOpt.TopPaths = 48
	}
	if staOpt.Obs == nil {
		staOpt.Obs = ctx.Obs
	}
	reg := ctx.Obs.Reg()
	iterC := reg.Counter("opt_iterations_total",
		"Optimization iterations executed (accepted and rolled back).")
	rollbackC := reg.Counter("opt_rollbacks_total",
		"Optimization iterations rejected and rolled back.")
	res := &Result{}

	period := opt.TargetPeriod
	if period <= 0 {
		period = 1e6
	}
	// sp is the phase span open at the time, ended on every way out.
	sp := ctx.Obs.Child("setup")
	defer func() { sp.End() }()
	eng, err := sta.NewEngine(ctx.Design, ctx.Ex, staOpt)
	if err != nil {
		return nil, err
	}
	rep, err := eng.Run(period)
	if err != nil {
		return nil, err
	}
	res.Report, res.Engine = rep, eng
	if opt.Frozen {
		publish(reg, res)
		return res, nil
	}
	if ctx.DDB == nil {
		ctx.DDB = ddb.New(ctx.Design, ctx.DB, ctx.Routes, ctx.Ex, ctx.Corner)
	}
	ctx.DDB.Free = nil
	if ctx.FP != nil && ctx.RowHeight > 0 {
		ctx.DDB.Free = place.NewFreeSpace(ctx.Design, ctx.FP, ctx.RowHeight)
	}
	sp.End()

	ctx.names.First = nameChunk
	bufSeq := 0
	fanoutDone := &intSet{}
	chainDone := &intSet{}
	noResize := &intSet{}
	skipPath := map[pathID]bool{}
	touched := &intSet{}    // net IDs needing re-extraction
	resizedNow := &intSet{} // instance IDs resized this iteration
	stale := 0
	for it := 0; it < opt.MaxIters; it++ {
		if opt.TargetPeriod > 0 && rep.MinPeriod <= opt.TargetPeriod {
			break
		}
		iterC.Inc()
		moves := 0
		touched.reset()
		resizedNow.reset()
		buffers0 := res.Buffers
		markedNow := []mark{} // buffer markers set this iteration
		txn := ctx.DDB.Begin()
		ctx.txn = txn

		// Work one path per iteration — the most critical one that is
		// not blocklisted and still has available edits — so
		// acceptance/rollback operates at path granularity.
		paths := rep.Paths
		if len(paths) == 0 {
			paths = []sta.Path{rep.Critical}
		}
		var curKey pathID
		haveKey := false
		sp = ctx.Obs.Child("edit")
		for _, p := range paths {
			if moves >= opt.MaxMovesPerIter {
				break
			}
			k := pathKey(p)
			if skipPath[k] {
				continue
			}
			m := fixPath(ctx, res, p.Steps, opt, &bufSeq, touched,
				fanoutDone, chainDone, noResize, resizedNow, &markedNow,
				opt.MaxMovesPerIter-moves)
			if m > 0 && !haveKey {
				curKey = k
				haveKey = true
			}
			moves += m
		}
		sp.End()
		if moves == 0 {
			break
		}
		// Touched nets: rerouted (ECO moves shift pins) and re-extracted
		// in deterministic order.
		sp = ctx.Obs.Child("reroute")
		for _, id := range touched.sorted() {
			if id >= len(ctx.Routes.Routes) || ctx.Routes.Routes[id] == nil {
				continue
			}
			if err := txn.Reroute(ctx.Design.Nets[id]); err != nil {
				return nil, err
			}
		}
		sp.End()
		res.Rerouted += touched.len()
		res.Iters = it + 1

		// The timing span also covers the accept-or-roll-back it decides.
		sp = ctx.Obs.Child("timing")
		eng.Invalidate(txn.DirtyNets(), txn.DirtyInsts(), txn.TopoChanged())
		next, err := eng.Update(period)
		if err != nil {
			return nil, err
		}
		if opt.SelfCheck {
			if err := selfCheck(ctx, staOpt, period, next); err != nil {
				return nil, err
			}
			if err := eng.CheckTopo(); err != nil {
				return nil, fmt.Errorf("opt: selfcheck: %w", err)
			}
		}
		// Accept the iteration when the worst path improved or, on a
		// multi-path plateau, when the aggregate of the near-critical
		// paths improved. Otherwise roll back (the edit markers stay,
		// so failed edits are not retried).
		improvedWorst := next.MinPeriod < rep.MinPeriod-0.5
		improvedSum := pathScore(next) < pathScore(rep)-0.5
		if !improvedWorst && !improvedSum {
			rollbackC.Inc()
			nets, insts, topo := txn.Rollback()
			if opt.SelfCheck {
				if err := checkJournals(ctx); err != nil {
					return nil, err
				}
			}
			// The engine's state reflects the rejected edits; mark the
			// surviving dirty ids again so the next update re-converges
			// it onto the restored design.
			eng.Invalidate(nets, insts, topo)
			// Clear this iteration's buffer markers (the edits were
			// undone and may succeed in a different bundle), but
			// blocklist the path so the identical bundle is not
			// retried immediately.
			for _, m := range markedNow {
				if m.chain {
					chainDone.remove(m.netID)
				} else {
					fanoutDone.remove(m.netID)
				}
			}
			for _, id := range resizedNow.ids {
				noResize.add(id)
			}
			res.Resized -= resizedNow.len()
			res.Buffers = buffers0
			skipPath[curKey] = true
			sp.End()
			stale++
			if stale >= 12 {
				break
			}
			continue
		}
		txn.Commit()
		if opt.SelfCheck {
			if err := checkJournals(ctx); err != nil {
				return nil, err
			}
		}
		sp.End()
		rep = next
		if improvedWorst {
			stale = 0
		}
	}
	// The report describes the final design state exactly (every kept
	// iteration was an improvement; every failed one was rolled back).
	res.Report = rep
	publish(reg, res)
	return res, nil
}

// publish sets the gauges that describe the design an Optimize leaves:
// its edits' survivors and its minimum period. A frozen run publishes
// too (no edits, the analysed period), so the last optimization of a
// flow always sets all three.
func publish(reg *obs.Registry, res *Result) {
	if reg == nil {
		return
	}
	reg.Gauge("opt_resized_cells",
		"Net gate resizes surviving in the final design.").Set(float64(res.Resized))
	reg.Gauge("opt_inserted_buffers",
		"Buffers inserted and kept in the final design.").Set(float64(res.Buffers))
	reg.Gauge("opt_min_period_ps",
		"Minimum feasible clock period after optimization, ps.").Set(res.Report.MinPeriod)
}

// checkJournals asserts that what the transactions maintained by
// journal — adjacency rows, free-space intervals and the route DB's
// wire and F2F usage (rebuilt in place: a match changes nothing) —
// equals a build from the current design and routes, exactly.
func checkJournals(ctx *Context) error {
	if err := ctx.DDB.CheckAdjacency(); err != nil {
		return fmt.Errorf("opt: selfcheck: %w", err)
	}
	if fs := ctx.DDB.Free; fs != nil && !fs.Equal(place.NewFreeSpace(ctx.Design, ctx.FP, ctx.RowHeight)) {
		return fmt.Errorf("opt: selfcheck: journaled free space differs from a fresh build")
	}
	usage, _, f2f := ctx.DB.DynState()
	usage, f2f = slices.Clone(usage), slices.Clone(f2f)
	ctx.DB.RebuildUsage(ctx.Routes)
	if u, _, f := ctx.DB.DynState(); !slices.Equal(u, usage) || !slices.Equal(f, f2f) {
		return fmt.Errorf("opt: selfcheck: journaled route usage differs from a rebuild of the routes")
	}
	return nil
}

// selfCheck asserts the incrementally maintained state equals a
// from-scratch recompute: per-net extraction within 1e-9, and the
// report the engine produced against a fresh sta.Analyze over the same
// extraction (timing numbers and path order).
func selfCheck(ctx *Context, staOpt sta.Options, period float64, got *sta.Report) error {
	const tol = 1e-9
	fresh := extract.Extract(ctx.Design, ctx.Routes, ctx.DB, ctx.Corner)
	if len(fresh.Nets) != len(ctx.Ex.Nets) {
		return fmt.Errorf("opt: selfcheck: extraction has %d nets, scratch %d", len(ctx.Ex.Nets), len(fresh.Nets))
	}
	for id, want := range fresh.Nets {
		have := ctx.Ex.Nets[id]
		if (want == nil) != (have == nil) {
			return fmt.Errorf("opt: selfcheck: net %d extraction nil mismatch", id)
		}
		if want == nil {
			continue
		}
		if math.Abs(want.WireC-have.WireC) > tol || math.Abs(want.WireR-have.WireR) > tol ||
			math.Abs(want.PinC-have.PinC) > tol || len(want.ElmoreTo) != len(have.ElmoreTo) {
			return fmt.Errorf("opt: selfcheck: net %d RC mismatch (have C=%v R=%v pin=%v, want C=%v R=%v pin=%v)",
				id, have.WireC, have.WireR, have.PinC, want.WireC, want.WireR, want.PinC)
		}
		for i := range want.ElmoreTo {
			if math.Abs(want.ElmoreTo[i]-have.ElmoreTo[i]) > tol {
				return fmt.Errorf("opt: selfcheck: net %d sink %d Elmore %v != %v", id, i, have.ElmoreTo[i], want.ElmoreTo[i])
			}
		}
	}
	want, err := sta.Analyze(ctx.Design, ctx.Ex, period, staOpt)
	if err != nil {
		return fmt.Errorf("opt: selfcheck: scratch analysis: %w", err)
	}
	if math.Abs(want.MinPeriod-got.MinPeriod) > tol || math.Abs(want.WNS-got.WNS) > tol ||
		math.Abs(want.TNS-got.TNS) > tol || want.Endpoints != got.Endpoints {
		return fmt.Errorf("opt: selfcheck: report mismatch (have period=%v wns=%v tns=%v ep=%d, want period=%v wns=%v tns=%v ep=%d)",
			got.MinPeriod, got.WNS, got.TNS, got.Endpoints, want.MinPeriod, want.WNS, want.TNS, want.Endpoints)
	}
	if len(want.Paths) != len(got.Paths) {
		return fmt.Errorf("opt: selfcheck: %d paths, scratch %d", len(got.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		w, g := want.Paths[i], got.Paths[i]
		if math.Abs(w.Delay-g.Delay) > tol || len(w.Steps) != len(g.Steps) {
			return fmt.Errorf("opt: selfcheck: path %d mismatch (delay %v vs %v, %d vs %d steps)",
				i, g.Delay, w.Delay, len(g.Steps), len(w.Steps))
		}
		for j := range w.Steps {
			if w.Steps[j].Ref != g.Steps[j].Ref || math.Abs(w.Steps[j].Arrival-g.Steps[j].Arrival) > tol {
				return fmt.Errorf("opt: selfcheck: path %d step %d mismatch (%s at %v vs %s at %v)", i, j,
					g.Steps[j].Ref, g.Steps[j].Arrival, w.Steps[j].Ref, w.Steps[j].Arrival)
			}
		}
	}
	return nil
}

// pathScore sums the reported near-critical path delays — the
// plateau-breaking acceptance metric.
func pathScore(r *sta.Report) float64 {
	s := 0.0
	for _, p := range r.Paths {
		s += p.Delay
	}
	return s
}

// fixPath applies sizing and buffering along one path; returns the
// number of edits made (bounded by budget).
// mark records a buffer-insertion marker for rollback bookkeeping.
type mark struct {
	netID int
	chain bool
}

// pathID identifies a path by its launch and capture points — a
// comparable struct key, so the blocklist map hashes two pointers
// instead of formatting strings.
type pathID struct {
	from, to netlist.PinRef
}

func pathKey(p sta.Path) pathID {
	if len(p.Steps) == 0 {
		return pathID{}
	}
	return pathID{from: p.Steps[0].Ref, to: p.Steps[len(p.Steps)-1].Ref}
}

func fixPath(ctx *Context, res *Result, steps []sta.PathStep, opt Options, bufSeq *int, touched, fanoutDone, chainDone, noResize, resizedNow *intSet, markedNow *[]mark, budget int) int {
	moves := 0
	for i := 0; i+1 < len(steps) && moves < budget; i++ {
		from := steps[i].Ref
		if from.Inst == nil {
			continue
		}
		inst := from.Inst
		// Gate sizing: jump straight to the drive strength matched to
		// the extracted load (R·C_load ≤ ~80 ps), like a real sizer's
		// load-based lookup, instead of creeping one step per pass.
		if !inst.IsMacro() && !noResize.has(inst.ID) && !resizedNow.has(inst.ID) {
			if to := sizeForLoad(ctx, inst); to != nil {
				// A resize that grows the cell also moves it into legal free
				// space; when none is left the edit is skipped.
				if ctx.txn.Upsize(inst, to) == nil {
					res.Resized++
					resizedNow.add(inst.ID)
					moves++
					touchNetsOf(ctx, inst, touched)
				}
			}
		}
		// Wire buffering on the arc leaving this step.
		if n, si := arcNet(ctx, steps, i); n != nil {
			rc := ctx.Ex.Nets[n.ID]
			if rc == nil {
				continue
			}
			// High-fanout decoupling: shield the driver from the bulk
			// of the load first. Each net is wrapped at most once —
			// the tree grows by splitting the (new) cluster nets on
			// later passes, never by chaining levels in front of the
			// root.
			if rc.CTotal() > fanoutCap && len(n.Sinks) >= 2 && !fanoutDone.has(n.ID) {
				before := len(ctx.Design.Instances)
				if err := insertFanoutBuffer(ctx, n, bufSeq); err == nil {
					fanoutDone.add(n.ID)
					*markedNow = append(*markedNow, mark{n.ID, false})
					res.Buffers += len(ctx.Design.Instances) - before // one per sink cluster
					moves++
					touched.add(n.ID)
					continue
				}
			}
			// Like fanout wrapping, a chain is inserted at most once
			// per net; the chain's own nets may be split again later,
			// which terminates because every level is shorter.
			if si < len(rc.ElmoreTo) && rc.ElmoreTo[si] > opt.BufferElmore && !chainDone.has(n.ID) {
				nb, err := insertBufferChain(ctx, n, si, bufSeq)
				if err == nil && nb > 0 {
					chainDone.add(n.ID)
					*markedNow = append(*markedNow, mark{n.ID, true})
					res.Buffers += nb
					moves++
					touched.add(n.ID)
				}
			}
		}
	}
	return moves
}

// sizeForLoad returns the smallest family member whose drive meets
// the delay budget for the instance's extracted output load, or nil
// when the current size already suffices (or nothing stronger exists).
func sizeForLoad(ctx *Context, inst *netlist.Instance) *cell.Cell {
	const budgetPs = 100.0
	fam := ctx.Design.Lib.Family(inst.Master.Family)
	if len(fam) == 0 {
		return nil
	}
	// Find the instance's output net load (first driven net, as the
	// ddb adjacency stores them in net-ID order).
	load := 0.0
	if ids := ctx.DDB.Driven(inst); len(ids) > 0 {
		if rc := ctx.Ex.Nets[ids[0]]; rc != nil {
			load = rc.CTotal()
		}
	}
	if load <= 0 {
		return nil
	}
	for _, m := range fam {
		if m.DriveRes*load <= budgetPs {
			if m.Drive > inst.Master.Drive {
				return m
			}
			return nil // current size already adequate
		}
	}
	top := fam[len(fam)-1]
	if top.Drive > inst.Master.Drive {
		return top
	}
	return nil
}

// touchNetsOf adds the ids of the non-clock nets touching an instance
// to the set, from the ddb adjacency (driven nets first, then input
// nets).
func touchNetsOf(ctx *Context, inst *netlist.Instance, touched *intSet) {
	for _, id := range ctx.DDB.Driven(inst) {
		if !ctx.Design.Nets[id].Clock {
			touched.add(int(id))
		}
	}
	for _, id := range ctx.DDB.InputNets(inst) {
		touched.add(int(id))
	}
}

// arcNet finds the net and sink index connecting step i to step i+1 of
// the critical path.
func arcNet(ctx *Context, steps []sta.PathStep, i int) (*netlist.Net, int) {
	from := steps[i].Ref
	to := steps[i+1].Ref
	if from.Inst == nil && from.Port == nil {
		return nil, -1
	}
	for _, id := range ctx.DDB.DrivenBy(from) {
		n := ctx.Design.Nets[id]
		if n.Clock {
			continue
		}
		for si, s := range n.Sinks {
			if s.Inst != nil && to.Inst == s.Inst {
				return n, si
			}
			if s.Port != nil && to.Port == s.Port {
				return n, si
			}
		}
	}
	return nil, -1
}

// insertBufferChain splits the driver→sink arc of net n at sink index
// si with a chain of buffers spaced bufferSpan apart. New nets are
// routed and extracted incrementally. Returns buffers inserted.
func insertBufferChain(ctx *Context, n *netlist.Net, si int, seq *int) (int, error) {
	d := ctx.Design
	sink := n.Sinks[si]
	a := n.Driver.Loc()
	b := sink.Loc()
	distTot := a.Manhattan(b)
	k := int(distTot / bufferSpan)
	if k < 1 {
		k = 1
	}
	if k > 10 {
		k = 10
	}
	buf := d.Lib.Cell("BUF_X16")
	if buf == nil {
		return 0, fmt.Errorf("opt: no buffer master")
	}

	// Remove the sink from the original net.
	ctx.txn.RemoveSinkAt(n, si)

	firstNew := len(d.Nets)
	prevNet := n
	for j := 0; j < k; j++ {
		*seq++
		frac := float64(j+1) / float64(k+1)
		loc := a.Add(b.Sub(a).Scale(frac))
		inst := ctx.txn.AddInstance(ctx.name("optbuf", len(d.Instances), *seq), buf)
		ecoPlace(ctx, inst, n.Driver, loc)
		// Attach the buffer input to the previous stage.
		ctx.txn.AppendSink(prevNet, netlist.IPin(inst, "A"))
		prevNet = ctx.txn.AddNet(ctx.name("optnet", len(d.Nets), *seq), netlist.IPin(inst, "Y"))
	}
	// Final stage drives the original sink.
	ctx.txn.AppendSink(prevNet, sink)

	// Reroute the modified original net and route the new nets.
	if err := ctx.txn.Reroute(n); err != nil {
		return 0, err
	}
	for id := firstNew; id < len(d.Nets); id++ {
		if err := ctx.txn.Reroute(d.Nets[id]); err != nil {
			return 0, err
		}
	}
	return k, nil
}

// insertFanoutBuffer decouples a loaded driver by clustering its sinks
// geometrically (recursive median split on the wider axis) and giving
// each cluster its own buffer at the cluster centroid. The driver then
// sees only the k buffer inputs. Repeated application across
// iterations builds a fanout tree.
func insertFanoutBuffer(ctx *Context, n *netlist.Net, seq *int) error {
	d := ctx.Design
	buf := d.Lib.Cell("BUF_X16")
	if buf == nil {
		return fmt.Errorf("opt: no buffer master")
	}
	if len(n.Sinks) < 2 {
		return fmt.Errorf("opt: fanout buffering needs >1 sink")
	}
	rc := ctx.Ex.Nets[n.ID]
	k := 2
	if rc != nil {
		k = int(rc.CTotal()/fanoutCap) + 1
	}
	if k < 2 {
		k = 2
	}
	if k > 8 {
		k = 8
	}
	if k > len(n.Sinks) {
		k = len(n.Sinks)
	}
	clusters := ctx.clusterSinks(n.Sinks, k)

	// The driver's new sink list is the net's to keep; the new nets are
	// the design's tail from here on.
	drvSinks := make([]netlist.PinRef, 0, len(clusters))
	firstNew := len(d.Nets)
	drv := n.Driver.Loc()
	for _, cl := range clusters {
		if len(cl) == 0 {
			continue
		}
		*seq++
		var cx, cy float64
		for _, s := range cl {
			l := s.Loc()
			cx += l.X
			cy += l.Y
		}
		m := float64(len(cl))
		// The shield buffer sits NEXT TO THE DRIVER (a short hop toward
		// its cluster), so the driver's net shrinks to k pin stubs; the
		// buffer owns the cluster's long wire. Splitting the cluster net
		// on later passes grows a driver-rooted tree outward.
		centroid := geom.Pt(cx/m, cy/m)
		dir := centroid.Sub(drv)
		dist := drv.Manhattan(centroid)
		step := 60.0
		if dist < step {
			step = dist / 2
		}
		var loc geom.Point
		if dist > 1e-9 {
			loc = drv.Add(dir.Scale(step / dist))
		} else {
			loc = drv
		}
		inst := ctx.txn.AddInstance(ctx.name("optfbuf", len(d.Instances), *seq), buf)
		ecoPlace(ctx, inst, n.Driver, geom.Pt(loc.X-buf.Width/2, loc.Y-buf.Height/2))
		drvSinks = append(drvSinks, netlist.IPin(inst, "A"))
		ctx.txn.AddNet(ctx.name("optfnet", len(d.Nets), *seq), netlist.IPin(inst, "Y"), cl...)
	}
	ctx.txn.ReplaceSinks(n, drvSinks)

	if err := ctx.txn.Reroute(n); err != nil {
		return err
	}
	for id := firstNew; id < len(d.Nets); id++ {
		if err := ctx.txn.Reroute(d.Nets[id]); err != nil {
			return err
		}
	}
	return nil
}

// ecoPlace places an inserted buffer on its driver's die — a standard
// cell's, the logic die when a macro or a port drives it — claiming
// legal free space there near the desired lower-left corner; without a
// FreeSpace (unit tests) it falls back to die clamping.
func ecoPlace(ctx *Context, inst *netlist.Instance, drv netlist.PinRef, ll geom.Point) {
	inst.Die, inst.Placed = netlist.LogicDie, true
	if d := drv.Inst; d != nil && !d.IsMacro() {
		inst.Die = d.Die
	}
	w, h := inst.Master.Width, inst.Master.Height
	if ctx.DDB.Free != nil {
		if loc, ok := ctx.txn.Alloc(inst.Die, w, geom.Pt(ll.X+w/2, ll.Y+h/2)); ok {
			inst.Loc = loc
			return
		}
	}
	die := ctx.DB.Grid.Region
	inst.Loc = geom.Pt(geom.Clamp(ll.X, die.Lx, die.Ux-w), geom.Clamp(ll.Y, die.Ly, die.Uy-h))
}

// clusterSinks splits sinks into k spatial clusters by recursive
// median bisection along the wider axis. The clusters are windows of one
// copy of sinks, which the caller's new nets keep; the group list is the
// context's scratch and is valid until the next call.
func (ctx *Context) clusterSinks(sinks []netlist.PinRef, k int) [][]netlist.PinRef {
	groups := append(ctx.groups[:0], slices.Clone(sinks))
	for len(groups) < k {
		// Split the largest group.
		bi := 0
		for i, g := range groups {
			if len(g) > len(groups[bi]) {
				bi = i
			}
		}
		g := groups[bi]
		if len(g) < 2 {
			break
		}
		pts := ctx.pts[:0]
		for _, s := range g {
			pts = append(pts, s.Loc())
		}
		ctx.pts = pts
		bb := geom.BoundingBox(pts)
		byX := bb.W() >= bb.H()
		// Not a total order — sinks share coordinates — and the clusters'
		// sink order is what the new nets route and extract in. Ties fall
		// where pdqsort leaves them, as they did under sort.Slice
		// (place.TestSortFuncKeepsSortSliceTies).
		slices.SortFunc(g, func(p, q netlist.PinRef) int {
			if byX {
				return cmp.Compare(p.Loc().X, q.Loc().X)
			}
			return cmp.Compare(p.Loc().Y, q.Loc().Y)
		})
		mid := len(g) / 2
		groups[bi] = g[:mid]
		groups = append(groups, g[mid:])
	}
	ctx.groups = groups
	return groups
}

// LogicCellArea sums the standard-cell area after optimization — the
// paper's A_logic-cells metric (it grows with upsizing).
func LogicCellArea(d *netlist.Design) float64 {
	area := 0.0
	for _, inst := range d.Instances {
		if !inst.IsMacro() && inst.Master.Kind != cell.KindFiller {
			area += inst.Master.Area()
		}
	}
	return area
}
