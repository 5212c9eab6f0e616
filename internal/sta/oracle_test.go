package sta

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/ddb"
	"macro3d/internal/extract"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// oracleReport is the report builder the endpoint table replaced: it
// re-classifies every sink of every net against the current full/half
// pass state, collects every endpoint and sorts them all. The sort is
// stable, which is the total order buildReport selects under — the
// more demanding endpoint first, ties in net-then-sink order.
func (e *Engine) oracleReport(period float64) (*Report, error) {
	d, ex, opt := e.d, e.ex, e.opt
	rep := &Report{}

	// I/O constraints reference a virtual port clock at the tree's
	// mean insertion delay (a balanced tree makes every tile pin see
	// nearly this edge), so half-cycle budgets measure tile-relative
	// delay rather than double-counting the absolute clock latency —
	// essential when the same tile is verified inside a deep-tree
	// array (§V-1).
	ioRef := 0.0
	if opt.Clock != nil {
		ioRef = opt.Clock.MeanLatency
	}
	full, half := &e.full, &e.half

	// Endpoint checks.
	type endpoint struct {
		req    float64 // minimum period this endpoint demands
		node   int     // launching-side node for path tracing
		sinkWL float64
		ref    netlist.PinRef
		delay  float64
		isHalf bool
		snap   *pass
	}
	var all []endpoint

	consider := func(e endpoint, slackAt func(p float64) float64) {
		rep.Endpoints++
		s := slackAt(period)
		if s < 0 {
			rep.TNS += s
		}
		if s < rep.WNS || rep.Endpoints == 1 {
			rep.WNS = s
		}
		all = append(all, e)
	}

	for _, n := range d.Nets {
		if n.Clock {
			continue
		}
		rc := ex.Nets[n.ID]
		if rc == nil {
			continue
		}
		drvNode, ok := e.refNode(n.Driver)
		if !ok {
			continue
		}
		// Launch adjustment when the driver is a hardened-abstract
		// output pin (0 otherwise; see Engine.arcLaunch).
		adj := 0.0
		if e.hasAbstract {
			adj = e.arcLaunch(drvNode, n, rc)
		}
		for si, s := range n.Sinks {
			elm := rc.ElmoreTo[si] // already corner-scaled by extraction
			// Endpoint classification.
			switch {
			case s.Inst != nil && s.Inst.Master.IsSequential() && !s.Inst.Master.Pin(s.Pin).Clock:
				setup := s.Inst.Master.Setup * opt.Corner.CellDelay
				if s.Inst.Master.Abstract != nil {
					// A hardened abstract's data-input setup is the
					// pin's full internal budget, already sign-off
					// absolute — no corner scale.
					if p := s.Inst.Master.Pin(s.Pin); p != nil {
						setup = p.Setup
					}
				}
				capLat := e.clockLatency(s.Inst)
				// Full-cycle launched paths.
				if fa := full.arr[drvNode]; fa > negInf {
					at := fa + adj + elm
					req := at + setup - capLat + opt.SkewGuard
					consider(endpoint{
						req: req, node: drvNode, ref: s,
						delay: at, snap: full,
						sinkWL: full.wl[drvNode] + dist(n.Driver, s),
					}, func(p float64) float64 { return p + capLat - setup - at - opt.SkewGuard })
				}
				// Half-cycle launched paths: budget T/2.
				if ha := half.arr[drvNode]; ha > negInf {
					at := ha + adj + elm
					req := 2 * (at + setup - capLat + opt.SkewGuard)
					consider(endpoint{
						req: req, node: drvNode, ref: s,
						delay: at, isHalf: true, snap: half,
						sinkWL: half.wl[drvNode] + dist(n.Driver, s),
					}, func(p float64) float64 { return p/2 + capLat - setup - at - opt.SkewGuard })
				}
			case s.Port != nil && s.Port.Dir == cell.DirOut:
				if fa := full.arr[drvNode]; fa > negInf {
					at := fa + adj + elm
					div := 1.0
					if s.Port.HalfCycle {
						div = 2
					}
					// Delay relative to the virtual port clock edge.
					rel := at - ioRef
					req := rel * div
					consider(endpoint{
						req: req, node: drvNode, ref: s,
						delay: at, isHalf: s.Port.HalfCycle, snap: full,
						sinkWL: full.wl[drvNode] + dist(n.Driver, s),
					}, func(p float64) float64 { return p/div - rel })
				}
				// Port-to-port paths (half-launch to half-capture)
				// are feedthroughs; OpenPiton tiles register at both
				// ends, so they are rare — still checked.
				if ha := half.arr[drvNode]; ha > negInf && s.Port.HalfCycle {
					at := ha + adj + elm
					rel := at - ioRef
					consider(endpoint{
						req: rel, node: drvNode, ref: s,
						delay: at, isHalf: true, snap: half,
						sinkWL: half.wl[drvNode] + dist(n.Driver, s),
					}, func(p float64) float64 { return p - rel })
				}
			}
		}
	}

	if opt.CheckHold {
		e.analyzeHold(rep)
	}

	if len(all) == 0 {
		return nil, fmt.Errorf("sta: no constrained endpoints found")
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].req > all[j].req })
	worst := all[0]
	rep.MinPeriod = worst.req
	rep.FmaxMHz = 1e6 / worst.req
	rep.Critical = e.oracleTrace(worst.node, worst.snap, worst.ref, worst.delay, worst.sinkWL, worst.isHalf)

	// A hardened abstract's own sign-off period floors the parent clock:
	// no boundary path can relax what the block needs internally.
	if e.hasAbstract {
		for _, inst := range d.Instances {
			a := inst.Master.Abstract
			if a == nil || a.MinPeriodPs <= 0 {
				continue
			}
			rep.Endpoints++
			if s := period - a.MinPeriodPs; s < 0 {
				rep.TNS += s
				if s < rep.WNS {
					rep.WNS = s
				}
			}
			if a.MinPeriodPs > rep.MinPeriod {
				rep.MinPeriod = a.MinPeriodPs
				rep.FmaxMHz = 1e6 / a.MinPeriodPs
			}
		}
	}

	// Top-K paths, one per distinct launch node so the optimizer sees
	// independent problems rather than K sinks of one bus.
	k := opt.TopPaths
	if k <= 0 {
		k = 8
	}
	seenNode := map[int]bool{}
	for _, ep := range all {
		if len(rep.Paths) >= k {
			break
		}
		if seenNode[ep.node] {
			continue
		}
		seenNode[ep.node] = true
		rep.Paths = append(rep.Paths, e.oracleTrace(ep.node, ep.snap, ep.ref, ep.delay, ep.sinkWL, ep.isHalf))
	}
	// Non-finite results mean corrupt parasitics or delay tables
	// upstream; fail the analysis instead of reporting NaN timing.
	for _, q := range []struct {
		name string
		val  float64
	}{
		{"min period", rep.MinPeriod},
		{"WNS", rep.WNS},
		{"TNS", rep.TNS},
		{"hold WNS", rep.HoldWNS},
	} {
		if math.IsNaN(q.val) || math.IsInf(q.val, 0) {
			return nil, fmt.Errorf("sta: non-finite %s (%v) — corrupt parasitics upstream", q.name, q.val)
		}
	}
	return rep, nil
}

// oracleTrace reconstructs a path from the endpoint's launch node.
func (e *Engine) oracleTrace(node int, s *pass, end netlist.PinRef, delay, wl float64, isHalf bool) Path {
	p := Path{Delay: delay, Wirelength: wl, HalfCycle: isHalf}
	steps := []PathStep{{Ref: end, Arrival: delay}}
	for n := int32(node); n >= 0; n = s.prev[n] {
		steps = append(steps, PathStep{Ref: e.nodeRef(int(n)), Arrival: s.arr[n]})
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	p.Steps = steps
	return p
}

// randomDB builds a seeded random feed-forward design — input ports
// and launch registers, layers of random gates, capture registers and
// output ports, half-cycle ports on both sides — places it at random,
// routes and extracts it, and wraps it in a design database.
func randomDB(t *testing.T, seed uint64) *ddb.DB {
	t.Helper()
	rng := geom.NewRNG(seed)
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	// The library's register sizes share one setup; spread them, so a
	// resized capture register must show in its endpoints.
	for i, m := range lib.Family("DFF") {
		m.Setup += 7 * float64(i)
	}
	d := netlist.NewDesign("rand", lib)
	die := geom.R(0, 0, 600, 300)
	spot := func() geom.Point { return geom.Pt(rng.Range(10, 580), rng.Range(10, 280)) }
	clk := d.AddPort("clk", cell.DirIn)
	cn := d.AddNet("clk", netlist.PPin(clk))
	cn.Clock = true
	inst := func(name, master string) *netlist.Instance {
		u := d.AddInstance(name, lib.MustCell(master))
		u.Loc, u.Placed = spot(), true
		if u.Master.IsSequential() {
			cn.Sinks = append(cn.Sinks, netlist.IPin(u, "CK"))
		}
		return u
	}
	// sinksOf collects each driver's sinks; nets are created at the end.
	var drivers []netlist.PinRef
	sinksOf := map[netlist.PinRef][]netlist.PinRef{}
	feed := func(level []netlist.PinRef, sink netlist.PinRef) {
		src := level[rng.Intn(len(level))]
		if _, ok := sinksOf[src]; !ok {
			drivers = append(drivers, src)
		}
		sinksOf[src] = append(sinksOf[src], sink)
	}
	var level []netlist.PinRef
	for i := 0; i < 6; i++ {
		p := d.AddPort("in"+itoa(i), cell.DirIn)
		p.Loc, p.Layer, p.HalfCycle, p.ExtDelay = geom.Pt(0, rng.Range(10, 280)), "M6", i%2 == 0, rng.Range(0, 40)
		level = append(level, netlist.PPin(p))
	}
	for i := 0; i < 14; i++ {
		level = append(level, netlist.IPin(inst("src"+itoa(i), "DFF_X1"), "Q"))
	}
	gates := []string{"INV_X1", "BUF_X1", "NAND2_X1", "NOR2_X1", "XOR2_X1", "MUX2_X1", "AOI22_X1"}
	for l := 0; l < 4; l++ {
		var next []netlist.PinRef
		for k := 0; k < 16; k++ {
			u := inst("g"+itoa(l)+"_"+itoa(k), gates[rng.Intn(len(gates))])
			for i := range u.Master.Pins {
				if p := &u.Master.Pins[i]; p.Dir == cell.DirIn {
					feed(level, netlist.IPin(u, p.Name))
				}
			}
			next = append(next, netlist.IPin(u, "Y"))
		}
		// Keep a few earlier drivers in reach, so paths differ in depth.
		level = append(next, level[:4]...)
	}
	for i := 0; i < 14; i++ {
		feed(level, netlist.IPin(inst("cap"+itoa(i), "DFF_X1"), "D"))
	}
	for i := 0; i < 6; i++ {
		p := d.AddPort("out"+itoa(i), cell.DirOut)
		p.Loc, p.Layer, p.HalfCycle, p.ExtCap = geom.Pt(600, rng.Range(10, 280)), "M6", i%2 == 0, 4
		feed(level, netlist.PPin(p))
	}
	for i, src := range drivers {
		d.AddNet("n"+itoa(i), src, sinksOf[src]...)
	}
	beol, _ := tech.NewBEOL28("logic", 6)
	grid := route.NewDB(die, beol, nil, route.Options{GCellPitch: 10})
	res, err := route.RouteDesign(d, grid)
	if err != nil {
		t.Fatal(err)
	}
	corner := tech.CornerScale{CellDelay: 1.1, WireR: 1, WireC: 1, Leakage: 1}
	return ddb.New(d, grid, res, extract.Extract(d, res, grid, corner), corner)
}

// randomEdits applies a few random resizes and buffer insertions
// through the transaction.
func randomEdits(t *testing.T, db *ddb.DB, txn *ddb.Txn, rng *geom.RNG, seq *int) {
	t.Helper()
	d := db.Design
	for k := 1 + rng.Intn(4); k > 0; k-- {
		if rng.Intn(3) > 0 {
			u := d.Instances[rng.Intn(len(d.Instances))]
			fam := d.Lib.Family(u.Master.Family)
			if len(fam) > 0 {
				if err := txn.Resize(u, fam[rng.Intn(len(fam))]); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		n := d.Nets[rng.Intn(len(d.Nets))]
		if n.Clock || len(n.Sinks) == 0 {
			continue
		}
		*seq++
		sink := txn.RemoveSinkAt(n, rng.Intn(len(n.Sinks)))
		if rng.Intn(4) == 0 {
			// Hand the sink to a second net of an existing launch point —
			// an input port or a source register — so a surviving node's
			// chain of driven nets grows (and shrinks again on rollback)
			// and its load becomes the new net's.
			from := netlist.IPin(d.Instance("src"+itoa(rng.Intn(14))), "Q")
			if rng.Intn(2) == 0 {
				from = netlist.PPin(d.Port("in" + itoa(rng.Intn(6))))
			}
			nn := txn.AddNet("rtap"+itoa(*seq), from, sink)
			for _, r := range []*netlist.Net{n, nn} {
				if err := txn.Reroute(r); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		buf := txn.AddInstance("rbuf"+itoa(*seq), d.Lib.MustCell("BUF_X16"))
		a, b := n.Driver.Loc(), sink.Loc()
		buf.Loc, buf.Placed = geom.Pt((a.X+b.X)/2, (a.Y+b.Y)/2), true
		txn.AppendSink(n, netlist.IPin(buf, "A"))
		nn := txn.AddNet("rnet"+itoa(*seq), netlist.IPin(buf, "Y"), sink)
		for _, r := range []*netlist.Net{n, nn} {
			if err := txn.Reroute(r); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkReport asserts field-for-field equality of a report and the
// oracle's over the same engine state.
func checkReport(t *testing.T, e *Engine, got *Report, period float64, when string) {
	t.Helper()
	want, err := e.oracleReport(period)
	if err != nil {
		t.Fatalf("%s: oracle: %v", when, err)
	}
	if got.MinPeriod != want.MinPeriod || got.FmaxMHz != want.FmaxMHz || got.WNS != want.WNS ||
		got.TNS != want.TNS || got.Endpoints != want.Endpoints {
		t.Fatalf("%s: report (period %v wns %v tns %v ep %d), oracle (period %v wns %v tns %v ep %d)", when,
			got.MinPeriod, got.WNS, got.TNS, got.Endpoints, want.MinPeriod, want.WNS, want.TNS, want.Endpoints)
	}
	if !reflect.DeepEqual(got.Critical, want.Critical) {
		t.Fatalf("%s: critical path differs:\n got %+v\nwant %+v", when, got.Critical, want.Critical)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("%s: %d paths, oracle %d", when, len(got.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		if !reflect.DeepEqual(got.Paths[i], want.Paths[i]) {
			t.Fatalf("%s: path %d differs:\n got %+v\nwant %+v", when, i, got.Paths[i], want.Paths[i])
		}
	}
	if got.HoldWNS != want.HoldWNS || got.HoldViolations != want.HoldViolations || got.HoldEndpoints != want.HoldEndpoints {
		t.Fatalf("%s: hold results differ", when)
	}
}

// checkVia asserts what the passes record about where an arrival came
// from: a node with an upstream node also names the net it won through,
// that net's driver sits on the upstream node and the node itself is one
// of its sinks; a launch point names neither.
func checkVia(t *testing.T, e *Engine, when string) {
	t.Helper()
	for _, p := range []*pass{&e.full, &e.half} {
		for node := range p.prev {
			prev, via := p.prev[node], p.via[node]
			if (prev < 0) != (via < 0) {
				t.Fatalf("%s: node %d has prev %d but via %d", when, node, prev, via)
			}
			if prev < 0 {
				continue
			}
			n := e.d.Nets[via]
			if drv, ok := e.refNode(n.Driver); !ok || drv != int(prev) {
				t.Fatalf("%s: node %d came from node %d via net %s, whose driver %s sits on node %d",
					when, node, prev, n.Name, n.Driver, drv)
			}
			if !slices.ContainsFunc(n.Sinks, func(s netlist.PinRef) bool {
				sn, ok := e.refNode(s)
				return ok && sn == node
			}) {
				t.Fatalf("%s: node %d is no sink of the net %s it won through", when, node, n.Name)
			}
		}
	}
}

// checkFresh asserts that the engine's report equals a from-scratch
// analysis of the same design — every field, every path step for step.
func checkFresh(t *testing.T, e *Engine, got *Report, period float64, when string) {
	t.Helper()
	fresh, err := Analyze(e.d, e.ex, period, e.opt)
	if err != nil {
		t.Fatalf("%s: fresh analysis: %v", when, err)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Fatalf("%s: incremental report differs from a fresh analysis:\n got %+v\nwant %+v", when, got, fresh)
	}
}

// TestReportMatchesOracle: on seeded random designs, the table-driven
// report equals the scan-and-full-sort oracle after the first full run
// (whose topology was derived once, by NewEngine) and after every update
// or full run that follows a random bundle of resizes and buffer
// insertions, whether the bundle is then committed or rolled
// back — including the setup rows patched for resized registers and
// the tables patched around insertions and truncations, which equal a
// fresh engine's row for row after every one of them (CheckTopo).
func TestReportMatchesOracle(t *testing.T) {
	const period = 900
	for seed := uint64(1); seed <= 6; seed++ {
		for _, top := range []int{1, 8, 48} {
			db := randomDB(t, seed)
			rng := geom.NewRNG(seed * 977)
			e, err := NewEngine(db.Design, db.Ex, Options{Corner: db.Corner, TopPaths: top, CheckHold: seed%2 == 0})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.Run(period)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, e, rep, period, fmt.Sprintf("seed %d top %d run", seed, top))
			seq := 0
			for step := 0; step < 20; step++ {
				when := fmt.Sprintf("seed %d top %d step %d", seed, top, step)
				txn := db.Begin()
				randomEdits(t, db, txn, rng, &seq)
				e.Invalidate(txn.DirtyNets(), txn.DirtyInsts(), txn.TopoChanged())
				// Every fifth bundle is analyzed by a full Run, which keeps
				// the topology caches unless the bundle invalidated them.
				analyze := e.Update
				if step%5 == 4 {
					analyze = e.Run
				}
				if rep, err = analyze(period); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				checkReport(t, e, rep, period, when)
				checkVia(t, e, when)
				checkFresh(t, e, rep, period, when)
				if err := e.CheckTopo(); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if rng.Intn(2) == 0 {
					txn.Commit()
					continue
				}
				e.Invalidate(txn.Rollback())
				if rep, err = e.Update(period); err != nil {
					t.Fatalf("%s rollback: %v", when, err)
				}
				checkReport(t, e, rep, period, when+" rollback")
				checkVia(t, e, when+" rollback")
				checkFresh(t, e, rep, period, when+" rollback")
				if err := e.CheckTopo(); err != nil {
					t.Fatalf("%s rollback: %v", when, err)
				}
			}
			// With nothing pending, an Update reads the same state again.
			if rep, err = e.Update(period); err != nil {
				t.Fatal(err)
			}
			checkFresh(t, e, rep, period, fmt.Sprintf("seed %d top %d final", seed, top))
		}
	}
}

// TestHoldOnLiveEngine: Hold on an engine that has analyzed a run of
// edit bundles — the last one committed and analyzed, or rolled back and
// left pending, as the optimizer leaves its engine — equals the hold
// fields of a from-scratch Analyze with CheckHold, and leaves the engine
// where an Update would: nothing pending, and the next Update equal to a
// fresh analysis.
func TestHoldOnLiveEngine(t *testing.T) {
	const period = 900
	rolledBack := 0
	for seed := uint64(1); seed <= 8; seed++ {
		db := randomDB(t, seed)
		rng := geom.NewRNG(seed * 131)
		e, err := NewEngine(db.Design, db.Ex, Options{Corner: db.Corner})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(period); err != nil {
			t.Fatal(err)
		}
		seq := 0
		for step := 0; step < 1+int(seed%4); step++ {
			txn := db.Begin()
			randomEdits(t, db, txn, rng, &seq)
			e.Invalidate(txn.DirtyNets(), txn.DirtyInsts(), txn.TopoChanged())
			if _, err := e.Update(period); err != nil {
				t.Fatal(err)
			}
			if seed%2 == 0 {
				txn.Commit()
			} else {
				e.Invalidate(txn.Rollback())
			}
		}
		when := fmt.Sprintf("seed %d", seed)
		if e.Pending() != (seed%2 == 1) {
			t.Fatalf("%s: pending %v after the last bundle", when, e.Pending())
		}
		if e.Pending() {
			rolledBack++
		}
		got, err := e.Hold()
		if err != nil {
			t.Fatal(err)
		}
		hopt := e.opt
		hopt.CheckHold = true
		want, err := Analyze(db.Design, db.Ex, period, hopt)
		if err != nil {
			t.Fatal(err)
		}
		if got.HoldWNS != want.HoldWNS || got.HoldViolations != want.HoldViolations || got.HoldEndpoints != want.HoldEndpoints {
			t.Fatalf("%s: Hold (WNS %v, %d violations, %d endpoints), fresh (WNS %v, %d, %d)", when,
				got.HoldWNS, got.HoldViolations, got.HoldEndpoints, want.HoldWNS, want.HoldViolations, want.HoldEndpoints)
		}
		if got.HoldEndpoints == 0 || got.Endpoints != 0 || got.Paths != nil {
			t.Fatalf("%s: Hold report %+v, want the hold fields only", when, got)
		}
		if e.Pending() {
			t.Fatalf("%s: Hold left the invalidation pending", when)
		}
		rep, err := e.Update(period)
		if err != nil {
			t.Fatal(err)
		}
		checkFresh(t, e, rep, period, when+" after Hold")
		if err := e.CheckTopo(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	if rolledBack == 0 {
		t.Fatal("no engine had a rolled-back bundle pending")
	}
}

// TestReportTiesFollowTableOrder: when lanes are electrically
// identical every launch node ties with its twin in every other lane,
// and the selected paths come out in table order — the order a stable
// full sort gives.
func TestReportTiesFollowTableOrder(t *testing.T) {
	d, ex := lanes(t, 12)
	for i := 1; i < 12; i++ {
		for _, name := range []string{"q", "ya", "yb"} {
			from, to := ex.Nets[d.Net(name+"0").ID], ex.Nets[d.Net(name+itoa(i)).ID]
			to.WireC, to.WireR, to.PinC = from.WireC, from.WireR, from.PinC
			copy(to.ElmoreTo, from.ElmoreTo)
		}
	}
	e, err := NewEngine(d, ex, Options{TopPaths: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Paths[0].Delay != rep.Paths[1].Delay {
		t.Fatalf("lanes do not tie: %v vs %v", rep.Paths[0].Delay, rep.Paths[1].Delay)
	}
	checkReport(t, e, rep, 2000, "tied lanes")
}

// TestEngineUpdateTopoAllocs: at steady state — the engine's buffers
// and the arenas' slack sized by a first round — the Update after a
// buffer insertion and the Update after its rollback allocate the
// report, its path list and the step array, and nothing for the patch.
func TestEngineUpdateTopoAllocs(t *testing.T) {
	const period = 900
	db := randomDB(t, 3)
	e, err := NewEngine(db.Design, db.Ex, Options{Corner: db.Corner, TopPaths: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(period); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func(f func()) uint64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		return b.Mallocs - a.Mallocs
	}
	update := func() {
		if _, err := e.Update(period); err != nil {
			t.Fatal(err)
		}
	}
	// The same bundle every round, on a net with several sinks: one
	// moves behind a new buffer, the others shift down a sink index.
	d := db.Design
	var n *netlist.Net
	for _, c := range d.Nets {
		if !c.Clock && (n == nil || len(c.Sinks) > len(n.Sinks)) {
			n = c
		}
	}
	for round := 0; round < 8; round++ {
		txn := db.Begin()
		sink := txn.RemoveSinkAt(n, 0)
		buf := txn.AddInstance("abuf", d.Lib.MustCell("BUF_X16"))
		buf.Loc, buf.Placed = sink.Loc(), true
		txn.AppendSink(n, netlist.IPin(buf, "A"))
		nn := txn.AddNet("anet", netlist.IPin(buf, "Y"), sink)
		for _, r := range []*netlist.Net{n, nn} {
			if err := txn.Reroute(r); err != nil {
				t.Fatal(err)
			}
		}
		e.Invalidate(txn.DirtyNets(), txn.DirtyInsts(), true)
		after := mallocs(update)
		e.Invalidate(txn.Rollback())
		undone := mallocs(update)
		if err := e.CheckTopo(); err != nil {
			t.Fatal(err)
		}
		if round >= 2 && (after > 3 || undone > 3) {
			t.Fatalf("round %d: Update allocates %d objects after a buffer bundle and %d after its rollback, want at most 3",
				round, after, undone)
		}
	}
}
