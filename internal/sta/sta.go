// Package sta is a static timing analyzer over the placed, routed and
// extracted design: levelized arrival propagation with slew-aware
// linear cell delays and Elmore wire delays, launch/capture through the
// synthesized clock tree's per-sink latencies, setup checks at
// flip-flops and clocked macros, and the half-cycle inter-tile port
// constraints of the OpenPiton tile methodology (paper §V-1).
//
// The analyzer reports the minimum feasible clock period (and thus
// f_max, the paper's performance metric), worst slack at a target
// period, and the critical path with its routed wirelength.
//
// Two entry points exist: Analyze is the one-shot from-scratch run,
// and Engine is the persistent incremental form (NewEngine → Run →
// Invalidate/Update) that optimization loops use to re-analyze only
// the dirty cone after each edit. Both produce bit-identical reports.
package sta

import (
	"fmt"
	"math"
	"slices"

	"macro3d/internal/cts"
	"macro3d/internal/extract"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/tech"
)

// Options configures an analysis run.
type Options struct {
	Corner tech.CornerScale
	// Clock provides per-sink latencies; nil analyses with an ideal
	// clock (zero latency, zero skew).
	Clock *cts.Tree
	// TopPaths is the number of worst paths to trace into
	// Report.Paths (default 8; Critical is always Paths[0]).
	TopPaths int
	// CheckHold adds a min-delay propagation pass and hold checks at
	// sequential endpoints (the paper signs off setup only; hold is an
	// extension).
	CheckHold bool
	// Obs, when non-nil, locates the run's metric registry: the
	// engine publishes full-run/incremental-update counts and
	// dirty-frontier sizes there. nil disables instrumentation.
	Obs *obs.Span
}

func (o Options) withDefaults() Options {
	if o.Corner.CellDelay == 0 {
		o.Corner = tech.CornerScale{CellDelay: 1, WireR: 1, WireC: 1, Leakage: 1}
	}
	return o
}

// defaultSlew is the input slew at launch points, ps.
const defaultSlew = 30.0

// PathStep is one hop of a reported path.
type PathStep struct {
	Ref     netlist.PinRef
	Arrival float64 // ps
}

// Path is a traced critical path.
type Path struct {
	Steps      []PathStep
	Delay      float64 // ps, launch to endpoint data arrival
	Wirelength float64 // µm along the path
	HalfCycle  bool    // launched/captured by a half-cycle port
}

// Report is the analysis outcome.
type Report struct {
	// MinPeriod is the smallest clock period meeting every constraint,
	// ps.
	MinPeriod float64
	// FmaxMHz = 1e6 / MinPeriod.
	FmaxMHz float64
	// WNS at the analyzed period (ps); negative = violated.
	WNS float64
	// TNS sums negative endpoint slacks, ps.
	TNS float64
	// Critical is the path that sets MinPeriod.
	Critical Path
	// Paths holds the TopPaths worst paths, most critical first, at
	// most one per distinct launch node.
	Paths []Path
	// Endpoints analyzed.
	Endpoints int

	// Hold results (only when Options.CheckHold).
	HoldWNS        float64
	HoldViolations int
	HoldEndpoints  int

	// steps is the array the paths' steps are cut from, kept so that an
	// Update handed this report back refills it.
	steps []PathStep
}

const negInf = -1e30

// Analyze runs setup analysis. period is the target clock period in ps
// (used for slack; MinPeriod is computed regardless).
func Analyze(d *netlist.Design, ex *extract.Design, period float64, opt Options) (*Report, error) {
	e, err := NewEngine(d, ex, opt)
	if err != nil {
		return nil, err
	}
	return e.Run(period)
}

// epRow is one row of the endpoint table (Engine.ep, keyed by net): a
// sink that captures data — a sequential data pin or an output port;
// the pin itself is the net's Sinks[si]. Everything in it follows from
// topology and masters, so the topology builders derive the table and
// patchMasters refreshes the rows of resized instances; buildReport
// only does arithmetic over it.
type epRow struct {
	si       int32
	drv      int32 // launch-side node
	inst     int32 // the capturing instance, -1 for a port
	port     bool  // output port (otherwise a sequential data pin)
	portHalf bool  // the port is half-cycle constrained
	// Sequential rows: setup (corner-scaled, or a hardened abstract's
	// sign-off-absolute pin budget) and the capture clock latency.
	setup, capLat float64
}

// endpoint is one constrained arrival of the current report pass.
type endpoint struct {
	req   float64 // minimum period this endpoint demands
	delay float64 // data arrival at the endpoint
	net   int32
	row   int32 // index into ep.data
	// snapHalf: launched on the half-cycle pass. isHalf: launched or
	// captured by a half-cycle port.
	snapHalf, isHalf bool
}

// setupOf is the setup budget of a sequential data pin.
func (e *Engine) setupOf(s netlist.PinRef) float64 {
	m := s.Inst.Master
	if m.Abstract != nil {
		// A hardened abstract's data-input setup is the pin's full
		// internal budget, already sign-off absolute — no corner scale.
		if p := s.MasterPin(); p != nil {
			return p.Setup
		}
	}
	return m.Setup * e.opt.Corner.CellDelay
}

// patchMasters follows the pending (resized) instances: it refreshes the
// setup of the endpoint rows that capture at them, found through the
// instance's arcs. A master that changed what its instance is to the
// graph (classify) stales the tables themselves, and they are rebuilt.
func (e *Engine) patchMasters() error {
	for _, id := range e.pendInsts {
		if id >= len(e.isComb) {
			continue
		}
		if e.classify(id) {
			return e.rebuildTopo()
		}
		if !e.isSeq[id] {
			continue
		}
		for _, a := range e.in.row(id) {
			rows := e.ep.row(int(a.net))
			for i := range rows {
				if rows[i].si == a.si {
					rows[i].setup = e.setupOf(e.d.Nets[a.net].Sinks[a.si])
				}
			}
		}
	}
	return nil
}

// before is the report's total order over the endpoints of one pass:
// the more demanding first, ties by position in the table.
func (e *Engine) before(i, j int32) bool {
	a, b := e.eps[i].req, e.eps[j].req
	return a > b || (a == b && i < j)
}

// buildReport runs the endpoint checks over the current full/half pass
// state and assembles the report: minimum period, slacks, critical
// paths, optional hold analysis. It is one arithmetic pass over the
// endpoint table into engine-kept buffers, then a bounded selection of
// the paths to trace. The report is written into rep (nil: a new one),
// whose path and step arrays are reused where they are large enough:
// with them the report allocates nothing; without, its Report, Paths
// and one step array for all paths.
func (e *Engine) buildReport(period float64, rep *Report) (*Report, error) {
	d, ex, opt := e.d, e.ex, e.opt
	if rep == nil {
		rep = &Report{}
	}
	paths, stepBuf := rep.Paths, rep.steps
	*rep = Report{}

	ioRef := e.ioRef()
	full, half := &e.full, &e.half

	e.eps = slices.Grow(e.eps[:0], e.ep.live)
	consider := func(ep endpoint, slack float64) {
		rep.Endpoints++
		if slack < 0 {
			rep.TNS += slack
		}
		if slack < rep.WNS || rep.Endpoints == 1 {
			rep.WNS = slack
		}
		e.eps = append(e.eps, ep)
	}

	for net, at := range e.ep.at {
		if at.n == 0 {
			continue
		}
		rc := ex.Nets[net]
		if rc == nil {
			continue
		}
		// Launch adjustment when the driver is a hardened-abstract
		// output pin (0 otherwise; see Engine.arcLaunch).
		adj := 0.0
		if e.hasAbstract {
			adj = e.arcLaunch(int(e.netDrv[net]), d.Nets[net], rc)
		}
		for ri := at.off; ri < at.off+at.n; ri++ {
			r := &e.ep.data[ri]
			elm := rc.ElmoreTo[r.si] // already corner-scaled by extraction
			fa, ha := full.arr[r.drv], half.arr[r.drv]
			ep := endpoint{net: int32(net), row: ri}
			if !r.port {
				setup, capLat := r.setup, r.capLat
				// Full-cycle launched paths.
				if fa > negInf {
					ep.delay = fa + adj + elm
					ep.req = ep.delay + setup - capLat
					consider(ep, period+capLat-setup-ep.delay)
				}
				// Half-cycle launched paths: budget T/2.
				if ha > negInf {
					ep.delay = ha + adj + elm
					ep.req = 2 * (ep.delay + setup - capLat)
					ep.snapHalf, ep.isHalf = true, true
					consider(ep, period/2+capLat-setup-ep.delay)
				}
				continue
			}
			if fa > negInf {
				ep.delay = fa + adj + elm
				div := 1.0
				if r.portHalf {
					div = 2
				}
				// Delay relative to the virtual port clock edge.
				rel := ep.delay - ioRef
				ep.req, ep.isHalf = rel*div, r.portHalf
				consider(ep, period/div-rel)
			}
			// Port-to-port paths (half-launch to half-capture) are
			// feedthroughs; OpenPiton tiles register at both ends, so they
			// are rare — still checked.
			if ha > negInf && r.portHalf {
				ep.delay = ha + adj + elm
				ep.req, ep.snapHalf, ep.isHalf = ep.delay-ioRef, true, true
				consider(ep, period-ep.req)
			}
		}
	}

	if opt.CheckHold {
		e.analyzeHold(rep)
	}

	if len(e.eps) == 0 {
		return nil, fmt.Errorf("sta: no constrained endpoints found")
	}

	// Top-K paths, one per distinct launch node so the optimizer sees
	// independent problems rather than K sinks of one bus: the first
	// sweep keeps every launch node's worst endpoint, the second the k
	// worst of those, in order.
	k := opt.TopPaths
	if k <= 0 {
		k = 8
	}
	e.epGen++
	e.launches = e.launches[:0]
	for i := range e.eps {
		node := e.ep.data[e.eps[i].row].drv
		if e.launchGen[node] != e.epGen {
			e.launchGen[node], e.launchBest[node] = e.epGen, int32(i)
			e.launches = append(e.launches, node)
		} else if e.before(int32(i), e.launchBest[node]) {
			e.launchBest[node] = int32(i)
		}
	}
	sel := e.sel[:0]
	for _, node := range e.launches {
		c := e.launchBest[node]
		if len(sel) < k {
			sel = append(sel, c)
		} else if !e.before(c, sel[k-1]) {
			continue
		}
		pos := len(sel) - 1
		for ; pos > 0 && e.before(c, sel[pos-1]); pos-- {
			sel[pos] = sel[pos-1]
		}
		sel[pos] = c
	}
	e.sel = sel

	worst := e.eps[sel[0]]
	rep.MinPeriod = worst.req
	rep.FmaxMHz = 1e6 / worst.req

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

	// The traced paths share one step array, cut to each path's length.
	// Critical is Paths[0], steps included.
	total := 0
	for _, c := range sel {
		total += e.hops(e.eps[c])
	}
	rep.steps, rep.Paths = refill(stepBuf, total), refill(paths, len(sel))
	steps := rep.steps
	for i, c := range sel {
		k := e.hops(e.eps[c])
		rep.Paths[i] = e.trace(e.eps[c], steps[:k:k])
		steps = steps[k:]
	}
	rep.Critical = rep.Paths[0]
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

// refill returns s at length n: s itself when it has the room, else a
// new array — of exactly n for a report that had none, and with
// append's headroom for one that outgrew its own, since the paths of a
// refilled report vary in length from one update to the next.
func refill[T any](s []T, n int) []T {
	switch {
	case cap(s) >= n:
		return s[:n]
	case s == nil:
		return make([]T, n)
	}
	return slices.Grow(s[:0], n)[:n]
}

// dist is the Manhattan distance between two connection points, µm.
func dist(a, b netlist.PinRef) float64 {
	return a.Loc().Manhattan(b.Loc())
}

// hops is the number of steps of the path that ends at an endpoint:
// the nodes back from its launch-side node, and the endpoint.
func (e *Engine) hops(ep endpoint) int {
	s := e.passOf(ep)
	hops := 1
	for n := e.ep.data[ep.row].drv; n >= 0; n = s.prev[n] {
		hops++
	}
	return hops
}

func (e *Engine) passOf(ep endpoint) *pass {
	if ep.snapHalf {
		return &e.half
	}
	return &e.full
}

// trace reconstructs the path that ends at an endpoint, back from its
// launch-side node along the pass it was launched on, into steps, which
// has hops(ep) elements.
func (e *Engine) trace(ep endpoint, steps []PathStep) Path {
	r, s, n := &e.ep.data[ep.row], e.passOf(ep), e.d.Nets[ep.net]
	// Filled from the endpoint back to the launch point.
	last := len(steps) - 1
	steps[last] = PathStep{Ref: n.Sinks[r.si], Arrival: ep.delay}
	for i, n := last-1, r.drv; n >= 0; i, n = i-1, s.prev[n] {
		steps[i] = PathStep{Ref: e.nodeRef(int(n)), Arrival: s.arr[n]}
	}
	return Path{Steps: steps, Delay: ep.delay, HalfCycle: ep.isHalf,
		Wirelength: e.pathWL(s, steps[:last]) + dist(n.Driver, n.Sinks[r.si])}
}

// pathWL is the Manhattan wire from a path's launch point to its last
// node, steps: at each node after the launch, from the driver of the
// net the node's arrival won through to the sink it won at, summed from
// the launch on.
func (e *Engine) pathWL(s *pass, steps []PathStep) float64 {
	wl := 0.0
	for _, st := range steps[1:] {
		node, _ := e.refNode(st.Ref)
		n := e.d.Nets[s.via[node]]
		wl += dist(n.Driver, n.Sinks[e.wonAt(s, node)])
	}
	return wl
}

// nodeRef reconstructs a PinRef describing a node's output.
func (e *Engine) nodeRef(n int) netlist.PinRef {
	if n < e.nPorts {
		return netlist.PPin(e.d.Ports[n])
	}
	inst := e.d.Instances[n-e.nPorts]
	if out := inst.Master.Output(); out != nil {
		return netlist.IPin(inst, out.Name)
	}
	return netlist.PinRef{Inst: inst}
}
