// Electrostatics-style analytical global placement (ePlace family,
// after the die-to-die analytical placement formulation): a smooth
// weighted-average (WA) wirelength model descended jointly with a
// bin-grid density penalty whose potential comes from a Poisson solve
// over the existing binGrid. Cells are charges; overfilled bins build
// up potential and the field pushes cells toward free area, replacing
// the default placer's discrete bin-eviction spreading with a smooth,
// embarrassingly parallel force.
//
// The engine is gated behind Options.Analytic and is NOT bit-identical
// to the default quadratic placer — it is a different algorithm with
// different (better-or-equal HPWL) results, so the flag is part of the
// result-defining configuration. Within the analytic engine, results are
// bit-identical at any Workers setting: the three parallel passes of an
// iteration write disjoint elements while reading frozen arrays, every
// floating-point sum (net aggregates, bin charge, HPWL, overflow) runs
// in one fixed order, and max reductions combine per-chunk maxima,
// which is exact for floats.
package place

import (
	"math"
	"strings"
	"time"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/obs/trace"
	"macro3d/internal/par"
	"macro3d/internal/tech"
)

// trSet abbreviates the tracer worker-set threaded through every
// parallel phase.
type trSet = *trace.Set

// Analytic-engine tuning constants. These are part of the deterministic
// result definition — changing them changes placements.
const (
	// analyticSeedIters quadratic net-centroid sweeps seed the descent
	// (the "coarse level" of the multilevel scheme: a cheap global
	// wirelength minimum the electrostatic refinement spreads out).
	analyticSeedIters = 12
	// analyticBumpWeight multiplies the WA weight of nets that span
	// both logic-die and `_MD` macro-die layers: such nets cross an
	// F2F bump, so a unit of their wirelength is costlier (bump RC +
	// finite bump-pitch congestion) than a same-die unit.
	analyticBumpWeight = 1.5
	// analyticSnapOverflow is the density-overflow ceiling below which
	// an iterate may be recorded as the best-HPWL snapshot.
	analyticSnapOverflow = 0.07
	// analyticStopOverflow ends the descent early once reached.
	analyticStopOverflow = 0.025
	// Poisson relaxation sweep counts per outer iteration (coarse grid
	// first, then the fine grid it seeds — a two-level multigrid
	// cascade over the binGrid). Even so ping-pong buffers land back
	// in place.
	analyticCoarseRelax = 16
	analyticFineRelax   = 8
)

// placeAnalytic runs the analytic global placer and hands the result to
// the shared legalizer. Mirrors Place()'s contract.
func placeAnalytic(d *netlist.Design, fp *floorplan.Floorplan, rowHeight float64, opt Options) (*Result, error) {
	t0 := time.Now()
	movable := movableCells(d)
	if len(movable) == 0 {
		return &Result{}, nil
	}
	workers := par.Workers(opt.Workers)
	if len(movable) < parMinCells {
		workers = 1
	}
	var busy time.Duration
	die := fp.Die
	// Separate stream from the default path: the engines share no RNG
	// state, so neither can perturb the other.
	rng := geom.NewRNG(opt.Seed + 11)

	pos := make([]geom.Point, len(d.Instances))
	for _, inst := range d.Instances {
		if inst.Fixed {
			pos[inst.ID] = inst.Center()
		} else {
			pos[inst.ID] = geom.Pt(
				die.Center().X+rng.Norm()*die.W()/20,
				die.Center().Y+rng.Norm()*die.H()/20,
			)
		}
	}

	bins := newBinGrid(die, opt.BinPitch, fp.PlaceBlk, opt.MaxFill)

	ts := opt.Trace.WorkerSet("place", workers)
	mt := opt.Trace.Track("main")

	gsp := opt.Obs.Child("global-analytic", obs.KV("cells", len(movable)))

	// Seed: a few quadratic net-centroid sweeps give the wirelength
	// minimum the electrostatic spreading starts from.
	anchor := make([]geom.Point, len(d.Instances))
	busy += solve(d, movable, d.NetsOfInstance(), pos, anchor, 0, die, analyticSeedIters, workers, ts)

	st := newAnalyticState(d, movable, pos, bins, die, opt.BinPitch, workers, ts)
	busy += st.netWeights(d)

	iters := opt.AnalyticIters
	best := make([]geom.Point, len(pos))
	bestHP := math.MaxFloat64
	for it := 0; it < iters; it++ {
		ovf := st.iterate(it, iters)
		// The exact HPWL is read only where an iterate may become the
		// snapshot, so it is computed only there.
		if ovf <= analyticSnapOverflow {
			if hp := st.hpwl(); hp < bestHP {
				bestHP = hp
				copy(best, pos)
			}
		}
		if ovf <= analyticStopOverflow && it >= iters/4 {
			break
		}
	}
	busy += st.busy
	if bestHP < math.MaxFloat64 {
		copy(pos, best)
	}
	// Residual cleanup: one deterministic eviction round clears any
	// overflow the smooth field left behind, then the shared legalizer
	// takes over.
	busy += spread(movable, pos, bins, rng, workers, ts, mt)
	gsp.End()

	res := &Result{}
	for _, inst := range movable {
		inst.Loc = geom.Pt(pos[inst.ID].X-inst.Master.Width/2, pos[inst.ID].Y-inst.Master.Height/2)
		inst.Placed = true
	}
	res.GlobalHPWL = d.TotalHPWL()
	res.Overflow = bins.overflow(movable, pos)

	lsp := opt.Obs.Child("legalize")
	disp, maxDisp, err := legalizeN(movable, fp, rowHeight, workers, ts, mt)
	lsp.End()
	if err != nil {
		return nil, err
	}
	res.Displacement = disp
	res.MaxDisp = maxDisp
	res.HPWL = d.TotalHPWL()
	if reg := opt.Obs.Reg(); reg != nil {
		reg.Counter("place_legalized_cells_total",
			"Movable standard cells legalized into rows.").Add(uint64(len(movable)))
		reg.Gauge("place_legalize_displacement_mean_um",
			"Mean legalization displacement of the latest placement, um.").Set(disp)
		reg.Gauge("place_legalize_displacement_max_um",
			"Max legalization displacement of the latest placement, um.").Set(maxDisp)
		reg.Gauge("place_density_overflow_ratio",
			"Residual density overflow fraction after spreading.").Set(res.Overflow)
		reg.Gauge("place_hpwl_um",
			"Half-perimeter wirelength after legalization, um.").Set(res.HPWL)
		reg.Gauge("place_analytic_best_hpwl_um",
			"Best pre-legalization HPWL snapshot of the analytic engine, um.").Set(bestHP)
		reg.Gauge("place_workers",
			"Worker goroutines used by the parallel placement engine.").Set(float64(workers))
		if wall := time.Since(t0).Seconds(); wall > 0 && workers > 1 {
			reg.Gauge("place_worker_utilization_ratio",
				"Summed worker busy time over workers × stage wall time, latest run.").
				Set(busy.Seconds() / (wall * float64(workers)))
		}
	}
	return res, nil
}

// analyticState holds the flat pin tables and every per-iteration
// scratch array of the descent, so an iteration dereferences no netlist
// object and allocates nothing.
type analyticState struct {
	// Net → pin-slot CSR: the slots of net n are
	// [netStart[n], netStart[n+1]) in PinAt order.
	netStart []int32
	// slotInst is the slot's instance ID when the pin rides on an
	// unfixed instance (its coordinate is gathered from pos every
	// iteration), or -1 when the pin is frozen: slotAt then holds the
	// port location or the fixed instance's pin location, resolved once.
	slotInst []int32
	slotAt   []geom.Point
	// slotNet is the slot's net, or -1 when that net exerts no force
	// (clock nets, nets with fewer than two pins).
	slotNet []int32
	// slotExp holds the slot's four max-shifted exponentials: the net
	// pass writes them beside the sums, the cell pass reads them.
	slotExp []pinExp
	// Movable cell k → its slots, in NetsOfInstance order (net order,
	// once per pin): cellSlot[cellStart[k]:cellStart[k+1]].
	cellStart []int32
	cellSlot  []int32
	movID     []int32 // instance ID of movable cell k

	agg  []netAgg  // per-net WA sums, one slot per net (disjoint writes)
	wnet []float64 // die-aware net weights: Net.Weight × bump multiplier

	// Per-movable-cell arrays, indexed by k (disjoint writes).
	wgx, wgy []float64 // wirelength gradient
	dgx, dgy []float64 // density gradient
	area     []float64
	binOf    []int32 // bin of the cell at its current position
	total    float64 // Σ area, in movable order

	bins  *binGrid
	usage []float64 // per-bin cell area at the current positions
	pois  *poissonGrid

	// Per-chunk ∞-norms of ∇WL, ∇D and ∇WL + λ∇D from the cell pass.
	maxWL, maxD, maxG []float64

	// What the pass bodies read; set by iterate before each fan-out so
	// the three closures are built once and an iteration allocates none.
	pos                   []geom.Point
	inner                 geom.Rect
	pitch                 float64
	gamma, lambda, lr     float64
	workers               int
	ts                    trSet
	netFn, cellFn, stepFn func(w, lo, hi int)
	busy                  time.Duration
}

// pinExp is one pin's max-shifted exponentials for one iteration:
// e^{(x−xmax)/γ}, e^{(xmin−x)/γ} and the same in y.
type pinExp struct{ ax, bx, ay, by float64 }

// netAgg is one net's frozen WA aggregates for one iteration: the
// shifted exponential sums the per-cell gradient pass reads.
type netAgg struct {
	ax, axx, bx, bxx float64 // x: Σe, Σx·e (max side); Σe, Σx·e (min side)
	ay, ayy, by, byy float64
}

// newAnalyticState resolves every net pin to a flat slot once — no
// iteration looks a pin up by name or walks a *netlist.Net — and sizes
// the scratch arrays. pos is the live position array the descent moves.
func newAnalyticState(d *netlist.Design, movable []*netlist.Instance, pos []geom.Point,
	bins *binGrid, die geom.Rect, pitch float64, workers int, ts trSet) *analyticState {

	slots := 0
	for _, n := range d.Nets {
		slots += n.NumPins()
	}
	nb := bins.grid.Bins()
	st := &analyticState{
		netStart:  make([]int32, len(d.Nets)+1),
		slotInst:  make([]int32, slots),
		slotAt:    make([]geom.Point, slots),
		slotNet:   make([]int32, slots),
		slotExp:   make([]pinExp, slots),
		cellStart: make([]int32, len(movable)+1),
		movID:     make([]int32, len(movable)),
		agg:       make([]netAgg, len(d.Nets)),
		wnet:      make([]float64, len(d.Nets)),
		wgx:       make([]float64, len(movable)),
		wgy:       make([]float64, len(movable)),
		dgx:       make([]float64, len(movable)),
		dgy:       make([]float64, len(movable)),
		area:      make([]float64, len(movable)),
		binOf:     make([]int32, len(movable)),
		bins:      bins,
		usage:     make([]float64, nb),
		pois:      newPoissonGrid(bins.grid),
		maxWL:     make([]float64, workers),
		maxD:      make([]float64, workers),
		maxG:      make([]float64, workers),
		pos:       pos,
		inner:     die.Expand(-1),
		pitch:     pitch,
		workers:   workers,
		ts:        ts,
	}
	movK := make([]int32, len(d.Instances))
	for i := range movK {
		movK[i] = -1
	}
	for k, inst := range movable {
		st.movID[k] = int32(inst.ID)
		movK[inst.ID] = int32(k)
		st.area[k] = inst.Master.Area()
		st.total += st.area[k]
	}
	s := int32(0)
	for _, n := range d.Nets {
		np := n.NumPins()
		net := int32(n.ID)
		if n.Clock || np < 2 {
			net = -1
		}
		for i := 0; i < np; i++ {
			p := n.PinAt(i)
			st.slotNet[s] = net
			switch {
			case p.Port != nil:
				st.slotInst[s], st.slotAt[s] = -1, p.Port.Loc
			case p.Inst.Fixed:
				st.slotInst[s], st.slotAt[s] = -1, p.Loc()
			default:
				st.slotInst[s] = int32(p.Inst.ID)
				if k := movK[p.Inst.ID]; k >= 0 {
					st.cellStart[k+1]++
				}
			}
			s++
		}
		st.netStart[n.ID+1] = s
	}
	for k := range movable {
		st.cellStart[k+1] += st.cellStart[k]
	}
	st.cellSlot = make([]int32, st.cellStart[len(movable)])
	fill := append([]int32(nil), st.cellStart[:len(movable)]...)
	for s, id := range st.slotInst {
		if id < 0 {
			continue
		}
		if k := movK[id]; k >= 0 {
			st.cellSlot[fill[k]] = int32(s)
			fill[k]++
		}
	}
	st.netFn = func(_, lo, hi int) { st.netPass(lo, hi) }
	st.cellFn = st.cellPass
	st.stepFn = func(_, lo, hi int) { st.descend(lo, hi) }
	st.charge()
	return st
}

// netWeights computes the die-aware WA weight of every net once. A net
// whose pins touch both `_MD` macro-die layers and base-die layers
// crosses an F2F bump; its wirelength is priced up so the descent
// shortens bump-crossing spans first.
func (st *analyticState) netWeights(d *netlist.Design) time.Duration {
	return par.ChunksTr(st.ts, "place/net-weight", st.workers, len(d.Nets), func(w, lo, hi int) {
		for _, n := range d.Nets[lo:hi] {
			wt := n.Weight
			hasMD, hasBase := false, false
			for i, np := 0, n.NumPins(); i < np; i++ {
				p := n.PinAt(i)
				layer := ""
				if p.Port != nil {
					layer = p.Port.Layer
				} else if pin := p.Inst.Master.Pin(p.Pin); pin != nil {
					layer = pin.Layer
				}
				if layer == "" {
					continue
				}
				if strings.HasSuffix(layer, tech.MDSuffix) {
					hasMD = true
				} else {
					hasBase = true
				}
			}
			if hasMD && hasBase {
				wt *= analyticBumpWeight
			}
			st.wnet[n.ID] = wt
		}
	})
}

// iterate runs descent iteration it of iters — three fork-joins: the
// per-net WA sums, the per-cell gradients with their maxima, the step —
// around the serial density field, and returns the density overflow of
// the new iterate.
func (st *analyticState) iterate(it, iters int) float64 {
	// Continuation schedules: the WA smoothing γ tightens toward the
	// true max/min as the density weight λ ramps geometrically —
	// density starts as a nudge and ends dominating, the ePlace weight
	// schedule.
	frac := float64(it) / float64(max(iters-1, 1))
	gamma0, gamma1 := 4.0*st.pitch, 0.5*st.pitch
	st.gamma = gamma0 * math.Pow(gamma1/gamma0, frac)
	step := (0.5 - 0.35*frac) * st.pitch
	if it > 0 {
		st.lambda *= 1.045
	}

	st.busy += par.ChunksTr(st.ts, "place/wa-net", st.workers, len(st.wnet), st.netFn)
	st.field()
	st.busy += par.ChunksTr(st.ts, "place/cell-grad", st.workers, len(st.movID), st.cellFn)
	var wlMax, denMax, gmax float64
	for w := range st.maxG {
		wlMax, denMax, gmax = max(wlMax, st.maxWL[w]), max(denMax, st.maxD[w]), max(gmax, st.maxG[w])
	}
	if it == 0 {
		// λ is calibrated once, from the first iterate's gradient
		// magnitudes, so the combined maximum needs its own pass here.
		st.lambda = 0
		if denMax > 0 {
			st.lambda = 0.08 * wlMax / denMax
		}
		gmax = 0
		for k := range st.wgx {
			gmax = max(gmax, math.Abs(st.wgx[k]+st.lambda*st.dgx[k]), math.Abs(st.wgy[k]+st.lambda*st.dgy[k]))
		}
	}
	// One normalized gradient step: the largest cell move is step µm.
	if gmax != 0 {
		st.lr = step / gmax
		st.busy += par.ChunksTr(st.ts, "place/descend", st.workers, len(st.movID), st.stepFn)
	}
	st.charge()
	return st.overflow()
}

// span gathers the current pin coordinates of net slots [s0, s1) into
// slotAt and returns their bounding box.
func (st *analyticState) span(s0, s1 int32) (xmax, xmin, ymax, ymin float64) {
	at := st.slotAt[s0:s1]
	for i, id := range st.slotInst[s0:s1] {
		if id >= 0 {
			at[i] = st.pos[id]
		}
	}
	xmax, xmin, ymax, ymin = at[0].X, at[0].X, at[0].Y, at[0].Y
	for _, c := range at[1:] {
		if c.X > xmax {
			xmax = c.X
		} else if c.X < xmin {
			xmin = c.X
		}
		if c.Y > ymax {
			ymax = c.Y
		} else if c.Y < ymin {
			ymin = c.Y
		}
	}
	return
}

// netPass computes the WA sums of nets [lo, hi) and every pin's
// exponentials, each net writing only its own slots while pos is frozen.
func (st *analyticState) netPass(lo, hi int) {
	gamma := st.gamma
	for n := lo; n < hi; n++ {
		s0, s1 := st.netStart[n], st.netStart[n+1]
		if st.slotNet[s0] < 0 {
			continue
		}
		xmax, xmin, ymax, ymin := st.span(s0, s1)
		// The span's own exponent serves both ends of the net.
		ex, ey := math.Exp((xmin-xmax)/gamma), math.Exp((ymin-ymax)/gamma)
		var a netAgg
		es := st.slotExp[s0:s1]
		for i, c := range st.slotAt[s0:s1] {
			e := &es[i]
			e.ax, e.bx = spanExp(c.X, xmax, xmin, ex, gamma)
			a.ax += e.ax
			a.axx += c.X * e.ax
			a.bx += e.bx
			a.bxx += c.X * e.bx
			e.ay, e.by = spanExp(c.Y, ymax, ymin, ey, gamma)
			a.ay += e.ay
			a.ayy += c.Y * e.ay
			a.by += e.by
			a.byy += c.Y * e.by
		}
		st.agg[n] = a
	}
}

// spanExp returns e^{(x−hi)/γ} and e^{(lo−x)/γ} for a pin inside
// [lo, hi]. A pin at an end of the span has exponent 0 on its own side
// (math.Exp(0) is exactly 1) and the span's exponent (lo−hi)/γ on the
// other, whose exponential es the caller computed once — the same
// arguments math.Exp would have seen, so the same bits.
func spanExp(x, hi, lo, es, gamma float64) (a, b float64) {
	switch x {
	case hi:
		return 1, es
	case lo:
		return es, 1
	}
	return math.Exp((x - hi) / gamma), math.Exp((lo - x) / gamma)
}

// waGrad is the derivative of the WA span estimate (x_max^WA − x_min^WA)
// with respect to one pin coordinate x:
//
//	∂/∂x [Σxᵢaᵢ/Σaᵢ] = (a/A)(1 + (x − f)/γ),  aᵢ = e^{xᵢ/γ}, f = Σxᵢaᵢ/Σaᵢ
//
// and symmetrically −(b/B)(1 − (x − g)/γ) for the min side with
// bᵢ = e^{−xᵢ/γ}. The exponentials are max-shifted for stability; the
// shift cancels in every ratio. a and b are the pin's own exponentials
// from the net pass.
func waGrad(x, a, b, A, AX, B, BX, gamma float64) float64 {
	g := 0.0
	if A > 0 {
		f := AX / A
		g += (a / A) * (1 + (x-f)/gamma)
	}
	if B > 0 {
		m := BX / B
		g -= (b / B) * (1 - (x-m)/gamma)
	}
	return g
}

// cellPass computes, for movable cells [lo, hi), the wirelength gradient
// from the frozen net sums and the density gradient ∂N/∂x = q·∂φ/∂x by
// central difference on the bin the cell sits in, and records the
// chunk's gradient maxima. Max combines exactly regardless of chunking.
func (st *analyticState) cellPass(w, lo, hi int) {
	g := st.bins.grid
	phi := st.pois.phi
	gamma, lambda := st.gamma, st.lambda
	var mwl, md, mg float64
	for k := lo; k < hi; k++ {
		c := st.pos[st.movID[k]]
		var gx, gy float64
		for _, s := range st.cellSlot[st.cellStart[k]:st.cellStart[k+1]] {
			n := st.slotNet[s]
			if n < 0 {
				continue
			}
			a, e, wt := &st.agg[n], &st.slotExp[s], st.wnet[n]
			gx += wt * waGrad(c.X, e.ax, e.bx, a.ax, a.axx, a.bx, a.bxx, gamma)
			gy += wt * waGrad(c.Y, e.ay, e.by, a.ay, a.ayy, a.by, a.byy, gamma)
		}
		ix, iy := g.Coords(int(st.binOf[k]))
		xl, xr := max(ix-1, 0), min(ix+1, g.NX-1)
		yl, yr := max(iy-1, 0), min(iy+1, g.NY-1)
		var ddx, ddy float64
		if xr > xl {
			ddx = (phi[g.Index(xr, iy)] - phi[g.Index(xl, iy)]) / (float64(xr-xl) * g.DX)
		}
		if yr > yl {
			ddy = (phi[g.Index(ix, yr)] - phi[g.Index(ix, yl)]) / (float64(yr-yl) * g.DY)
		}
		dx, dy := st.area[k]*ddx, st.area[k]*ddy
		st.wgx[k], st.wgy[k], st.dgx[k], st.dgy[k] = gx, gy, dx, dy
		mwl = max(mwl, math.Abs(gx), math.Abs(gy))
		md = max(md, math.Abs(dx), math.Abs(dy))
		mg = max(mg, math.Abs(gx+lambda*dx), math.Abs(gy+lambda*dy))
	}
	st.maxWL[w], st.maxD[w], st.maxG[w] = mwl, md, mg
}

// descend moves movable cells [lo, hi) against the combined gradient,
// each updating only its own position.
func (st *analyticState) descend(lo, hi int) {
	lr, lambda := st.lr, st.lambda
	for k := lo; k < hi; k++ {
		p := &st.pos[st.movID[k]]
		*p = st.inner.ClampPoint(geom.Pt(
			p.X-lr*(st.wgx[k]+lambda*st.dgx[k]),
			p.Y-lr*(st.wgy[k]+lambda*st.dgy[k]),
		))
	}
}

// charge bins every movable cell at its current position: a serial
// scatter-add in movable order, the float order every reader of usage
// (the Poisson charge, the overflow) is defined in.
func (st *analyticState) charge() {
	g := st.bins.grid
	clear(st.usage)
	for k, id := range st.movID {
		ix, iy := g.Locate(st.pos[id])
		i := g.Index(ix, iy)
		st.binOf[k] = int32(i)
		st.usage[i] += st.area[k]
	}
}

// overflow returns the fraction of total cell area sitting above bin
// capacity at the positions charge last saw.
func (st *analyticState) overflow() float64 {
	over := 0.0
	for i, u := range st.usage {
		if u > st.bins.cap[i] {
			over += u - st.bins.cap[i]
		}
	}
	if st.total == 0 {
		return 0
	}
	return over / st.total
}

// field refreshes the Poisson potential from the bin charge. Signed
// charge: cell area above capacity repels, free capacity attracts.
// Neumann boundaries make the problem singular unless the net charge is
// zero, so the mean is removed.
func (st *analyticState) field() {
	rho := st.pois.rho
	var mean float64
	for i, u := range st.usage {
		rho[i] = u - st.bins.cap[i]
		mean += rho[i]
	}
	mean /= float64(len(rho))
	for i := range rho {
		rho[i] -= mean
	}
	st.pois.solve()
}

// hpwl returns the true (non-smoothed) weighted HPWL of the current
// iterate: per-net bounding boxes over the slot table, summed in net
// order. Clock nets count here although they exert no force.
func (st *analyticState) hpwl() float64 {
	var sum float64
	for n, wt := range st.wnet {
		s0, s1 := st.netStart[n], st.netStart[n+1]
		if s1-s0 < 2 {
			continue
		}
		xmax, xmin, ymax, ymin := st.span(s0, s1)
		sum += wt * ((xmax - xmin) + (ymax - ymin))
	}
	return sum
}

// poissonGrid solves ∇²φ = −ρ over the bin grid with Neumann (mirror)
// boundaries by damped Jacobi relaxation on a two-level multigrid: the
// charge restricts to a half-resolution grid that relaxes first, its
// potential prolongates down as the fine grid's initial guess, and a
// few fine sweeps finish. The solve is serial: a tile's grid is a few
// hundred bins, and 26 fork-joins over it cost more than the sweeps.
type poissonGrid struct {
	nx, ny   int
	cnx, cny int
	phi, tmp []float64
	crho     []float64
	cphi     []float64
	ctmp     []float64
	rho      []float64
}

func newPoissonGrid(g geom.Grid) *poissonGrid {
	cnx, cny := (g.NX+1)/2, (g.NY+1)/2
	return &poissonGrid{
		nx: g.NX, ny: g.NY, cnx: cnx, cny: cny,
		phi:  make([]float64, g.Bins()),
		tmp:  make([]float64, g.Bins()),
		crho: make([]float64, cnx*cny),
		cphi: make([]float64, cnx*cny),
		ctmp: make([]float64, cnx*cny),
		rho:  make([]float64, g.Bins()),
	}
}

func (p *poissonGrid) solve() {
	// Restrict charge: each coarse bin averages its ≤2×2 fine bins.
	for cy := 0; cy < p.cny; cy++ {
		for cx := 0; cx < p.cnx; cx++ {
			var s float64
			var n int
			for y := 2 * cy; y < min(2*cy+2, p.ny); y++ {
				for x := 2 * cx; x < min(2*cx+2, p.nx); x++ {
					s += p.rho[y*p.nx+x]
					n++
				}
			}
			p.crho[cy*p.cnx+cx] = s / float64(n)
		}
	}
	relaxJacobi(p.cphi, p.ctmp, p.crho, p.cnx, p.cny, 4, analyticCoarseRelax)
	// Prolongate: inject each coarse potential into its fine bins as
	// the warm start the fine sweeps smooth.
	for y := 0; y < p.ny; y++ {
		row, crow := p.phi[y*p.nx:(y+1)*p.nx], p.cphi[(y/2)*p.cnx:]
		for x := range row {
			row[x] = crow[x/2]
		}
	}
	relaxJacobi(p.phi, p.tmp, p.rho, p.nx, p.ny, 1, analyticFineRelax)
}

// relaxJacobi runs an even number of Jacobi sweeps of
// φ' = ¼(φ_W + φ_E + φ_S + φ_N + h²ρ) with mirrored boundaries,
// ping-ponging between phi and tmp so the result lands back in phi.
func relaxJacobi(phi, tmp, rho []float64, nx, ny int, h2 float64, iters int) {
	src, dst := phi, tmp
	for it := 0; it < iters; it++ {
		for y := 0; y < ny; y++ {
			row := src[y*nx : (y+1)*nx]
			south := src[max(y-1, 0)*nx:][:nx]
			north := src[min(y+1, ny-1)*nx:][:nx]
			out, r := dst[y*nx:(y+1)*nx], rho[y*nx:(y+1)*nx]
			for x := range row {
				xl, xr := max(x-1, 0), min(x+1, nx-1)
				out[x] = 0.25 * (row[xl] + row[xr] + south[x] + north[x] + h2*r[x])
			}
		}
		src, dst = dst, src
	}
	if iters%2 == 1 {
		copy(phi, src)
	}
}
