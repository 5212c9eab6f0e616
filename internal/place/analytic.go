// Electrostatics-style analytical global placement (ePlace family,
// after the die-to-die analytical placement formulation): a smooth
// weighted-average (WA) wirelength model descended jointly with a
// bin-grid density penalty whose potential comes from a Poisson solve
// over the binGrid. Cells are charges; overfilled bins build up
// potential and the field pushes cells toward free area. This file is
// the descent — its state, its kernels and the density field; Place
// (place.go) seeds it, drives it and hands the result to the legalizer.
//
// Results are bit-identical at any Workers setting: the three parallel
// passes of an iteration write disjoint elements while reading frozen
// arrays, every floating-point sum (net aggregates, bin charge, HPWL,
// overflow) runs in one fixed order, and max reductions combine
// per-chunk maxima, which is exact for floats.
package place

import (
	"math"
	"slices"
	"strings"
	"time"

	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/par"
	"macro3d/internal/tech"
)

// Tuning constants of the descent. These are part of the deterministic
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
	// analyticTargetOverflow ends the descent at the first iterate whose
	// density overflow is at or below it: past it the tightening γ and
	// the growing λ trade wirelength for spreading `spread` does anyway
	// (DESIGN.md §16).
	analyticTargetOverflow = 0.07
	// Poisson relaxation sweep counts per outer iteration (coarse grid
	// first, then the fine grid it seeds — a two-level multigrid
	// cascade over the binGrid). Even so ping-pong buffers land back
	// in place.
	analyticCoarseRelax = 16
	analyticFineRelax   = 8
)

// maxGridBins is the widest bin grid the descent accepts. The wirelength
// kernel takes e^{±(x−c)/γ} about the grid's centre c with no per-net
// shift, and at the tightest smoothing γ = pitch/2 the exponent reaches
// the bin count across the die: 28 on the small tile, 55 on the large
// one. At 600, e^600 still leaves a float64 room for Σx·e over any net.
const maxGridBins = 600

// analyticState holds the flat pin tables and every per-iteration
// scratch array of the descent, so an iteration dereferences no netlist
// object and allocates nothing.
type analyticState struct {
	// Net → pin-slot CSR: the slots of net n are
	// [netStart[n], netStart[n+1]) in PinAt order.
	netStart []int32
	// slotPin is the slot's index into pos and exps: the instance ID when
	// the pin rides on a movable cell, otherwise a frozen point past the
	// instances that holds the port location or the fixed instance's pin
	// location, resolved once.
	slotPin []int32
	// slotGrad is the slot's weighted WA gradient (∂/∂x, ∂/∂y): the net
	// pass writes it, the cell pass sums a cell's slots. It stays zero
	// on nets that exert no force.
	slotGrad []geom.Point
	// Movable cell k → its slots, in NetsOfInstance order (net order,
	// once per pin): cellSlot[cellStart[k]:cellStart[k+1]].
	cellStart []int32
	cellSlot  []int32
	movID     []int32 // instance ID of movable cell k

	// force is false for nets that exert none: clock nets (routed by
	// CTS) and nets with fewer than two pins.
	force []bool
	wnet  []float64 // die-aware net weights: Net.Weight × bump multiplier

	// pos is every point a pin can sit at: the instance centres by
	// instance ID — the positions the descent moves — then, from frozen0
	// on, the frozen points. exps[i] holds pos[i]'s exponentials about
	// centre at the smoothing of the coming net pass; only the points
	// pins sit at (movable cells, frozen points) are kept up.
	pos     []geom.Point
	exps    []pinExp
	frozen0 int
	centre  geom.Point

	// Per-movable-cell arrays, indexed by k (disjoint writes).
	wgx, wgy []float64 // wirelength gradient
	dgx, dgy []float64 // density gradient
	area     []float64
	binOf    []int32 // bin of the cell at its current position
	total    float64 // Σ area, in movable order

	bins  *binGrid
	usage []float64 // per-bin cell area at the current positions
	pois  *poissonGrid
	// fgx, fgy are the field gradient ∂φ/∂x, ∂φ/∂y of every bin.
	fgx, fgy []float64

	// Per-chunk ∞-norm of ∇WL + λ∇D from the cell pass.
	maxG []float64

	// What the pass bodies read; set by iterate before each fan-out so
	// the closures are built once and an iteration allocates none.
	inner                        geom.Rect
	pitch                        float64
	gamma, lambda, lr            float64
	team                         *par.Team
	netFn, cellFn, stepFn, expFn func(w, lo, hi int)
	busy                         time.Duration
}

// pinExp is one point's exponentials about the grid centre c:
// u = e^{(x−c)/γ} and v = 1/u, in x and in y.
type pinExp struct{ ux, vx, uy, vy float64 }

// newAnalyticState resolves every net pin to a flat slot once — no
// iteration looks a pin up by name or walks a *netlist.Net — weighs the
// nets on the same walk (analyticBumpWeight) and sizes the scratch
// arrays.
func newAnalyticState(d *netlist.Design, movable []*netlist.Instance,
	bins *binGrid, pitch float64, team *par.Team) *analyticState {

	movK := make([]int32, len(d.Instances))
	for i := range movK {
		movK[i] = -1
	}
	for k, inst := range movable {
		movK[inst.ID] = int32(k)
	}
	onCell := func(p netlist.PinRef) bool { return p.Port == nil && movK[p.Inst.ID] >= 0 }
	slots, frozen := 0, 0
	for _, n := range d.Nets {
		slots += n.NumPins()
		for i := range n.NumPins() {
			if !onCell(n.PinAt(i)) {
				frozen++
			}
		}
	}
	nb := bins.grid.Bins()
	st := &analyticState{
		netStart:  make([]int32, len(d.Nets)+1),
		slotPin:   make([]int32, slots),
		slotGrad:  make([]geom.Point, slots),
		cellStart: make([]int32, len(movable)+1),
		movID:     make([]int32, len(movable)),
		force:     make([]bool, len(d.Nets)),
		wnet:      make([]float64, len(d.Nets)),
		pos:       make([]geom.Point, len(d.Instances)+frozen),
		exps:      make([]pinExp, len(d.Instances)+frozen),
		frozen0:   len(d.Instances),
		centre:    bins.grid.Region.Center(),
		wgx:       make([]float64, len(movable)),
		wgy:       make([]float64, len(movable)),
		dgx:       make([]float64, len(movable)),
		dgy:       make([]float64, len(movable)),
		area:      make([]float64, len(movable)),
		binOf:     make([]int32, len(movable)),
		bins:      bins,
		usage:     make([]float64, nb),
		pois:      newPoissonGrid(bins.grid),
		fgx:       make([]float64, nb),
		fgy:       make([]float64, nb),
		maxG:      make([]float64, team.Size()),
		inner:     bins.grid.Region.Expand(-1),
		pitch:     pitch,
		team:      team,
	}
	for k, inst := range movable {
		st.movID[k] = int32(inst.ID)
		st.area[k] = inst.Master.Area()
		st.total += st.area[k]
	}
	s, f := int32(0), int32(st.frozen0)
	for _, n := range d.Nets {
		np := n.NumPins()
		st.force[n.ID] = !n.Clock && np >= 2
		hasMD, hasBase := false, false
		for i := range np {
			p := n.PinAt(i)
			layer := ""
			if p.Port != nil {
				layer = p.Port.Layer
			} else if pin := p.MasterPin(); pin != nil {
				layer = pin.Layer
			}
			if layer != "" {
				md := strings.HasSuffix(layer, tech.MDSuffix)
				hasMD, hasBase = hasMD || md, hasBase || !md
			}
			if onCell(p) {
				st.slotPin[s] = int32(p.Inst.ID)
				st.cellStart[movK[p.Inst.ID]+1]++
			} else {
				st.slotPin[s], st.pos[f] = f, p.Loc()
				f++
			}
			s++
		}
		st.netStart[n.ID+1] = s
		st.wnet[n.ID] = n.Weight
		if hasMD && hasBase {
			st.wnet[n.ID] *= analyticBumpWeight
		}
	}
	for k := range movable {
		st.cellStart[k+1] += st.cellStart[k]
	}
	st.cellSlot = make([]int32, st.cellStart[len(movable)])
	fill := slices.Clone(st.cellStart[:len(movable)])
	for s, i := range st.slotPin {
		if int(i) < st.frozen0 {
			k := movK[i]
			st.cellSlot[fill[k]] = int32(s)
			fill[k]++
		}
	}
	st.netFn = st.netPass
	st.cellFn = st.cellPass
	st.stepFn = st.stepPass
	st.expFn = st.expPass
	return st
}

// seed relaxes the movable cells toward their nets' centroids — sweeps
// Jacobi sweeps of the star-model quadratic system with the frozen
// points as anchors: the cheap global wirelength minimum the descent
// starts from.
//
// Both phases parallelize bit-identically: phase 1 writes only its
// net's slots while pos is frozen, phase 2 writes only its cell's
// position while the slots are frozen, and every float sum stays a
// per-element sequential loop. The barrier between phases is the Jacobi
// iteration boundary itself. slotGrad is free until the descent begins
// and carries each pin's pull in the meantime.
func (st *analyticState) seed(d *netlist.Design, sweeps int) {
	t0 := time.Now()
	// A net pulls each of its pins toward its centroid with weight
	// Weight/(pins−1) — small nets pull harder — so the total pull on a
	// cell, summed here in the order of its slots, is fixed across sweeps.
	pull := make([]float64, len(d.Nets))
	total := make([]float64, st.frozen0)
	for n, net := range d.Nets {
		if st.force[n] {
			pull[n] = net.Weight / float64(net.NumPins()-1)
			for _, i := range st.slotPin[st.netStart[n]:st.netStart[n+1]] {
				if int(i) < st.frozen0 {
					total[i] += pull[n]
				}
			}
		}
	}
	centroid := func(_, lo, hi int) {
		for n := lo; n < hi; n++ {
			if !st.force[n] {
				continue
			}
			pins := st.slotPin[st.netStart[n]:st.netStart[n+1]]
			var sx, sy float64
			for _, i := range pins {
				sx += st.pos[i].X
				sy += st.pos[i].Y
			}
			k := float64(len(pins))
			pt := geom.Pt(sx/k*pull[n], sy/k*pull[n])
			for s := st.netStart[n]; s < st.netStart[n+1]; s++ {
				st.slotGrad[s] = pt
			}
		}
	}
	move := func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			id := st.movID[k]
			if total[id] <= 0 {
				continue
			}
			var sx, sy float64
			for _, s := range st.cellSlot[st.cellStart[k]:st.cellStart[k+1]] {
				sx += st.slotGrad[s].X
				sy += st.slotGrad[s].Y
			}
			st.pos[id] = st.inner.ClampPoint(geom.Pt(sx/total[id], sy/total[id]))
		}
	}
	st.team.Serial("place/seed", t0)
	for range sweeps {
		st.busy += st.team.Chunks("place/centroid", len(d.Nets), centroid)
		st.busy += st.team.Chunks("place/move", len(st.movID), move)
	}
}

// schedule is the continuation of iteration it of iters: the WA
// smoothing γ tightens geometrically from 4 bin pitches toward the true
// max/min at half a pitch while the largest cell move shrinks.
func (st *analyticState) schedule(it, iters int) (gamma, step float64) {
	frac := float64(it) / float64(max(iters-1, 1))
	gamma0, gamma1 := 4.0*st.pitch, 0.5*st.pitch
	return gamma0 * math.Pow(gamma1/gamma0, frac), (0.5 - 0.35*frac) * st.pitch
}

// iterate runs descent iteration it of iters — three fork-joins: the
// per-net WA sums and pin gradients, the per-cell gradients with their
// maximum, the step with the next iteration's exponentials (iteration 0
// takes its own in a fourth, and its own density field) — then the
// serial density step of the new iterate, and returns its overflow.
func (st *analyticState) iterate(it, iters int) float64 {
	points := len(st.movID) + len(st.pos) - st.frozen0
	gamma, step := st.schedule(it, iters)
	if it == 0 {
		st.gamma = gamma
		st.busy += st.team.Chunks("place/wa-exp", points, st.expFn)
		st.density()
	} else {
		// The density weight λ ramps geometrically as γ tightens — density
		// starts as a nudge and ends dominating, the ePlace weight schedule.
		st.lambda *= 1.045
	}

	st.busy += st.team.Chunks("place/wa-net", len(st.wnet), st.netFn)
	st.busy += st.team.Chunks("place/cell-grad", len(st.movID), st.cellFn)
	gmax := slices.Max(st.maxG)
	if it == 0 {
		// λ is calibrated once, from the first iterate's gradient
		// magnitudes; the cell pass could not know it, so the combined
		// maximum is taken again here.
		var wlMax, denMax float64
		for k := range st.wgx {
			wlMax = max(wlMax, math.Abs(st.wgx[k]), math.Abs(st.wgy[k]))
			denMax = max(denMax, math.Abs(st.dgx[k]), math.Abs(st.dgy[k]))
		}
		if denMax > 0 {
			st.lambda = 0.08 * wlMax / denMax
		}
		gmax = 0
		for k := range st.wgx {
			gmax = max(gmax, math.Abs(st.wgx[k]+st.lambda*st.dgx[k]), math.Abs(st.wgy[k]+st.lambda*st.dgy[k]))
		}
	}
	// One normalized gradient step: the largest cell move is step µm. A
	// flat gradient moves nothing, and the pass still runs for the
	// exponentials at the next iteration's smoothing.
	st.lr = 0
	if gmax != 0 {
		st.lr = step / gmax
	}
	st.gamma, _ = st.schedule(it+1, iters)
	st.busy += st.team.Chunks("place/descend", points, st.stepFn)
	return st.density()
}

// span returns the bounding box of the pins of net slots [s0, s1) at
// their current positions.
func (st *analyticState) span(s0, s1 int32) (xmax, xmin, ymax, ymin float64) {
	c := st.pos[st.slotPin[s0]]
	xmax, xmin, ymax, ymin = c.X, c.X, c.Y, c.Y
	for _, i := range st.slotPin[s0+1 : s1] {
		c = st.pos[i]
		xmax, xmin = max(xmax, c.X), min(xmin, c.X)
		ymax, ymin = max(ymax, c.Y), min(ymin, c.Y)
	}
	return
}

// netPass computes, for nets [lo, hi), the WA sums over a net's pins
// and from them every pin's weighted gradient, each net writing only
// its own slots while pos and exps are frozen. With every exponential
// taken about the one centre c, the net's own shift e^{(c−xmax)/γ}
// multiplies numerator and denominator of every ratio below and is
// never applied: a/A = u/Σu, b/B = v/Σv, f = Σxu/Σu, m = Σxv/Σv.
// Where the vector kernels run (useKernels), waNets does this same
// arithmetic four lanes wide to the same bits; the loops below are its
// reference and the path everywhere else.
func (st *analyticState) netPass(_, lo, hi int) {
	if useKernels {
		waNets(st.netStart, st.slotPin, st.force, st.wnet, st.pos, st.exps, st.slotGrad, 1/st.gamma, lo, hi)
		return
	}
	pos, exps, ig := st.pos, st.exps, 1/st.gamma
	for n := lo; n < hi; n++ {
		if !st.force[n] {
			continue
		}
		s0, s1 := st.netStart[n], st.netStart[n+1]
		pins := st.slotPin[s0:s1]
		// Σe and Σx·e on the max side (a) and the min side (b).
		var ax, axx, bx, bxx, ay, ayy, by, byy float64
		for _, i := range pins {
			c, e := pos[i], &exps[i]
			ax += e.ux
			axx += c.X * e.ux
			bx += e.vx
			bxx += c.X * e.vx
			ay += e.uy
			ayy += c.Y * e.uy
			by += e.vy
			byy += c.Y * e.vy
		}
		// Every sum holds at least two positive terms: four reciprocals
		// a net, none a pin. The net weight rides on them.
		iax, ibx, iay, iby := 1/ax, 1/bx, 1/ay, 1/by
		fx, mx, fy, my := axx*iax, bxx*ibx, ayy*iay, byy*iby
		wt := st.wnet[n]
		iax, ibx, iay, iby = wt*iax, wt*ibx, wt*iay, wt*iby
		g := st.slotGrad[s0:s1]
		for j, i := range pins {
			c, e := pos[i], &exps[i]
			g[j] = geom.Pt(
				waGrad(c.X, e.ux*iax, e.vx*ibx, fx, mx, ig),
				waGrad(c.Y, e.uy*iay, e.vy*iby, fy, my, ig))
		}
	}
}

// waGrad is the derivative of the WA span estimate (x_max^WA − x_min^WA)
// with respect to one pin coordinate x:
//
//	∂/∂x [Σxᵢaᵢ/Σaᵢ] = (a/A)(1 + (x − f)/γ),  aᵢ = e^{xᵢ/γ}, f = Σxᵢaᵢ/Σaᵢ
//
// and symmetrically −(b/B)(1 − (x − m)/γ) for the min side with
// bᵢ = e^{−xᵢ/γ}. ra and rb are the pin's shares a/A and b/B of the
// net's sums (times the net weight), f and m the net's weighted means,
// ig is 1/γ.
func waGrad(x, ra, rb, f, m, ig float64) float64 {
	return ra*(1+(x-f)*ig) - rb*(1-(x-m)*ig)
}

// cellPass computes, for movable cells [lo, hi), the wirelength gradient
// — the sum of the cell's slot gradients, in NetsOfInstance order — and
// the density gradient ∂N/∂x = q·∂φ/∂x from the field gradient of the
// bin the cell sits in, and records the chunk's maximum of |∇WL + λ∇D|.
// Max combines exactly regardless of chunking.
func (st *analyticState) cellPass(w, lo, hi int) {
	lambda, slotGrad, cellSlot, cellStart := st.lambda, st.slotGrad, st.cellSlot, st.cellStart
	var mg float64
	for k := lo; k < hi; k++ {
		var gx, gy float64
		for _, s := range cellSlot[cellStart[k]:cellStart[k+1]] {
			sg := slotGrad[s]
			gx += sg.X
			gy += sg.Y
		}
		b := st.binOf[k]
		dx, dy := st.area[k]*st.fgx[b], st.area[k]*st.fgy[b]
		st.wgx[k], st.wgy[k], st.dgx[k], st.dgy[k] = gx, gy, dx, dy
		mg = max(mg, math.Abs(gx+lambda*dx), math.Abs(gy+lambda*dy))
	}
	st.maxG[w] = mg
}

// stepPass moves the movable cells among points [lo, hi) against the
// combined gradient, each updating only its own position, and takes the
// range's exponentials for the next net pass.
func (st *analyticState) stepPass(w, lo, hi int) {
	lr, lambda := st.lr, st.lambda
	for k := lo; k < min(hi, len(st.movID)); k++ {
		p := &st.pos[st.movID[k]]
		*p = st.inner.ClampPoint(geom.Pt(
			p.X-lr*(st.wgx[k]+lambda*st.dgx[k]),
			p.Y-lr*(st.wgy[k]+lambda*st.dgy[k]),
		))
	}
	st.expPass(w, lo, hi)
}

// expBatch is how many points expPass gathers for one expSlice call.
const expBatch = 64

// expPass takes the exponentials of points [lo, hi) — the movable cells
// in movable order, then the frozen points — at smoothing st.gamma: one
// exponential per point and axis, whatever the number of pins on it. It
// gathers a batch of arguments at a time into stack buffers and takes
// them in one expSlice, math.Exp's bits four lanes at a time.
func (st *analyticState) expPass(_, lo, hi int) {
	c, ig := st.centre, 1/st.gamma
	cells := len(st.movID)
	var at [expBatch]int32
	var arg, e [2 * expBatch]float64
	for b := lo; b < hi; b += expBatch {
		pts := at[:min(expBatch, hi-b)]
		for j := range pts {
			i := st.frozen0 + b + j - cells
			if b+j < cells {
				i = int(st.movID[b+j])
			}
			pts[j] = int32(i)
			arg[2*j], arg[2*j+1] = (st.pos[i].X-c.X)*ig, (st.pos[i].Y-c.Y)*ig
		}
		expSlice(e[:2*len(pts)], arg[:2*len(pts)])
		for j, i := range pts {
			ux, uy := e[2*j], e[2*j+1]
			st.exps[i] = pinExp{ux, 1 / ux, uy, 1 / uy}
		}
	}
}

// density bins the movable cells at the iterate's positions, takes the
// field they make, which the next iteration's cell pass reads (the exit
// iterate's goes unread), and returns their overflow: one serial
// "place/field" slice on the team's trace.
func (st *analyticState) density() float64 {
	t0 := time.Now()
	st.charge()
	st.field()
	ovf := st.overflow()
	st.team.Serial("place/field", t0)
	return ovf
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

// field refreshes the Poisson potential from the bin charge, and from it
// every bin's field gradient by central difference — once a bin, where
// every cell in the bin reads it. Signed charge: cell area above
// capacity repels, free capacity attracts. Neumann boundaries make the
// problem singular unless the net charge is zero, so the mean is
// removed.
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
	g, phi := st.bins.grid, st.pois.phi
	for iy := range g.NY {
		yl, yr := max(iy-1, 0), min(iy+1, g.NY-1)
		for ix := range g.NX {
			xl, xr := max(ix-1, 0), min(ix+1, g.NX-1)
			var ddx, ddy float64
			if xr > xl {
				ddx = (phi[g.Index(xr, iy)] - phi[g.Index(xl, iy)]) / (float64(xr-xl) * g.DX)
			}
			if yr > yl {
				ddy = (phi[g.Index(ix, yr)] - phi[g.Index(ix, yl)]) / (float64(yr-yl) * g.DY)
			}
			st.fgx[g.Index(ix, iy)], st.fgy[g.Index(ix, iy)] = ddx, ddy
		}
	}
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
