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
	"macro3d/internal/obs/trace"
	"macro3d/internal/par"
	"macro3d/internal/tech"
)

// trSet abbreviates the tracer worker-set threaded through every
// parallel phase.
type trSet = *trace.Set

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
	// exps is each worker's scratch for one net's pin exponentials,
	// sized to the largest net.
	exps [][]pinExp

	// Per-movable-cell arrays, indexed by k (disjoint writes).
	wgx, wgy []float64 // wirelength gradient
	dgx, dgy []float64 // density gradient
	area     []float64
	binOf    []int32 // bin of the cell at its current position
	total    float64 // Σ area, in movable order

	bins  *binGrid
	usage []float64 // per-bin cell area at the current positions
	pois  *poissonGrid

	// Per-chunk ∞-norm of ∇WL + λ∇D from the cell pass.
	maxG []float64

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

// pinExp is one pin's max-shifted exponentials: e^{(x−xmax)/γ},
// e^{(xmin−x)/γ} and the same in y.
type pinExp struct{ ax, bx, ay, by float64 }

// newAnalyticState resolves every net pin to a flat slot once — no
// iteration looks a pin up by name or walks a *netlist.Net — and sizes
// the scratch arrays. pos is the live position array the descent moves.
func newAnalyticState(d *netlist.Design, movable []*netlist.Instance, pos []geom.Point,
	bins *binGrid, pitch float64, workers int, ts trSet) *analyticState {

	slots, maxPins := 0, 0
	for _, n := range d.Nets {
		slots += n.NumPins()
		maxPins = max(maxPins, n.NumPins())
	}
	nb := bins.grid.Bins()
	st := &analyticState{
		netStart:  make([]int32, len(d.Nets)+1),
		slotInst:  make([]int32, slots),
		slotAt:    make([]geom.Point, slots),
		slotGrad:  make([]geom.Point, slots),
		cellStart: make([]int32, len(movable)+1),
		movID:     make([]int32, len(movable)),
		force:     make([]bool, len(d.Nets)),
		exps:      make([][]pinExp, workers),
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
		maxG:      make([]float64, workers),
		pos:       pos,
		inner:     bins.grid.Region.Expand(-1),
		pitch:     pitch,
		workers:   workers,
		ts:        ts,
	}
	for w := range st.exps {
		st.exps[w] = make([]pinExp, maxPins)
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
		st.force[n.ID] = !n.Clock && np >= 2
		for i := 0; i < np; i++ {
			p := n.PinAt(i)
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
	fill := slices.Clone(st.cellStart[:len(movable)])
	for s, id := range st.slotInst {
		if id < 0 {
			continue
		}
		if k := movK[id]; k >= 0 {
			st.cellSlot[fill[k]] = int32(s)
			fill[k]++
		}
	}
	st.netFn = st.netPass
	st.cellFn = st.cellPass
	st.stepFn = st.descend
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
// per-net WA sums and pin gradients, the per-cell gradients with their
// maximum, the step —
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

// netPass computes, for nets [lo, hi), the WA sums over a net's pins
// and from them every pin's weighted gradient, each net writing only
// its own slots while pos is frozen. The exponentials of a pin are
// taken once and serve both the sums and its gradient.
func (st *analyticState) netPass(w, lo, hi int) {
	gamma := st.gamma
	for n := lo; n < hi; n++ {
		if !st.force[n] {
			continue
		}
		s0, s1 := st.netStart[n], st.netStart[n+1]
		xmax, xmin, ymax, ymin := st.span(s0, s1)
		// The span's own exponent serves both ends of the net.
		ex, ey := math.Exp((xmin-xmax)/gamma), math.Exp((ymin-ymax)/gamma)
		// Σe and Σx·e on the max side (a) and the min side (b).
		var ax, axx, bx, bxx, ay, ayy, by, byy float64
		at, es := st.slotAt[s0:s1], st.exps[w][:s1-s0]
		for i, c := range at {
			e := &es[i]
			e.ax, e.bx = spanExp(c.X, xmax, xmin, ex, gamma)
			ax += e.ax
			axx += c.X * e.ax
			bx += e.bx
			bxx += c.X * e.bx
			e.ay, e.by = spanExp(c.Y, ymax, ymin, ey, gamma)
			ay += e.ay
			ayy += c.Y * e.ay
			by += e.by
			byy += c.Y * e.by
		}
		// Both sums hold the exact 1 of the pin at their end of the
		// span, so the weighted means divide by something positive.
		fx, mx, fy, my := axx/ax, bxx/bx, ayy/ay, byy/by
		wt, g := st.wnet[n], st.slotGrad[s0:s1]
		for i, c := range at {
			e := &es[i]
			g[i] = geom.Pt(
				wt*waGrad(c.X, e.ax, e.bx, ax, fx, bx, mx, gamma),
				wt*waGrad(c.Y, e.ay, e.by, ay, fy, by, my, gamma))
		}
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
// and symmetrically −(b/B)(1 − (x − m)/γ) for the min side with
// bᵢ = e^{−xᵢ/γ}. The exponentials are max-shifted for stability; the
// shift cancels in every ratio. a and b are the pin's own exponentials,
// A and B the net's sums, f and m its weighted means.
func waGrad(x, a, b, A, f, B, m, gamma float64) float64 {
	return (a/A)*(1+(x-f)/gamma) - (b/B)*(1-(x-m)/gamma)
}

// cellPass computes, for movable cells [lo, hi), the wirelength gradient
// — the sum of the cell's slot gradients, in NetsOfInstance order — and
// the density gradient ∂N/∂x = q·∂φ/∂x by central difference on the bin
// the cell sits in, and records the chunk's maximum of |∇WL + λ∇D|. Max
// combines exactly regardless of chunking.
func (st *analyticState) cellPass(w, lo, hi int) {
	g := st.bins.grid
	phi := st.pois.phi
	lambda := st.lambda
	var mg float64
	for k := lo; k < hi; k++ {
		var gx, gy float64
		for _, s := range st.cellSlot[st.cellStart[k]:st.cellStart[k+1]] {
			sg := st.slotGrad[s]
			gx += sg.X
			gy += sg.Y
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
		mg = max(mg, math.Abs(gx+lambda*dx), math.Abs(gy+lambda*dy))
	}
	st.maxG[w] = mg
}

// descend moves movable cells [lo, hi) against the combined gradient,
// each updating only its own position.
func (st *analyticState) descend(_, lo, hi int) {
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
