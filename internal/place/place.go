// Package place implements standard-cell placement: an
// electrostatics-style analytical global placement (smooth wirelength
// and a Poisson density field descended jointly, analytic.go, with fixed
// macro pins and ports as anchors) over density bins that honour full
// and partial blockages, and row-based Tetris legalization.
//
// Partial blockages only reduce bin capacity — they are not hard
// fences. That is exactly how commercial engines treat them, and it is
// the mechanism behind the S2D/C2D overlap problem the paper reports:
// cells legally placed in a half-blocked bin can land on top of the
// real macro once tiers are separated.
package place

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/par"
)

// parMinCells is the movable-cell count below which the placer stays
// on the serial path — fan-out overhead dominates under this size.
const parMinCells = 512

// Options tunes the placer.
type Options struct {
	// BinPitch is the density-bin size, µm (default 40).
	BinPitch float64
	// MaxFill is the max fraction of a bin's free area filled by cells
	// (default 0.85).
	MaxFill float64
	Seed    uint64
	// Workers sets the placement worker count: 0 (default) uses every
	// CPU (GOMAXPROCS), 1 runs the plain serial reference path. The
	// parallel phases write disjoint elements and replay float
	// accumulation in serial order, so results are bit-identical at
	// any setting.
	Workers int
	// Iters bounds the descent iterations (default 160) and sets its
	// schedule; the descent stops at the first iterate whose density
	// overflow reaches the target.
	Iters int

	// Obs, when non-nil, is the stage span the placer hangs its phase
	// spans under (global around its spread round, legalize) and whose
	// registry and timeline receive its metrics and worker chunks. nil
	// disables instrumentation; placements are identical either way.
	Obs *obs.Span
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.BinPitch <= 0 {
		o.BinPitch = 40
	}
	if o.MaxFill <= 0 {
		o.MaxFill = 0.85
	}
	if o.Iters <= 0 {
		o.Iters = 160
	}
	return o
}

// Result reports placement quality.
type Result struct {
	HPWL         float64 // µm after legalization
	GlobalHPWL   float64 // µm before legalization
	Displacement float64 // mean legalization displacement, µm
	MaxDisp      float64
	Overflow     float64 // residual density overflow fraction
}

// Place runs global placement and legalization on the design's movable
// standard cells within the floorplan. Fixed instances (macros, pads)
// and ports act as anchors. On return every movable cell has a legal,
// row-aligned, non-overlapping location.
func Place(d *netlist.Design, fp *floorplan.Floorplan, rowHeight float64, opt Options) (*Result, error) {
	t0 := time.Now()
	opt = opt.withDefaults()
	movable := movableCells(d)
	if len(movable) == 0 {
		return &Result{}, nil
	}
	workers := par.Workers(opt.Workers)
	if len(movable) < parMinCells {
		workers = 1
	}
	bins := newBinGrid(fp.Die, opt.BinPitch, fp.PlaceBlk, opt.MaxFill)
	if g := bins.grid; g.NX > maxGridBins || g.NY > maxGridBins {
		return nil, fmt.Errorf("place: density grid %d×%d bins exceeds %d×%d, the range of the wirelength exponentials (die %v at pitch %g µm)",
			g.NX, g.NY, maxGridBins, maxGridBins, fp.Die, opt.BinPitch)
	}

	// One worker team serves every fork-join of the run.
	var team par.Team
	team.Start(workers, opt.Obs.Workers(workers))
	defer team.Close()

	gsp := opt.Obs.Child("global", obs.KV("cells", len(movable)))

	st, rng := newDescent(d, movable, bins, opt, &team)
	pos := st.pos
	// The descent ends at the first iterate at the target overflow, or
	// after opt.Iters; the schedule still spans opt.Iters either way.
	its, ovf := 0, math.Inf(1)
	for its < opt.Iters && ovf > analyticTargetOverflow {
		ovf = st.iterate(its, opt.Iters)
		its++
	}
	gsp.SetAttr("iterations", its)
	gsp.SetAttr("overflow", ovf)
	reg := opt.Obs.Reg()
	if reg != nil {
		reg.Gauge("place_best_hpwl_um",
			"Pre-legalization HPWL of the descent's exit iterate, um.").Set(st.hpwl())
		reg.Gauge("place_descent_iterations",
			"Descent iterations of the latest placement.").Set(float64(its))
	}
	// Residual cleanup: one deterministic eviction round clears any
	// overflow the smooth field left behind, then the shared legalizer
	// takes over.
	ssp := gsp.Child("spread")
	st.spread(movable, rng)
	ssp.End()
	gsp.End()

	res := &Result{}
	for _, inst := range movable {
		inst.Loc = geom.Pt(pos[inst.ID].X-inst.Master.Width/2, pos[inst.ID].Y-inst.Master.Height/2)
		inst.Placed = true
	}
	res.GlobalHPWL = d.TotalHPWL()
	st.charge()
	res.Overflow = st.overflow()

	lsp := opt.Obs.Child("legalize")
	disp, maxDisp, err := Legalize(movable, fp, rowHeight)
	lsp.End()
	if err != nil {
		return nil, err
	}
	res.Displacement = disp
	res.MaxDisp = maxDisp
	res.HPWL = d.TotalHPWL()
	if reg != nil {
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
		reg.Gauge("place_workers",
			"Worker goroutines used by the parallel placement engine.").Set(float64(workers))
		if wall := time.Since(t0).Seconds(); wall > 0 && workers > 1 {
			reg.Gauge("place_worker_utilization_ratio",
				"Summed worker busy time over workers × stage wall time, latest run.").
				Set(st.busy.Seconds() / (wall * float64(workers)))
		}
	}
	return res, nil
}

// newDescent is the descent's starting iterate, and the RNG spread draws
// on after it: the movable cells scattered about the die centre, then
// pulled toward the wirelength minimum by quadratic net-centroid sweeps.
func newDescent(d *netlist.Design, movable []*netlist.Instance, bins *binGrid, opt Options, team *par.Team) (*analyticState, *geom.RNG) {
	rng := geom.NewRNG(opt.Seed + 11)
	st := newAnalyticState(d, movable, bins, opt.BinPitch, team)
	die := bins.grid.Region
	for _, inst := range d.Instances {
		st.pos[inst.ID] = inst.Center()
		if !inst.Fixed {
			st.pos[inst.ID] = geom.Pt(die.Center().X+rng.Norm()*die.W()/20, die.Center().Y+rng.Norm()*die.H()/20)
		}
	}
	st.seed(d, analyticSeedIters)
	return st, rng
}

// movableCells returns non-fixed standard cells.
func movableCells(d *netlist.Design) []*netlist.Instance {
	var out []*netlist.Instance
	for _, inst := range d.Instances {
		if !inst.Fixed && !inst.IsMacro() {
			out = append(out, inst)
		}
	}
	return out
}

// binGrid tracks per-bin capacity (µm² of placeable area).
type binGrid struct {
	grid geom.Grid
	cap  []float64
}

func newBinGrid(die geom.Rect, pitch float64, blk []floorplan.Blockage, maxFill float64) *binGrid {
	g := geom.NewGrid(die, pitch)
	b := &binGrid{grid: g, cap: make([]float64, g.Bins())}
	for i := range b.cap {
		b.cap[i] = g.DX * g.DY
	}
	// Subtract blockage area (partial blockages scale by fraction).
	for _, bl := range blk {
		x0, y0, x1, y1, ok := g.CoverRange(bl.Rect)
		if !ok {
			continue
		}
		for iy := y0; iy <= y1; iy++ {
			for ix := x0; ix <= x1; ix++ {
				i := g.Index(ix, iy)
				ov := bl.Rect.Intersect(g.BinRect(ix, iy)).Area()
				b.cap[i] -= ov * bl.Fraction
				if b.cap[i] < 0 {
					b.cap[i] = 0
				}
			}
		}
	}
	for i := range b.cap {
		b.cap[i] *= maxFill
	}
	return b
}

// spread moves cells out of overfilled bins into the nearest bins with
// headroom, ring-searching outward: the one clean-up round that clears
// whatever overflow the smooth field left behind. It is serial — the
// eviction sweep consumes the RNG.
func (st *analyticState) spread(movable []*netlist.Instance, rng *geom.RNG) {
	b, g, pos := st.bins, st.bins.grid, st.pos
	nb := g.Bins()
	st.charge()
	usage := st.usage
	// Bin member lists in movable order: a stable counting sort over
	// the bins charge just recorded.
	base := make([]int32, nb+1)
	for _, i := range st.binOf {
		base[i+1]++
	}
	for i := 0; i < nb; i++ {
		base[i+1] += base[i]
	}
	next := slices.Clone(base[:nb])
	flat := make([]*netlist.Instance, len(movable))
	for k, i := range st.binOf {
		flat[next[i]] = movable[k]
		next[i]++
	}
	// Process most-overfilled bins first.
	order := make([]int, 0, g.Bins())
	for i := range usage {
		if usage[i] > b.cap[i] {
			order = append(order, i)
		}
	}
	// By overflow only — not a total order, and the eviction below draws
	// from one RNG in this order. Ties fall where pdqsort leaves them,
	// as they did under sort.Slice (TestSortFuncKeepsSortSliceTies).
	slices.SortFunc(order, func(p, q int) int {
		return cmp.Compare(usage[q]-b.cap[q], usage[p]-b.cap[p])
	})
	for _, i := range order {
		ix, iy := g.Coords(i)
		// Evict smallest-degree-of-belonging cells: those farthest
		// from the bin centre go first.
		ms := flat[base[i]:base[i+1]]
		c := g.BinCenter(ix, iy)
		// Farthest first; ties as above.
		slices.SortFunc(ms, func(p, q *netlist.Instance) int {
			return cmp.Compare(pos[q.ID].Dist(c), pos[p.ID].Dist(c))
		})
		for _, inst := range ms {
			if usage[i] <= b.cap[i] {
				break
			}
			// Ring search for a bin with headroom.
			tix, tiy, ok := b.nearestFree(ix, iy, usage, inst.Master.Area())
			if !ok {
				continue
			}
			j := g.Index(tix, tiy)
			usage[i] -= inst.Master.Area()
			usage[j] += inst.Master.Area()
			tc := g.BinCenter(tix, tiy)
			pos[inst.ID] = geom.Pt(
				tc.X+(rng.Float64()-0.5)*g.DX*0.8,
				tc.Y+(rng.Float64()-0.5)*g.DY*0.8,
			)
		}
	}
}

// nearestFree ring-searches for the closest bin that can absorb area.
func (b *binGrid) nearestFree(ix, iy int, usage []float64, area float64) (int, int, bool) {
	g := b.grid
	maxR := g.NX + g.NY
	for r := 1; r <= maxR; r++ {
		bestD := math.MaxFloat64
		bi, bj := -1, -1
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				if max(geom.AbsInt(dx), geom.AbsInt(dy)) != r {
					continue
				}
				x, y := ix+dx, iy+dy
				if x < 0 || x >= g.NX || y < 0 || y >= g.NY {
					continue
				}
				i := g.Index(x, y)
				if usage[i]+area <= b.cap[i] {
					d := float64(dx*dx + dy*dy)
					if d < bestD {
						bestD, bi, bj = d, x, y
					}
				}
			}
		}
		if bi >= 0 {
			return bi, bj, true
		}
	}
	return 0, 0, false
}
