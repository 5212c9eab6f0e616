// Package place implements standard-cell placement: an iterative
// quadratic-style global placement (net-centroid relaxation with fixed
// macro-pin and port anchors), bin-based density spreading that honours
// full and partial blockages, and row-based Tetris legalization.
//
// Partial blockages only reduce bin capacity — they are not hard
// fences. That is exactly how commercial engines treat them, and it is
// the mechanism behind the S2D/C2D overlap problem the paper reports:
// cells legally placed in a half-blocked bin can land on top of the
// real macro once tiers are separated.
package place

import (
	"math"
	"sort"
	"time"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/obs/trace"
	"macro3d/internal/par"
)

// parMinCells is the movable-cell count below which the placer stays
// on the serial path — fan-out overhead dominates under this size.
const parMinCells = 512

// Options tunes the placer.
type Options struct {
	// BinPitch is the density-bin size, µm (default 40).
	BinPitch float64
	// SolveIters is the number of net-centroid relaxation sweeps per
	// global iteration (default 40).
	SolveIters int
	// GlobalIters is the number of solve+spread rounds (default 9).
	GlobalIters int
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

	// Analytic switches global placement to the electrostatics-style
	// analytical engine (analytic.go): WA wirelength gradient plus a
	// Poisson density field descended jointly, with a die-aware weight
	// on nets that cross F2F bumps. Deterministic at any Workers
	// setting but NOT bit-identical to the default quadratic engine,
	// so the flag is part of the result-defining configuration.
	Analytic bool
	// AnalyticIters bounds the analytic engine's descent iterations
	// (default 160). Ignored unless Analytic is set.
	AnalyticIters int

	// Obs, when non-nil, is the stage span the placer hangs its
	// global/legalize phase spans under and whose registry receives
	// the placement metrics. nil disables instrumentation.
	Obs *obs.Span

	// Trace, when non-nil, receives task-level execution slices —
	// solve/spread chunks, legalization row sweeps — on per-worker
	// tracks. nil disables tracing for the cost of one pointer
	// comparison per call site; placements are identical either way.
	Trace *trace.Tracer
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.BinPitch <= 0 {
		o.BinPitch = 40
	}
	if o.SolveIters <= 0 {
		o.SolveIters = 40
	}
	if o.GlobalIters <= 0 {
		o.GlobalIters = 9
	}
	if o.MaxFill <= 0 {
		o.MaxFill = 0.85
	}
	if o.AnalyticIters <= 0 {
		o.AnalyticIters = 160
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
	if opt.Analytic {
		return placeAnalytic(d, fp, rowHeight, opt)
	}
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
	rng := geom.NewRNG(opt.Seed + 7)

	// Positions are cell centres during global placement.
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

	adj := d.NetsOfInstance()
	bins := newBinGrid(die, opt.BinPitch, fp.PlaceBlk, opt.MaxFill)

	// Spread anchors: after each spreading round, cells are pulled
	// toward their spread location with growing weight.
	anchor := make([]geom.Point, len(d.Instances))
	anchorW := 0.0

	ts := opt.Trace.WorkerSet("place", workers)
	mt := opt.Trace.Track("main")

	gsp := opt.Obs.Child("global", obs.KV("cells", len(movable)))
	for gi := 0; gi < opt.GlobalIters; gi++ {
		busy += solve(d, movable, adj, pos, anchor, anchorW, die, opt.SolveIters, workers, ts)
		busy += spread(movable, pos, bins, rng, workers, ts, mt)
		for _, inst := range movable {
			anchor[inst.ID] = pos[inst.ID]
		}
		// Anchor weight ramps up so late rounds preserve the spread.
		anchorW = 0.2 + 0.4*float64(gi)
	}
	gsp.End()

	res := &Result{}
	// Write back global locations (centres → lower-left).
	for _, inst := range movable {
		inst.Loc = geom.Pt(pos[inst.ID].X-inst.Master.Width/2, pos[inst.ID].Y-inst.Master.Height/2)
		inst.Placed = true
	}
	res.GlobalHPWL = d.TotalHPWL()
	res.Overflow = bins.overflow(movable, pos)

	// Legalization.
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

// solve relaxes positions toward net centroids (a Jacobi sweep of the
// star-model quadratic system) with fixed pins as anchors.
//
// Both phases parallelize bit-identically: phase 1 writes only its
// net's centroid slot while pos is frozen, phase 2 writes only its
// cell's position while the centroids are frozen, and every float sum
// stays a per-element sequential loop. The barrier between phases is
// the Jacobi iteration boundary itself.
func solve(d *netlist.Design, movable []*netlist.Instance, adj [][]*netlist.Net,
	pos, anchor []geom.Point, anchorW float64, die geom.Rect, iters, workers int,
	ts *trace.Set) time.Duration {

	// Net centroid cache.
	cx := make([]float64, len(d.Nets))
	cy := make([]float64, len(d.Nets))
	deg := make([]float64, len(d.Nets))

	var busy time.Duration
	for it := 0; it < iters; it++ {
		// Phase 1: net centroids from current positions and fixed pins.
		busy += par.ChunksTr(ts, "place/centroid", workers, len(d.Nets), func(w, lo, hi int) {
			for _, n := range d.Nets[lo:hi] {
				if n.Clock {
					continue // clock is routed by CTS, not a placement force
				}
				var sx, sy, k float64
				for i, np := 0, n.NumPins(); i < np; i++ {
					p := n.PinAt(i)
					if p.Port != nil {
						sx += p.Port.Loc.X
						sy += p.Port.Loc.Y
					} else if p.Inst.Fixed {
						l := p.Loc()
						sx += l.X
						sy += l.Y
					} else {
						c := pos[p.Inst.ID]
						sx += c.X
						sy += c.Y
					}
					k++
				}
				if k > 0 {
					cx[n.ID] = sx / k
					cy[n.ID] = sy / k
					deg[n.ID] = k
				}
			}
		})
		// Phase 2: move each movable cell to the weighted average of
		// its nets' centroids (small nets pull harder).
		busy += par.ChunksTr(ts, "place/move", workers, len(movable), func(w, lo, hi int) {
			for _, inst := range movable[lo:hi] {
				var sx, sy, wt float64
				for _, n := range adj[inst.ID] {
					if n.Clock || deg[n.ID] < 2 {
						continue
					}
					nw := n.Weight / (deg[n.ID] - 1)
					sx += cx[n.ID] * nw
					sy += cy[n.ID] * nw
					wt += nw
				}
				if anchorW > 0 {
					sx += anchor[inst.ID].X * anchorW
					sy += anchor[inst.ID].Y * anchorW
					wt += anchorW
				}
				if wt > 0 {
					p := geom.Pt(sx/wt, sy/wt)
					pos[inst.ID] = die.Expand(-1).ClampPoint(p)
				}
			}
		})
	}
	return busy
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
// headroom, ring-searching outward.
//
// Accumulation runs as a per-partition counting sort with an ordered
// merge: each worker chunk counts its cells per bin, a cheap serial
// prefix pass turns the counts into disjoint write offsets, and the
// scatter places every cell at its stable rank — the exact position
// the serial movable-order loop would have given it. Per-bin area sums
// then reduce independently over the member lists, adding in that same
// movable order, so the result is bit-identical to the historical
// serial accumulation at any worker count. (The former implementation
// replayed the whole accumulation serially, which trace-report ranked
// as the placer's dominant serial segment on large designs.) The
// eviction sweep itself stays serial — it consumes the RNG, which must
// never run concurrently.
func spread(movable []*netlist.Instance, pos []geom.Point, b *binGrid, rng *geom.RNG,
	workers int, ts *trace.Set, mt *trace.Track) time.Duration {

	g := b.grid
	nb := g.Bins()
	binOf := make([]int32, len(movable))
	busy := par.ChunksTr(ts, "place/bin-index", workers, len(movable), func(w, lo, hi int) {
		for k := lo; k < hi; k++ {
			ix, iy := g.Locate(pos[movable[k].ID])
			binOf[k] = int32(g.Index(ix, iy))
		}
	})
	// Per-chunk bin counts. Chunk boundaries are a pure function of
	// (workers, n), so the scatter below sees the same ranges.
	cnt := make([][]int32, workers)
	busy += par.ChunksTr(ts, "place/spread-count", workers, len(movable), func(w, lo, hi int) {
		c := make([]int32, nb)
		for k := lo; k < hi; k++ {
			c[binOf[k]]++
		}
		cnt[w] = c
	})
	// Serial prefix pass: bin base offsets in the flat member array,
	// then per-chunk write cursors (chunk w's cells of bin i start
	// after every earlier chunk's cells of that bin).
	base := make([]int32, nb+1)
	for _, c := range cnt {
		if c == nil {
			continue
		}
		for i, n := range c {
			base[i+1] += n
		}
	}
	for i := 0; i < nb; i++ {
		base[i+1] += base[i]
	}
	off := make([][]int32, workers)
	cursor := append([]int32(nil), base[:nb]...)
	for w, c := range cnt {
		if c == nil {
			continue
		}
		o := make([]int32, nb)
		copy(o, cursor)
		for i, n := range c {
			cursor[i] += n
		}
		off[w] = o
	}
	// Scatter: every cell lands at its stable rank — flat holds each
	// bin's members contiguously, in movable order.
	flat := make([]*netlist.Instance, len(movable))
	busy += par.ChunksTr(ts, "place/spread-scatter", workers, len(movable), func(w, lo, hi int) {
		o := off[w]
		for k := lo; k < hi; k++ {
			i := binOf[k]
			flat[o[i]] = movable[k]
			o[i]++
		}
	})
	// Per-bin area sums reduce independently, each adding in movable
	// order — the same float sequence per slot as the serial loop.
	usage := make([]float64, nb)
	members := make([][]*netlist.Instance, nb)
	busy += par.ChunksTr(ts, "place/spread-usage", workers, nb, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			ms := flat[base[i]:base[i+1]]
			var u float64
			for _, inst := range ms {
				u += inst.Master.Area()
			}
			usage[i] = u
			members[i] = ms
		}
	})
	ssp := mt.Begin("place", "place/spread-serial")
	defer func() { ssp.End(trace.N("cells", int64(len(movable)))) }()
	// Process most-overfilled bins first.
	order := make([]int, 0, g.Bins())
	for i := range usage {
		if usage[i] > b.cap[i] {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, c int) bool {
		return usage[order[a]]-b.cap[order[a]] > usage[order[c]]-b.cap[order[c]]
	})
	for _, i := range order {
		ix, iy := g.Coords(i)
		// Evict smallest-degree-of-belonging cells: those farthest
		// from the bin centre go first.
		ms := members[i]
		c := g.BinCenter(ix, iy)
		sort.Slice(ms, func(a, b2 int) bool {
			return pos[ms[a].ID].Dist(c) > pos[ms[b2].ID].Dist(c)
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
	return busy
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

// overflow returns the fraction of total cell area sitting above bin
// capacity.
func (b *binGrid) overflow(movable []*netlist.Instance, pos []geom.Point) float64 {
	g := b.grid
	usage := make([]float64, g.Bins())
	total := 0.0
	for _, inst := range movable {
		ix, iy := g.Locate(pos[inst.ID])
		usage[g.Index(ix, iy)] += inst.Master.Area()
		total += inst.Master.Area()
	}
	over := 0.0
	for i := range usage {
		if usage[i] > b.cap[i] {
			over += usage[i] - b.cap[i]
		}
	}
	if total == 0 {
		return 0
	}
	return over / total
}
