package place

import (
	"fmt"
	"math"
	"sort"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs/trace"
	"macro3d/internal/par"
)

// segment is a free span of one placement row. Free space is tracked
// as disjoint intervals so late (wide) cells can still use gaps left
// between earlier placements.
type segment struct {
	y      float64
	x0, x1 float64
	row    int
	free   []iv // sorted, disjoint free intervals
	saved  bool // free is already in the current Undo journal
}

type iv struct{ a, b float64 }

// bestFit returns the placement x closest to target within any free
// interval that fits w, and whether one exists.
func (s *segment) bestFit(target, w float64) (float64, bool) {
	bestX, bestCost := 0.0, -1.0
	for _, f := range s.free {
		if f.b-f.a < w {
			continue
		}
		x := target
		if x < f.a {
			x = f.a
		}
		if x > f.b-w {
			x = f.b - w
		}
		cost := math.Abs(x - target)
		if bestCost < 0 || cost < bestCost {
			bestCost, bestX = cost, x
		}
	}
	return bestX, bestCost >= 0
}

// occupy removes [x, x+w) from the free intervals, splicing the list
// in place: the interval that holds the span shrinks, splits in two or
// disappears.
func (s *segment) occupy(x, w float64) {
	for i, f := range s.free {
		if x >= f.a-1e-9 && x+w <= f.b+1e-9 {
			left, right := x-f.a > 1e-9, f.b-(x+w) > 1e-9
			switch {
			case left && right:
				s.free = append(s.free, iv{})
				copy(s.free[i+2:], s.free[i+1:])
				s.free[i], s.free[i+1] = iv{f.a, x}, iv{x + w, f.b}
			case left:
				s.free[i] = iv{f.a, x}
			case right:
				s.free[i] = iv{x + w, f.b}
			default:
				s.free = append(s.free[:i], s.free[i+1:]...)
			}
			return
		}
	}
}

// release merges [x, x+w) back into the free intervals, in place: the
// run of intervals it overlaps or abuts collapses into one. The list
// is sorted and disjoint, so that run is contiguous.
func (s *segment) release(x, w float64) {
	nf := iv{x, x + w}
	lo := 0
	for lo < len(s.free) && s.free[lo].b < nf.a-1e-9 {
		lo++
	}
	hi := lo
	for ; hi < len(s.free) && s.free[hi].a <= nf.b+1e-9; hi++ {
		f := s.free[hi]
		if f.a < nf.a {
			nf.a = f.a
		}
		if f.b > nf.b {
			nf.b = f.b
		}
	}
	if hi == lo {
		s.free = append(s.free, iv{})
		copy(s.free[lo+1:], s.free[lo:])
	} else {
		s.free = append(s.free[:lo+1], s.free[hi:]...)
	}
	s.free[lo] = nf
}

// buildRows slices the die into placement rows and subtracts hard
// (fraction >= 1) blockages, returning each row's free segments indexed
// by row and trimmed after the last row that has any. Partial blockages
// deliberately do not fence rows — see the package comment. Rows are
// independent, so they build across workers; the result is identical
// at any worker count.
func buildRows(fp *floorplan.Floorplan, rowHeight float64, workers int, ts *trace.Set) [][]*segment {
	die := fp.Die
	var hard []geom.Rect
	for _, b := range fp.PlaceBlk {
		if b.Fraction >= 1 {
			hard = append(hard, b.Rect)
		}
	}
	nRows := int(die.H() / rowHeight)
	rows := make([][]*segment, nRows)
	par.ItemsTr(ts, "place/row-segments", workers, nRows, func(w, r int) {
		rows[r] = buildRowSegments(die, hard, rowHeight, r)
	})
	for nRows > 0 && len(rows[nRows-1]) == 0 {
		nRows--
	}
	return rows[:nRows]
}

// buildRowSegments builds the free segments of one placement row.
func buildRowSegments(die geom.Rect, hard []geom.Rect, rowHeight float64, r int) []*segment {
	y := die.Ly + float64(r)*rowHeight
	rowRect := geom.R(die.Lx, y, die.Ux, y+rowHeight)
	// Collect blocked x-intervals on this row.
	var blocked []iv
	for _, h := range hard {
		if h.Intersects(rowRect) {
			blocked = append(blocked, iv{h.Lx, h.Ux})
		}
	}
	sort.Slice(blocked, func(i, j int) bool { return blocked[i].a < blocked[j].a })
	var segs []*segment
	x := die.Lx
	emit := func(a, b float64) {
		if b-a > 1 { // ignore slivers
			segs = append(segs, &segment{y: y, x0: a, x1: b, row: r,
				free: []iv{{a, b}}})
		}
	}
	for _, bl := range blocked {
		if bl.a > x {
			emit(x, bl.a)
		}
		if bl.b > x {
			x = bl.b
		}
	}
	if x < die.Ux {
		emit(x, die.Ux)
	}
	return segs
}

// legalize snaps cells into rows without overlap using a Tetris-style
// sweep: cells sorted by x are committed left-to-right into the
// segment minimizing displacement. Returns mean and max displacement.
func legalize(movable []*netlist.Instance, fp *floorplan.Floorplan, rowHeight float64) (mean, maxd float64, err error) {
	return legalizeN(movable, fp, rowHeight, 1, nil, nil)
}

// legalizeN is legalize with a worker count for the row-parallel
// segment construction (the commit sweep stays serial — each commit
// depends on every earlier one).
func legalizeN(movable []*netlist.Instance, fp *floorplan.Floorplan, rowHeight float64, workers int,
	ts *trace.Set, mt *trace.Track) (mean, maxd float64, err error) {
	mean, maxd, failed, err := legalizeBestEffort(movable, fp, rowHeight, workers, ts, mt)
	if err != nil {
		return 0, 0, err
	}
	if len(failed) > 0 {
		return 0, 0, fmt.Errorf("place: legalization failed for %s (w=%.2f µm): no row space",
			failed[0].Name, failed[0].Master.Width)
	}
	return mean, maxd, nil
}

// LegalizeBestEffort legalizes what fits and returns the cells that
// found no space instead of failing. The S2D/C2D flows use this: cells
// that cannot fit a tier spill back to the other die.
func LegalizeBestEffort(movable []*netlist.Instance, fp *floorplan.Floorplan, rowHeight float64) (mean, maxd float64, failed []*netlist.Instance, err error) {
	return legalizeBestEffort(movable, fp, rowHeight, 1, nil, nil)
}

// tetris is the state of a legalization sweep: the per-row segment
// index plus the geometry needed to score candidates.
type tetris struct {
	rows      [][]*segment // by row index
	die       geom.Rect
	rowHeight float64
}

// place commits inst into the best-fit segment, searching the rows
// outward from its target row, and returns the displacement. ok is
// false when no segment fits the cell.
func (t *tetris) place(inst *netlist.Instance) (disp float64, ok bool) {
	w := inst.Master.Width
	target := inst.Loc
	maxRow := len(t.rows) - 1
	targetRow := geom.ClampInt(int((target.Y-t.die.Ly)/t.rowHeight), 0, maxRow)

	bestCost := -1.0
	var bestSeg *segment
	var bestX float64
	for dr := 0; dr <= maxRow; dr++ {
		for _, sgn := range []int{1, -1} {
			if dr == 0 && sgn == -1 {
				continue
			}
			r := targetRow + sgn*dr
			if r < 0 || r > maxRow {
				continue
			}
			dy := float64(dr) * t.rowHeight
			if bestCost >= 0 && dy > bestCost {
				continue // cannot beat best even with zero dx
			}
			for _, s := range t.rows[r] {
				x, fits := s.bestFit(target.X, w)
				if !fits {
					continue
				}
				cost := dy + math.Abs(x-target.X)
				if bestCost < 0 || cost < bestCost {
					bestCost = cost
					bestSeg = s
					bestX = x
				}
			}
		}
		// Early exit: once a best is found and the next row band
		// already costs more, stop.
		if bestCost >= 0 && float64(dr+1)*t.rowHeight > bestCost {
			break
		}
	}
	if bestSeg == nil {
		return 0, false
	}
	inst.Loc = geom.Pt(bestX, bestSeg.y)
	// Alternate row orientation like real row-based designs.
	if bestSeg.row%2 == 1 {
		inst.Orient = geom.OrientFS
	} else {
		inst.Orient = geom.OrientN
	}
	bestSeg.occupy(bestX, w)
	return math.Abs(bestX-target.X) + math.Abs(bestSeg.y-target.Y), true
}

func legalizeBestEffort(movable []*netlist.Instance, fp *floorplan.Floorplan, rowHeight float64, workers int,
	ts *trace.Set, mt *trace.Track) (mean, maxd float64, failed []*netlist.Instance, err error) {
	rows := buildRows(fp, rowHeight, workers, ts)
	if len(rows) == 0 {
		return 0, 0, nil, fmt.Errorf("place: no placement rows available")
	}

	order := append([]*netlist.Instance(nil), movable...)
	sort.Slice(order, func(i, j int) bool {
		if order[i].Loc.X != order[j].Loc.X {
			return order[i].Loc.X < order[j].Loc.X
		}
		return order[i].Name < order[j].Name
	})

	t := &tetris{rows: rows, die: fp.Die, rowHeight: rowHeight}

	// The Tetris commit sweep is inherently serial; record it so the
	// analyzer can rank it among the serial segments.
	ssp := mt.Begin("place", "place/legalize-sweep")
	defer func() { ssp.End(trace.N("cells", int64(len(order)))) }()
	var sum float64
	for _, inst := range order {
		d, ok := t.place(inst)
		if !ok {
			failed = append(failed, inst)
			continue
		}
		sum += d
		if d > maxd {
			maxd = d
		}
	}
	if n := len(order) - len(failed); n > 0 {
		mean = sum / float64(n)
	}
	return mean, maxd, failed, nil
}

// Legalize snaps the given cells into non-overlapping row positions of
// the floorplan, starting from their current locations. Exposed for
// the S2D/C2D flows, which must re-legalize per die after tier
// partitioning reveals the real macro extents.
func Legalize(cells []*netlist.Instance, fp *floorplan.Floorplan, rowHeight float64) (mean, maxd float64, err error) {
	return legalize(cells, fp, rowHeight)
}

// CheckLegal verifies that no two movable cells overlap and that all
// sit inside the die and off hard blockages. Called by tests only; the
// flows check legality per die with internal/verify.
func CheckLegal(d *netlist.Design, fp *floorplan.Floorplan) []string {
	var viol []string
	type placedCell struct {
		r    geom.Rect
		name string
	}
	var cells []placedCell
	var hard []geom.Rect
	for _, b := range fp.PlaceBlk {
		if b.Fraction >= 1 {
			hard = append(hard, b.Rect)
		}
	}
	for _, inst := range d.Instances {
		if inst.IsMacro() || inst.Fixed {
			continue
		}
		r := inst.Bounds()
		if !fp.Die.ContainsRect(r.Expand(-1e-7)) {
			viol = append(viol, fmt.Sprintf("%s outside die", inst.Name))
		}
		for _, h := range hard {
			if h.Expand(-1e-7).Intersects(r) {
				viol = append(viol, fmt.Sprintf("%s overlaps blockage", inst.Name))
				break
			}
		}
		cells = append(cells, placedCell{r, inst.Name})
	}
	// Sweep-line overlap check. The sorted cells are read-only, so the
	// outer sweep fans out over contiguous chunks whose per-worker
	// violation lists concatenate in chunk order — the same order the
	// serial sweep reports.
	sort.Slice(cells, func(i, j int) bool { return cells[i].r.Lx < cells[j].r.Lx })
	workers := par.Workers(0)
	if len(cells) < parMinCells {
		workers = 1
	}
	overlaps := make([][]string, workers)
	par.Chunks(workers, len(cells), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < len(cells) && cells[j].r.Lx < cells[i].r.Ux-1e-9; j++ {
				if cells[i].r.Expand(-1e-7).Intersects(cells[j].r) {
					overlaps[w] = append(overlaps[w],
						fmt.Sprintf("%s overlaps %s", cells[i].name, cells[j].name))
				}
			}
		}
	})
	for _, o := range overlaps {
		viol = append(viol, o...)
	}
	return viol
}
