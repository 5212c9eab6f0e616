package place

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/slab"
)

// segment is a free span of one placement row. Free space is tracked
// as disjoint intervals so late (wide) cells can still use gaps left
// between earlier placements. The interval list is a span of the owning
// rowMap's arena with room to grow in place (cap ≥ len).
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

// rowMap is the free space of a die's placement rows: per row the
// segments its hard blockages leave, per segment the free intervals. It
// is a handful of objects whatever the row count: the segments live in
// one array (row r's are segs[rowOff[r]:rowOff[r+1]]) and their interval
// lists are born as views of another (open). A list that outgrows its
// view moves to a span of twice the size in the moved slab — a slab of
// its own, so that the first move costs a 64-interval chunk and not one
// as large as the whole map; the span it leaves is abandoned, as a
// rip-up victim's segments are in route.Result.
type rowMap struct {
	die       geom.Rect
	rowHeight float64
	segs      []segment
	rowOff    []int32
	moved     slab.Slab[iv]
}

// rows is the number of placement rows, trimmed after the last one that
// has a segment.
func (m *rowMap) rows() int { return len(m.rowOff) - 1 }

// row returns the segments of row r, left to right.
func (m *rowMap) row(r int) []segment { return m.segs[m.rowOff[r]:m.rowOff[r+1]] }

func (m *rowMap) rowOf(y float64) int {
	return geom.ClampInt(int((y-m.die.Ly)/m.rowHeight), 0, m.rows()-1)
}

// room makes space for one more interval in s's list, moving the list to
// a span of twice the size when its own is full.
func (m *rowMap) room(s *segment) {
	if len(s.free) < cap(s.free) {
		return
	}
	grown := m.moved.Span(2 * cap(s.free))
	s.free = grown[:copy(grown, s.free)]
}

// occupy removes [x, x+w) from the free intervals, splicing the list
// in place: the interval that holds the span shrinks, splits in two or
// disappears. It reports whether it took the span; a span that is not
// inside one free interval is refused and the list stays as it was.
func (m *rowMap) occupy(s *segment, x, w float64) bool {
	for i, f := range s.free {
		if x >= f.a-1e-9 && x+w <= f.b+1e-9 {
			left, right := x-f.a > 1e-9, f.b-(x+w) > 1e-9
			switch {
			case left && right:
				m.room(s)
				s.free = s.free[:len(s.free)+1]
				copy(s.free[i+2:], s.free[i+1:])
				s.free[i], s.free[i+1] = iv{f.a, x}, iv{x + w, f.b}
			case left:
				s.free[i] = iv{f.a, x}
			case right:
				s.free[i] = iv{x + w, f.b}
			default:
				s.free = append(s.free[:i], s.free[i+1:]...)
			}
			return true
		}
	}
	return false
}

// release merges [x, x+w) back into the free intervals, in place: the
// run of intervals it overlaps or abuts collapses into one. The list
// is sorted and disjoint, so that run is contiguous.
func (m *rowMap) release(s *segment, x, w float64) {
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
		m.room(s)
		s.free = s.free[:len(s.free)+1]
		copy(s.free[lo+1:], s.free[lo:])
	} else {
		s.free = append(s.free[:lo+1], s.free[hi:]...)
	}
	s.free[lo] = nf
}

// fit searches the rows outward from targetRow for the free interval
// that places a cell of width w nearest to (wantX, targetRow), by
// Manhattan displacement; the first found wins ties (the row above
// before the row below, segments left to right). ok is false when no
// interval of the map fits the cell.
func (m *rowMap) fit(targetRow int, wantX, w float64) (best *segment, bestX float64, ok bool) {
	maxRow := m.rows() - 1
	bestCost := -1.0
	for dr := 0; dr <= maxRow; dr++ {
		for _, sgn := range [2]int{1, -1} {
			if dr == 0 && sgn == -1 {
				continue
			}
			r := targetRow + sgn*dr
			if r < 0 || r > maxRow {
				continue
			}
			dy := float64(dr) * m.rowHeight
			if bestCost >= 0 && dy > bestCost {
				continue // cannot beat best even with zero dx
			}
			row := m.row(r)
			for i := range row {
				x, fits := row[i].bestFit(wantX, w)
				if !fits {
					continue
				}
				if cost := dy + math.Abs(x-wantX); bestCost < 0 || cost < bestCost {
					bestCost, best, bestX = cost, &row[i], x
				}
			}
		}
		// Early exit: once a best is found and the next row band
		// already costs more, stop.
		if bestCost >= 0 && float64(dr+1)*m.rowHeight > bestCost {
			break
		}
	}
	return best, bestX, best != nil
}

// rowGaps calls emit with each maximal x-interval of the row at y that
// no hard blockage covers, left to right, ignoring slivers. blocked is
// scratch for the row's blocked intervals and is returned for reuse.
func rowGaps(die geom.Rect, hard []geom.Rect, y, rowHeight float64, blocked []iv, emit func(a, b float64)) []iv {
	rowRect := geom.R(die.Lx, y, die.Ux, y+rowHeight)
	blocked = blocked[:0]
	for _, h := range hard {
		if h.Intersects(rowRect) {
			blocked = append(blocked, iv{h.Lx, h.Ux})
		}
	}
	// By left edge only, which is not a total order: the sweep below
	// keeps the running maximum of the right edges, so intervals that
	// share a left edge give the same gaps in either order.
	slices.SortFunc(blocked, func(p, q iv) int { return cmp.Compare(p.a, q.a) })
	x := die.Lx
	for _, bl := range blocked {
		if bl.a-x > 1 {
			emit(x, bl.a)
		}
		if bl.b > x {
			x = bl.b
		}
	}
	if die.Ux-x > 1 {
		emit(x, die.Ux)
	}
	return blocked
}

// buildRows slices the die into placement rows and subtracts hard
// (fraction >= 1) blockages. Partial blockages deliberately do not
// fence rows — see the package comment. The segments come back without
// interval lists; open gives them theirs. The build is serial: a row is
// a few comparisons per blockage, and fanned out over workers it was
// two objects per segment and a sort closure per row for no measurable
// gain (ROADMAP item 6).
func buildRows(fp *floorplan.Floorplan, rowHeight float64) rowMap {
	die := fp.Die
	hard := make([]geom.Rect, 0, len(fp.PlaceBlk))
	for _, b := range fp.PlaceBlk {
		if b.Fraction >= 1 {
			hard = append(hard, b.Rect)
		}
	}
	nRows := int(die.H() / rowHeight)
	m := rowMap{die: die, rowHeight: rowHeight, rowOff: make([]int32, nRows+1)}
	// Two passes over the rows — count the segments, then fill them —
	// so the segment array is allocated once at its final size.
	blocked := make([]iv, 0, len(hard))
	for r := 0; r < nRows; r++ {
		n := int32(0)
		blocked = rowGaps(die, hard, die.Ly+float64(r)*rowHeight, rowHeight, blocked, func(_, _ float64) { n++ })
		m.rowOff[r+1] = m.rowOff[r] + n
	}
	for nRows > 0 && m.rowOff[nRows] == m.rowOff[nRows-1] {
		nRows--
	}
	m.rowOff = m.rowOff[:nRows+1]
	m.segs = make([]segment, 0, m.rowOff[nRows])
	for r := 0; r < nRows; r++ {
		y := die.Ly + float64(r)*rowHeight
		blocked = rowGaps(die, hard, y, rowHeight, blocked, func(a, b float64) {
			m.segs = append(m.segs, segment{y: y, x0: a, x1: b, row: r})
		})
	}
	return m
}

// open gives every segment its interval list — the whole segment, free
// — with room for cells[i] (nil: 0) + room more intervals before segment
// i's list has to move. The lists are views of one array.
func (m *rowMap) open(cells []int32, room int) {
	total := (1 + room) * len(m.segs)
	for _, k := range cells {
		total += int(k)
	}
	all := make([]iv, total)
	for i := range m.segs {
		s, k := &m.segs[i], 1+room
		if cells != nil {
			k += int(cells[i])
		}
		s.free, all = all[:1:k], all[k:]
		s.free[0] = iv{s.x0, s.x1}
	}
}

// openRoom is the room for growth a segment's list starts with in the
// legalizer, which does not know what will be placed in it (a FreeSpace
// counts the cells first).
const openRoom = 3

// Legalize snaps cells into rows without overlap using a Tetris-style
// sweep: cells sorted by x are committed left-to-right into the
// segment minimizing displacement, starting from their current
// locations. Returns mean and max displacement. Place ends with it, and
// the S2D/C2D flows re-legalize per die with it after tier partitioning
// reveals the real macro extents.
func Legalize(movable []*netlist.Instance, fp *floorplan.Floorplan, rowHeight float64) (mean, maxd float64, err error) {
	mean, maxd, failed, err := LegalizeBestEffort(movable, fp, rowHeight)
	if err != nil {
		return 0, 0, err
	}
	if len(failed) > 0 {
		return 0, 0, fmt.Errorf("place: legalization failed for %s (w=%.2f µm): no row space",
			failed[0].Name, failed[0].Master.Width)
	}
	return mean, maxd, nil
}

// place commits inst into the best-fit segment, searching the rows
// outward from its target row, and returns the displacement. ok is
// false when no segment fits the cell.
func (m *rowMap) place(inst *netlist.Instance) (disp float64, ok bool) {
	w := inst.Master.Width
	target := inst.Loc
	s, x, ok := m.fit(m.rowOf(target.Y), target.X, w)
	if !ok {
		return 0, false
	}
	inst.Loc = geom.Pt(x, s.y)
	// Alternate row orientation like real row-based designs.
	if s.row%2 == 1 {
		inst.Orient = geom.OrientFS
	} else {
		inst.Orient = geom.OrientN
	}
	m.occupy(s, x, w)
	return math.Abs(x-target.X) + math.Abs(s.y-target.Y), true
}

// LegalizeBestEffort legalizes what fits and returns the cells that
// found no space instead of failing. The S2D/C2D flows use this: cells
// that cannot fit a tier spill back to the other die.
func LegalizeBestEffort(movable []*netlist.Instance, fp *floorplan.Floorplan, rowHeight float64) (mean, maxd float64, failed []*netlist.Instance, err error) {
	m := buildRows(fp, rowHeight)
	if m.rows() == 0 {
		return 0, 0, nil, fmt.Errorf("place: no placement rows available")
	}
	m.open(nil, openRoom)

	// A total order (instance names are unique), so the sweep order does
	// not depend on the sorting algorithm.
	order := slices.Clone(movable)
	slices.SortFunc(order, func(p, q *netlist.Instance) int {
		if c := cmp.Compare(p.Loc.X, q.Loc.X); c != 0 {
			return c
		}
		return cmp.Compare(p.Name, q.Name)
	})

	var sum float64
	for _, inst := range order {
		d, ok := m.place(inst)
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
	// Sweep-line overlap check.
	sort.Slice(cells, func(i, j int) bool { return cells[i].r.Lx < cells[j].r.Lx })
	for i := range cells {
		for j := i + 1; j < len(cells) && cells[j].r.Lx < cells[i].r.Ux-1e-9; j++ {
			if cells[i].r.Expand(-1e-7).Intersects(cells[j].r) {
				viol = append(viol, fmt.Sprintf("%s overlaps %s", cells[i].name, cells[j].name))
			}
		}
	}
	return viol
}
