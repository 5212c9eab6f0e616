package place

import (
	"math"
	"slices"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
)

// FreeSpace tracks the unoccupied row intervals of a legal placement
// so incremental edits (gate upsizing, buffer insertion) can claim
// legal locations near their targets — the ECO-placement primitive the
// timing optimizer uses. It keeps one row map per die: after tier
// partitioning the standard cells of the two dies legally share (x, y),
// and one map of both would refuse the second of each such pair and hand
// the part of it the first does not cover to the next claim. Every
// mutator takes the die it edits and the Undo journal of the edit bundle
// it belongs to (nil: not journaled).
type FreeSpace struct {
	dies    [2]rowMap // by netlist.Die
	refused int
}

// NewFreeSpace builds the free-interval maps: per die, the floorplan's
// row segments minus every hard blockage and every currently placed,
// non-fixed standard cell on that die. The logic die's map is always
// built, the macro die's only when a standard cell sits on it. The cells
// are counted per segment first, so every interval list is born with
// room for all of them (each cell splits at most one interval in two)
// plus ecoRoom, and a map is a fixed number of allocations.
func NewFreeSpace(d *netlist.Design, fp *floorplan.Floorplan, rowHeight float64) *FreeSpace {
	fs := &FreeSpace{}
	logic := &fs.dies[netlist.LogicDie]
	*logic = buildRows(fp, rowHeight)
	n := len(logic.segs)
	cells := make([]int32, 2*n) // die d's segment i counts at d*n+i
	// The same walk twice: count the cells of each segment, open the
	// lists at that size, take the cells out. Both dies' segments have the
	// logic die's geometry.
	for _, count := range [2]bool{true, false} {
		for _, inst := range d.Instances {
			if !inst.Placed || inst.IsMacro() {
				continue
			}
			r := inst.Bounds()
			i := logic.segmentOf(r)
			switch m := &fs.dies[inst.Die]; {
			case i < 0:
			case count:
				cells[int(inst.Die)*n+i]++
			case !m.occupy(&m.segs[i], r.Lx, r.W()):
				fs.refused++
			}
		}
		if !count {
			break
		}
		if slices.ContainsFunc(cells[n:], func(k int32) bool { return k > 0 }) {
			macro := &fs.dies[netlist.MacroDie]
			*macro = rowMap{die: logic.die, rowHeight: rowHeight, rowOff: logic.rowOff, segs: slices.Clone(logic.segs)}
			macro.open(cells[n:], ecoRoom)
		}
		logic.open(cells[:n], ecoRoom)
	}
	return fs
}

// mapOf is die's row map, nil when the die has none.
func (fs *FreeSpace) mapOf(die netlist.Die) *rowMap {
	if m := &fs.dies[die]; m.rowOff != nil {
		return m
	}
	return nil
}

// ecoRoom is the number of ECO edits a segment of a fresh FreeSpace
// absorbs before its interval list has to move to a larger span.
const ecoRoom = 2

// Refused is the number of placed cells NewFreeSpace could not take out
// of their die's map because their span was not inside one free interval
// — they overlap a cell of the same die taken before them. It is zero
// for a legal placement.
func (fs *FreeSpace) Refused() int { return fs.refused }

// Undo journals a bundle of FreeSpace edits: the free list of every
// segment the bundle changes is copied on first touch, so the bundle
// rolls back in time and memory proportional to what it edited. The
// zero value is ready to use, and its buffers are reused from one
// bundle to the next.
type Undo struct {
	segs []*segment
	ends []int // ivs[ends[i-1]:ends[i]] is the saved list of segs[i]
	ivs  []iv
}

// save copies a segment's free list before its first change.
func (u *Undo) save(s *segment) {
	if u == nil || s.saved {
		return
	}
	s.saved = true
	u.segs = append(u.segs, s)
	u.ivs = append(u.ivs, s.free...)
	u.ends = append(u.ends, len(u.ivs))
}

// Rollback restores every journaled segment to its saved list and
// empties the journal. A list's span only ever grows, so the saved list
// fits the span the segment has now.
func (u *Undo) Rollback() {
	lo := 0
	for i, s := range u.segs {
		s.free = append(s.free[:0], u.ivs[lo:u.ends[i]]...)
		lo = u.ends[i]
	}
	u.Commit()
}

// Commit keeps the edits and empties the journal.
func (u *Undo) Commit() {
	for i, s := range u.segs {
		s.saved = false
		u.segs[i] = nil
	}
	u.segs, u.ends, u.ivs = u.segs[:0], u.ends[:0], u.ivs[:0]
}

// segmentOf finds the segment of a rectangle's row that spans it, as an
// index into segs; -1 when there is none.
func (m *rowMap) segmentOf(r geom.Rect) int {
	if m.rows() <= 0 {
		return -1
	}
	row := m.rowOf(r.Ly + 1e-9)
	for i := m.rowOff[row]; i < m.rowOff[row+1]; i++ {
		if s := &m.segs[i]; r.Lx >= s.x0-1e-6 && r.Ux <= s.x1+1e-6 {
			return int(i)
		}
	}
	return -1
}

// Occupy claims a rectangle on a die: its span leaves its row's free
// intervals.
func (fs *FreeSpace) Occupy(u *Undo, die netlist.Die, r geom.Rect) {
	if m := fs.mapOf(die); m != nil {
		if i := m.segmentOf(r); i >= 0 {
			u.save(&m.segs[i])
			m.occupy(&m.segs[i], r.Lx, r.W())
		}
	}
}

// Release returns a cell's old footprint on a die to the free pool
// (merging with adjacent free intervals).
func (fs *FreeSpace) Release(u *Undo, die netlist.Die, r geom.Rect) {
	if m := fs.mapOf(die); m != nil {
		if i := m.segmentOf(r); i >= 0 {
			u.save(&m.segs[i])
			m.release(&m.segs[i], r.Lx, r.W())
		}
	}
}

// Equal reports whether two free-space sets over the same floorplan have
// maps for the same dies holding the same free intervals: as many per
// segment, each bound within 1e-9 µm of its counterpart — the slack
// occupy and release already grant a cell's edges. A cell's right edge,
// Lx + W, may round an ulp past the segment end it was placed against,
// and releasing it leaves that edge where a fresh build has the
// segment's end.
func (fs *FreeSpace) Equal(o *FreeSpace) bool {
	near := func(p, q iv) bool { return math.Abs(p.a-q.a) <= 1e-9 && math.Abs(p.b-q.b) <= 1e-9 }
	for die := range fs.dies {
		a, b := &fs.dies[die], &o.dies[die]
		if !slices.Equal(a.rowOff, b.rowOff) {
			return false
		}
		for i := range a.segs {
			if !slices.EqualFunc(a.segs[i].free, b.segs[i].free, near) {
				return false
			}
		}
	}
	return true
}

// Alloc finds a legal lower-left location on a die for a cell of width w
// whose centre should sit near target, claims it, and returns it. The
// search expands row by row; ok is false when nothing fits anywhere.
func (fs *FreeSpace) Alloc(u *Undo, die netlist.Die, w float64, target geom.Point) (geom.Point, bool) {
	m := fs.mapOf(die)
	if m == nil || m.rows() == 0 {
		return geom.Point{}, false
	}
	s, x, ok := m.fit(m.rowOf(target.Y-m.rowHeight/2), target.X-w/2, w)
	if !ok {
		return geom.Point{}, false
	}
	u.save(s)
	m.occupy(s, x, w)
	return geom.Pt(x, s.y), true
}
