package place

import (
	"slices"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
)

// FreeSpace tracks the unoccupied row intervals of a legal placement
// so incremental edits (gate upsizing, buffer insertion) can claim
// legal locations near their targets — the ECO-placement primitive the
// timing optimizer uses. Every mutator takes the Undo journal of the
// edit bundle it belongs to (nil: not journaled).
type FreeSpace struct {
	rowMap
	refused int
}

// NewFreeSpace builds the free-interval map: the floorplan's row
// segments minus every currently placed, non-fixed standard cell and
// every hard blockage. The cells are counted per segment first, so
// every interval list is born with room for all of them (each cell
// splits at most one interval in two) plus ecoRoom, and the whole map is
// a fixed number of allocations.
func NewFreeSpace(d *netlist.Design, fp *floorplan.Floorplan, rowHeight float64) *FreeSpace {
	fs := &FreeSpace{rowMap: buildRows(fp, rowHeight)}
	cells := make([]int32, len(fs.segs))
	// The same walk twice: count the cells of each segment, open the
	// lists at that size, take the cells out.
	for _, count := range [2]bool{true, false} {
		for _, inst := range d.Instances {
			if !inst.Placed || inst.IsMacro() {
				continue
			}
			r := inst.Bounds()
			i := fs.segmentOf(r)
			switch {
			case i < 0:
			case count:
				cells[i]++
			case !fs.occupy(&fs.segs[i], r.Lx, r.W()):
				fs.refused++
			}
		}
		if count {
			fs.open(cells, ecoRoom)
		}
	}
	return fs
}

// ecoRoom is the number of ECO edits a segment of a fresh FreeSpace
// absorbs before its interval list has to move to a larger span.
const ecoRoom = 2

// Refused is the number of placed cells NewFreeSpace could not take out
// of the map because their span was not inside one free interval — they
// overlap a cell taken before them. It is zero for a legal single-die
// placement; the map of a design whose dies overlap in (x, y) is wrong
// by at least that many cells (ROADMAP item 1(b)).
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
func (fs *FreeSpace) segmentOf(r geom.Rect) int {
	if fs.rows() == 0 {
		return -1
	}
	row := fs.rowOf(r.Ly + 1e-9)
	for i := fs.rowOff[row]; i < fs.rowOff[row+1]; i++ {
		if s := &fs.segs[i]; r.Lx >= s.x0-1e-6 && r.Ux <= s.x1+1e-6 {
			return int(i)
		}
	}
	return -1
}

// Occupy claims a rectangle: its span leaves its row's free intervals.
func (fs *FreeSpace) Occupy(u *Undo, r geom.Rect) {
	if i := fs.segmentOf(r); i >= 0 {
		u.save(&fs.segs[i])
		fs.occupy(&fs.segs[i], r.Lx, r.W())
	}
}

// Release returns a cell's old footprint to the free pool (merging
// with adjacent free intervals).
func (fs *FreeSpace) Release(u *Undo, r geom.Rect) {
	if i := fs.segmentOf(r); i >= 0 {
		u.save(&fs.segs[i])
		fs.release(&fs.segs[i], r.Lx, r.W())
	}
}

// Equal reports whether two maps over the same floorplan hold exactly
// the same free intervals (== on every bound, no tolerance).
func (fs *FreeSpace) Equal(o *FreeSpace) bool {
	if !slices.Equal(fs.rowOff, o.rowOff) {
		return false
	}
	for i := range fs.segs {
		if !slices.Equal(fs.segs[i].free, o.segs[i].free) {
			return false
		}
	}
	return true
}

// Alloc finds a legal lower-left location for a cell of width w whose
// centre should sit near target, claims it, and returns it. The search
// expands row by row; ok is false when nothing fits anywhere.
func (fs *FreeSpace) Alloc(u *Undo, w float64, target geom.Point) (geom.Point, bool) {
	if fs.rows() == 0 {
		return geom.Point{}, false
	}
	s, x, ok := fs.fit(fs.rowOf(target.Y-fs.rowHeight/2), target.X-w/2, w)
	if !ok {
		return geom.Point{}, false
	}
	u.save(s)
	fs.occupy(s, x, w)
	return geom.Pt(x, s.y), true
}
