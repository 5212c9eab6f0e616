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
// timing optimizer uses. Every mutator takes the Undo journal of the
// edit bundle it belongs to (nil: not journaled).
type FreeSpace struct {
	rowHeight float64
	die       geom.Rect
	rows      [][]*segment // by row index
}

// NewFreeSpace builds the free-interval map: the floorplan's row
// segments minus every currently placed, non-fixed standard cell and
// every hard blockage.
func NewFreeSpace(d *netlist.Design, fp *floorplan.Floorplan, rowHeight float64) *FreeSpace {
	fs := &FreeSpace{
		rowHeight: rowHeight,
		die:       fp.Die,
		rows:      buildRows(fp, rowHeight, 1, nil),
	}
	for _, inst := range d.Instances {
		if !inst.Placed || inst.IsMacro() {
			continue
		}
		fs.Occupy(nil, inst.Bounds())
	}
	return fs
}

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
// empties the journal.
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

func (fs *FreeSpace) rowOf(y float64) int {
	return geom.ClampInt(int((y-fs.die.Ly)/fs.rowHeight), 0, len(fs.rows)-1)
}

// segmentOf finds the segment of a rectangle's row that spans it.
func (fs *FreeSpace) segmentOf(r geom.Rect) *segment {
	if len(fs.rows) == 0 {
		return nil
	}
	for _, s := range fs.rows[fs.rowOf(r.Ly+1e-9)] {
		if r.Lx >= s.x0-1e-6 && r.Ux <= s.x1+1e-6 {
			return s
		}
	}
	return nil
}

// Occupy claims a rectangle: its span leaves its row's free intervals.
func (fs *FreeSpace) Occupy(u *Undo, r geom.Rect) {
	if s := fs.segmentOf(r); s != nil {
		u.save(s)
		s.occupy(r.Lx, r.W())
	}
}

// Release returns a cell's old footprint to the free pool (merging
// with adjacent free intervals).
func (fs *FreeSpace) Release(u *Undo, r geom.Rect) {
	if s := fs.segmentOf(r); s != nil {
		u.save(s)
		s.release(r.Lx, r.W())
	}
}

// Equal reports whether two maps over the same floorplan hold exactly
// the same free intervals (== on every bound, no tolerance).
func (fs *FreeSpace) Equal(o *FreeSpace) bool {
	if len(fs.rows) != len(o.rows) {
		return false
	}
	for r, row := range fs.rows {
		if len(row) != len(o.rows[r]) {
			return false
		}
		for i, s := range row {
			if !slices.Equal(s.free, o.rows[r][i].free) {
				return false
			}
		}
	}
	return true
}

// Alloc finds a legal lower-left location for a cell of width w whose
// centre should sit near target, claims it, and returns it. The search
// expands row by row; ok is false when nothing fits anywhere.
func (fs *FreeSpace) Alloc(u *Undo, w float64, target geom.Point) (geom.Point, bool) {
	if len(fs.rows) == 0 {
		return geom.Point{}, false
	}
	maxRow := len(fs.rows) - 1
	wantX := target.X - w/2
	targetRow := fs.rowOf(target.Y - fs.rowHeight/2)
	bestCost := -1.0
	var bestSeg *segment
	var bestX float64
	for dr := 0; dr <= maxRow+1; dr++ {
		for _, sgn := range []int{1, -1} {
			if dr == 0 && sgn == -1 {
				continue
			}
			r := targetRow + sgn*dr
			if r < 0 || r > maxRow {
				continue
			}
			dy := float64(dr) * fs.rowHeight
			if bestCost >= 0 && dy > bestCost {
				continue
			}
			for _, s := range fs.rows[r] {
				x, ok := s.bestFit(wantX, w)
				if !ok {
					continue
				}
				cost := dy + math.Abs(x-wantX)
				if bestCost < 0 || cost < bestCost {
					bestCost, bestSeg, bestX = cost, s, x
				}
			}
		}
		if bestCost >= 0 && float64(dr+1)*fs.rowHeight > bestCost {
			break
		}
	}
	if bestSeg == nil {
		return geom.Point{}, false
	}
	u.save(bestSeg)
	bestSeg.occupy(bestX, w)
	return geom.Pt(bestX, bestSeg.y), true
}
