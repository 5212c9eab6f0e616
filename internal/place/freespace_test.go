package place

import (
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
)

// freeOracle is the free-space map written the obvious way: one
// interval list per segment, each a heap slice of its own, spliced by
// building a new list. It shares nothing with rowMap but the segment
// geometry it is handed and the bestFit scan.
type freeOracle struct {
	m    *rowMap // geometry only: segmentOf, fit's row walk
	free [][]iv
}

func newFreeOracle(m *rowMap) *freeOracle {
	o := &freeOracle{m: m, free: make([][]iv, len(m.segs))}
	for i, s := range m.segs {
		o.free[i] = []iv{{s.x0, s.x1}}
	}
	return o
}

func (o *freeOracle) occupy(i int, x, w float64) bool {
	for k, f := range o.free[i] {
		if x >= f.a-1e-9 && x+w <= f.b+1e-9 {
			var out []iv
			out = append(out, o.free[i][:k]...)
			if x-f.a > 1e-9 {
				out = append(out, iv{f.a, x})
			}
			if f.b-(x+w) > 1e-9 {
				out = append(out, iv{x + w, f.b})
			}
			o.free[i] = append(out, o.free[i][k+1:]...)
			return true
		}
	}
	return false
}

func (o *freeOracle) release(i int, x, w float64) {
	nf := iv{x, x + w}
	var out []iv
	placed := false
	for _, f := range o.free[i] {
		switch {
		case f.b < nf.a-1e-9:
			out = append(out, f)
		case f.a > nf.b+1e-9:
			if !placed {
				out, placed = append(out, nf), true
			}
			out = append(out, f)
		default:
			nf.a, nf.b = min(nf.a, f.a), max(nf.b, f.b)
		}
	}
	if !placed {
		out = append(out, nf)
	}
	o.free[i] = out
}

// alloc is FreeSpace.Alloc over the oracle's lists: every segment of
// every row, no early exit.
func (o *freeOracle) alloc(w float64, target geom.Point) (int, float64, bool) {
	fs := o.m
	wantX, targetRow := target.X-w/2, fs.rowOf(target.Y-fs.rowHeight/2)
	best, bestX, bestCost := -1, 0.0, 0.0
	// Rows in the order fit visits them: the target row, then each ring
	// above before below.
	for dr := 0; dr < fs.rows(); dr++ {
		ring := []int{targetRow + dr, targetRow - dr}
		if dr == 0 {
			ring = ring[:1]
		}
		for _, r := range ring {
			if r < 0 || r >= fs.rows() {
				continue
			}
			for i := int(fs.rowOff[r]); i < int(fs.rowOff[r+1]); i++ {
				tmp := segment{free: o.free[i]}
				x, ok := tmp.bestFit(wantX, w)
				if !ok {
					continue
				}
				if cost := float64(dr)*fs.rowHeight + math.Abs(x-wantX); best < 0 || cost < bestCost {
					best, bestX, bestCost = i, x, cost
				}
			}
		}
	}
	return best, bestX, best >= 0
}

func (o *freeOracle) equal(m *rowMap) bool {
	for i := range m.segs {
		if !slices.Equal(m.segs[i].free, o.free[i]) {
			return false
		}
	}
	return true
}

func (o *freeOracle) clone() [][]iv {
	out := make([][]iv, len(o.free))
	for i, l := range o.free {
		out[i] = slices.Clone(l)
	}
	return out
}

// TestFreeSpaceMatchesModel drives a FreeSpace and the per-segment
// oracle through the same random bundles of Occupy, Release and Alloc —
// cells claimed, returned, moved — each bundle then rolled back or
// committed through the Undo journal. After every step the map's lists
// equal the oracle's, and after every bundle the map equals a fresh
// NewFreeSpace over the design as it then stands. Lists are born with
// room for two more intervals than the cells in them, so the bundles
// also move lists to larger spans and roll back across such a move.
func TestFreeSpaceMatchesModel(t *testing.T) {
	const rowH = 1.2
	for seed := uint64(1); seed <= 4; seed++ {
		rng := geom.NewRNG(seed)
		lib := cell.NewStdLib28(cell.DefaultLibOptions())
		d := netlist.NewDesign("m", lib)
		fp := &floorplan.Floorplan{Die: geom.R(0, 0, 60, 12*rowH)}
		fp.PlaceBlk = append(fp.PlaceBlk,
			floorplan.Blockage{Rect: geom.R(20, 2*rowH, 30, 7*rowH), Fraction: 1},
			floorplan.Blockage{Rect: geom.R(40, 5*rowH, 52, 9*rowH), Fraction: 1},
			floorplan.Blockage{Rect: geom.R(5, 0, 15, 3*rowH), Fraction: 0.5})
		// Widths and targets are multiples of 1/16 µm, so every x the maps
		// compute is exact and a cell's Bounds().W() is its master's Width
		// to the bit: the fresh build, which reads Bounds, and the edits,
		// which read Width, then agree with == (as they do on the row grid
		// of a real placement).
		var masters []*cell.Cell
		for _, w := range []float64{0.5, 1.25, 3, 4.75} {
			m := lib.MustCell("INV_X1").Clone()
			m.Name, m.Width = "W"+itoa(int(w*100)), w
			masters = append(masters, m)
		}

		fs := NewFreeSpace(d, fp, rowH)
		m := &fs.dies[netlist.LogicDie]
		o := newFreeOracle(m)
		var u Undo
		var placed []*netlist.Instance
		check := func(when string) {
			t.Helper()
			if !o.equal(m) {
				t.Fatalf("seed %d, %s: the map's lists differ from the oracle's", seed, when)
			}
		}
		moves := 0
		for bundle := 0; bundle < 100; bundle++ {
			before, beforeN := o.clone(), len(placed)
			type move struct {
				inst *netlist.Instance
				was  bool // Placed before the edit
			}
			var undo []move
			for k := 1 + rng.Intn(6); k > 0; k-- {
				switch op := rng.Intn(4); {
				case op == 0 && len(placed) > 0: // return a cell's footprint
					inst := placed[rng.Intn(len(placed))]
					if !inst.Placed {
						continue
					}
					r := inst.Bounds()
					fs.Release(&u, netlist.LogicDie, r)
					o.release(m.segmentOf(r), r.Lx, r.W())
					undo = append(undo, move{inst, true})
					inst.Placed = false
				case op == 1 && len(placed) > 0: // claim it back where it was
					inst := placed[rng.Intn(len(placed))]
					if inst.Placed {
						continue
					}
					r := inst.Bounds()
					i := m.segmentOf(r)
					if !o.occupy(i, r.Lx, r.W()) {
						continue // something was allocated there meanwhile
					}
					fs.Occupy(&u, netlist.LogicDie, r)
					undo = append(undo, move{inst, false})
					inst.Placed = true
				default: // a new cell near a random target
					target := geom.Pt(float64(rng.Intn(60*16))/16, rng.Range(0, 12*rowH))
					mc := masters[rng.Intn(len(masters))]
					loc, ok := fs.Alloc(&u, netlist.LogicDie, mc.Width, target)
					i, x, ook := o.alloc(mc.Width, target)
					if ok != ook || ok && (loc.X != x || loc.Y != m.segs[i].y) {
						t.Fatalf("seed %d bundle %d: Alloc(%v, %v) = %v %v, oracle segment %d x %v %v",
							seed, bundle, mc.Width, target, loc, ok, i, x, ook)
					}
					if !ok {
						continue
					}
					o.occupy(i, x, mc.Width)
					inst := d.AddInstance("c"+itoa(len(d.Instances)), mc)
					inst.Loc, inst.Placed = loc, true
					placed = append(placed, inst)
					moves++
				}
				check("after an edit of bundle " + itoa(bundle))
			}
			if rng.Intn(3) == 0 {
				u.Rollback()
				o.free = before
				for i := len(undo) - 1; i >= 0; i-- {
					undo[i].inst.Placed = undo[i].was
				}
				for _, inst := range placed[beforeN:] {
					inst.Placed = false
				}
				placed = placed[:beforeN]
				check("after rolling back bundle " + itoa(bundle))
			} else {
				u.Commit()
			}
			if len(u.segs) != 0 || len(u.ivs) != 0 {
				t.Fatalf("seed %d bundle %d: the journal was not emptied", seed, bundle)
			}
			fresh := NewFreeSpace(d, fp, rowH)
			if !fs.Equal(fresh) || fresh.Refused() != 0 {
				t.Fatalf("seed %d bundle %d: the map differs from a fresh NewFreeSpace (%d refused)", seed, bundle, fresh.Refused())
			}
		}
		grown := 0
		for i := range m.segs {
			if len(m.segs[i].free) > 1+ecoRoom {
				grown++
			}
		}
		if moves < 80 || grown == 0 {
			t.Fatalf("seed %d: %d cells allocated, %d lists outgrew their first span: the run is too easy", seed, moves, grown)
		}
	}
}

// TestOccupyRefusals: occupy reports a span that is not inside one free
// interval and leaves the list alone, and NewFreeSpace counts the cells
// it could not take out for that reason — the second of two cells that
// overlap, as the standard cells of two dies do in one (x, y) map.
func TestOccupyRefusals(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("r", lib)
	fp := &floorplan.Floorplan{Die: geom.R(0, 0, 50, 2.4)}
	m := lib.MustCell("BUF_X16")
	a, b, c := d.AddInstance("a", m), d.AddInstance("b", m), d.AddInstance("c", m)
	a.Loc, b.Loc, c.Loc = geom.Pt(10, 0), geom.Pt(10+m.Width/2, 0), geom.Pt(30, 1.2)
	a.Placed, b.Placed, c.Placed = true, true, true
	fs := NewFreeSpace(d, fp, 1.2)
	if fs.Refused() != 1 {
		t.Fatalf("Refused() = %d, want 1 (b overlaps a)", fs.Refused())
	}
	// b's uncovered half is still marked free: the hole the next Alloc
	// would hand out.
	want := []iv{{0, 10}, {10 + m.Width, 50}}
	logic := &fs.dies[netlist.LogicDie]
	if got := logic.segs[0].free; !slices.Equal(got, want) {
		t.Fatalf("row 0 free = %v, want %v", got, want)
	}
	if logic.occupy(&logic.segs[0], 5, 10) {
		t.Fatal("occupy took a span that straddles an occupied cell")
	}
	if got := logic.segs[0].free; !slices.Equal(got, want) {
		t.Fatalf("a refused occupy changed the list: %v", got)
	}
}

// TestFreeSpacePerDie: standard cells of the two dies that share (x, y)
// go into their own die's map, so none is refused; an edit on one die
// claims and returns space in that die's map only, and the maps stay ==
// a fresh NewFreeSpace of the design after each edit.
func TestFreeSpacePerDie(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("dies", lib)
	fp := &floorplan.Floorplan{Die: geom.R(0, 0, 50, 1.2)} // one row
	m := lib.MustCell("BUF_X16")
	a, b := d.AddInstance("a", m), d.AddInstance("b", m)
	a.Loc, b.Loc = geom.Pt(10, 0), geom.Pt(10+m.Width/2, 0)
	a.Placed, b.Placed, b.Die = true, true, netlist.MacroDie
	fs := NewFreeSpace(d, fp, 1.2)
	if fs.Refused() != 0 || fs.mapOf(netlist.MacroDie) == nil {
		t.Fatalf("%d cells refused, macro-die map built %v: want 0 and true", fs.Refused(), fs.mapOf(netlist.MacroDie) != nil)
	}
	var u Undo
	fresh := func(when string) {
		t.Helper()
		if !fs.Equal(NewFreeSpace(d, fp, 1.2)) {
			t.Fatalf("%s: the maps differ from a fresh NewFreeSpace", when)
		}
	}
	// A cell claimed on the macro die at a's spot lands on it — a is on
	// the other die — and clear of b.
	loc, ok := fs.Alloc(&u, netlist.MacroDie, m.Width, a.Center())
	c := d.AddInstance("c", m)
	c.Loc, c.Placed, c.Die = loc, true, netlist.MacroDie
	if !ok || c.Bounds().Intersects(b.Bounds()) || !c.Bounds().Intersects(a.Bounds()) {
		t.Fatalf("Alloc on the macro die put c at %v (ok %v): want a's row span, clear of b", loc, ok)
	}
	fresh("after the macro-die Alloc")
	fs.Release(&u, netlist.MacroDie, b.Bounds())
	b.Placed = false
	fresh("after releasing b")
	u.Rollback()
	b.Placed, c.Placed = true, false
	fresh("after the rollback")
}

// TestReleaseAtSegmentEnd replays the edit that failed BF S2D / small's
// self-check at seeds 4 and 6: in a row of three cells, the last one's
// right edge, Lx + W, rounds one ulp past the segment end it abuts, and
// the cell is released. The journaled interval ends at that edge, a
// fresh build's at the segment's end; Equal holds them the same point,
// and still tells apart maps a cell's width apart.
func TestReleaseAtSegmentEnd(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("ulp", lib)
	// The row's geometry as the pseudo design's ECO saw it, bit for bit.
	end := 0x1.884f085b5558bp+05
	fp := &floorplan.Floorplan{Die: geom.R(0, 0, end, 1.2)}
	wide, narrow := lib.MustCell("BUF_X1").Clone(), lib.MustCell("BUF_X1").Clone()
	wide.Width, narrow.Width = 0x1.63dd4d663bdaep+04, 0x1.6afb54113d0d8p+03
	cells := []*netlist.Instance{d.AddInstance("c", wide), d.AddInstance("a", narrow), d.AddInstance("b", narrow)}
	for i, x := range []float64{0x1.31124c8fd1aap+00, 0x1.76ee722f38f58p+04, 0x1.2d90335706156p+05} {
		cells[i].Loc, cells[i].Placed = geom.Pt(x, 0), true
	}
	b := cells[2]
	if ux := b.Bounds().Lx + b.Bounds().W(); ux <= end {
		t.Fatalf("b's right edge %x is not past the segment end %x: the replay lost its ulp", ux, end)
	}
	fs := NewFreeSpace(d, fp, 1.2)
	var u Undo
	fs.Release(&u, netlist.LogicDie, b.Bounds())
	b.Placed = false
	fresh := NewFreeSpace(d, fp, 1.2)
	got, want := fs.dies[netlist.LogicDie].segs[0].free, fresh.dies[netlist.LogicDie].segs[0].free
	if slices.Equal(got, want) {
		t.Fatalf("journaled and fresh lists are == (%v): the replay lost its ulp", got)
	}
	if !fs.Equal(fresh) {
		t.Fatalf("journaled free list %v, fresh %v: one ulp apart, and Equal tells them apart", got, want)
	}
	if _, ok := fs.Alloc(&u, netlist.LogicDie, narrow.Width, b.Center()); !ok || fs.Equal(fresh) {
		t.Fatalf("a cell claimed in one map (ok %v) and Equal still holds", ok)
	}
}

// TestNewFreeSpaceAllocs: a map is the same handful of objects for a
// die of 40 rows and one of 4000 — the map, the row offsets, the
// segments, the per-segment cell counts, the interval array, the hard
// blockage list and the per-row scratch — not two per segment and a
// sort closure per row.
func TestNewFreeSpaceAllocs(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	build := func(rows int) float64 {
		d := netlist.NewDesign("a", lib)
		h := 1.2 * float64(rows)
		fp := &floorplan.Floorplan{Die: geom.R(0, 0, 200, h)}
		fp.PlaceBlk = append(fp.PlaceBlk,
			floorplan.Blockage{Rect: geom.R(50, 0.2*h, 80, 0.6*h), Fraction: 1},
			floorplan.Blockage{Rect: geom.R(120, 0.4*h, 150, 0.9*h), Fraction: 1})
		for r := 0; r < rows; r++ {
			for k := 0; k < 3; k++ {
				c := d.AddInstance("c"+itoa(r)+"_"+itoa(k), lib.MustCell("INV_X1"))
				c.Loc, c.Placed = geom.Pt(5+12*float64(k), 1.2*float64(r)), true
			}
		}
		var fs *FreeSpace
		defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection's own objects are not the map's
		allocs := testing.AllocsPerRun(5, func() { fs = NewFreeSpace(d, fp, 1.2) })
		if got := fs.dies[netlist.LogicDie].rows(); got != rows || fs.Refused() != 0 || fs.mapOf(netlist.MacroDie) != nil {
			t.Fatalf("%d rows built for %d, %d cells refused, macro-die map %v", got, rows, fs.Refused(), fs.mapOf(netlist.MacroDie) != nil)
		}
		return allocs
	}
	small, large := build(40), build(4000)
	t.Logf("NewFreeSpace: %.0f objects at 40 rows, %.0f at 4000", small, large)
	if large != small || large > 7 {
		t.Fatalf("NewFreeSpace allocates %.0f objects at 4000 rows and %.0f at 40: want the same, and at most 7", large, small)
	}
}

// legalizeFixture is the small 2D tile placed, with every movable cell
// then pushed off its legal spot by a seeded offset of up to a few
// rows: the overlapping input a legalizer exists for. It returns the
// cells and the offsets' locations to restore before each run.
func legalizeFixture(b *testing.B) ([]*netlist.Instance, []geom.Point, *netlist.Design, *floorplan.Floorplan) {
	d, fp := tileFixture(b, piton.SmallCache())
	if _, err := Place(d, fp, 1.2, Options{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	rng := geom.NewRNG(3)
	cells := movableCells(d)
	start := make([]geom.Point, len(cells))
	for i, c := range cells {
		start[i] = geom.Pt(c.Loc.X+rng.Range(-4, 4), c.Loc.Y+rng.Range(-3, 3))
	}
	return cells, start, d, fp
}

// BenchmarkLegalize is one legalization of the small 2D tile: the row
// map built and every movable cell swept into it.
func BenchmarkLegalize(b *testing.B) {
	cells, start, _, fp := legalizeFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, c := range cells {
			c.Loc = start[k]
		}
		if _, _, err := Legalize(cells, fp, 1.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewFreeSpace is the map opt.Optimize builds on entry, over
// the placed small 2D tile.
func BenchmarkNewFreeSpace(b *testing.B) {
	d, fp := tileFixture(b, piton.SmallCache())
	if _, err := Place(d, fp, 1.2, Options{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fs := NewFreeSpace(d, fp, 1.2); fs.Refused() != 0 {
			b.Fatal("a legal placement was refused")
		}
	}
}
