package place

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"macro3d/internal/cell"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/par"
	"macro3d/internal/piton"
)

// chainDesign builds a linear chain of inverters between two ports on
// opposite die edges — the placer should spread it between them.
func chainDesign(n int) (*netlist.Design, *floorplan.Floorplan) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("chain", lib)
	in := d.AddPort("in", cell.DirIn)
	in.Loc = geom.Pt(0, 50)
	out := d.AddPort("out", cell.DirOut)
	out.Loc = geom.Pt(100, 50)
	prev := netlist.PPin(in)
	for i := 0; i < n; i++ {
		u := d.AddInstance(instName(i), lib.MustCell("INV_X1"))
		d.AddNet(netName(i), prev, netlist.IPin(u, "A"))
		prev = netlist.IPin(u, "Y")
	}
	d.AddNet("n_out", prev, netlist.PPin(out))
	fp := &floorplan.Floorplan{Die: geom.R(0, 0, 100, 100)}
	return d, fp
}

func instName(i int) string { return "u" + itoa(i) }
func netName(i int) string  { return "n" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestPlaceChain(t *testing.T) {
	d, fp := chainDesign(50)
	res, err := Place(d, fp, 1.2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if viol := CheckLegal(d, fp); len(viol) > 0 {
		t.Fatalf("illegal placement: %v", viol[:min(3, len(viol))])
	}
	// A 50-cell chain between x=0 and x=100: ideal HPWL ≈ 100 µm plus
	// row hops. Anything under ~4× ideal is a sane placement.
	if res.HPWL > 400 {
		t.Fatalf("chain HPWL = %.1f µm, too long", res.HPWL)
	}
	if res.HPWL <= 0 {
		t.Fatal("zero HPWL")
	}
	for _, inst := range d.Instances {
		if !inst.Placed {
			t.Fatalf("%s unplaced", inst.Name)
		}
	}
}

// TestExitHPWLGaugeWhenTargetUnreached: on 5 µm bins four iterations
// leave the chain above the target overflow, and the descent's HPWL
// gauge still reads the exit iterate's — a real length, bounded by every
// net spanning the die's half-perimeter — and the iteration gauge reads
// all four.
func TestExitHPWLGaugeWhenTargetUnreached(t *testing.T) {
	d, fp := chainDesign(50)
	rec := obs.New()
	if _, err := Place(d, fp, 1.2, Options{Seed: 1, Iters: 4, BinPitch: 5, Obs: rec.StartSpan("t")}); err != nil {
		t.Fatal(err)
	}
	reg := rec.Registry()
	if its := reg.Gauge("place_descent_iterations", "").Value(); its != 4 {
		t.Fatalf("descent ran %g iterations, want all 4", its)
	}
	bound := float64(len(d.Nets)) * (fp.Die.W() + fp.Die.H())
	if hp := reg.Gauge("place_best_hpwl_um", "").Value(); !(hp > 0 && hp <= bound) {
		t.Fatalf("place_best_hpwl_um = %g µm, want in (0, %g]", hp, bound)
	}
}

func TestPlaceRespectsHardBlockage(t *testing.T) {
	d, fp := chainDesign(80)
	blk := geom.R(30, 30, 70, 70)
	fp.PlaceBlk = append(fp.PlaceBlk, floorplan.Blockage{Rect: blk, Fraction: 1})
	_, err := Place(d, fp, 1.2, Options{Seed: 2, BinPitch: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range d.Instances {
		if blk.Expand(-1e-7).Intersects(inst.Bounds()) {
			t.Fatalf("%s placed on hard blockage", inst.Name)
		}
	}
	if viol := CheckLegal(d, fp); len(viol) > 0 {
		t.Fatalf("illegal: %v", viol[0])
	}
}

func TestPartialBlockageIsSoft(t *testing.T) {
	// Cells may legally sit inside a 50 % blockage region — the S2D
	// mechanism — but the region must end up underfilled versus free
	// area.
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("soft", lib)
	// A clique of cells pulled to the die centre by a port ring.
	var prev netlist.PinRef
	for i := 0; i < 400; i++ {
		u := d.AddInstance(instName(i), lib.MustCell("NAND2_X1"))
		if i > 0 {
			d.AddNet(netName(i), prev, netlist.IPin(u, "A"))
		}
		prev = netlist.IPin(u, "Y")
	}
	// Die sized so the design needs ~2/3 of the unblocked capacity —
	// dense enough that the density engine must act.
	fp := &floorplan.Floorplan{Die: geom.R(0, 0, 42, 42)}
	// Left half partially blocked.
	fp.PlaceBlk = append(fp.PlaceBlk, floorplan.Blockage{Rect: geom.R(0, 0, 21, 42), Fraction: 0.5})
	_, err := Place(d, fp, 1.2, Options{Seed: 3, BinPitch: 7})
	if err != nil {
		t.Fatal(err)
	}
	inLeft := 0
	for _, inst := range d.Instances {
		if inst.Center().X < 21 {
			inLeft++
		}
	}
	// Some cells can use the partially blocked half…
	if inLeft == 0 {
		t.Fatal("partial blockage acted as a hard fence")
	}
	// …but it must carry meaningfully less than half the population.
	if inLeft > 190 {
		t.Fatalf("partially blocked half carries %d/400 cells", inLeft)
	}
}

func TestPlacePitonTile2D(t *testing.T) {
	if testing.Short() {
		t.Skip("full tile placement in -short mode")
	}
	tile, err := piton.Generate(piton.SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	sz, err := floorplan.SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.PlaceMacros(d, sz.Die2D, floorplan.Style2D)
	if err != nil {
		t.Fatal(err)
	}
	floorplan.BuildBlockages(fp, d, netlist.LogicDie)
	floorplan.AssignPorts(tile, sz.Die2D)

	res, err := Place(d, fp, 1.2, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tile: HPWL %.2f m (global %.2f m), mean disp %.1f µm, overflow %.3f",
		res.HPWL/1e6, res.GlobalHPWL/1e6, res.Displacement, res.Overflow)
	if viol := CheckLegal(d, fp); len(viol) > 0 {
		t.Fatalf("%d violations, e.g. %v", len(viol), viol[0])
	}
	// Paper-scale sanity: total wirelength lands in the metres range
	// (paper: 6.3 m for the small 2D tile); accept a broad band.
	if res.HPWL < 0.5e6 || res.HPWL > 20e6 {
		t.Fatalf("HPWL %.2f m outside plausible band", res.HPWL/1e6)
	}
	// Legalization should not explode wirelength.
	if res.HPWL > 2.5*res.GlobalHPWL {
		t.Fatalf("legalization blew up HPWL: %.2f → %.2f", res.GlobalHPWL/1e6, res.HPWL/1e6)
	}
}

func TestLegalizeDeterministic(t *testing.T) {
	d1, fp1 := chainDesign(60)
	d2, fp2 := chainDesign(60)
	if _, err := Place(d1, fp1, 1.2, Options{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := Place(d2, fp2, 1.2, Options{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	for i := range d1.Instances {
		if d1.Instances[i].Loc != d2.Instances[i].Loc {
			t.Fatalf("instance %d placed differently across runs", i)
		}
	}
}

func TestPlaceFailsWhenNoRows(t *testing.T) {
	d, fp := chainDesign(10)
	// Block the whole die.
	fp.PlaceBlk = append(fp.PlaceBlk, floorplan.Blockage{Rect: fp.Die, Fraction: 1})
	if _, err := Place(d, fp, 1.2, Options{Seed: 1}); err == nil {
		t.Fatal("placement into fully blocked die succeeded")
	}
}

// TestPlaceStopsItsTeam: Place at Workers 4 stops its worker team on
// return, a failed legalization included.
func TestPlaceStopsItsTeam(t *testing.T) {
	base := runtime.NumGoroutine()
	d, fp := chainDesign(2 * parMinCells)
	if _, err := Place(d, fp, 1.2, Options{Seed: 1, Workers: 4, Iters: 8}); err != nil {
		t.Fatal(err)
	}
	d, fp = chainDesign(2 * parMinCells)
	fp.PlaceBlk = append(fp.PlaceBlk, floorplan.Blockage{Rect: fp.Die, Fraction: 1})
	if _, err := Place(d, fp, 1.2, Options{Seed: 1, Workers: 4, Iters: 8}); err == nil {
		t.Fatal("placement into fully blocked die succeeded")
	}
	if got := goroutinesBackTo(base); got > base {
		t.Fatalf("%d goroutines a second after Place, %d before", got, base)
	}
}

// goroutinesBackTo polls the goroutine count for up to a second until it
// is back to base, and returns the last count. A closed team's worker has
// signalled its exit a moment before it is gone from the count.
func goroutinesBackTo(base int) int {
	deadline := time.Now().Add(time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= base || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBuildSegments(t *testing.T) {
	fp := &floorplan.Floorplan{Die: geom.R(0, 0, 100, 12)}
	fp.PlaceBlk = append(fp.PlaceBlk, floorplan.Blockage{Rect: geom.R(40, 0, 60, 12), Fraction: 1})
	segs := buildRows(fp, 1.2).segs
	// 10 rows × 2 segments.
	if len(segs) != 20 {
		t.Fatalf("segments = %d, want 20", len(segs))
	}
	for i, s := range segs {
		if s.row != i/2 {
			t.Fatalf("segment %d is in row %d, want %d", i, s.row, i/2)
		}
		if s.x1 <= s.x0 {
			t.Fatal("empty segment emitted")
		}
		if s.x0 < 40 && s.x1 > 40 {
			t.Fatal("segment crosses blockage")
		}
	}
	// Partial blockages do not split rows.
	fp2 := &floorplan.Floorplan{Die: geom.R(0, 0, 100, 12)}
	fp2.PlaceBlk = append(fp2.PlaceBlk, floorplan.Blockage{Rect: geom.R(40, 0, 60, 12), Fraction: 0.5})
	m := buildRows(fp2, 1.2)
	if m.rows() != 10 {
		t.Fatalf("rows = %d, want 10", m.rows())
	}
	for r := 0; r < m.rows(); r++ {
		if n := len(m.row(r)); n != 1 {
			t.Fatalf("partial blockage split row %d: %d segments", r, n)
		}
	}
}

func TestEmptyDesign(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("empty", lib)
	fp := &floorplan.Floorplan{Die: geom.R(0, 0, 10, 10)}
	res, err := Place(d, fp, 1.2, Options{})
	if err != nil || res.HPWL != 0 {
		t.Fatalf("empty design: %v %v", res, err)
	}
}

func TestLegalizeBestEffortSpills(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("s", lib)
	// More cells than the die can hold.
	var cells []*netlist.Instance
	for i := 0; i < 200; i++ {
		c := d.AddInstance(instName(i), lib.MustCell("DFF_X4"))
		c.Loc = geom.Pt(1, 1)
		cells = append(cells, c)
	}
	fp := &floorplan.Floorplan{Die: geom.R(0, 0, 12, 12)}
	_, _, failed, err := LegalizeBestEffort(cells, fp, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) == 0 {
		t.Fatal("overfull die produced no spill")
	}
	if len(failed) == len(cells) {
		t.Fatal("nothing placed at all")
	}
	// Placed cells are legal among themselves.
	placed := map[int]bool{}
	for _, f := range failed {
		placed[f.ID] = true
	}
	var ok []*netlist.Instance
	for _, c := range cells {
		if !placed[c.ID] {
			ok = append(ok, c)
		}
	}
	for i := 0; i < len(ok); i++ {
		for j := i + 1; j < len(ok); j++ {
			if ok[i].Bounds().Expand(-1e-7).Intersects(ok[j].Bounds()) {
				t.Fatal("placed cells overlap")
			}
		}
	}
}

// TestSolveSweepAllocs: the seed's Jacobi sweeps run over the flat slot
// tables, so seeding allocates its two weight arrays and two pass
// closures — nothing per sweep, nothing per net. The by-object pin walk
// once built one slice per net per sweep: 500 nets × 4 sweeps = 2000
// objects here.
func TestSolveSweepAllocs(t *testing.T) {
	d, fp := chainDesign(500)
	opt := Options{}.withDefaults()
	st := newAnalyticState(d, movableCells(d), newBinGrid(fp.Die, opt.BinPitch, nil, maxFill), opt.BinPitch, new(par.Team))
	for _, sweeps := range []int{1, 4} {
		allocs := testing.AllocsPerRun(10, func() { st.seed(d, sweeps) })
		if allocs > 4 {
			t.Fatalf("seed with %d sweep(s) over %d nets allocates %.0f objects, want ≤ 4 (0 per sweep, 0 per net)",
				sweeps, len(d.Nets), allocs)
		}
	}
}

// TestSegmentSpliceInPlace walks occupy and release through every
// splice shape — split, trim either end, consume, insert between,
// merge one side, merge both — against the interval arithmetic written
// out by hand.
func TestSegmentSpliceInPlace(t *testing.T) {
	// One row, one segment, its list born with no room to grow: the
	// first split already moves it to a larger span of the arena.
	m := buildRows(&floorplan.Floorplan{Die: geom.R(0, 0, 100, 1.2)}, 1.2)
	m.open(make([]int32, len(m.segs)), 0)
	s := &m.segs[0]
	step := func(what string, want ...iv) {
		t.Helper()
		if !slices.Equal(s.free, want) {
			t.Fatalf("%s: free = %v, want %v", what, s.free, want)
		}
	}
	m.occupy(s, 40, 10)
	step("split", iv{0, 40}, iv{50, 100})
	m.occupy(s, 0, 5)
	step("trim left", iv{5, 40}, iv{50, 100})
	m.occupy(s, 90, 10)
	step("trim right", iv{5, 40}, iv{50, 90})
	m.occupy(s, 5, 35)
	step("consume", iv{50, 90})
	m.occupy(s, 60, 10)
	step("split again", iv{50, 60}, iv{70, 90})
	// A cell with occupied neighbours on both sides comes back as an
	// interval of its own, and the intervals after it stay what they
	// were (the copying release lost the next one here).
	m.release(s, 20, 10)
	step("insert before", iv{20, 30}, iv{50, 60}, iv{70, 90})
	m.release(s, 95, 5)
	step("append", iv{20, 30}, iv{50, 60}, iv{70, 90}, iv{95, 100})
	m.release(s, 30, 5)
	step("merge left", iv{20, 35}, iv{50, 60}, iv{70, 90}, iv{95, 100})
	m.release(s, 45, 5)
	step("merge right", iv{20, 35}, iv{45, 60}, iv{70, 90}, iv{95, 100})
	m.release(s, 60, 10)
	step("merge both", iv{20, 35}, iv{45, 90}, iv{95, 100})
}

// TestFreeSpaceUndo: a journaled bundle of claims and returns rolls
// back to exactly the map it started from, a committed one stays, and
// the journal is empty for the next bundle either way.
func TestFreeSpaceUndo(t *testing.T) {
	d, fp := chainDesign(40)
	if _, err := Place(d, fp, 1.2, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	fs := NewFreeSpace(d, fp, 1.2)
	var u Undo
	edit := func() {
		for i := 0; i < 10; i++ {
			inst := d.Instances[3*i]
			fs.Release(&u, inst.Die, inst.Bounds())
			if _, ok := fs.Alloc(&u, inst.Die, 2*inst.Master.Width, inst.Center()); !ok {
				t.Fatal("no space for a doubled cell")
			}
		}
	}
	edit()
	if fs.Equal(NewFreeSpace(d, fp, 1.2)) {
		t.Fatal("edits left the map unchanged — test is vacuous")
	}
	u.Rollback()
	if !fs.Equal(NewFreeSpace(d, fp, 1.2)) {
		t.Fatal("rollback did not restore the free space")
	}
	edit()
	kept := NewFreeSpace(d, fp, 1.2)
	for i, s := range fs.dies[netlist.LogicDie].segs {
		kept.dies[netlist.LogicDie].segs[i].free = slices.Clone(s.free)
	}
	u.Commit()
	u.Rollback() // nothing journaled: must not move anything
	if !fs.Equal(kept) {
		t.Fatal("commit did not keep the edits")
	}
}

// TestSortFuncKeepsSortSliceTies: the hot sort sites moved from
// sort.Slice to slices.SortFunc to lose the reflect swapper each call
// allocates. Several of their comparators are not total orders and their
// consumers depend on where ties fall, so the move is only bit-identical
// because both functions run the same generated pdqsort: on tie-heavy
// inputs of every size class of that algorithm (insertion sort below 12,
// ninther pivots, pattern breaking, heap sort) the two leave every
// element in the same place.
func TestSortFuncKeepsSortSliceTies(t *testing.T) {
	type item struct{ key, tag int }
	rng := geom.NewRNG(5)
	for _, n := range []int{2, 5, 11, 12, 13, 40, 51, 200, 1000, 5000} {
		for _, keys := range []int{1, 2, 3, n/4 + 1, n} {
			for _, shape := range []string{"random", "ascending", "descending", "sawtooth"} {
				in := make([]item, n)
				for i := range in {
					switch shape {
					case "random":
						in[i].key = rng.Intn(keys)
					case "ascending":
						in[i].key = i * keys / n
					case "descending":
						in[i].key = (n - 1 - i) * keys / n
					case "sawtooth":
						in[i].key = i % keys
					}
					in[i].tag = i
				}
				a, b := slices.Clone(in), slices.Clone(in)
				sort.Slice(a, func(i, j int) bool { return a[i].key < a[j].key })
				slices.SortFunc(b, func(p, q item) int { return cmp.Compare(p.key, q.key) })
				if !slices.Equal(a, b) {
					t.Fatalf("n=%d keys=%d %s: sort.Slice and slices.SortFunc leave ties in different places", n, keys, shape)
				}
			}
		}
	}
}
