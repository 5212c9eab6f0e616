package partition

import (
	"math"
	"slices"
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/place"
)

// clusters builds two tightly connected clusters joined by a few nets:
// min-cut should keep clusters intact.
func clusters(t *testing.T) *netlist.Design {
	t.Helper()
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("cl", lib)
	mk := func(prefix string, n int) []*netlist.Instance {
		out := make([]*netlist.Instance, n)
		for i := range out {
			out[i] = d.AddInstance(prefix+itoa(i), lib.MustCell("INV_X1"))
		}
		return out
	}
	a := mk("a", 40)
	b := mk("b", 40)
	wire := func(xs []*netlist.Instance, prefix string) {
		for i := 0; i+1 < len(xs); i++ {
			d.AddNet(prefix+itoa(i), netlist.IPin(xs[i], "Y"), netlist.IPin(xs[i+1], "A"))
		}
	}
	wire(a, "na")
	wire(b, "nb")
	// Two bridge nets.
	d.AddNet("bridge0", netlist.IPin(a[39], "Y"), netlist.IPin(b[0], "A"))
	d.AddNet("bridge1", netlist.IPin(b[39], "Y"), netlist.IPin(a[0], "A"))
	return d
}

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

func TestTierPartitionClusters(t *testing.T) {
	d := clusters(t)
	res, err := TierPartition(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Ideal cut is 2 (the bridges); allow small slack.
	if res.CutNets > 6 {
		t.Fatalf("cut = %d, expected near-minimal (2)", res.CutNets)
	}
	// Balance: both sides hold roughly half the area.
	total := res.AreaLogic + res.AreaMacro
	if math.Abs(res.AreaLogic-total/2) > total*0.15 {
		t.Fatalf("unbalanced: %v vs %v", res.AreaLogic, res.AreaMacro)
	}
}

func TestTierPartitionTile(t *testing.T) {
	tile, err := piton.Generate(piton.SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	sz, err := floorplan.SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	// MoL macro floorplan (macros → macro die), then partition cells.
	if _, err := floorplan.PlaceMacros(d, sz.Die3D, floorplan.StyleMoL); err != nil {
		t.Fatal(err)
	}
	res, err := TierPartition(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tile partition: cut %d nets, areas %.3f / %.3f mm², %d moves",
		res.CutNets, res.AreaLogic/1e6, res.AreaMacro/1e6, res.Moves)
	if res.CutNets == 0 {
		t.Fatal("no cut nets on a balanced bipartition")
	}
	total := res.AreaLogic + res.AreaMacro
	if res.AreaLogic < total*0.38 || res.AreaLogic > total*0.62 {
		t.Fatalf("area balance broken: %.1f%%", 100*res.AreaLogic/total)
	}
	// Macros untouched.
	for _, m := range d.Macros() {
		if m.Die != netlist.MacroDie {
			t.Fatal("partition moved a macro")
		}
	}
}

func TestCountCutNets(t *testing.T) {
	d := clusters(t)
	for i, c := range d.StdCells() {
		if i%2 == 0 {
			c.Die = netlist.LogicDie
		} else {
			c.Die = netlist.MacroDie
		}
	}
	// Alternating assignment cuts every chain net.
	if got := CountCutNets(d); got < 70 {
		t.Fatalf("alternating cut = %d, expected ~80", got)
	}
	for _, c := range d.StdCells() {
		c.Die = netlist.LogicDie
	}
	if got := CountCutNets(d); got != 0 {
		t.Fatalf("single-die cut = %d", got)
	}
}

func TestLegalizeTiersDisplacesOverlaps(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("ov", lib)
	sram, err := cell.NewSRAM(cell.SRAMSpec{Name: "m", Words: 8192, Bits: 32})
	if err != nil {
		t.Fatal(err)
	}
	mem := d.AddInstance("mem", sram)
	mem.Loc = geom.Pt(50, 50)
	mem.Die = netlist.MacroDie
	mem.Fixed, mem.Placed = true, true

	die := geom.R(0, 0, 600, 600)
	// Cells placed ON the macro area, assigned to the macro die — the
	// post-partition overlap scenario.
	var onMacro []*netlist.Instance
	for i := 0; i < 30; i++ {
		c := d.AddInstance("c"+itoa(i), lib.MustCell("NAND2_X1"))
		c.Loc = geom.Pt(60+float64(i%6)*10, 60+float64(i/6)*10)
		c.Die = netlist.MacroDie
		c.Placed = true
		onMacro = append(onMacro, c)
	}
	leg, err := LegalizeTiers(d, die, 1.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if leg.Displaced == 0 {
		t.Fatal("no cells displaced despite macro overlap")
	}
	// Every cell now clear of the macro.
	mb := mem.Bounds()
	for _, c := range onMacro {
		if mb.Expand(-1e-7).Intersects(c.Bounds()) {
			t.Fatalf("%s still on macro after tier legalization", c.Name)
		}
	}
	// Displacement is substantial: at least out of the macro.
	if leg.MaxDisp < 50 {
		t.Fatalf("max displacement %v µm, expected macro-scale", leg.MaxDisp)
	}
	_ = place.CheckLegal // silence import when assertions change
}

// TestLegalizeTiersSpillToLogicDie pins the spill path end to end: when
// the macro die has no room at all (a macro covering the whole die),
// every macro-die cell must spill, change dies, be picked up by the
// logic-die pass (the consistency check on the once-discarded spill
// list), legalize there, and be counted in Spilled and the displacement
// stats.
func TestLegalizeTiersSpillToLogicDie(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("spill", lib)
	sram, err := cell.NewSRAM(cell.SRAMSpec{Name: "m", Words: 8192, Bits: 32})
	if err != nil {
		t.Fatal(err)
	}
	mem := d.AddInstance("mem", sram)
	mem.Loc = geom.Pt(0, 0)
	mem.Die = netlist.MacroDie
	mem.Fixed, mem.Placed = true, true
	// The macro covers the die bar a 1.2 µm strip: wide enough that
	// placement rows exist on the macro die, too narrow for a DFF
	// (1.52 µm) — so every cell fails there and must spill.
	die := geom.R(0, 0, sram.Width+1.2, sram.Height)

	var cells []*netlist.Instance
	for i := 0; i < 12; i++ {
		c := d.AddInstance("s"+itoa(i), lib.MustCell("DFF_X1"))
		c.Loc = geom.Pt(5+float64(i)*2, 5)
		c.Die = netlist.MacroDie
		c.Placed = true
		cells = append(cells, c)
	}
	leg, err := LegalizeTiers(d, die, 1.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if leg.Spilled != len(cells) {
		t.Fatalf("Spilled = %d, want all %d cells", leg.Spilled, len(cells))
	}
	for _, c := range cells {
		if c.Die != netlist.LogicDie {
			t.Fatalf("%s still on the macro die after spilling", c.Name)
		}
	}
	if leg.MeanDisp <= 0 || leg.MaxDisp <= 0 {
		t.Fatalf("spilled cells not accounted in displacement: mean %v max %v",
			leg.MeanDisp, leg.MaxDisp)
	}
}

// TestBinBalance: one bin of 100 equal cells, all on the logic die, is
// balanced to within the 30 % tolerance. Then, in two bins of mixed
// masters where INV_X1 and INV_X2 share one area, it pins which cells
// flip, by name: the area sort is not stable, so the cells it flips
// among equal areas depend on the order the bin hands it — StdCells
// order within the bin.
func TestBinBalance(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("bb", lib)
	die := geom.R(0, 0, 100, 100)
	// 100 cells clustered in one bin, all on the logic die.
	for i := 0; i < 100; i++ {
		c := d.AddInstance("c"+itoa(i), lib.MustCell("INV_X1"))
		c.Loc = geom.Pt(10+float64(i%10)*0.5, 10+float64(i/10)*0.5)
		c.Die = netlist.LogicDie
	}
	flips := BinBalance(d, die, 40)
	if flips == 0 {
		t.Fatal("no flips despite total imbalance")
	}
	a, b := 0, 0
	for _, c := range d.StdCells() {
		if c.Die == netlist.LogicDie {
			a++
		} else {
			b++
		}
	}
	// Within the 30% tolerance of the bin total.
	if a < 30 || b < 30 {
		t.Fatalf("bin not balanced: %d/%d", a, b)
	}

	// Two bins of mixed masters, a seventh of the cells on the macro die.
	d = netlist.NewDesign("ties", lib)
	masters := []string{"NAND2_X1", "INV_X1", "INV_X2", "INV_X1", "NAND2_X1"}
	if a, b := lib.MustCell("INV_X1").Area(), lib.MustCell("INV_X2").Area(); a != b {
		t.Fatalf("INV_X1 and INV_X2 areas %v and %v: the fixture needs a tie", a, b)
	}
	for i := 0; i < 100; i++ {
		c := d.AddInstance("c"+itoa(i), lib.MustCell(masters[i%len(masters)]))
		x := 10 + float64(i%10)*0.5
		if i%3 == 0 {
			x += 40 // the second bin
		}
		c.Loc = geom.Pt(x, 10+float64(i/10)*0.5)
		c.Die = netlist.LogicDie
		if i%7 == 0 {
			c.Die = netlist.MacroDie
		}
	}
	flips = BinBalance(d, die, 40)
	var got []string
	for i, c := range d.StdCells() {
		if (c.Die == netlist.MacroDie) != (i%7 == 0) {
			got = append(got, c.Name)
		}
	}
	want := strings.Fields("c6 c8 c11 c12 c13 c16 c17 c18 c22 c23 c26 c27 c51 c62 c72 c73 c82 c83 c86 c87 c88 c92 c93 c96 c97")
	if flips != len(want) || !slices.Equal(got, want) {
		t.Fatalf("%d flips %v, want %v", flips, got, want)
	}
}

func TestBinBalanceAlreadyBalanced(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("bb2", lib)
	for i := 0; i < 40; i++ {
		c := d.AddInstance("c"+itoa(i), lib.MustCell("INV_X1"))
		c.Loc = geom.Pt(5, 5)
		if i%2 == 0 {
			c.Die = netlist.LogicDie
		} else {
			c.Die = netlist.MacroDie
		}
	}
	if flips := BinBalance(d, geom.R(0, 0, 50, 50), 25); flips != 0 {
		t.Fatalf("balanced bin flipped %d cells", flips)
	}
}

// pseudoPlaced is the small tile as phase B of the pseudo-3D flows
// receives it: macros floorplanned on the 3D footprint in the balanced
// style (half of them on each die), standard cells placed over the
// whole die as if no macro were there — so the tier legalization has
// real overlaps to fix.
func pseudoPlaced(tb testing.TB) (*netlist.Design, geom.Rect) {
	tb.Helper()
	tile, err := piton.Generate(piton.SmallCache())
	if err != nil {
		tb.Fatal(err)
	}
	d := tile.Design
	sz, err := floorplan.SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := floorplan.PlaceMacros(d, sz.Die3D, floorplan.StyleBalanced); err != nil {
		tb.Fatal(err)
	}
	if _, err := place.Place(d, &floorplan.Floorplan{Die: sz.Die3D}, 1.2, place.Options{Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	return d, sz.Die3D
}

// placement is every instance's location, orientation and die, to put a
// design back where a phase-B call found it.
type placement struct {
	loc    []geom.Point
	orient []geom.Orient
	die    []netlist.Die
}

func snapshot(d *netlist.Design) *placement {
	p := &placement{}
	for _, c := range d.Instances {
		p.loc = append(p.loc, c.Loc)
		p.orient = append(p.orient, c.Orient)
		p.die = append(p.die, c.Die)
	}
	return p
}

func (p *placement) restore(d *netlist.Design) {
	for i, c := range d.Instances {
		c.Loc, c.Orient, c.Die = p.loc[i], p.orient[i], p.die[i]
	}
}

// TestPhaseBAllocs holds BinBalance plus LegalizeTiers on the small
// tile to a constant object count whatever the bin count: the bins are
// windows of one counting-sorted array, the tier passes share one
// location table and one cell buffer, and each legalization's row map is
// a handful of arrays sized from its cells' target segments. What varies
// from one pitch to the next is the legalizer's overflow slab — a few
// chunks, set by where the displaced cells land — so the test bounds the
// count; a per-bin object would put thousands on the 5 µm grid.
func TestPhaseBAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("places the small tile")
	}
	d, die := pseudoPlaced(t)
	if _, err := TierPartition(d, 1); err != nil {
		t.Fatal(err)
	}
	start := snapshot(d)
	counts := map[float64]float64{}
	for _, pitch := range []float64{160, 40, 10, 5} {
		counts[pitch] = testing.AllocsPerRun(3, func() {
			start.restore(d)
			BinBalance(d, die, pitch)
			if _, err := LegalizeTiers(d, die, 1.2, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("objects per BinBalance + LegalizeTiers by bin pitch (µm): %v", counts)
	for pitch, n := range counts {
		if n > 48 {
			t.Fatalf("BinBalance + LegalizeTiers allocate %v objects at bin pitch %v µm, want ≤ 48 at every pitch: %v", n, pitch, counts)
		}
	}
}

// BenchmarkPartitionTiers is phase B's partition stage on the small
// tile: the tier split, the per-bin balance and the per-die
// legalization, from the same pseudo placement every iteration.
func BenchmarkPartitionTiers(b *testing.B) {
	d, die := pseudoPlaced(b)
	start := snapshot(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start.restore(d)
		if _, err := TierPartition(d, 1); err != nil {
			b.Fatal(err)
		}
		BinBalance(d, die, 40)
		if _, err := LegalizeTiers(d, die, 1.2, nil); err != nil {
			b.Fatal(err)
		}
	}
}
