package cts

import (
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/tech"
)

// gridDesign builds nFF flip-flops on a uniform grid with one clock
// net.
func gridDesign(nx, ny int, pitch float64) (*netlist.Design, *netlist.Net, geom.Point) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("grid", lib)
	clkPort := d.AddPort("clk", cell.DirIn)
	clkPort.Loc = geom.Pt(0, 0)
	var sinks []netlist.PinRef
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			ff := d.AddInstance(name(x, y), lib.MustCell("DFF_X1"))
			ff.Loc = geom.Pt(float64(x)*pitch, float64(y)*pitch)
			ff.Placed = true
			sinks = append(sinks, netlist.IPin(ff, "CK"))
		}
	}
	n := d.AddNet("clk", netlist.PPin(clkPort), sinks...)
	n.Clock = true
	return d, n, clkPort.Loc
}

func name(x, y int) string {
	return "ff_" + itoa(x) + "_" + itoa(y)
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

func beol(t *testing.T) *tech.BEOL {
	t.Helper()
	b, err := tech.NewBEOL28("clk", 6)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuildGrid(t *testing.T) {
	d, clk, src := gridDesign(16, 16, 50)
	tr := Build(d, clk, src, d.Lib, beol(t), Options{})
	if tr.Depth < 4 {
		t.Fatalf("depth = %d, implausibly shallow for 256 sinks", tr.Depth)
	}
	if tr.Buffers < 20 {
		t.Fatalf("buffers = %d", tr.Buffers)
	}
	if tr.Sinks != 256 {
		t.Fatalf("latencies for %d sinks, want 256", tr.Sinks)
	}
	if tr.MaxLatency <= 0 || tr.MinLatency <= 0 || tr.MaxLatency < tr.MinLatency {
		t.Fatalf("latency range [%v, %v]", tr.MinLatency, tr.MaxLatency)
	}
	if tr.Skew < 0 || tr.Skew != tr.MaxLatency-tr.MinLatency {
		t.Fatalf("skew = %v", tr.Skew)
	}
	// Balanced geometric tree: skew well under max latency.
	if tr.Skew > 0.6*tr.MaxLatency {
		t.Fatalf("skew %v vs latency %v: unbalanced", tr.Skew, tr.MaxLatency)
	}
	if tr.Wirelength <= 0 || tr.TotalCap() <= 0 {
		t.Fatal("no wire accounted")
	}
}

// TestRootDelayAccounted pins the once-discarded root return of the
// tree builder: RootDelay must carry the root buffer's stage delay —
// positive, and a lower bound on every sink latency (each path goes
// through the root buffer and only accumulates from there). The empty
// tree keeps it at zero.
func TestRootDelayAccounted(t *testing.T) {
	d, clk, src := gridDesign(16, 16, 50)
	tr := Build(d, clk, src, d.Lib, beol(t), Options{})
	if tr.RootDelay <= 0 {
		t.Fatalf("RootDelay = %v, want the root buffer's positive stage delay", tr.RootDelay)
	}
	if tr.RootDelay > tr.MinLatency {
		t.Fatalf("RootDelay %v exceeds MinLatency %v: every sink path includes the root stage",
			tr.RootDelay, tr.MinLatency)
	}
	for id, lat := range tr.Latency {
		if lat < tr.RootDelay {
			t.Fatalf("sink %d latency %v below RootDelay %v", id, lat, tr.RootDelay)
		}
	}
}

func TestDepthGrowsWithDieSize(t *testing.T) {
	// The paper's Table II observes deeper trees on bigger floorplans
	// (2D large: 20 vs 3D large: 16). Same sink count, scaled pitch.
	d1, c1, s1 := gridDesign(12, 12, 40)
	d2, c2, s2 := gridDesign(12, 12, 160)
	b := beol(t)
	t1 := Build(d1, c1, s1, d1.Lib, b, Options{})
	t2 := Build(d2, c2, s2, d2.Lib, b, Options{})
	if t2.Depth <= t1.Depth {
		t.Fatalf("depth did not grow with die size: %d vs %d", t1.Depth, t2.Depth)
	}
	if t2.MaxLatency <= t1.MaxLatency {
		t.Fatal("latency did not grow with die size")
	}
	if t2.Wirelength <= t1.Wirelength {
		t.Fatal("wirelength did not grow with die size")
	}
}

func TestLatencyMonotoneFromSource(t *testing.T) {
	d, clk, src := gridDesign(8, 8, 100)
	tr := Build(d, clk, src, d.Lib, beol(t), Options{})
	// The farthest sink should not be faster than the nearest sink.
	var nearLat, farLat float64
	for _, s := range clk.Sinks {
		lat := tr.LatencyOf(s.Inst.ID)
		dist := src.Manhattan(s.Loc())
		if dist < 50 {
			nearLat = lat
		}
		if dist > 1200 {
			farLat = lat
		}
	}
	if nearLat == 0 || farLat == 0 {
		t.Skip("grid points not found")
	}
	if farLat < nearLat {
		t.Fatalf("far sink faster than near sink: %v < %v", farLat, nearLat)
	}
}

func TestEmptyClock(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("e", lib)
	p := d.AddPort("clk", cell.DirIn)
	n := d.AddNet("clk", netlist.PPin(p))
	n.Clock = true
	tr := Build(d, n, geom.Pt(0, 0), lib, beol(t), Options{})
	if tr.Depth != 0 || tr.Buffers != 0 || tr.Sinks != 0 || tr.LatencyOf(0) != 0 {
		t.Fatalf("empty clock produced %+v", tr)
	}
}

func TestPitonTileTreeDepthBand(t *testing.T) {
	if testing.Short() {
		t.Skip("tile CTS in -short mode")
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
	if _, err := place.Place(d, fp, 1.2, place.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	tr := Build(d, d.Net("clk"), d.Port("clk_i").Loc, d.Lib, beol(t), Options{})
	t.Logf("tile tree: depth %d, %d buffers, %.2f mm wire, skew %.0f ps, latency %.0f ps",
		tr.Depth, tr.Buffers, tr.Wirelength/1e3, tr.Skew, tr.MaxLatency)
	// Paper band for 2D trees: depth 13 (small) to 20 (large). Accept
	// a generous band around it.
	if tr.Depth < 8 || tr.Depth > 26 {
		t.Fatalf("tree depth %d outside plausible band", tr.Depth)
	}
	if tr.Skew > 0.5*tr.MaxLatency {
		t.Fatalf("unbalanced tree: skew %v latency %v", tr.Skew, tr.MaxLatency)
	}
}

func TestSkewBalancing(t *testing.T) {
	d, clk, src := gridDesign(12, 12, 120)
	b := beol(t)
	balanced := Build(d, clk, src, d.Lib, b, Options{})
	raw := Build(d, clk, src, d.Lib, b, Options{NoSkewBalance: true})
	// Balancing caps skew at the residual.
	if balanced.Skew > 25+1e-9 {
		t.Fatalf("balanced skew = %v", balanced.Skew)
	}
	if raw.Skew <= balanced.Skew {
		t.Fatalf("raw tree (%v) not worse than balanced (%v)", raw.Skew, balanced.Skew)
	}
	// Balancing only delays sinks (pads), never speeds them up, and
	// the max latency is unchanged.
	if balanced.MaxLatency != raw.MaxLatency {
		t.Fatalf("max latency changed by balancing: %v vs %v", balanced.MaxLatency, raw.MaxLatency)
	}
	for id, l := range balanced.Latency {
		if l < raw.Latency[id]-1e-9 {
			t.Fatalf("sink %d sped up by balancing", id)
		}
	}
	// Structure metrics unaffected.
	if balanced.Depth != raw.Depth || balanced.Buffers != raw.Buffers {
		t.Fatal("balancing changed tree structure metrics")
	}
}

// TestResidualSkewOption: balancing leaves the residual skew, 25 ps, of
// a tree whose raw skew exceeds it, and the raw skew of one that does not.
func TestResidualSkewOption(t *testing.T) {
	b := beol(t)
	for _, pitch := range []float64{150, 5} {
		d, clk, src := gridDesign(10, 10, pitch)
		raw := Build(d, clk, src, d.Lib, b, Options{NoSkewBalance: true})
		balanced := Build(d, clk, src, d.Lib, b, Options{})
		if want := min(raw.Skew, residualSkew); balanced.Skew != want {
			t.Errorf("pitch %g µm: balanced skew %v ps, want min(raw %v, residual %v)", pitch, balanced.Skew, raw.Skew, residualSkew)
		}
	}
}

func TestTotalCap(t *testing.T) {
	d, clk, src := gridDesign(6, 6, 80)
	tr := Build(d, clk, src, d.Lib, beol(t), Options{})
	if tr.TotalCap() != tr.WireCap+tr.PinCap {
		t.Fatal("TotalCap inconsistent")
	}
	if tr.TotalCap() <= 0 {
		t.Fatal("no capacitance accounted")
	}
}
