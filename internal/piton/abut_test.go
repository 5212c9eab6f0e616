package piton_test

import (
	"strings"
	"testing"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/piton"
)

// placedTinyTile returns a floorplanned tiny tile and its die.
func placedTinyTile(t *testing.T) (*piton.Tile, geom.Rect) {
	t.Helper()
	tile, err := piton.Generate(piton.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	sz, err := floorplan.SizeDesign(tile.Design, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := floorplan.PlaceMacros(tile.Design, sz.Die2D, floorplan.Style2D); err != nil {
		t.Fatal(err)
	}
	floorplan.AssignPorts(tile, sz.Die2D)
	return tile, sz.Die2D
}

func TestAbut2x2Structure(t *testing.T) {
	tile, die := placedTinyTile(t)
	src := tile.Design
	arr, arrayDie, err := piton.Abut(tile, die, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 copies of every instance, laid out copy after copy in row-major
	// order under their tile tag (the names are cut from shared chunks).
	if len(arr.Instances) != 4*len(src.Instances) {
		t.Fatalf("instances %d, want %d", len(arr.Instances), 4*len(src.Instances))
	}
	for c, tag := range []string{"t0_0_", "t1_0_", "t0_1_", "t1_1_"} {
		for _, inst := range src.Instances {
			got := arr.Instances[c*len(src.Instances)+inst.ID]
			if got.Name != tag+inst.Name || got.Master != inst.Master || arr.Instance(tag+inst.Name) != got {
				t.Fatalf("copy %d of %s is %s", c, inst.Name, got.Name)
			}
		}
	}
	for _, n := range arr.Nets {
		if !n.Clock && (!strings.HasPrefix(n.Name, "t") || src.Net(n.Name[len("t0_0_"):]) == nil) {
			t.Fatalf("array net %q is not a tagged tile net", n.Name)
		}
	}
	// Array die covers 2×2 tiles.
	if arrayDie.W() != 2*die.W() || arrayDie.H() != 2*die.H() {
		t.Fatalf("array die %v", arrayDie)
	}
	// Interior NoC connections became instance-to-instance nets: the
	// abutted design has fewer ports than 4× the tile (interior edges
	// matched away) and exactly the boundary count.
	srcGrouped := 0
	for _, g := range tile.Groups {
		srcGrouped += len(g.Names)
	}
	// For a 2x2 array, half of all grouped ports face inward.
	wantGrouped := 4*srcGrouped - 2*srcGrouped
	gotGrouped := 0
	for _, p := range arr.Ports {
		if strings.Contains(p.Name, "_noc") || strings.Contains(p.Name[3:], "noc") {
			gotGrouped++
		}
	}
	if gotGrouped != wantGrouped {
		t.Fatalf("boundary NoC ports = %d, want %d", gotGrouped, wantGrouped)
	}
	// One merged clock reaching all sequentials.
	clk := arr.Net("clk")
	if clk == nil || !clk.Clock {
		t.Fatal("no merged clock")
	}
	seq := 0
	for _, inst := range arr.Instances {
		if inst.Master.IsSequential() {
			seq++
		}
	}
	if len(clk.Sinks) != seq {
		t.Fatalf("clock sinks %d, want %d", len(clk.Sinks), seq)
	}
}

func TestAbutInteriorConnectivity(t *testing.T) {
	tile, die := placedTinyTile(t)
	arr, _, err := piton.Abut(tile, die, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Tile (0,0)'s north-out net must now sink at tile (0,1)'s
	// south-in register.
	found := false
	for _, n := range arr.Nets {
		if n.Driver.Inst == nil || !strings.HasPrefix(n.Driver.Inst.Name, "t0_0_u_noc0_N_out_ff") {
			continue
		}
		for _, s := range n.Sinks {
			if s.Inst != nil && strings.HasPrefix(s.Inst.Name, "t0_1_u_noc0_S_in_ff") {
				found = true
			}
			if s.Port != nil {
				t.Fatalf("interior connection still has a port: %v", s.Port.Name)
			}
		}
	}
	if !found {
		t.Fatal("no north→south stitched net found")
	}
	// Boundary ports survive: tile (0,0)'s south inputs are array
	// ports.
	if arr.Port("t0_0_noc0_S_in_0") == nil {
		t.Fatal("boundary port missing")
	}
	// Interior ports are gone.
	if arr.Port("t0_0_noc0_N_out_0") != nil {
		t.Fatal("interior port still present")
	}
}

func TestAbutGeometryOffsets(t *testing.T) {
	tile, die := placedTinyTile(t)
	arr, _, err := piton.Abut(tile, die, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := tile.Design
	ref := src.Macros()[0]
	right := arr.Instance("t1_0_" + ref.Name)
	left := arr.Instance("t0_0_" + ref.Name)
	if right == nil || left == nil {
		t.Fatal("copies missing")
	}
	d := right.Loc.Sub(left.Loc)
	if d.X != die.W() || d.Y != 0 {
		t.Fatalf("offset %v, want (%v, 0)", d, die.W())
	}
	// Abutting pins coincide: t0_0's east-out port location equals
	// t1_0's west-in location (name derived by edge flip).
	for _, p := range src.Ports {
		if !strings.Contains(p.Name, "_E_out_") {
			continue
		}
		partner := strings.Replace(p.Name, "_E_out_", "_W_in_", 1)
		q := src.Port(partner)
		if q == nil {
			t.Fatalf("missing partner %s", partner)
		}
		a := p.Loc
		b := q.Loc.Add(geom.Pt(die.W(), 0))
		if a.Dist(b) > 1e-6 {
			t.Fatalf("abutting pins %s/%s apart by %v", p.Name, partner, a.Dist(b))
		}
		break
	}
}

func TestAbutRejectsUnplaced(t *testing.T) {
	tile, err := piton.Generate(piton.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := piton.Abut(tile, geom.R(0, 0, 100, 100), 2, 2); err == nil {
		t.Fatal("unfloorplanned tile accepted")
	}
	placed, die := placedTinyTile(t)
	if _, _, err := piton.Abut(placed, die, 0, 2); err == nil {
		t.Fatal("zero dimension accepted")
	}
}

func TestAbutSingleIsIsomorphic(t *testing.T) {
	tile, die := placedTinyTile(t)
	arr, _, err := piton.Abut(tile, die, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := tile.Design
	if len(arr.Instances) != len(src.Instances) {
		t.Fatal("1x1 array changed instance count")
	}
	if len(arr.Ports) != len(src.Ports) {
		t.Fatalf("1x1 array ports %d vs %d", len(arr.Ports), len(src.Ports))
	}
	sa, sb := arr.ComputeStats(), src.ComputeStats()
	if sa.NumNets != sb.NumNets {
		t.Fatalf("1x1 nets %d vs %d", sa.NumNets, sb.NumNets)
	}
}

// TestAbutArrayTables: the tables AbutArray hands back say what the
// names say — copy c of a tile net is the array net named tag+name, the
// clock and its port are the "clk" / "clk_i" records — and a tile net
// without an array net is a clock or faces a neighbour, by the tile's
// port groups.
func TestAbutArrayTables(t *testing.T) {
	tile, die := placedTinyTile(t)
	src := tile.Design
	a, err := piton.AbutArray(tile, die, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Nx != 3 || a.Ny != 2 || a.Die.W() != 3*die.W() || a.Die.H() != 2*die.H() {
		t.Fatalf("array %d×%d on %v", a.Nx, a.Ny, a.Die)
	}
	arr := a.Design
	if a.Clock != arr.Net("clk") || a.ClockPort != arr.Port("clk_i") || !a.Clock.Clock || a.Clock.Driver.Port != a.ClockPort {
		t.Fatal("Clock / ClockPort are not the array's clk net and clk_i port")
	}
	absorbed, stitched := 0, 0
	for iy := 0; iy < 2; iy++ {
		for ix := 0; ix < 3; ix++ {
			c, tag := iy*3+ix, "t"+string(rune('0'+ix))+"_"+string(rune('0'+iy))+"_"
			for _, n := range src.Nets {
				got := a.Net(c, n)
				if got != arr.Net(tag+n.Name) {
					t.Fatalf("copy %d of net %s: table and name disagree", c, n.Name)
				}
				switch {
				case got != nil && a.Stitched(c, n):
					stitched++ // the driving side of a stitch keeps its net
				case got == nil && !n.Clock && !a.Stitched(c, n):
					t.Fatalf("copy %d of net %s has no array net and no reason not to", c, n.Name)
				case got == nil && !n.Clock:
					absorbed++
				}
			}
			for _, p := range src.Ports {
				// A port that faces a neighbour is stitched away; any other
				// port some net touches became an array port.
				if q := arr.Port(tag + p.Name); a.FacesNeighbor(c, p) && q != nil {
					t.Fatalf("copy %d: port %s faces a neighbour but became array port %s", c, p.Name, q.Name)
				}
			}
		}
	}
	if absorbed == 0 || stitched == 0 {
		t.Fatalf("%d absorbed, %d stitched nets: the 3×2 array exercised neither", absorbed, stitched)
	}
	// The wrapper returns the same design.
	d2, die2, err := piton.Abut(tile, die, 3, 2)
	if err != nil || die2 != a.Die || len(d2.Nets) != len(arr.Nets) || len(d2.Ports) != len(arr.Ports) {
		t.Fatalf("Abut and AbutArray disagree: %v", err)
	}
}
