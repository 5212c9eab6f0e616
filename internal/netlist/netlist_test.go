package netlist

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
)

func testLib() *cell.Library { return cell.NewStdLib28(cell.DefaultLibOptions()) }

// tiny builds inv -> dff with a clock port and a data input port.
func tiny(t *testing.T) *Design {
	t.Helper()
	lib := testLib()
	d := NewDesign("tiny", lib)
	in := d.AddPort("din", cell.DirIn)
	clk := d.AddPort("clk", cell.DirIn)
	out := d.AddPort("dout", cell.DirOut)
	u1 := d.AddInstance("u1", lib.MustCell("INV_X1"))
	ff := d.AddInstance("ff", lib.MustCell("DFF_X1"))
	d.AddNet("n_in", PPin(in), IPin(u1, "A"))
	d.AddNet("n_mid", IPin(u1, "Y"), IPin(ff, "D"))
	n := d.AddNet("clk", PPin(clk), IPin(ff, "CK"))
	n.Clock = true
	d.AddNet("n_out", IPin(ff, "Q"), PPin(out))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildAndLookup(t *testing.T) {
	d := tiny(t)
	if d.Instance("u1") == nil || d.Instance("zz") != nil {
		t.Fatal("instance lookup wrong")
	}
	if d.Net("n_mid") == nil || d.Net("zz") != nil {
		t.Fatal("net lookup wrong")
	}
	if d.Port("clk") == nil || d.Port("zz") != nil {
		t.Fatal("port lookup wrong")
	}
	if len(d.Instances) != 2 || len(d.Nets) != 4 || len(d.Ports) != 3 {
		t.Fatal("counts wrong")
	}
	if d.Instances[0].ID != 0 || d.Instances[1].ID != 1 {
		t.Fatal("instance IDs not sequential")
	}
}

func TestDuplicatePanics(t *testing.T) {
	d := tiny(t)
	for name, f := range map[string]func(){
		"instance": func() { d.AddInstance("u1", testLib().MustCell("INV_X1")) },
		"net":      func() { d.AddNet("n_in", PPin(d.Ports[0])) },
		"port":     func() { d.AddPort("clk", cell.DirIn) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate %s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPinLocWithOrientation(t *testing.T) {
	d := tiny(t)
	u1 := d.Instance("u1")
	u1.Loc = geom.Pt(10, 20)
	pin := u1.Master.Pin("A")
	want := geom.Pt(10, 20).Add(pin.Offset)
	if got := u1.PinLoc("A"); got != want {
		t.Fatalf("PinLoc N = %v, want %v", got, want)
	}
	u1.Orient = geom.OrientFN
	got := u1.PinLoc("A")
	wantX := 10 + (u1.Master.Width - pin.Offset.X)
	if got.X != wantX || got.Y != 20+pin.Offset.Y {
		t.Fatalf("PinLoc FN = %v", got)
	}
}

func TestPinLocUnknownPanics(t *testing.T) {
	d := tiny(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown pin did not panic")
		}
	}()
	d.Instance("u1").PinLoc("NOPE")
}

// TestPinRefByIndex: a pin reference names its pin by its position on
// the master — 24 bytes instead of a name's 32, so a Net is 88 — and
// gives the name back; a name the master lacks is an error from
// LookupPin and a panic from IPin.
func TestPinRefByIndex(t *testing.T) {
	if n := unsafe.Sizeof(PinRef{}); n != 24 {
		t.Errorf("PinRef is %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(Net{}); n != 88 {
		t.Errorf("Net is %d bytes, want 88", n)
	}
	d := tiny(t)
	ff := d.Instance("ff")
	r := IPin(ff, "D")
	if r.Pin() != "D" || r.MasterPin() != ff.Master.Pin("D") || r.PinIndex() != ff.Master.PinIndex("D") || r.String() != "ff/D" {
		t.Fatalf("IPin(ff, D) reads %s, pin %d", r, r.PinIndex())
	}
	if r.Loc() != ff.PinLoc("D") || r.Cap() != ff.Master.Pin("D").Cap || r.Layer() != ff.Master.Pin("D").Layer {
		t.Fatal("the reference's location, load or layer is not its pin's")
	}
	if _, err := LookupPin(ff, "NOPE"); err == nil || !strings.Contains(err.Error(), `instance "ff" has no pin "NOPE"`) {
		t.Fatalf("LookupPin of a missing pin: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("IPin of a missing pin did not panic")
		}
	}()
	IPin(ff, "NOPE")
}

func TestNetHPWL(t *testing.T) {
	d := tiny(t)
	u1 := d.Instance("u1")
	ff := d.Instance("ff")
	u1.Loc = geom.Pt(0, 0)
	ff.Loc = geom.Pt(100, 50)
	n := d.Net("n_mid")
	h := n.HPWL()
	if h <= 100 || h >= 200 {
		t.Fatalf("HPWL = %v, expected ~150", h)
	}
	// The running bounding box equals the slice-based reference exactly.
	var pts []geom.Point
	for i := 0; i < n.NumPins(); i++ {
		pts = append(pts, n.PinAt(i).Loc())
	}
	if ref := geom.HPWL(pts); h != ref {
		t.Fatalf("HPWL = %v, geom.HPWL of the pin locations = %v", h, ref)
	}
	if d.TotalHPWL() < h {
		t.Fatal("TotalHPWL less than one net")
	}
}

func TestValidateCatchesBadNets(t *testing.T) {
	lib := testLib()
	d := NewDesign("bad", lib)
	u1 := d.AddInstance("u1", lib.MustCell("INV_X1"))
	u2 := d.AddInstance("u2", lib.MustCell("INV_X1"))
	// Driver at an input pin: invalid.
	d.AddNet("n1", IPin(u1, "A"), IPin(u2, "A"))
	if err := d.Validate(); err == nil {
		t.Fatal("input-pin driver accepted")
	}

	d2 := NewDesign("bad2", lib)
	v1 := d2.AddInstance("u1", lib.MustCell("INV_X1"))
	v2 := d2.AddInstance("u2", lib.MustCell("INV_X1"))
	// Sink at an output pin: invalid.
	d2.AddNet("n1", IPin(v1, "Y"), IPin(v2, "Y"))
	if err := d2.Validate(); err == nil {
		t.Fatal("output-pin sink accepted")
	}

	d3 := NewDesign("bad3", lib)
	w1 := d3.AddInstance("u1", lib.MustCell("INV_X1"))
	w2 := d3.AddInstance("u2", lib.MustCell("INV_X1"))
	d3.AddNet("n1", IPin(w1, "Y"), IPin(w2, "A"))
	d3.AddNet("n2", IPin(w2, "Y"), IPin(w2, "A")) // same sink twice
	if err := d3.Validate(); err == nil || !strings.Contains(err.Error(), `pin u2/A driven by both "n1" and "n2"`) {
		t.Fatalf("doubly-driven pin: %v", err)
	}

	// A pin of another design's instance: invalid (w1 has u1's id).
	d5 := NewDesign("bad5", lib)
	x1 := d5.AddInstance("u1", lib.MustCell("INV_X1"))
	d5.AddNet("n1", IPin(x1, "Y"), IPin(w1, "A"))
	if err := d5.Validate(); err == nil {
		t.Fatal("sink at a foreign instance accepted")
	}

	d4 := NewDesign("bad4", lib)
	d4.AddNet("n1", PinRef{})
	if err := d4.Validate(); err == nil {
		t.Fatal("driverless net accepted")
	}
}

func TestValidatePortDirections(t *testing.T) {
	lib := testLib()
	d := NewDesign("p", lib)
	out := d.AddPort("o", cell.DirOut)
	u := d.AddInstance("u", lib.MustCell("INV_X1"))
	// Output port cannot drive.
	d.AddNet("n", PPin(out), IPin(u, "A"))
	if err := d.Validate(); err == nil {
		t.Fatal("output port as driver accepted")
	}
}

func TestComputeStats(t *testing.T) {
	lib := testLib()
	d := NewDesign("s", lib)
	sram, err := cell.NewSRAM(cell.SRAMSpec{Name: "m", Words: 1024, Bits: 32})
	if err != nil {
		t.Fatal(err)
	}
	d.AddInstance("mem", sram)
	d.AddInstance("u1", lib.MustCell("INV_X2"))
	d.AddInstance("ff", lib.MustCell("DFF_X1"))
	d.AddInstance("fill", lib.MustCell("FILL_X1"))
	st := d.ComputeStats()
	if st.NumInstances != 4 || st.NumMacros != 1 || st.NumStdCells != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.NumSeq != 2 { // DFF + clocked SRAM
		t.Fatalf("NumSeq = %d", st.NumSeq)
	}
	if st.MacroArea <= st.StdCellArea {
		t.Fatal("macro area should dominate")
	}
}

func TestNetsOfInstance(t *testing.T) {
	d := tiny(t)
	adj := d.NetsOfInstance()
	u1 := d.Instance("u1")
	if len(adj.Of(u1.ID)) != 2 {
		t.Fatalf("u1 net degree = %d", len(adj.Of(u1.ID)))
	}
	ff := d.Instance("ff")
	if len(adj.Of(ff.ID)) != 3 {
		t.Fatalf("ff net degree = %d", len(adj.Of(ff.ID)))
	}
}

func TestMacrosAndStdCells(t *testing.T) {
	lib := testLib()
	d := NewDesign("m", lib)
	s1, _ := cell.NewSRAM(cell.SRAMSpec{Name: "s1", Words: 512, Bits: 16})
	s2, _ := cell.NewSRAM(cell.SRAMSpec{Name: "s2", Words: 512, Bits: 16})
	d.AddInstance("z_mem", s1)
	d.AddInstance("a_mem", s2)
	d.AddInstance("u1", lib.MustCell("INV_X1"))
	ms := d.Macros()
	if len(ms) != 2 || ms[0].Name != "a_mem" {
		t.Fatalf("Macros order wrong: %v", ms)
	}
	if len(d.StdCells()) != 1 {
		t.Fatal("StdCells wrong")
	}
}

func TestResize(t *testing.T) {
	d := tiny(t)
	lib := d.Lib
	u1 := d.Instance("u1")
	if err := d.Resize(u1, lib.MustCell("INV_X4")); err != nil {
		t.Fatal(err)
	}
	if u1.Master.Name != "INV_X4" {
		t.Fatal("resize did not swap master")
	}
	// Net refs still resolve.
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Cross-family resize rejected.
	if err := d.Resize(u1, lib.MustCell("NAND2_X1")); err == nil {
		t.Fatal("cross-family resize accepted")
	}
	if err := d.Resize(u1, nil); err == nil {
		t.Fatal("nil resize accepted")
	}
}

func TestPinRefAccessors(t *testing.T) {
	d := tiny(t)
	clk := d.Port("clk")
	clk.Loc = geom.Pt(5, 5)
	clk.Layer = "M6"
	r := PPin(clk)
	if !r.IsPort() || r.Loc() != geom.Pt(5, 5) || r.Layer() != "M6" {
		t.Fatal("port PinRef accessors wrong")
	}
	u1 := d.Instance("u1")
	ir := IPin(u1, "A")
	if ir.IsPort() {
		t.Fatal("instance ref reported as port")
	}
	if ir.Cap() <= 0 {
		t.Fatal("input pin cap zero")
	}
	if ir.String() != "u1/A" || r.String() != "port:clk" {
		t.Fatalf("String: %s %s", ir, r)
	}
}

func TestInstanceBounds(t *testing.T) {
	d := tiny(t)
	u1 := d.Instance("u1")
	u1.Loc = geom.Pt(3, 4)
	b := u1.Bounds()
	if b.Lx != 3 || b.Ly != 4 ||
		math.Abs(b.W()-u1.Master.Width) > 1e-9 || math.Abs(b.H()-u1.Master.Height) > 1e-9 {
		t.Fatalf("Bounds = %v", b)
	}
	c := u1.Center()
	if c.X <= 3 || c.Y <= 4 {
		t.Fatalf("Center = %v", c)
	}
}

func TestDieString(t *testing.T) {
	if LogicDie.String() != "logic" || MacroDie.String() != "macro" {
		t.Fatal("die names wrong")
	}
}

func TestNetPins(t *testing.T) {
	d := tiny(t)
	n := d.Net("n_mid")
	if n.NumPins() != 2 || n.PinAt(0) != n.Driver || n.PinAt(1) != n.Sinks[0] {
		t.Fatal("pin walk wrong")
	}
}

func TestCountsAndTruncateTo(t *testing.T) {
	d := tiny(t)
	nI, nN := d.Counts()
	if nI != 2 || nN != 4 {
		t.Fatalf("Counts = %d, %d", nI, nN)
	}
	// Append then roll back.
	extra := d.AddInstance("extra", d.Lib.MustCell("BUF_X1"))
	d.AddNet("extra_net", IPin(extra, "Y"))
	d.TruncateTo(nI, nN)
	if got, gotN := d.Counts(); got != nI || gotN != nN {
		t.Fatalf("after truncate: %d, %d", got, gotN)
	}
	if d.Instance("extra") != nil || d.Net("extra_net") != nil {
		t.Fatal("truncated entries still resolvable by name")
	}
	// Names can be reused after truncation.
	d.AddInstance("extra", d.Lib.MustCell("BUF_X1"))
}

// TestReserveIDs: a design's ID capacity is its counts until it
// reserves; then it is the capacity a full slice's first append gets,
// appends up to it leave Instances and Nets where they are, truncation
// keeps it, a second reservation with room left changes nothing, and a
// copy starts without one.
func TestReserveIDs(t *testing.T) {
	d := tiny(t)
	if i, n := d.IDCap(); i != 2 || n != 4 {
		t.Fatalf("unreserved IDCap = %d, %d, want the counts 2, 4", i, n)
	}
	d.ReserveIDs()
	nInst, nNets := d.IDCap()
	if nInst != cap(d.Instances) || nNets != cap(d.Nets) || nInst <= 2 || nNets <= 4 {
		t.Fatalf("reserved IDCap = %d, %d, slices' capacity %d, %d", nInst, nNets, cap(d.Instances), cap(d.Nets))
	}
	insts, nets := &d.Instances[0], &d.Nets[0]
	for len(d.Instances) < nInst {
		b := d.AddInstance("b"+strconv.Itoa(len(d.Instances)), d.Lib.MustCell("BUF_X1"))
		d.AddNet("n"+strconv.Itoa(len(d.Nets)), IPin(b, "Y"))
	}
	if &d.Instances[0] != insts || &d.Nets[0] != nets {
		t.Fatal("appends within the reservation moved Instances or Nets")
	}
	d.TruncateTo(2, 4)
	d.ReserveIDs()
	if i, n := d.IDCap(); i != nInst || n != nNets || &d.Instances[0] != insts {
		t.Fatalf("after truncation and a second reservation IDCap = %d, %d, want %d, %d in place", i, n, nInst, nNets)
	}
	if i, n := d.Clone().IDCap(); i != 2 || n != 4 {
		t.Fatalf("a copy's IDCap = %d, %d, want its counts", i, n)
	}
}

// TestIDSet: membership, removal, ascending views, reset — and the
// marks are allocated once, at the room the set was made with, on the
// first Add: not before, and not again for an ID below it.
func TestIDSet(t *testing.T) {
	s := NewIDSet(64)
	if a := testing.AllocsPerRun(10, func() { _ = s.Has(3) }); a != 0 || s.in != nil {
		t.Fatalf("an empty set allocated (%.0f objects)", a)
	}
	for _, id := range []int{9, 3, 40, 3, 12} {
		s.Add(id)
	}
	if len(s.in) != 64 || s.Len() != 4 || !s.Has(40) || s.Has(4) || s.Has(-1) || s.Has(64) {
		t.Fatalf("set of %d marks, %d members", len(s.in), s.Len())
	}
	s.Remove(40)
	s.Remove(5)
	if got := s.Sorted(); !slices.Equal(got, []int{3, 9, 12}) || s.Has(40) {
		t.Fatalf("Sorted = %v, want [3 9 12]", got)
	}
	if got := s.SortedBelow(10); !slices.Equal(got, []int{3, 9}) {
		t.Fatalf("SortedBelow(10) = %v", got)
	}
	if a := testing.AllocsPerRun(10, func() { s.Reset(); s.Add(63); s.Add(0); _ = s.Sorted() }); a != 0 {
		t.Fatalf("reuse below the room allocates %.0f objects", a)
	}
	s.Add(100)
	if !s.Has(100) || len(s.in) < 101 || !slices.Equal(s.Members(), []int{63, 0, 100}) {
		t.Fatalf("an ID past the room: %d marks, members %v", len(s.in), s.Members())
	}
}

func TestTruncateToGrowPanics(t *testing.T) {
	d := tiny(t)
	defer func() {
		if recover() == nil {
			t.Fatal("growing TruncateTo did not panic")
		}
	}()
	d.TruncateTo(100, 100)
}
