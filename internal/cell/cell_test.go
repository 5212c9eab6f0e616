package cell

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func lib(t *testing.T) *Library {
	t.Helper()
	return NewStdLib28(DefaultLibOptions())
}

func TestLibraryHasExpectedMasters(t *testing.T) {
	l := lib(t)
	for _, name := range []string{
		"INV_X1", "INV_X32", "BUF_X4", "NAND2_X1", "NOR2_X8",
		"AOI22_X2", "XOR2_X4", "MUX2_X1", "DFF_X1", "DFF_X4", "FILL_X1",
	} {
		if l.Cell(name) == nil {
			t.Errorf("missing master %s", name)
		}
	}
	if l.Len() < 30 {
		t.Fatalf("library unexpectedly small: %d", l.Len())
	}
}

func TestDriveScaling(t *testing.T) {
	l := lib(t)
	x1 := l.MustCell("INV_X1")
	x4 := l.MustCell("INV_X4")
	if x4.DriveRes >= x1.DriveRes {
		t.Fatal("X4 not stronger than X1")
	}
	if x4.Pins[0].Cap <= x1.Pins[0].Cap {
		t.Fatal("X4 input cap not larger")
	}
	// X1 and X4 share a footprint group (same cell image); X8 crosses
	// into the next group and grows.
	if x4.Width != x1.Width {
		t.Fatal("X1/X4 not footprint-compatible")
	}
	if l.MustCell("INV_X8").Width <= x4.Width {
		t.Fatal("X8 not wider than the X1–X4 image")
	}
	if x4.InternalEnergy <= x1.InternalEnergy {
		t.Fatal("X4 energy not larger")
	}
}

func TestFamilySizing(t *testing.T) {
	l := lib(t)
	fam := l.Family("INV")
	if len(fam) != 6 {
		t.Fatalf("INV family size %d", len(fam))
	}
	for i := 1; i < len(fam); i++ {
		if fam[i].Drive <= fam[i-1].Drive {
			t.Fatal("family not sorted by drive")
		}
	}
}

func TestDelayModel(t *testing.T) {
	l := lib(t)
	inv := l.MustCell("INV_X1")
	d0 := inv.Delay(0, 0)
	if d0 != inv.Intrinsic {
		t.Fatalf("no-load delay = %v", d0)
	}
	// Delay increases with load and with input slew.
	if inv.Delay(10, 0) <= d0 || inv.Delay(0, 50) <= d0 {
		t.Fatal("delay not monotone in load/slew")
	}
	// FO4 sanity: an inverter driving 4 copies of itself lands in the
	// 15–40 ps band expected at 28 nm.
	fo4 := inv.Delay(4*inv.Pins[0].Cap, 0)
	if fo4 < 10 || fo4 > 50 {
		t.Fatalf("FO4 = %v ps, out of plausible band", fo4)
	}
	if inv.OutSlew(10) <= inv.OutSlew(0) {
		t.Fatal("slew not monotone in load")
	}
}

func TestDFFProperties(t *testing.T) {
	l := lib(t)
	ff := l.MustCell("DFF_X1")
	if !ff.IsSequential() {
		t.Fatal("DFF not sequential")
	}
	if ff.ClkQ <= 0 || ff.Setup <= 0 {
		t.Fatal("missing sequential timing")
	}
	ck := ff.ClockPin()
	if ck == nil || ck.Name != "CK" || !ck.Clock {
		t.Fatalf("clock pin wrong: %+v", ck)
	}
	if ff.Pin("D") == nil || ff.Pin("Q") == nil {
		t.Fatal("missing D/Q pins")
	}
	if out := ff.Output(); out == nil || out.Name != "Q" {
		t.Fatalf("Output = %v", out)
	}
	inputs := 0
	for _, p := range ff.Pins {
		if p.Dir == DirIn {
			inputs++
		}
	}
	if inputs != 2 {
		t.Fatalf("DFF inputs = %d", inputs)
	}
}

func TestCombCellsNotSequential(t *testing.T) {
	l := lib(t)
	for _, name := range []string{"INV_X1", "NAND2_X2", "MUX2_X1"} {
		if l.MustCell(name).IsSequential() {
			t.Errorf("%s reported sequential", name)
		}
	}
}

func TestPinOffsetsInsideCell(t *testing.T) {
	l := lib(t)
	for _, c := range l.Cells() {
		for _, p := range c.Pins {
			if p.Offset.X < 0 || p.Offset.X > c.Width ||
				p.Offset.Y < 0 || p.Offset.Y > c.Height {
				t.Errorf("%s pin %s offset %v outside %vx%v",
					c.Name, p.Name, p.Offset, c.Width, c.Height)
			}
		}
	}
}

func TestAreaScale(t *testing.T) {
	opt := DefaultLibOptions()
	opt.AreaScale = 8
	big := NewStdLib28(opt)
	small := lib(t)
	r := big.MustCell("INV_X1").Width / small.MustCell("INV_X1").Width
	if math.Abs(r-8) > 1e-9 {
		t.Fatalf("AreaScale ratio = %v", r)
	}
	// Electrical parameters must not scale with area inflation.
	if big.MustCell("INV_X1").DriveRes != small.MustCell("INV_X1").DriveRes {
		t.Fatal("AreaScale changed drive resistance")
	}
}

func TestAddDuplicatePanics(t *testing.T) {
	l := NewLibrary("x")
	l.Add(&Cell{Name: "A"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	l.Add(&Cell{Name: "A"})
}

func TestMustCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCell on unknown did not panic")
		}
	}()
	NewLibrary("x").MustCell("nope")
}

func TestCellsDeterministicOrder(t *testing.T) {
	l := lib(t)
	a := l.Cells()
	b := l.Cells()
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("Cells order not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Name <= a[i-1].Name {
			t.Fatal("Cells not sorted")
		}
	}
}

func TestClone(t *testing.T) {
	l := lib(t)
	c := l.MustCell("DFF_X1").Clone()
	c.Pins[0].Layer = "M9"
	if l.MustCell("DFF_X1").Pins[0].Layer == "M9" {
		t.Fatal("Clone shares pin storage")
	}
}

func TestSRAMCompiler(t *testing.T) {
	s, err := NewSRAM(SRAMSpec{Name: "sram_16k_64", Words: 2048, Bits: 64})
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != KindMacro || s.Macro == nil {
		t.Fatal("not a macro")
	}
	if got := s.Macro.CapacityBytes; got != 16*1024 {
		t.Fatalf("capacity = %d", got)
	}
	wantArea := 2048. * 64 * bitcellArea / arrayEfficiency
	if math.Abs(s.Area()-wantArea)/wantArea > 0.02 {
		t.Fatalf("area %v, want ≈%v", s.Area(), wantArea)
	}
	// Aspect ratio near the requested 1.5.
	if ar := s.Width / s.Height; ar < 1.2 || ar > 1.9 {
		t.Fatalf("aspect = %v", ar)
	}
	// Pin inventory: CLK CE WE + 11 addr + 64 D + 64 Q.
	if got := len(s.Pins); got != 3+11+64+64 {
		t.Fatalf("pin count = %d", got)
	}
	if s.ClockPin() == nil {
		t.Fatal("SRAM has no clock pin")
	}
	if !s.IsSequential() {
		t.Fatal("clocked SRAM not sequential")
	}
	for _, p := range s.Pins {
		if p.Layer != "M4" {
			t.Fatalf("pin %s on %s, want M4", p.Name, p.Layer)
		}
		if p.Offset.X < 0 || p.Offset.X > s.Width {
			t.Fatalf("pin %s off footprint", p.Name)
		}
	}
	// Obstructions M1..M4 covering the footprint.
	if len(s.Obstructions) != 4 {
		t.Fatalf("obstruction count = %d", len(s.Obstructions))
	}
	seen := map[string]bool{}
	for _, o := range s.Obstructions {
		seen[o.Layer] = true
		if o.Rect.W() < s.Width || o.Rect.H() < s.Height {
			t.Fatal("obstruction does not cover footprint")
		}
	}
	for _, ly := range []string{"M1", "M2", "M3", "M4"} {
		if !seen[ly] {
			t.Fatalf("missing obstruction on %s", ly)
		}
	}
}

func TestSRAMScaling(t *testing.T) {
	small, _ := NewSRAM(SRAMSpec{Name: "a", Words: 1024, Bits: 32})
	big, _ := NewSRAM(SRAMSpec{Name: "b", Words: 32768, Bits: 64})
	if big.Area() <= small.Area() {
		t.Fatal("area not monotone in capacity")
	}
	if big.ClkQ <= small.ClkQ {
		t.Fatal("access time not monotone in capacity")
	}
	if big.Macro.EnergyPerAccess <= small.Macro.EnergyPerAccess {
		t.Fatal("access energy not monotone")
	}
	if big.Leakage <= small.Leakage {
		t.Fatal("leakage not monotone")
	}
}

func TestSRAMRejectsBadSpecs(t *testing.T) {
	if _, err := NewSRAM(SRAMSpec{Name: "x", Words: 1, Bits: 8}); err == nil {
		t.Fatal("1-word SRAM accepted")
	}
	if _, err := NewSRAM(SRAMSpec{Name: "x", Words: 64, Bits: 0}); err == nil {
		t.Fatal("0-bit SRAM accepted")
	}
}

func TestSRAMAddrBits(t *testing.T) {
	cases := []struct {
		words, want int
	}{{2, 1}, {1024, 10}, {1025, 11}, {32768, 15}}
	for _, c := range cases {
		if got := (SRAMSpec{Words: c.words, Bits: 8}).AddrBits(); got != c.want {
			t.Errorf("AddrBits(%d) = %d, want %d", c.words, got, c.want)
		}
	}
}

// Property: compiled SRAM area always equals bits/efficiency within
// snapping error, and all pins stay on the footprint.
func TestSRAMProperty(t *testing.T) {
	f := func(w, b uint16) bool {
		words := 64 + int(w)%4096
		bits := 8 + int(b)%128
		s, err := NewSRAM(SRAMSpec{Name: "p", Words: words, Bits: bits})
		if err != nil {
			return false
		}
		want := float64(words*bits) * bitcellArea / arrayEfficiency
		if math.Abs(s.Area()-want)/want > 0.05 {
			return false
		}
		for _, p := range s.Pins {
			if p.Offset.X < 0 || p.Offset.X > s.Width || p.Offset.Y < 0 || p.Offset.Y > s.Height {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSensorMacro(t *testing.T) {
	s, err := NewSensor("imgsense", 400, 300, 12)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != KindMacro || s.Width != 400 || s.Height != 300 {
		t.Fatalf("sensor geometry wrong: %+v", s)
	}
	// Sensor uses only three metals.
	if len(s.Obstructions) != 3 {
		t.Fatalf("sensor obstructions = %d", len(s.Obstructions))
	}
	for _, p := range s.Pins {
		if p.Layer != "M3" {
			t.Fatalf("sensor pin on %s", p.Layer)
		}
	}
	outs := 0
	for _, p := range s.Pins {
		if p.Dir == DirOut {
			outs++
		}
	}
	if outs != 12 {
		t.Fatalf("sensor outputs = %d", outs)
	}
	if _, err := NewSensor("bad", 0, 10, 4); err == nil {
		t.Fatal("zero-width sensor accepted")
	}
	if _, err := NewSensor("bad", 10, 10, 0); err == nil {
		t.Fatal("zero-bit sensor accepted")
	}
}

func TestKindAndDirStrings(t *testing.T) {
	if KindMacro.String() != "macro" || KindSeq.String() != "seq" {
		t.Fatal("kind names wrong")
	}
	if DirIn.String() != "in" || DirOut.String() != "out" || DirInOut.String() != "inout" {
		t.Fatal("dir names wrong")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind formatting")
	}
}
