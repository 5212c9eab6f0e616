package power

import (
	"math"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/cts"
	"macro3d/internal/extract"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

func typical() tech.CornerScale {
	return tech.CornerScale{CellDelay: 1, WireR: 1, WireC: 1, Leakage: 1}
}

// vdd is the technology's supply, the one the flows analyse at.
var vdd = func() float64 {
	tc, err := tech.New28(6)
	if err != nil {
		panic(err)
	}
	return tc.VDD
}()

// smallDesign: port → inv → ff with an SRAM hanging off the net, and its
// signal nets' wire and pin capacitance totals at the typical corner.
func smallDesign(t *testing.T) (d *netlist.Design, cWire, cPin float64) {
	t.Helper()
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d = netlist.NewDesign("p", lib)
	clk := d.AddPort("clk", cell.DirIn)
	clk.Loc = geom.Pt(0, 0)
	u := d.AddInstance("u", lib.MustCell("INV_X2"))
	u.Loc = geom.Pt(50, 50)
	ff := d.AddInstance("ff", lib.MustCell("DFF_X1"))
	ff.Loc = geom.Pt(300, 50)
	sram, err := cell.NewSRAM(cell.SRAMSpec{Name: "m", Words: 1024, Bits: 16})
	if err != nil {
		t.Fatal(err)
	}
	mem := d.AddInstance("mem", sram)
	mem.Loc = geom.Pt(100, 200)
	mem.Fixed, mem.Placed = true, true

	d.AddNet("n1", netlist.IPin(ff, "Q"), netlist.IPin(u, "A"))
	d.AddNet("n2", netlist.IPin(u, "Y"), netlist.IPin(ff, "D"), netlist.IPin(mem, "D0"))
	cn := d.AddNet("clk", netlist.PPin(clk), netlist.IPin(ff, "CK"), netlist.IPin(mem, "CLK"))
	cn.Clock = true

	beol, _ := tech.NewBEOL28("logic", 6)
	db := route.NewDB(geom.R(0, 0, 600, 600), beol, nil, route.Options{GCellPitch: 10})
	res, err := route.RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	cWire, cPin = extract.Caps(d, res, db, typical())
	return d, cWire, cPin
}

func TestBreakdown(t *testing.T) {
	d, cWire, cPin := smallDesign(t)
	rep := Analyze(d, cWire, cPin, nil, 400, vdd, typical())
	if rep.SignalWireFJ <= 0 || rep.SignalPinFJ <= 0 {
		t.Fatalf("signal energy missing: %+v", rep)
	}
	if rep.CellInternalFJ <= 0 {
		t.Fatal("internal energy missing")
	}
	if rep.MacroFJ <= 0 {
		t.Fatal("macro energy missing")
	}
	if rep.ClockFJ <= 0 {
		t.Fatal("clock energy missing")
	}
	if rep.LeakageUW <= 0 {
		t.Fatal("leakage missing")
	}
	want := rep.SignalWireFJ + rep.SignalPinFJ + rep.CellInternalFJ + rep.ClockFJ + rep.MacroFJ
	if math.Abs(rep.DynamicFJ-want) > 1e-9 {
		t.Fatal("dynamic sum inconsistent")
	}
	if rep.EnergyPerCycleFJ <= rep.DynamicFJ {
		t.Fatal("E_mean must include leakage share")
	}
}

// TestToggleRateScalesSignalEnergy: signal nets switch at the paper's
// toggle rate, α·½CV² per cycle, while the clock switches every cycle —
// its pins' full CV², independent of α.
func TestToggleRateScalesSignalEnergy(t *testing.T) {
	d, cWire, cPin := smallDesign(t)
	r := Analyze(d, cWire, cPin, nil, 400, vdd, typical())
	v2 := vdd * vdd
	if want := 0.2 * 0.5 * cWire * v2; math.Abs(r.SignalWireFJ-want) > 1e-9*want {
		t.Fatalf("signal wire energy %v, want α·½CV² = %v", r.SignalWireFJ, want)
	}
	var ckCap float64
	for _, inst := range d.Instances {
		if ck := inst.Master.ClockPin(); ck != nil && inst.Master.IsSequential() {
			ckCap += ck.Cap
		}
	}
	if want := ckCap * v2; r.ClockFJ != want {
		t.Fatalf("ideal clock energy %v, want CV² = %v", r.ClockFJ, want)
	}
}

func TestPowerConversion(t *testing.T) {
	d, cWire, cPin := smallDesign(t)
	rep := Analyze(d, cWire, cPin, nil, 400, vdd, typical())
	p400 := rep.PowerUW(400)
	p200 := rep.PowerUW(200)
	// Dynamic scales with f; leakage does not.
	if p400 <= p200 {
		t.Fatal("power not increasing with frequency")
	}
	wantDelta := rep.DynamicFJ * 200 * 1e-3
	if math.Abs((p400-p200)-wantDelta) > 1e-9 {
		t.Fatalf("frequency scaling wrong: %v vs %v", p400-p200, wantDelta)
	}
}

func TestClockTreeEnergyCounted(t *testing.T) {
	d, cWire, cPin := smallDesign(t)
	beol, _ := tech.NewBEOL28("logic", 6)
	tree := cts.Build(d, d.Net("clk"), d.Port("clk").Loc, d.Lib, beol, cts.Options{})
	withTree := Analyze(d, cWire, cPin, tree, 400, vdd, typical())
	ideal := Analyze(d, cWire, cPin, nil, 400, vdd, typical())
	if withTree.ClockFJ <= ideal.ClockFJ {
		t.Fatal("real tree should cost more than ideal clock")
	}
}

func TestLargerCacheBurnsMore(t *testing.T) {
	// Macro energy scales with capacity.
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	build := func(words int) *Report {
		d := netlist.NewDesign("m", lib)
		sram, _ := cell.NewSRAM(cell.SRAMSpec{Name: "m", Words: words, Bits: 32})
		d.AddInstance("mem", sram)
		return Analyze(d, 0, 0, nil, 400, vdd, typical())
	}
	small := build(1024)
	large := build(32768)
	if large.MacroFJ <= small.MacroFJ {
		t.Fatal("macro energy not monotone in capacity")
	}
	if large.LeakageUW <= small.LeakageUW {
		t.Fatal("macro leakage not monotone in capacity")
	}
}

func TestCornerScalesLeakage(t *testing.T) {
	d, cWire, cPin := smallDesign(t)
	typ := Analyze(d, cWire, cPin, nil, 400, vdd, typical())
	fast := Analyze(d, cWire, cPin, nil, 400, vdd, tech.CornerScale{CellDelay: 0.8, WireR: 1, WireC: 1, Leakage: 1.8})
	if math.Abs(fast.LeakageUW/typ.LeakageUW-1.8) > 1e-9 {
		t.Fatal("leakage corner scaling wrong")
	}
}
