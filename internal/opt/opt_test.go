package opt

import (
	"reflect"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/ddb"
	"macro3d/internal/extract"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
)

func typical() tech.CornerScale {
	return tech.CornerScale{CellDelay: 1, WireR: 1, WireC: 1, Leakage: 1}
}

// longPath: FF → 3 weak inverters spread over a long span → FF. Ripe
// for both upsizing and buffering.
func longPath(t *testing.T, span float64) *Context {
	t.Helper()
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("lp", lib)
	clk := d.AddPort("clk", cell.DirIn)
	clk.Loc = geom.Pt(0, 0)
	ff1 := d.AddInstance("ff1", lib.MustCell("DFF_X1"))
	ff1.Loc = geom.Pt(10, 10)
	ff2 := d.AddInstance("ff2", lib.MustCell("DFF_X1"))
	ff2.Loc = geom.Pt(10+span, 10)
	prev := netlist.IPin(ff1, "Q")
	for i := 0; i < 3; i++ {
		u := d.AddInstance("u"+string(rune('a'+i)), lib.MustCell("INV_X1"))
		u.Loc = geom.Pt(10+span*float64(i+1)/4, 10)
		u.Placed = true
		d.AddNet("n"+string(rune('a'+i)), prev, netlist.IPin(u, "A"))
		prev = netlist.IPin(u, "Y")
	}
	d.AddNet("n_end", prev, netlist.IPin(ff2, "D"))
	cn := d.AddNet("clk", netlist.PPin(clk), netlist.IPin(ff1, "CK"), netlist.IPin(ff2, "CK"))
	cn.Clock = true

	beol, _ := tech.NewBEOL28("logic", 6)
	db := route.NewDB(geom.R(0, 0, span+100, 200), beol, nil, route.Options{GCellPitch: 10})
	res, err := route.RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	ex := extract.Extract(d, res, db, typical())
	return &Context{Design: d, DB: db, Routes: res, Ex: ex, Corner: typical()}
}

func TestOptimizeImprovesTiming(t *testing.T) {
	ctx := longPath(t, 2000)
	before, err := sta.Analyze(ctx.Design, ctx.Ex, 1e6, sta.Options{Corner: ctx.Corner})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(ctx, sta.Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("period %v → %v ps (%d resized, %d buffers)",
		before.MinPeriod, res.Report.MinPeriod, res.Resized, res.Buffers)
	if res.Report.MinPeriod >= before.MinPeriod {
		t.Fatalf("no improvement: %v → %v", before.MinPeriod, res.Report.MinPeriod)
	}
	if res.Resized == 0 && res.Buffers == 0 {
		t.Fatal("no edits recorded despite improvement")
	}
	// Design must remain structurally valid after buffering edits.
	if err := ctx.Design.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFrozenMakesNoEdits(t *testing.T) {
	ctx := longPath(t, 2000)
	n0 := len(ctx.Design.Instances)
	res, err := Optimize(ctx, sta.Options{}, Options{Frozen: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resized != 0 || res.Buffers != 0 {
		t.Fatal("frozen mode made edits")
	}
	if len(ctx.Design.Instances) != n0 {
		t.Fatal("frozen mode added instances")
	}
	if res.Report == nil {
		t.Fatal("frozen mode must still report timing")
	}
}

// TestFrozenOpensNoDDB: a Frozen Optimize only analyses, so without a
// design database it builds none, and it reports exactly what it reports
// over one — the S2D sign-off's path. It still publishes the gauges that
// describe the design it leaves: the analysed period and no edits.
func TestFrozenOpensNoDDB(t *testing.T) {
	with := longPath(t, 2000)
	with.DDB = ddb.New(with.Design, with.DB, with.Routes, with.Ex, with.Corner)
	want, err := Optimize(with, sta.Options{}, Options{Frozen: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := longPath(t, 2000)
	ctx.Obs = obs.New().StartSpan("opt")
	got, err := Optimize(ctx, sta.Options{}, Options{Frozen: true})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.DDB != nil {
		t.Fatal("a Frozen Optimize built a design database")
	}
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Fatalf("Frozen report without a DDB differs from one with:\n%+v\n%+v", got.Report, want.Report)
	}
	gauges := map[string]float64{}
	for _, m := range ctx.Obs.Reg().Snapshot() {
		if m.Kind == "gauge" {
			gauges[m.Name] = m.Value
		}
	}
	for name, v := range map[string]float64{"opt_min_period_ps": got.Report.MinPeriod, "opt_resized_cells": 0, "opt_inserted_buffers": 0} {
		if g, ok := gauges[name]; !ok || g != v {
			t.Fatalf("a Frozen Optimize published %s = %v (set: %v), want %v", name, g, ok, v)
		}
	}
}

func TestTargetPeriodStopsEarly(t *testing.T) {
	ctx1 := longPath(t, 2000)
	maxRes, err := Optimize(ctx1, sta.Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A relaxed target: barely any edits needed.
	ctx2 := longPath(t, 2000)
	relaxed, err := Optimize(ctx2, sta.Options{}, Options{TargetPeriod: maxRes.Report.MinPeriod * 3})
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Resized+relaxed.Buffers >= maxRes.Resized+maxRes.Buffers {
		t.Fatalf("relaxed target made as many edits (%d) as max-perf (%d)",
			relaxed.Resized+relaxed.Buffers, maxRes.Resized+maxRes.Buffers)
	}
	// Iso-performance effect: fewer edits → less pin cap → less
	// energy (checked at flow level; here just area).
	if LogicCellArea(ctx2.Design) > LogicCellArea(ctx1.Design) {
		t.Fatal("relaxed target grew more area than max-perf")
	}
}

func TestBufferInsertionRewiresCorrectly(t *testing.T) {
	ctx := longPath(t, 3000)
	if _, err := Optimize(ctx, sta.Options{}, Options{MaxIters: 4}); err != nil {
		t.Fatal(err)
	}
	d := ctx.Design
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Any inserted buffer must have exactly one driven input and one
	// output net.
	for _, inst := range d.Instances {
		if len(inst.Name) > 7 && inst.Name[:7] == "optbuf_" {
			driven := false
			drives := false
			for _, n := range d.Nets {
				if n.Driver.Inst == inst {
					drives = true
				}
				for _, s := range n.Sinks {
					if s.Inst == inst {
						driven = true
					}
				}
			}
			if !driven || !drives {
				t.Fatalf("buffer %s dangling (driven=%v drives=%v)", inst.Name, driven, drives)
			}
		}
	}
	// Extraction table covers all nets.
	for id := range d.Nets {
		if d.Nets[id].Clock {
			continue
		}
		if id >= len(ctx.Ex.Nets) || ctx.Ex.Nets[id] == nil {
			t.Fatalf("net %s missing extraction", d.Nets[id].Name)
		}
	}
}

func TestLogicCellArea(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("a", lib)
	d.AddInstance("u1", lib.MustCell("INV_X1"))
	d.AddInstance("u2", lib.MustCell("INV_X4"))
	sram, _ := cell.NewSRAM(cell.SRAMSpec{Name: "m", Words: 512, Bits: 8})
	d.AddInstance("mem", sram)
	d.AddInstance("f", lib.MustCell("FILL_X1"))
	want := lib.MustCell("INV_X1").Area() + lib.MustCell("INV_X4").Area()
	if got := LogicCellArea(d); got != want {
		t.Fatalf("LogicCellArea = %v, want %v", got, want)
	}
}
