package sta

import (
	"math"
	"slices"
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/cts"
	"macro3d/internal/extract"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// pipe builds: clk port, FF1 → k inverters → FF2, all placed along a
// line of the given span. Returns the design plus routing/extraction.
func pipe(t *testing.T, span float64, k int) (*netlist.Design, *extract.Design) {
	t.Helper()
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("pipe", lib)
	clk := d.AddPort("clk", cell.DirIn)
	clk.Loc = geom.Pt(0, 0)

	ff1 := d.AddInstance("ff1", lib.MustCell("DFF_X1"))
	ff1.Loc = geom.Pt(10, 10)
	ff2 := d.AddInstance("ff2", lib.MustCell("DFF_X1"))
	ff2.Loc = geom.Pt(10+span, 10)

	prev := netlist.IPin(ff1, "Q")
	for i := 0; i < k; i++ {
		u := d.AddInstance("inv"+itoa(i), lib.MustCell("INV_X2"))
		u.Loc = geom.Pt(10+span*float64(i+1)/float64(k+1), 10)
		d.AddNet("n"+itoa(i), prev, netlist.IPin(u, "A"))
		prev = netlist.IPin(u, "Y")
	}
	d.AddNet("n_end", prev, netlist.IPin(ff2, "D"))
	cn := d.AddNet("clk", netlist.PPin(clk), netlist.IPin(ff1, "CK"), netlist.IPin(ff2, "CK"))
	cn.Clock = true
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	beol, _ := tech.NewBEOL28("logic", 6)
	db := route.NewDB(geom.R(0, 0, span+100, 200), beol, nil, route.Options{GCellPitch: 10})
	res, err := route.RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	ex := extract.Extract(d, res, db, tech.CornerScale{CellDelay: 1, WireR: 1, WireC: 1, Leakage: 1})
	return d, ex
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

func TestPipelineTiming(t *testing.T) {
	d, ex := pipe(t, 200, 4)
	rep, err := Analyze(d, ex, 2000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 inverters + FF clk-q + setup: tens to hundreds of ps.
	if rep.MinPeriod < 50 || rep.MinPeriod > 1500 {
		t.Fatalf("MinPeriod = %v ps, implausible", rep.MinPeriod)
	}
	if rep.FmaxMHz <= 0 || rep.FmaxMHz != 1e6/rep.MinPeriod {
		t.Fatalf("Fmax = %v", rep.FmaxMHz)
	}
	// At a generous 2000 ps period, slack is positive.
	if rep.WNS <= 0 {
		t.Fatalf("WNS = %v at 2 ns", rep.WNS)
	}
	if rep.Endpoints == 0 {
		t.Fatal("no endpoints")
	}
	// Critical path runs ff1 → … → ff2.
	cp := rep.Critical
	if len(cp.Steps) < 3 {
		t.Fatalf("critical path only %d steps", len(cp.Steps))
	}
	last := cp.Steps[len(cp.Steps)-1].Ref
	if last.Inst == nil || last.Inst.Name != "ff2" {
		t.Fatalf("critical endpoint = %v", last)
	}
	if cp.Wirelength <= 0 {
		t.Fatal("no path wirelength")
	}
}

func TestLongerWireSlower(t *testing.T) {
	d1, ex1 := pipe(t, 100, 2)
	d2, ex2 := pipe(t, 1500, 2)
	r1, err := Analyze(d1, ex1, 3000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Analyze(d2, ex2, 3000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.MinPeriod <= r1.MinPeriod {
		t.Fatalf("longer design not slower: %v vs %v", r1.MinPeriod, r2.MinPeriod)
	}
	if r2.Critical.Wirelength <= r1.Critical.Wirelength {
		t.Fatal("longer design has shorter critical wirelength")
	}
}

func TestSlowCornerSlower(t *testing.T) {
	d, exTyp := pipe(t, 400, 3)
	rTyp, err := Analyze(d, exTyp, 3000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rSlow, err := Analyze(d, exTyp, 3000, Options{
		Corner: tech.CornerScale{CellDelay: 1.25, WireR: 1, WireC: 1, Leakage: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rSlow.MinPeriod <= rTyp.MinPeriod {
		t.Fatalf("slow corner not slower: %v vs %v", rSlow.MinPeriod, rTyp.MinPeriod)
	}
}

func TestHalfCyclePortConstraint(t *testing.T) {
	// FF → output port, port half-cycle: required period doubles
	// versus the same path with a full-cycle port.
	build := func(half bool) (*netlist.Design, *extract.Design) {
		lib := cell.NewStdLib28(cell.DefaultLibOptions())
		d := netlist.NewDesign("p", lib)
		clk := d.AddPort("clk", cell.DirIn)
		clk.Loc = geom.Pt(0, 0)
		ff := d.AddInstance("ff", lib.MustCell("DFF_X1"))
		ff.Loc = geom.Pt(10, 10)
		out := d.AddPort("dout", cell.DirOut)
		out.Loc = geom.Pt(600, 10)
		out.Layer = "M6"
		out.HalfCycle = half
		d.AddNet("n", netlist.IPin(ff, "Q"), netlist.PPin(out))
		cn := d.AddNet("clk", netlist.PPin(clk), netlist.IPin(ff, "CK"))
		cn.Clock = true
		beol, _ := tech.NewBEOL28("logic", 6)
		db := route.NewDB(geom.R(0, 0, 700, 100), beol, nil, route.Options{GCellPitch: 10})
		res, err := route.RouteDesign(d, db)
		if err != nil {
			t.Fatal(err)
		}
		ex := extract.Extract(d, res, db, tech.CornerScale{CellDelay: 1, WireR: 1, WireC: 1, Leakage: 1})
		return d, ex
	}
	dF, exF := build(false)
	dH, exH := build(true)
	rF, err := Analyze(dF, exF, 2000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rH, err := Analyze(dH, exH, 2000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := rH.MinPeriod / rF.MinPeriod
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("half-cycle ratio = %v, want ≈2", ratio)
	}
	if !rH.Critical.HalfCycle {
		t.Fatal("critical path not flagged half-cycle")
	}
}

func TestClockTreeLatencyShiftsLaunch(t *testing.T) {
	d, ex := pipe(t, 400, 3)
	rIdeal, err := Analyze(d, ex, 3000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Build a real tree over the two FFs.
	beol, _ := tech.NewBEOL28("logic", 6)
	tree := cts.Build(d, d.Net("clk"), d.Port("clk").Loc, d.Lib, beol, cts.Options{})
	rTree, err := Analyze(d, ex, 3000, Options{Clock: tree})
	if err != nil {
		t.Fatal(err)
	}
	// Launch/capture latencies nearly cancel on a balanced tree; the
	// period must stay within the skew of ideal.
	diff := rTree.MinPeriod - rIdeal.MinPeriod
	if diff < -tree.Skew-1 || diff > tree.Skew+1 {
		t.Fatalf("tree shifted period by %v ps, skew is %v", diff, tree.Skew)
	}
}

func TestSetupIncludedInMinPeriod(t *testing.T) {
	d, ex := pipe(t, 50, 0) // FF → FF direct
	rep, err := Analyze(d, ex, 2000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ff := d.Instance("ff1").Master
	// MinPeriod ≥ ClkQ + setup even with negligible wire.
	if rep.MinPeriod < ff.ClkQ+ff.Setup {
		t.Fatalf("MinPeriod %v < ClkQ+setup %v", rep.MinPeriod, ff.ClkQ+ff.Setup)
	}
}

func TestNoEndpointsError(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("none", lib)
	a := d.AddInstance("a", lib.MustCell("INV_X1"))
	b := d.AddInstance("b", lib.MustCell("INV_X1"))
	d.AddNet("n", netlist.IPin(a, "Y"), netlist.IPin(b, "A"))
	beol, _ := tech.NewBEOL28("logic", 6)
	db := route.NewDB(geom.R(0, 0, 100, 100), beol, nil, route.Options{})
	res, _ := route.RouteDesign(d, db)
	ex := extract.Extract(d, res, db, tech.CornerScale{CellDelay: 1, WireR: 1, WireC: 1, Leakage: 1})
	if _, err := Analyze(d, ex, 1000, Options{}); err == nil {
		t.Fatal("expected error for design without endpoints")
	}
}

func TestHoldAnalysis(t *testing.T) {
	d, ex := pipe(t, 300, 3)
	rep, err := Analyze(d, ex, 2000, Options{CheckHold: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HoldEndpoints == 0 {
		t.Fatal("no hold endpoints analyzed")
	}
	// A 3-inverter path with ideal clock easily meets a 5 ps hold.
	if rep.HoldViolations != 0 {
		t.Fatalf("%d hold violations on a deep path", rep.HoldViolations)
	}
	if rep.HoldWNS <= 0 {
		t.Fatalf("HoldWNS = %v, want positive", rep.HoldWNS)
	}
	// Min path delay cannot exceed max path delay.
	if rep.HoldWNS > rep.Critical.Delay {
		t.Fatalf("hold slack %v exceeds critical delay %v", rep.HoldWNS, rep.Critical.Delay)
	}
	// Without the flag, hold fields stay zero.
	rep2, err := Analyze(d, ex, 2000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.HoldEndpoints != 0 || rep2.HoldWNS != 0 {
		t.Fatal("hold ran without CheckHold")
	}
}

func TestHoldViolationDetected(t *testing.T) {
	// Direct FF→FF with a large artificial capture latency: the data
	// races ahead of the late clock → hold violation.
	d, ex := pipe(t, 40, 0)
	ff2 := d.Instance("ff2")
	tree := &cts.Tree{Latency: make([]float64, len(d.Instances))}
	tree.Latency[ff2.ID] = 400 // capture clock arrives 400 ps late; ff1's at 0
	rep, err := Analyze(d, ex, 2000, Options{CheckHold: true, Clock: tree})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HoldViolations == 0 {
		t.Fatalf("no hold violation despite 400 ps capture skew (WNS %v)", rep.HoldWNS)
	}
	if rep.HoldWNS >= 0 {
		t.Fatalf("HoldWNS = %v, want negative", rep.HoldWNS)
	}
}

func TestMinPeriodMonotoneInCornerProperty(t *testing.T) {
	// Property: scaling cell delay up never reduces the minimum
	// period.
	d, ex := pipe(t, 500, 4)
	prev := 0.0
	for _, scale := range []float64{0.8, 1.0, 1.1, 1.25, 1.5} {
		rep, err := Analyze(d, ex, 3000, Options{
			Corner: tech.CornerScale{CellDelay: scale, WireR: 1, WireC: 1, Leakage: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.MinPeriod < prev {
			t.Fatalf("MinPeriod decreased at scale %v: %v < %v", scale, rep.MinPeriod, prev)
		}
		prev = rep.MinPeriod
	}
}

func TestTopPathsOrderedAndDeduped(t *testing.T) {
	d, ex := pipe(t, 400, 5)
	rep, err := Analyze(d, ex, 2000, Options{TopPaths: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Paths) == 0 {
		t.Fatal("no paths reported")
	}
	if rep.Paths[0].Delay != rep.Critical.Delay {
		t.Fatal("Paths[0] is not the critical path")
	}
	seen := map[string]bool{}
	for _, p := range rep.Paths {
		launch := p.Steps[0].Ref.String()
		if seen[launch] {
			t.Fatalf("duplicate launch %s in top paths", launch)
		}
		seen[launch] = true
	}
}

func TestNonFiniteParasiticsRejected(t *testing.T) {
	d, ex := pipe(t, 200, 4)
	// Poison one RC entry the way corrupt layer tables would.
	for _, rc := range ex.Nets {
		if rc == nil || len(rc.ElmoreTo) == 0 {
			continue
		}
		for i := range rc.ElmoreTo {
			rc.ElmoreTo[i] = math.NaN()
		}
		rc.WireC = math.NaN()
		break
	}
	if _, err := Analyze(d, ex, 2000, Options{}); err == nil {
		t.Fatal("NaN parasitics produced a timing report")
	} else if !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("error does not name the non-finite result: %v", err)
	}
}

// lanes builds w independent lanes: FF → one net with two inverter
// sinks → one capture FF each. Depth is constant, so instance count is
// the only thing that grows with w.
func lanes(t *testing.T, w int) (*netlist.Design, *extract.Design) {
	t.Helper()
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("lanes", lib)
	clk := d.AddPort("clk", cell.DirIn)
	cn := d.AddNet("clk", netlist.PPin(clk))
	cn.Clock = true
	at := func(name, master string, x, y float64) *netlist.Instance {
		inst := d.AddInstance(name, lib.MustCell(master))
		inst.Loc = geom.Pt(x, y)
		if inst.Master.IsSequential() {
			cn.Sinks = append(cn.Sinks, netlist.IPin(inst, "CK"))
		}
		return inst
	}
	for i := 0; i < w; i++ {
		x, y, s := float64(20+60*(i%40)), float64(20+30*(i/40)), itoa(i)
		src := at("src"+s, "DFF_X1", x, y)
		a, b := at("a"+s, "INV_X2", x+15, y), at("b"+s, "INV_X2", x+15, y+10)
		d.AddNet("q"+s, netlist.IPin(src, "Q"), netlist.IPin(a, "A"), netlist.IPin(b, "A"))
		d.AddNet("ya"+s, netlist.IPin(a, "Y"), netlist.IPin(at("ca"+s, "DFF_X1", x+30, y), "D"))
		d.AddNet("yb"+s, netlist.IPin(b, "Y"), netlist.IPin(at("cb"+s, "DFF_X1", x+30, y+10), "D"))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	beol, _ := tech.NewBEOL28("logic", 6)
	db := route.NewDB(geom.R(0, 0, 2500, 100+30*float64(w/40+1)), beol, nil, route.Options{GCellPitch: 10})
	res, err := route.RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	return d, extract.Extract(d, res, db, tech.CornerScale{CellDelay: 1, WireR: 1, WireC: 1, Leakage: 1})
}

// TestUpdateAllocsAfterTopoEdit: on a warmed engine, an Update that
// follows a topology edit patches the rows of the edited net and of the
// instances on it and takes the order again, all inside the engine's
// buffers. What it still allocates is the report and its traced paths,
// so a design twenty times larger costs the same objects — not one per
// instance, which is what the per-instance appends of the old topology
// build cost.
func TestUpdateAllocsAfterTopoEdit(t *testing.T) {
	updateAllocs := func(w int) float64 {
		d, ex := lanes(t, w)
		e, err := NewEngine(d, ex, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(2000); err != nil {
			t.Fatal(err)
		}
		// The edit: swap the two sinks of one net (and their Elmore
		// slots) — the cached sink indices of its input arcs go stale,
		// so it is a topology change.
		n := d.Net("q0")
		rc, ids := ex.Nets[n.ID], []int{n.ID}
		return testing.AllocsPerRun(10, func() {
			n.Sinks[0], n.Sinks[1] = n.Sinks[1], n.Sinks[0]
			rc.ElmoreTo[0], rc.ElmoreTo[1] = rc.ElmoreTo[1], rc.ElmoreTo[0]
			e.Invalidate(ids, nil, true)
			if _, err := e.Update(2000, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := updateAllocs(50), updateAllocs(1000)
	t.Logf("allocs per Update: %.0f at 250 instances, %.0f at 5000", small, large)
	if large > small || large > 3 {
		t.Fatalf("Update after a topology edit allocates %.0f objects at 5000 instances, %.0f at 250: want no growth, and at most 3",
			large, small)
	}
}

// TestUpdateAllocsReportOnly: an Update that follows a resize (no
// topology edit) allocates the report, its path list and the one step
// array the traced paths share — nothing per endpoint or per path,
// whatever the design's size.
func TestUpdateAllocsReportOnly(t *testing.T) {
	for _, w := range []int{50, 1000} {
		d, ex := lanes(t, w)
		e, err := NewEngine(d, ex, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(2000); err != nil {
			t.Fatal(err)
		}
		a := d.Instance("a0")
		sizes := []*cell.Cell{d.Lib.MustCell("INV_X4"), a.Master}
		ids, i := []int{a.ID}, 0
		allocs := testing.AllocsPerRun(10, func() {
			a.Master = sizes[i%2]
			i++
			e.Invalidate(nil, ids, false)
			if _, err := e.Update(2000, nil); err != nil {
				t.Fatal(err)
			}
		})
		// The report, Paths, and the step array.
		if allocs > 3 {
			t.Fatalf("Update after a resize allocates %.0f objects at %d instances, want at most 3", allocs, 5*w)
		}
	}
}

// TestLevelizeAllocs: levelize sizes the order for every combinational
// instance, and for every instance the design's ID capacity has room
// for, before the first release instead of growing it append by append
// (13 objects for the 2 000 gates of lanes(1000)): from an empty order a
// levelization costs the same few objects at any size — one, and one
// more of the race detector's — from a warm one none, and the order is
// the same. A design that reserved IDs (netlist.Design.ReserveIDs) gets
// an order with room for them.
func TestLevelizeAllocs(t *testing.T) {
	cold := func(w int, reserve bool) float64 {
		d, ex := lanes(t, w)
		if reserve {
			d.ReserveIDs()
		}
		nInst, _ := d.IDCap()
		room := nInst - len(d.Instances)
		e, err := NewEngine(d, ex, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(e.order)
		levelize := func() {
			if err := e.levelize(); err != nil {
				t.Fatal(err)
			}
		}
		if warm := testing.AllocsPerRun(10, levelize); warm != 0 {
			t.Fatalf("a warm levelize allocates %.0f objects, want 0", warm)
		}
		allocs := testing.AllocsPerRun(10, func() { e.order = nil; levelize() })
		if n := len(want) + room; !slices.Equal(e.order, want) || cap(e.order) < n || cap(e.order) > n+n/8 {
			t.Fatalf("levelize from an empty order: order of %d in %d, want the %d of before with room for %d more", len(e.order), cap(e.order), len(want), room)
		}
		return allocs
	}
	if reserved := cold(50, true); reserved > 2 {
		t.Fatalf("levelize of a reserved design from an empty order allocates %.0f objects, want at most 2", reserved)
	}
	small, large := cold(50, false), cold(1000, false)
	if small != large || large > 2 {
		t.Fatalf("levelize from an empty order allocates %.0f objects at 100 gates, %.0f at 2 000: want no growth, and at most 2", small, large)
	}
}
