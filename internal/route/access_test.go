package route

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
)

// wallDB is a 10 × 10-gcell DB of 10 µm gcells over the 6-layer stack
// with one obstruction: layers 0–3 are walls over gcell columns x = 3–5.
func wallDB(t *testing.T) *DB {
	t.Helper()
	var blk []floorplan.RouteBlockage
	for _, l := range db6(t, geom.R(0, 0, 100, 100), nil).Beol.Layers[:4] {
		blk = append(blk, floorplan.RouteBlockage{Layer: l.Name, Rect: geom.R(30, 0, 60, 100)})
	}
	return db6(t, geom.R(0, 0, 100, 100), blk)
}

// TestPinAccessIsCapacity: a wall gcell-layer holds one track for each
// pin in its column. The escape wire of a pin in the obstruction's edge
// column is no overflow, adds no history and makes no rip-up victim; a
// second net's wire in that gcell-layer is one overflow, and that net is
// the only victim.
func TestPinAccessIsCapacity(t *testing.T) {
	db := wallDB(t)
	if c, _ := db.Tracks(At(3, 5, 2)); c != 0 {
		t.Fatalf("the obstruction left gcell (3, 5) on layer 2 %d tracks, want a wall", c)
	}
	if c, _ := db.Tracks(At(2, 5, 2)); c == 0 {
		t.Fatal("gcell (2, 5) on layer 2 beside the obstruction is a wall")
	}
	nets := []*netlist.Net{{Name: "pin", ID: 0}, {Name: "other", ID: 1}}
	res := &Result{Routes: []*NetRoute{{
		// The pin at (3, 5) on layer 2 escapes west out of the wall.
		PinNode:  []Node{At(3, 5, 2), At(0, 5, 2)},
		Segments: []Seg{{At(3, 5, 2), At(0, 5, 2)}},
	}, nil}}
	db.CommitRoute(res, 0)
	cells, bins, access := db.overflowed(res)
	if over := db.Overflow(res); over != 0 || access != 1 {
		t.Fatalf("pin escape: overflow %d, pin access %d; want 0 and 1", over, access)
	}
	db.bumpHistory(cells)
	if slices.ContainsFunc(db.hist, func(h float32) bool { return h != 0 }) {
		t.Fatal("pin access added history")
	}
	if v := db.overflowedNets(res, nets, cells, bins); len(v) != 0 {
		t.Fatalf("pin access made victims %v", v)
	}

	// A second net's wire enters the same gcell-layer from the west.
	res.Routes[1] = &NetRoute{
		PinNode:  []Node{At(1, 5, 2), At(1, 5, 0)},
		Segments: []Seg{{At(1, 5, 2), At(3, 5, 2)}},
	}
	db.CommitRoute(res, 1)
	cells, bins, access = db.overflowed(res)
	if over := db.Overflow(res); over != 1 || access != 0 {
		t.Fatalf("second net's wire: overflow %d, pin access %d; want 1 and 0", over, access)
	}
	if v := db.overflowedNets(res, nets, cells, bins); len(v) != 1 || v[0] != nets[1] {
		var names []string
		for _, n := range v {
			names = append(names, n.Name)
		}
		t.Fatalf("victims %v, want only the second net", names)
	}
}

// TestPinAccessNeedsNoNegotiation: a net whose only over-capacity use is
// its macro pin's access — the pin sits on a wall layer in the
// obstruction's edge column, and every low-layer L the short connection
// may take runs into it — routes with no rip-up iteration, and the stage
// span and the route_pin_access_gcells gauge show the access the
// overflow no longer counts; the span also carries the route's segments
// and via cuts.
func TestPinAccessNeedsNoNegotiation(t *testing.T) {
	rec := obs.New()
	var events bytes.Buffer
	rec.SetSink(&events)
	sp := rec.StartSpan("route")
	db := wallDB(t)
	db.opt.Obs = sp
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d := netlist.NewDesign("access", lib)
	a := d.AddInstance("a", lib.MustCell("INV_X1"))
	a.Loc = geom.Pt(5, 55)
	m := d.AddInstance("m", &cell.Cell{
		Name: "mac", Kind: cell.KindMacro, Width: 30, Height: 100,
		Pins: []cell.Pin{{Name: "D", Dir: cell.DirIn, Cap: 2, Layer: db.Beol.Layers[2].Name,
			Offset: geom.Pt(5, 55)}},
	})
	m.Fixed, m.Placed = true, true
	m.Loc = geom.Pt(30, 0)
	d.AddNet("n", netlist.IPin(a, "Y"), netlist.IPin(m, "D"))
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	access := 0 // wall gcell-layers in the pin's column that wires use
	for l := range 4 {
		if _, used := db.Tracks(At(3, 5, l)); used > 0 {
			access++
		}
	}
	if access == 0 {
		t.Fatal("no wire enters the wall in the pin's column; the test needs pin access")
	}
	if res.Overflow != 0 || db.hist != nil {
		t.Fatalf("overflow %d, history plane %v: pin access was negotiated", res.Overflow, db.hist != nil)
	}
	checkConnected(t, db, res.Routes[0])
	sp.End()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	gauge := rec.Registry().Gauge("route_pin_access_gcells", "").Value()
	want := fmt.Sprintf(`"pin_access":%d,"segments":%d,"via_cuts":%d`, access, len(res.Routes[0].Segments), res.Vias)
	if gauge != float64(access) || !strings.Contains(events.String(), want) {
		t.Fatalf("pin access %d: gauge %v, span events %s, want %s", access, gauge, events.String(), want)
	}
}

// TestVictimReroutesIntoItsSpan: a rip-up victim whose new route fits
// the span its old one held is written there, so the result's segment
// slab hands out nothing for it.
func TestVictimReroutesIntoItsSpan(t *testing.T) {
	d := twoPinDesign(210, 110)
	db := db6(t, geom.R(0, 0, 300, 300), nil)
	res, err := RouteDesign(d, db)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Routes[0]
	span, was := &r.Segments[0], slices.Clone(r.Segments)
	s := db.scratch()
	tk := &netTask{net: d.Nets[0], route: r, edges: make([][2]int, 0, len(r.PinNode)-1), old: r.Segments}
	if err := db.prepTask(tk, s); err != nil {
		t.Fatal(err)
	}
	// Released and rerouted over the same landscape: the same route.
	if err := db.routePass(nil, []*netTask{tk}, false, res, s); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Segments, was) {
		t.Fatalf("reroute %v, was %v", r.Segments, was)
	}
	if &r.Segments[0] != span {
		t.Fatal("the victim's reroute took a new span of the segment slab")
	}
}
