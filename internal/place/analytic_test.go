package place

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strings"
	"testing"

	"macro3d/internal/core"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/par"
	"macro3d/internal/piton"
	"macro3d/internal/tech"
)

// tileFixture builds the piton tile floorplan for the given cache
// config, so the quality bound runs on both cache sizes.
func tileFixture(t testing.TB, cfg piton.Config) (*netlist.Design, *floorplan.Floorplan) {
	t.Helper()
	tile, err := piton.Generate(cfg)
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
	return d, fp
}

// mol3DFixture is the small tile as Macro-3D places it: the memory
// macros floorplanned onto the macro die, shrunk to filler size with
// their pins on the _MD layers, over the superimposed floorplan.
func mol3DFixture(t testing.TB) (*netlist.Design, *floorplan.Floorplan) {
	t.Helper()
	tile, err := piton.Generate(piton.SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	sz, err := floorplan.SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := floorplan.PlaceMacros(d, sz.Die3D, floorplan.StyleMoL); err != nil {
		t.Fatal(err)
	}
	floorplan.AssignPorts(tile, sz.Die3D)
	logic, _ := tech.NewBEOL28("logic", 6)
	macro, _ := tech.NewBEOL28("macro", 6)
	filler := d.Lib.MustCell("FILL_X1")
	md, err := core.PrepareMoL(d, logic, macro, tech.DefaultF2F(), sz.Die3D, filler.Width, filler.Height)
	if err != nil {
		t.Fatal(err)
	}
	return md.Design, md.FP
}

// TestDescentStopsAtTargetOverflow pins the stop rule and the premise it
// rests on, on the small tile's 2D and Macro-3D floorplans. Place's last
// iterate is the first at or below analyticTargetOverflow — the same
// descent run by hand crosses the target there and nowhere before, and
// ends at the HPWL Place reported — and every one of ten further iterates
// has a longer exact HPWL than it: the iterates the descent no longer
// runs would not have been kept.
func TestDescentStopsAtTargetOverflow(t *testing.T) {
	if testing.Short() {
		t.Skip("full tile placement in -short mode")
	}
	for _, tc := range []struct {
		name    string
		fixture func(testing.TB) (*netlist.Design, *floorplan.Floorplan)
	}{
		{"2d", func(t testing.TB) (*netlist.Design, *floorplan.Floorplan) { return tileFixture(t, piton.SmallCache()) }},
		{"macro3d", mol3DFixture},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{Seed: 5, Workers: 1}.withDefaults()
			d, fp := tc.fixture(t)
			rec := obs.New()
			if _, err := Place(d, fp, 1.2, Options{Seed: opt.Seed, Workers: 1, Obs: rec.StartSpan("t")}); err != nil {
				t.Fatal(err)
			}
			its := int(rec.Registry().Gauge("place_descent_iterations", "").Value())
			exitHP := rec.Registry().Gauge("place_best_hpwl_um", "").Value()
			if its < 1 || its >= opt.Iters {
				t.Fatalf("descent ran %d of %d iterations: it never reached the target", its, opt.Iters)
			}

			d, fp = tc.fixture(t)
			bins := newBinGrid(fp.Die, opt.BinPitch, fp.PlaceBlk, maxFill)
			st, _ := newDescent(d, movableCells(d), bins, opt, new(par.Team))
			for it := range its {
				if ovf := st.iterate(it, opt.Iters); (ovf <= analyticTargetOverflow) != (it == its-1) {
					t.Fatalf("iterate %d has overflow %.4f; Place stopped after iterate %d", it, ovf, its-1)
				}
			}
			if hp := st.hpwl(); hp != exitHP {
				t.Fatalf("exit iterate HPWL %.6g µm by hand, %.6g µm in Place", hp, exitHP)
			}
			for it := its; it < its+10; it++ {
				st.iterate(it, opt.Iters)
				if hp := st.hpwl(); hp <= exitHP {
					t.Errorf("iterate %d (%d past the exit) has HPWL %.6g µm ≤ the exit's %.6g µm", it, it-its+1, hp, exitHP)
				}
			}
			t.Logf("stopped after %d iterations at HPWL %.4f m", its, exitHP/1e6)
		})
	}
}

// TestPlaceAnalyticQuality is the placer's headline bound on both cache
// sizes: the placement must be legal and its post-legalization HPWL no
// worse than what the quadratic solve + spread placer it replaced
// reached on the same tile at the same seed (1.106 m and 3.057 m,
// recorded at commit 6951ce7; this placer lands at 0.917 m and 2.006 m).
func TestPlaceAnalyticQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("full tile placement in -short mode")
	}
	for _, tc := range []struct {
		name      string
		cfg       piton.Config
		quadratic float64 // µm
	}{
		{"small-cache", piton.SmallCache(), 1.106e6},
		{"large-cache", piton.LargeCache(), 3.057e6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, fp := tileFixture(t, tc.cfg)
			res, err := Place(d, fp, 1.2, Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if viol := CheckLegal(d, fp); len(viol) > 0 {
				t.Fatalf("placement illegal: %d violations, e.g. %v", len(viol), viol[0])
			}
			if res.HPWL > tc.quadratic {
				t.Fatalf("HPWL %.3f m worse than the quadratic placer's %.3f m", res.HPWL/1e6, tc.quadratic/1e6)
			}
			t.Logf("HPWL %.3f m (quadratic %.3f m), disp %.1f µm, ovf %.4f",
				res.HPWL/1e6, tc.quadratic/1e6, res.Displacement, res.Overflow)
		})
	}
}

// TestPlaceAnalyticDeterminism pins the bit-identity contract of the
// descent: Workers 1, 4 and 0 (GOMAXPROCS) place every instance
// identically and report identical Result fields.
func TestPlaceAnalyticDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full tile placement in -short mode")
	}
	var ref *Result
	var refD *netlist.Design
	for _, w := range []int{1, 4, 0} {
		d, fp := tileFixture(t, piton.SmallCache())
		r, err := Place(d, fp, 1.2, Options{Seed: 5, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refD = r, d
			continue
		}
		if *r != *ref {
			t.Fatalf("result diverged at workers=%d: %+v vs %+v", w, *r, *ref)
		}
		for i := range d.Instances {
			if d.Instances[i].Loc != refD.Instances[i].Loc {
				t.Fatalf("instance %s placed differently at workers=%d: %v vs %v",
					d.Instances[i].Name, w, d.Instances[i].Loc, refD.Instances[i].Loc)
			}
		}
	}
}

// TestPlaceAnalyticChain is the cheap smoke: a tiny serial-path design
// still comes out legal, fully placed and short.
func TestPlaceAnalyticChain(t *testing.T) {
	d, fp := chainDesign(50)
	res, err := Place(d, fp, 1.2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if viol := CheckLegal(d, fp); len(viol) > 0 {
		t.Fatalf("illegal placement: %v", viol[0])
	}
	if res.HPWL <= 0 || res.HPWL > 400 {
		t.Fatalf("chain HPWL = %.1f µm", res.HPWL)
	}
	for _, inst := range d.Instances {
		if !inst.Fixed && !inst.Placed {
			t.Fatalf("instance %s left unplaced", inst.Name)
		}
	}
}

// locDigest is a SHA-256 over every instance's Loc bits, in instance
// order: the whole placement as one comparable value.
func locDigest(d *netlist.Design) string {
	h := sha256.New()
	var b [16]byte
	for _, inst := range d.Instances {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(inst.Loc.X))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(inst.Loc.Y))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlaceDigest pins the placer's output (go1.24 / amd64,
// Options{Seed: 5}) at any Workers setting. The literals were re-pinned
// once, over parent commit 6102dd1: the wirelength kernel now takes its
// exponentials once per point about the grid centre instead of per pin
// about the net's bounding box, the same ratios rounded differently, so
// the descent's last bits moved (TestNetPassMatchesReference holds the
// two kernels together to 1e-12; flows.TestKernelRewriteKeepsQoR holds
// the QoR).
func TestPlaceDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  piton.Config
		want string
	}{
		{"tiny", piton.Tiny(), "874369634bddf793710b2aff6142f3644c4e25dbcfd917ab24fc44d6e485b471"},
		{"small", piton.SmallCache(), "2e122e37e952ce29b54faf423f7621189ca9282b33233c8d6055352ef0cea5b3"},
		{"large", piton.LargeCache(), "b0304cb55f5fc0b0c9e62c1a7589a8dd651524d54f9b997cc47d31d7b1d31bc6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name != "tiny" {
				t.Skip("full tile placement in -short mode")
			}
			for _, w := range []int{1, 2, 4, 0} {
				d, fp := tileFixture(t, tc.cfg)
				if _, err := Place(d, fp, 1.2, Options{Seed: 5, Workers: w}); err != nil {
					t.Fatal(err)
				}
				if got := locDigest(d); got != tc.want {
					t.Errorf("workers=%d: placement digest %s, want %s", w, got, tc.want)
				}
			}
		})
	}
}

// refPinCoord is the per-object reference the slot table replaces: the
// frozen anchor location for ports and fixed macros, the current cell
// centre for everything the placer may move.
func refPinCoord(p netlist.PinRef, pos []geom.Point) geom.Point {
	if p.Port != nil {
		return p.Port.Loc
	}
	if p.Inst.Fixed {
		return p.Loc()
	}
	return pos[p.Inst.ID]
}

// analyticFixture builds the descent state of a tile the way
// Place does, with nets added that the generator never emits: one with
// two pins on the same cell, one with a single pin, one between two
// ports and one between two cells that sit on the same spot.
func analyticFixture(t testing.TB, cfg piton.Config) (*netlist.Design, []*netlist.Instance, []geom.Point, *analyticState) {
	t.Helper()
	d, fp := tileFixture(t, cfg)
	movable := movableCells(d)
	u := movable[len(movable)/2]
	in := u.Master.Pins[0].Name
	d.AddNet("t_two_pins_one_cell", netlist.PPin(d.Ports[0]), netlist.IPin(u, in), netlist.IPin(u, in))
	d.AddNet("t_one_pin", netlist.IPin(u, in))
	d.AddNet("t_frozen_only", netlist.PPin(d.Ports[0]), netlist.PPin(d.Ports[1]))
	v, w := movable[len(movable)/3], movable[2*len(movable)/3]
	d.AddNet("t_coincide", netlist.IPin(v, v.Master.Pins[0].Name), netlist.IPin(w, w.Master.Pins[0].Name))
	st := fixtureState(d, fp, new(par.Team))
	st.pos[w.ID] = st.pos[v.ID]
	return d, movable, st.pos, st
}

// fixtureState builds the descent state of a floorplanned design with
// its cells scattered about the die centre, fanning out on team.
func fixtureState(d *netlist.Design, fp *floorplan.Floorplan, team *par.Team) *analyticState {
	opt := Options{}.withDefaults()
	rng := geom.NewRNG(7)
	bins := newBinGrid(fp.Die, opt.BinPitch, fp.PlaceBlk, maxFill)
	st := newAnalyticState(d, movableCells(d), bins, opt.BinPitch, team)
	for _, inst := range d.Instances {
		st.pos[inst.ID] = inst.Center()
		if !inst.Fixed {
			st.pos[inst.ID] = geom.Pt(fp.Die.Center().X+rng.Norm()*fp.Die.W()/8, fp.Die.Center().Y+rng.Norm()*fp.Die.H()/8)
		}
	}
	return st
}

// TestPinTables: walking the slot CSRs yields the same (net, pin,
// coordinate) sequence as PinAt / refPinCoord and the same per-cell net
// sequence as NetsOfInstance, over every kind of pin.
func TestPinTables(t *testing.T) {
	d, movable, pos, st := analyticFixture(t, piton.Tiny())
	var ports, fixedPins, clockNets, onePin, twoOnOne int
	for _, n := range d.Nets {
		s0, s1 := int(st.netStart[n.ID]), int(st.netStart[n.ID+1])
		if s1-s0 != n.NumPins() {
			t.Fatalf("net %s: %d slots, %d pins", n.Name, s1-s0, n.NumPins())
		}
		if force := !n.Clock && n.NumPins() >= 2; st.force[n.ID] != force {
			t.Fatalf("net %s: force %v, want %v", n.Name, st.force[n.ID], force)
		}
		if n.Clock {
			clockNets++
		}
		if n.NumPins() < 2 {
			onePin++
		}
		for i := 0; i < n.NumPins(); i++ {
			p, s := n.PinAt(i), s0+i
			if got, want := pos[st.slotPin[s]], refPinCoord(p, pos); got != want {
				t.Fatalf("net %s pin %d: slot coordinate %v, want %v", n.Name, i, got, want)
			}
			frozen := p.Port != nil || p.Inst.Fixed
			switch {
			case p.Port != nil:
				ports++
			case p.Inst.Fixed:
				fixedPins++
			}
			if frozen != (int(st.slotPin[s]) >= st.frozen0) || (!frozen && int(st.slotPin[s]) != p.Inst.ID) {
				t.Fatalf("net %s pin %d: slotPin %d, frozen %v", n.Name, i, st.slotPin[s], frozen)
			}
		}
	}
	adj := d.NetsOfInstance()
	for k, inst := range movable {
		slots := st.cellSlot[st.cellStart[k]:st.cellStart[k+1]]
		row := adj.Of(inst.ID)
		if len(slots) != len(row) {
			t.Fatalf("cell %s: %d slots, %d adjacency entries", inst.Name, len(slots), len(row))
		}
		for j, s := range slots {
			n := d.Nets[row[j]]
			if s < st.netStart[n.ID] || s >= st.netStart[n.ID+1] || int(st.slotPin[s]) != inst.ID {
				t.Fatalf("cell %s entry %d: slot %d is not its pin on net %s", inst.Name, j, s, n.Name)
			}
			if j > 0 && row[j-1] == row[j] {
				twoOnOne++
				if slots[j-1] == s {
					t.Fatalf("cell %s: slot %d listed twice", inst.Name, s)
				}
			}
		}
	}
	if ports == 0 || fixedPins == 0 || clockNets == 0 || onePin == 0 || twoOnOne == 0 {
		t.Fatalf("fixture misses a pin kind: ports %d, fixed pins %d, clock nets %d, one-pin nets %d, two-pins-one-cell %d",
			ports, fixedPins, clockNets, onePin, twoOnOne)
	}
}

// refSolve is the by-object seed the flat-table sweeps replaced: Jacobi
// sweeps of the star-model quadratic system walking *netlist.Net pins
// and the NetsOfInstance adjacency.
func refSolve(d *netlist.Design, movable []*netlist.Instance, pos []geom.Point, die geom.Rect, sweeps int) {
	adj := d.NetsOfInstance()
	cx := make([]float64, len(d.Nets))
	cy := make([]float64, len(d.Nets))
	deg := make([]float64, len(d.Nets))
	for range sweeps {
		for _, n := range d.Nets {
			if n.Clock {
				continue
			}
			var sx, sy, k float64
			for i := range n.NumPins() {
				c := refPinCoord(n.PinAt(i), pos)
				sx += c.X
				sy += c.Y
				k++
			}
			cx[n.ID], cy[n.ID], deg[n.ID] = sx/k, sy/k, k
		}
		for _, inst := range movable {
			var sx, sy, wt float64
			for _, id := range adj.Of(inst.ID) {
				n := d.Nets[id]
				if n.Clock || deg[n.ID] < 2 {
					continue
				}
				nw := n.Weight / (deg[n.ID] - 1)
				sx += cx[n.ID] * nw
				sy += cy[n.ID] * nw
				wt += nw
			}
			if wt > 0 {
				pos[inst.ID] = die.Expand(-1).ClampPoint(geom.Pt(sx/wt, sy/wt))
			}
		}
	}
}

// TestSeedMatchesObjectLoop: the seed over the slot tables visits the
// same pins and nets in the same order as the by-object loops, so it
// lands on the same bits; and the net weights taken on the slot walk are
// the ones a walk by pin name takes, bump-crossing nets included.
func TestSeedMatchesObjectLoop(t *testing.T) {
	for _, cfg := range []piton.Config{piton.Tiny(), piton.SmallCache()} {
		if testing.Short() && cfg.Name != piton.Tiny().Name {
			continue
		}
		d, fp := tileFixture(t, cfg)
		// A cell on the macro die, so that some nets cross a bump.
		movable := movableCells(d)
		logic, _ := tech.NewBEOL28("logic", 6)
		macro, _ := tech.NewBEOL28("macro", 6)
		combined, err := tech.Combine(logic, macro, tech.DefaultF2F())
		if err != nil {
			t.Fatal(err)
		}
		views := &core.DieViews{Combined: combined}
		if movable[0].Master, err = views.MacroDie(movable[0].Master); err != nil {
			t.Fatal(err)
		}
		st := fixtureState(d, fp, new(par.Team))

		want := slices.Clone(st.pos[:len(d.Instances)])
		refSolve(d, movable, want, fp.Die, analyticSeedIters)
		st.seed(d, analyticSeedIters)
		for _, inst := range d.Instances {
			if got := st.pos[inst.ID]; got != want[inst.ID] {
				t.Fatalf("%s: %s seeded at %v, by-object loop at %v", cfg.Name, inst.Name, got, want[inst.ID])
			}
		}
		bumped := 0
		for _, n := range d.Nets {
			hasMD, hasBase := false, false
			for i := range n.NumPins() {
				if l := n.PinAt(i).Layer(); strings.HasSuffix(l, tech.MDSuffix) {
					hasMD = true
				} else if l != "" {
					hasBase = true
				}
			}
			wt := n.Weight
			if hasMD && hasBase {
				wt *= analyticBumpWeight
				bumped++
			}
			if st.wnet[n.ID] != wt {
				t.Fatalf("%s: net %s weighs %v, want %v", cfg.Name, n.Name, st.wnet[n.ID], wt)
			}
		}
		if bumped == 0 {
			t.Fatalf("%s: no net crosses a bump — the weight check is vacuous", cfg.Name)
		}
	}
}

// refNetGrad is the plain per-net reference the kernel is held to: the
// net's bounding box, math.Exp of every pin's max-shifted exponent on
// both sides, and the WA gradient with its divisions written out. It
// returns each pin's gradient and the scale an error in it is relative
// to: the magnitude of the terms it sums — a/A, (a/A)(x−f)/γ and the two
// on the min side — before any of them cancel.
func refNetGrad(at []geom.Point, wt, gamma float64) (grad, scale []geom.Point) {
	axis := func(x []float64) (g, sc []float64) {
		hi, lo := slices.Max(x), slices.Min(x)
		var A, B, Ax, Bx float64
		a, b := make([]float64, len(x)), make([]float64, len(x))
		for i, xi := range x {
			a[i], b[i] = math.Exp((xi-hi)/gamma), math.Exp((lo-xi)/gamma)
			A += a[i]
			Ax += xi * a[i]
			B += b[i]
			Bx += xi * b[i]
		}
		f, m := Ax/A, Bx/B
		for i, xi := range x {
			ta, tb := (a[i]/A)*(1+(xi-f)/gamma), (b[i]/B)*(1-(xi-m)/gamma)
			g = append(g, wt*(ta-tb))
			sc = append(sc, wt*((a[i]/A)*(1+math.Abs(xi-f)/gamma)+(b[i]/B)*(1+math.Abs(xi-m)/gamma)))
		}
		return
	}
	xs, ys := make([]float64, len(at)), make([]float64, len(at))
	for i, c := range at {
		xs[i], ys[i] = c.X, c.Y
	}
	gx, sx := axis(xs)
	gy, sy := axis(ys)
	for i := range at {
		grad, scale = append(grad, geom.Pt(gx[i], gy[i])), append(scale, geom.Pt(sx[i], sy[i]))
	}
	return
}

// netCoords gathers the pin coordinates of net n from the slot table.
func (st *analyticState) netCoords(n int) []geom.Point {
	var at []geom.Point
	for _, i := range st.slotPin[st.netStart[n]:st.netStart[n+1]] {
		at = append(at, st.pos[i])
	}
	return at
}

// wideFixture is a chain of cells on a die as many bins wide as the
// descent accepts, with a port and a cell at either far corner — the
// largest exponents the kernel ever takes — and a net between the ports.
func wideFixture(t testing.TB) *analyticState {
	d, _ := chainDesign(40)
	opt := Options{BinPitch: 10}.withDefaults()
	die := geom.R(0, 0, maxGridBins*opt.BinPitch, 12)
	in := die.Expand(-1)
	d.Ports[0].Loc, d.Ports[1].Loc = in.LL(), geom.Pt(in.Ux, in.Uy)
	d.AddNet("t_frozen_only", netlist.PPin(d.Ports[0]), netlist.PPin(d.Ports[1]))
	bins := newBinGrid(die, opt.BinPitch, nil, maxFill)
	if bins.grid.NX != maxGridBins {
		t.Fatalf("wide grid is %d bins across, want %d", bins.grid.NX, maxGridBins)
	}
	movable := movableCells(d)
	st := newAnalyticState(d, movable, bins, opt.BinPitch, new(par.Team))
	rng := geom.NewRNG(11)
	for _, inst := range movable {
		st.pos[inst.ID] = st.inner.ClampPoint(geom.Pt(die.Lx+rng.Float64()*die.W(), die.Ly+rng.Float64()*die.H()))
	}
	st.pos[movable[0].ID], st.pos[movable[len(movable)-1].ID] = st.inner.LL(), geom.Pt(st.inner.Ux, st.inner.Uy)
	return st
}

// TestNetPassMatchesReference: with every exponential taken once per
// point about the grid centre and no shift, bounding box, math.Exp or
// division in the net pass, each pin's gradient equals the max-shifted
// per-pin reference to 1e-12 of its terms — on all three tiles and at
// the widest grid accepted, at both ends of the γ schedule, over nets
// whose pins coincide, sit twice on one cell, are all frozen, or span
// the die corner to corner.
func TestNetPassMatchesReference(t *testing.T) {
	check := func(t *testing.T, st *analyticState) {
		for _, gamma := range []float64{4 * st.pitch, 0.5 * st.pitch} {
			st.gamma = gamma
			st.expPass(0, 0, len(st.movID)+len(st.pos)-st.frozen0)
			st.netPass(0, 0, len(st.wnet))
			var coincide, frozenOnly, checked int
			var worst float64
			for n := range st.wnet {
				s0, s1 := st.netStart[n], st.netStart[n+1]
				if !st.force[n] {
					for _, g := range st.slotGrad[s0:s1] {
						if g != (geom.Point{}) {
							t.Fatalf("net %d exerts no force but has gradient %v", n, g)
						}
					}
					continue
				}
				at := st.netCoords(n)
				if at[0] == at[1] {
					coincide++
				}
				if int(slices.Min(st.slotPin[s0:s1])) >= st.frozen0 {
					frozenOnly++
				}
				want, scale := refNetGrad(at, st.wnet[n], gamma)
				for i, got := range st.slotGrad[s0:s1] {
					if math.Abs(got.X-want[i].X) > 1e-12*scale[i].X || math.Abs(got.Y-want[i].Y) > 1e-12*scale[i].Y {
						t.Fatalf("γ %g net %d pin %d at %v: gradient %.17g, reference %.17g (terms %.17g)",
							gamma, n, i, at[i], got, want[i], scale[i])
					}
					worst = max(worst, math.Abs(got.X-want[i].X)/scale[i].X, math.Abs(got.Y-want[i].Y)/scale[i].Y)
					checked++
				}
			}
			t.Logf("γ %g: %d pins, largest relative error %.2g", gamma, checked, worst)
			if checked == 0 || coincide == 0 || frozenOnly == 0 {
				t.Fatalf("γ %g: %d pins checked, %d nets with coinciding pins, %d frozen-only nets", gamma, checked, coincide, frozenOnly)
			}
		}
	}
	for _, cfg := range []piton.Config{piton.Tiny(), piton.SmallCache(), piton.LargeCache()} {
		t.Run(cfg.Name, func(t *testing.T) {
			if testing.Short() && cfg.Name != piton.Tiny().Name {
				t.Skip("full tile in -short mode")
			}
			_, movable, pos, st := analyticFixture(t, cfg)
			for _, inst := range movable {
				pos[inst.ID] = st.inner.ClampPoint(pos[inst.ID])
			}
			check(t, st)
		})
	}
	t.Run("widest-grid", func(t *testing.T) { check(t, wideFixture(t)) })
}

// TestWAGradientFiniteDifference: the gradient the net pass writes is
// the derivative of the WA wirelength Σ wt·(x_max^WA − x_min^WA + same in
// y), evaluated here the plain way, by central difference.
func TestWAGradientFiniteDifference(t *testing.T) {
	_, movable, pos, st := analyticFixture(t, piton.Tiny())
	soft := func(x []float64, gamma float64) float64 {
		hi, lo := slices.Max(x), slices.Min(x)
		var A, B, Ax, Bx float64
		for _, xi := range x {
			a, b := math.Exp((xi-hi)/gamma), math.Exp((lo-xi)/gamma)
			A, Ax, B, Bx = A+a, Ax+xi*a, B+b, Bx+xi*b
		}
		return Ax/A - Bx/B
	}
	// wl is the WA wirelength of the nets that pull on cell k.
	wl := func(k int, gamma float64) (sum float64) {
		for _, s := range st.cellSlot[st.cellStart[k]:st.cellStart[k+1]] {
			n, _ := slices.BinarySearch(st.netStart, s+1)
			n--
			// A net the cell has two pins on is met twice.
			if !st.force[n] || (s > st.netStart[n] && st.slotPin[s-1] == st.slotPin[s]) {
				continue
			}
			var xs, ys []float64
			for _, c := range st.netCoords(n) {
				xs, ys = append(xs, c.X), append(ys, c.Y)
			}
			sum += st.wnet[n] * (soft(xs, gamma) + soft(ys, gamma))
		}
		return
	}
	for _, gamma := range []float64{4 * st.pitch, 0.5 * st.pitch} {
		st.gamma = gamma
		st.expPass(0, 0, len(st.movID)+len(st.pos)-st.frozen0)
		st.netPass(0, 0, len(st.wnet))
		for k := range movable {
			var gx, gy, scale float64
			for _, s := range st.cellSlot[st.cellStart[k]:st.cellStart[k+1]] {
				gx, gy = gx+st.slotGrad[s].X, gy+st.slotGrad[s].Y
				scale += math.Abs(st.slotGrad[s].X) + math.Abs(st.slotGrad[s].Y)
			}
			p, h := &pos[movable[k].ID], 1e-4*gamma
			at := *p
			p.X = at.X + h
			dx := wl(k, gamma)
			p.X = at.X - h
			dx = (dx - wl(k, gamma)) / (2 * h)
			*p = geom.Pt(at.X, at.Y+h)
			dy := wl(k, gamma)
			p.Y = at.Y - h
			dy = (dy - wl(k, gamma)) / (2 * h)
			*p = at
			if tol := 1e-6 * (scale + 1); math.Abs(dx-gx) > tol || math.Abs(dy-gy) > tol {
				t.Fatalf("γ %g cell %s: gradient (%g, %g), finite difference (%g, %g)", gamma, movable[k].Name, gx, gy, dx, dy)
			}
		}
	}
}

// TestFieldGradientPerBin: the central difference field takes once per
// bin is, to the bit, the expression the cell pass used to evaluate for
// every cell from the potential around its bin.
func TestFieldGradientPerBin(t *testing.T) {
	_, _, _, st := analyticFixture(t, piton.Tiny())
	st.charge()
	st.field()
	g, phi := st.bins.grid, st.pois.phi
	var nonzero int
	for k, b := range st.binOf {
		ix, iy := g.Coords(int(b))
		xl, xr := max(ix-1, 0), min(ix+1, g.NX-1)
		yl, yr := max(iy-1, 0), min(iy+1, g.NY-1)
		var ddx, ddy float64
		if xr > xl {
			ddx = (phi[g.Index(xr, iy)] - phi[g.Index(xl, iy)]) / (float64(xr-xl) * g.DX)
		}
		if yr > yl {
			ddy = (phi[g.Index(ix, yr)] - phi[g.Index(ix, yl)]) / (float64(yr-yl) * g.DY)
		}
		if st.fgx[b] != ddx || st.fgy[b] != ddy {
			t.Fatalf("cell %d in bin (%d, %d): field gradient (%v, %v), per-cell expression (%v, %v)", k, ix, iy, st.fgx[b], st.fgy[b], ddx, ddy)
		}
		if ddx != 0 || ddy != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("flat field — the comparison is vacuous")
	}
}

// TestPlaceRefusesWideGrid: the range of the unshifted exponentials is a
// property of the bin grid, so Place refuses a grid past maxGridBins
// before it moves anything, and at the limit every location it writes is
// finite and legal.
func TestPlaceRefusesWideGrid(t *testing.T) {
	for _, bins := range []int{maxGridBins + 1, maxGridBins} {
		d, _ := chainDesign(60)
		fp := &floorplan.Floorplan{Die: geom.R(0, 0, float64(bins)*10, 12)}
		d.Ports[0].Loc, d.Ports[1].Loc = geom.Pt(fp.Die.Lx, 6), geom.Pt(fp.Die.Ux, 6)
		_, err := Place(d, fp, 1.2, Options{Seed: 1, BinPitch: 10})
		if bins > maxGridBins {
			if err == nil {
				t.Fatalf("a grid %d bins across was accepted", bins)
			}
			for _, inst := range d.Instances {
				if inst.Placed || inst.Loc != (geom.Point{}) {
					t.Fatalf("refused placement still moved %s to %v", inst.Name, inst.Loc)
				}
			}
			continue
		}
		if err != nil {
			t.Fatalf("a grid %d bins across was refused: %v", bins, err)
		}
		for _, inst := range d.Instances {
			if math.IsNaN(inst.Loc.X+inst.Loc.Y) || math.IsInf(inst.Loc.X+inst.Loc.Y, 0) {
				t.Fatalf("%s placed at %v", inst.Name, inst.Loc)
			}
		}
		if viol := CheckLegal(d, fp); len(viol) > 0 {
			t.Fatalf("illegal placement at the widest grid: %v", viol[0])
		}
	}
}

// TestPlaceTranslated is the translation pair at the placer: the small
// tile moved by 2¹⁶ µm and by 10⁶ µm in x and y — die, place blockages,
// fixed instances and ports — places to a legalized HPWL within 0.1 %
// of the untranslated run's, with finite overflow and displacement, and
// every exponential the descent takes has its argument inside the
// vector kernel's ±expRange. That is the centring's work: the arguments
// are (x − c)/γ about the bin grid's centre c, bounded by the bins
// across the die; taken as x/γ, 10⁶ µm at γ = 20 µm would overflow.
func TestPlaceTranslated(t *testing.T) {
	run := func(off float64) (res *Result, widest float64) {
		d, fp := tileFixture(t, piton.SmallCache())
		by := geom.Pt(off, off)
		fp.Die = fp.Die.Translate(by)
		for i := range fp.PlaceBlk {
			fp.PlaceBlk[i].Rect = fp.PlaceBlk[i].Rect.Translate(by)
		}
		for _, inst := range d.Instances {
			if inst.Fixed {
				inst.Loc = inst.Loc.Add(by)
			}
		}
		for _, p := range d.Ports {
			p.Loc = p.Loc.Add(by)
		}
		// Place's descent, replayed to read the points every exponential
		// is taken at: after iteration it the step pass has taken them at
		// the next iteration's γ, st.gamma.
		opt := Options{Seed: 1, Workers: 1}.withDefaults()
		bins := newBinGrid(fp.Die, opt.BinPitch, fp.PlaceBlk, maxFill)
		st, _ := newDescent(d, movableCells(d), bins, opt, new(par.Team))
		args := func(gamma float64) {
			for j := range len(st.movID) + len(st.pos) - st.frozen0 {
				i := st.frozen0 + j - len(st.movID)
				if j < len(st.movID) {
					i = int(st.movID[j])
				}
				widest = max(widest, math.Abs(st.pos[i].X-st.centre.X)/gamma, math.Abs(st.pos[i].Y-st.centre.Y)/gamma)
			}
		}
		g0, _ := st.schedule(0, opt.Iters)
		args(g0)
		for it, ovf := 0, math.Inf(1); it < opt.Iters && ovf > analyticTargetOverflow; it++ {
			ovf = st.iterate(it, opt.Iters)
			args(st.gamma)
		}
		res, err := Place(d, fp, 1.2, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res, widest
	}
	ref, _ := run(0)
	for _, off := range []float64{1 << 16, 1e6} {
		res, widest := run(off)
		if rel := math.Abs(res.HPWL-ref.HPWL) / ref.HPWL; rel > 1e-3 {
			t.Errorf("moved by %g µm: HPWL %.1f µm, %.1f µm in place (%.3g %%)", off, res.HPWL, ref.HPWL, 100*rel)
		}
		for _, v := range []float64{res.Overflow, res.Displacement, res.MaxDisp, res.GlobalHPWL} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("moved by %g µm: result %+v is not finite", off, *res)
			}
		}
		if widest > expRange {
			t.Errorf("moved by %g µm: an exponential's argument reaches %g, past ±%d", off, widest, expRange)
		}
		t.Logf("moved by %g µm: HPWL %.1f µm (%.1f in place), widest argument %.1f", off, res.HPWL, ref.HPWL, widest)
	}
}

// TestDescentAllocs: a descent iteration touches only the state's own
// arrays and hands its fork-joins to the run's resident team, so it
// allocates nothing at Workers 1 or 2, and a whole placement's
// allocation count does not grow with the iteration count (the clean-up
// round and the legalizer see different positions, worth an object or
// two either way — not one per iteration).
func TestDescentAllocs(t *testing.T) {
	d, fp := tileFixture(t, piton.Tiny())
	for _, workers := range []int{1, 2} {
		var team par.Team
		team.Start(workers, nil)
		defer team.Close()
		st := fixtureState(d, fp, &team)
		st.iterate(0, 160)
		it := 1
		if a := testing.AllocsPerRun(20, func() {
			st.iterate(it, 160)
			st.hpwl()
			it++
		}); a != 0 {
			t.Errorf("workers=%d: one descent iteration allocates %.0f objects, want 0", workers, a)
		}
	}
	whole := func(iters int) float64 {
		return testing.AllocsPerRun(3, func() {
			d, fp := chainDesign(200)
			if _, err := Place(d, fp, 1.2, Options{Seed: 1, Workers: 1, Iters: iters}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := whole(4), whole(160); math.Abs(long-short) > 8 {
		t.Errorf("placement allocates %.0f objects at 4 iterations, %.0f at 160", short, long)
	}
}

// BenchmarkWLGradient is everything one iteration spends on wirelength
// on the small tile at one worker: the exponentials of every point, the
// net pass (gather, WA sums, pin gradients) and the cell pass that reads
// them.
func BenchmarkWLGradient(b *testing.B) {
	_, _, _, st := analyticFixture(b, piton.SmallCache())
	st.gamma = 4 * st.pitch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.expPass(0, 0, len(st.movID)+len(st.pos)-st.frozen0)
		st.netPass(0, 0, len(st.wnet))
		st.cellPass(0, 0, len(st.movID))
	}
}

// BenchmarkPoissonSolve is one iteration's density field on the small
// tile: bin charge to potential through the two-level Jacobi cascade,
// and the potential's gradient at every bin.
func BenchmarkPoissonSolve(b *testing.B) {
	_, _, _, st := analyticFixture(b, piton.SmallCache())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.field()
	}
}
