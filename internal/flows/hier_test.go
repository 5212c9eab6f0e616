package flows

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/stash"
	"macro3d/internal/tech"
)

func hierCfg() Config {
	return Config{Piton: piton.Tiny(), Seed: 7}
}

// TestHardenAbstract checks that hardening the tiny tile through the
// Macro-3D flow produces a well-formed abstract: every tile port
// becomes a boundary pin, the clock pin exists, the boundary timing
// model is populated, and the obstructions include the macro-die
// (_MD) layers the implementation routed on.
func TestHardenAbstract(t *testing.T) {
	hr, err := Harden(hierCfg(), HardenMacro3D)
	if err != nil {
		t.Fatal(err)
	}
	abs := hr.Abstract
	if abs == nil || abs.Abstract == nil {
		t.Fatal("no abstract produced")
	}
	if hr.CacheHit {
		t.Fatal("cacheless harden reported a cache hit")
	}
	if abs.Abstract.MinPeriodPs <= 0 {
		t.Fatalf("abstract MinPeriodPs = %v", abs.Abstract.MinPeriodPs)
	}
	if abs.Width <= 0 || abs.Height <= 0 {
		t.Fatalf("degenerate abstract %v×%v", abs.Width, abs.Height)
	}
	if got, want := len(abs.Pins), len(hr.State.Design.Ports); got != want {
		t.Fatalf("abstract has %d pins, tile has %d ports", got, want)
	}
	if abs.ClockPin() == nil {
		t.Fatal("abstract has no clock pin")
	}
	var setups, clkqs, md int
	for _, p := range abs.Pins {
		if p.Setup > 0 {
			setups++
		}
		if p.ClkQ > 0 {
			clkqs++
		}
	}
	if setups == 0 || clkqs == 0 {
		t.Fatalf("boundary timing model empty: %d setups, %d clk→out arcs", setups, clkqs)
	}
	if len(abs.Obstructions) == 0 {
		t.Fatal("abstract has no routing obstructions")
	}
	for _, o := range abs.Obstructions {
		if strings.HasSuffix(o.Layer, tech.MDSuffix) {
			md++
		}
		r := o.Rect
		if r.Lx < -1e-6 || r.Ly < -1e-6 || r.Ux > abs.Width+1e-6 || r.Uy > abs.Height+1e-6 {
			t.Fatalf("obstruction %v on %s outside the abstract frame", r, o.Layer)
		}
	}
	if md == 0 {
		t.Fatal("Macro-3D-hardened abstract has no _MD-layer obstructions")
	}
}

// TestHierArrayClosesAtTile proves the hierarchical §V-1 argument:
// 2×2 abstract instances composed by abutment verify clean and close
// timing at the tile's own period.
func TestHierArrayClosesAtTile(t *testing.T) {
	cfg := hierCfg()
	cfg.Check = true
	rep, err := RunHierArray(context.Background(), cfg, HardenMacro3D, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ClosesAtTile {
		t.Fatalf("array period %.1f ps does not close at tile period %.1f ps",
			rep.ArrayPeriodPs, rep.TilePeriodPs)
	}
	if rep.ArrayPeriodPs < rep.TilePeriodPs {
		t.Fatalf("array period %.1f ps below the tile floor %.1f ps",
			rep.ArrayPeriodPs, rep.TilePeriodPs)
	}
	if rep.StitchedNets == 0 {
		t.Fatal("no stitched inter-tile nets")
	}
	if rep.EnergyPerCycleFJ <= 0 || rep.LeakageUW <= 0 {
		t.Fatalf("power accounting empty: E=%v fJ, leak=%v µW",
			rep.EnergyPerCycleFJ, rep.LeakageUW)
	}
	if n := len(rep.Design.Instances); n != 4 {
		t.Fatalf("parent design has %d instances, want 4", n)
	}
	// Composition registers the abstract in the hardened tile's own
	// library, not in the one its template shares with every run.
	tmpl, err := tiles.get(cfg.Piton)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Design.Lib.Cell(rep.Abstract.Name) != rep.Abstract || tmpl.Design.Lib.Cell(rep.Abstract.Name) != nil {
		t.Fatal("the abstract is not in the parent's library alone")
	}
}

// TestHardenCacheWarm checks that a second harden of the same
// configuration is served from the stage cache — bit-identical
// abstract, no sub-block flow run — as one hit of the harden region:
// the cold run misses it and the place and sign-off regions nested in
// it, the warm one reads the abstract alone.
func TestHardenCacheWarm(t *testing.T) {
	dir := t.TempDir()
	harden := func(cfg Config) (*HardenResult, stash.Stats) {
		t.Helper()
		store, err := stash.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = store
		hr, err := Harden(cfg, HardenMacro3D)
		if err != nil {
			t.Fatal(err)
		}
		return hr, store.Stats()
	}
	cold, cs := harden(hierCfg())
	if cold.CacheHit {
		t.Fatal("first harden hit an empty cache")
	}
	if cs.Hits != 0 || cs.Misses != 3 || cs.Puts != 3 {
		t.Fatalf("cold stage cache = %d hits / %d misses / %d puts, want 0/3/3", cs.Hits, cs.Misses, cs.Puts)
	}
	warm, ws := harden(hierCfg())
	if !warm.CacheHit {
		t.Fatal("second harden missed the cache")
	}
	if ws.Hits != 1 || ws.Misses != 0 {
		t.Fatalf("warm stage cache = %d hits / %d misses, want 1/0", ws.Hits, ws.Misses)
	}
	if warm.State != nil || warm.PPA != nil {
		t.Fatal("warm harden carries implementation state")
	}
	if got := renderStages(warm.Trace); got != "generate harden*" || !warm.Trace.Completed {
		t.Fatalf("warm harden trace = %q (completed %v)", got, warm.Trace.Completed)
	}
	if !bytes.Equal(abstractBytes(cold.Abstract), abstractBytes(warm.Abstract)) {
		t.Fatal("cached abstract differs from the freshly built one")
	}

	// A different seed is a different block: it must not share the entry.
	cfg2 := hierCfg()
	cfg2.Seed++
	if other, _ := harden(cfg2); other.CacheHit {
		t.Fatal("different seed hit the first seed's cache entry")
	}
}

// TestHardenUnknownFlow: a flow name Harden does not take fails before
// the run touches the cache — a flow that is not in the table, and one
// that is but does not harden.
func TestHardenUnknownFlow(t *testing.T) {
	for _, flow := range []string{"bogus", "s2d"} {
		store, err := stash.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := hierCfg()
		cfg.Cache = store
		if _, err := Harden(cfg, flow); err == nil {
			t.Errorf("Harden(%q) succeeded", flow)
		}
		if st := store.Stats(); st != (stash.Stats{}) {
			t.Errorf("Harden(%q) touched the cache: %+v", flow, st)
		}
	}
}

// TestHardenCacheVerify runs Config.Check against a hardened
// abstract: an intact snapshot re-runs clean, and one re-framed with a
// different minimum period fails the run at the harden region and is
// evicted.
func TestHardenCacheVerify(t *testing.T) {
	dir := t.TempDir()
	store, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hierCfg()
	cfg.Cache = store
	cold, err := Harden(cfg, HardenMacro3D)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Check = true
	if _, err := Harden(cfg, HardenMacro3D); err != nil {
		t.Fatalf("verifying an intact cache: %v", err)
	}

	key := hardenRegionKey(t, cfg)
	tampered := *cold.Abstract
	info := *tampered.Abstract
	info.MinPeriodPs += 100
	tampered.Abstract = &info
	store.Evict(key)
	if err := store.Put(key, abstractBytes(&tampered)); err != nil {
		t.Fatal(err)
	}
	_, err = Harden(cfg, HardenMacro3D)
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "harden" || !strings.Contains(se.Cause.Error(), "cache verify") {
		t.Fatalf("want a cache-verify StageError at stage harden, got %v", err)
	}
	if _, ok := store.Get(key); ok {
		t.Fatal("the tampered snapshot was not evicted")
	}
}

// hardenRegionKey is the key of the harden region of a Macro-3D harden
// on cfg: the flow's root, derived by the region's name and material.
func hardenRegionKey(t *testing.T, cfg Config) stash.Key {
	t.Helper()
	cfg = cfg.withDefaults()
	tc, err := tech.New28(logicMetals)
	if err != nil {
		t.Fatal(err)
	}
	root, err := rootKey("Macro-3D", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return root.Derive("harden", hardenMaterial(cfg, tc))
}

// abstractBytes is the harden region's snapshot of c: its LEF.
func abstractBytes(c *cell.Cell) []byte {
	e := stash.NewEnc()
	if err := WriteAbstractLEF(e, c); err != nil {
		panic(err)
	}
	return e.Bytes()
}

// TestHierArrayCancelReachesParent: RunHierArray's context reaches the
// parent level, so a cancellation that lands after hardening — in the
// tile run's last stage, condense, with no stage boundary left for it to
// stop at — stops the parent at its first one.
func TestHierArrayCancelReachesParent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := hierCfg()
	cfg.AfterStage = func(flow, stage string, _ *State) {
		if flow == "Macro-3D" && stage == StageCondense {
			cancel()
		}
	}
	_, err := RunHierArray(ctx, cfg, HardenMacro3D, 2, 2)
	var se *StageError
	if !errors.Is(err, context.Canceled) || !errors.As(err, &se) || se.Flow != "hier" || se.Stage != StageCompose {
		t.Fatalf("want the parent stopped at its first stage boundary, got %v", err)
	}
}

// TestHierArrayDeterministic pins the parallel-engine guarantee on the
// hierarchical flow: identical results at any worker count. It stays
// outside TestDeterminism, whose digest covers tile flows only.
func TestHierArrayDeterministic(t *testing.T) {
	run := func(workers int) *HierReport {
		cfg := hierCfg()
		cfg.Workers = workers
		rep, err := RunHierArray(context.Background(), cfg, HardenMacro3D, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(4)
	if a.ArrayPeriodPs != b.ArrayPeriodPs {
		t.Fatalf("array period differs across worker counts: %v vs %v",
			a.ArrayPeriodPs, b.ArrayPeriodPs)
	}
	if a.StitchedNets != b.StitchedNets || a.F2FBumps != b.F2FBumps {
		t.Fatalf("stitch results differ: %d/%d nets, %d/%d bumps",
			a.StitchedNets, b.StitchedNets, a.F2FBumps, b.F2FBumps)
	}
	if !bytes.Equal(abstractBytes(a.Abstract), abstractBytes(b.Abstract)) {
		t.Fatal("abstract differs across worker counts")
	}
}

// TestHierMatchesFlat holds the hierarchical array to the flat one built
// from the same hardened tile at 2×2 (ROADMAP item 7 (i) and (iii)):
//   - the parent's period is never below the flat array's and exceeds
//     it by no more than hierFlatBand;
//   - every gcell-layer a flat copy's tile routes occupy lies inside the
//     abstract obstructions of the parent instance at that copy's place,
//     and with one obstruction run dropped, some gcell-layer does not.
func TestHierMatchesFlat(t *testing.T) {
	// Measured on the tiny tile at seed 7: flat 709.758 ps, hier 709.794
	// ps (+0.036). The band allows about three times that.
	const hierFlatBand = 0.1 // ps
	cfg := hierCfg()
	hr, err := Harden(cfg, HardenMacro3D)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := tech.New28(logicMetals)
	if err != nil {
		t.Fatal(err)
	}
	var flatSt *State
	fcfg := cfg
	fcfg.AfterStage = func(_, _ string, s *State) { flatSt = s }
	flat, err := VerifyTileArray(fcfg, hr.State, tc, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := InstantiateArray(cfg, hr, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hier.ArrayPeriodPs < flat.ArrayPeriod-0.01 || hier.ArrayPeriodPs > flat.ArrayPeriod+hierFlatBand {
		t.Errorf("hier period %.3f ps outside [flat %.3f − 0.01, flat + %g] ps", hier.ArrayPeriodPs, flat.ArrayPeriod, hierFlatBand)
	}

	// The parent instance at each place a flat copy takes.
	res, db := flatSt.Routes, flatSt.DB
	g := db.Grid
	at := map[[2]int16]*netlist.Instance{}
	for _, inst := range hier.Design.Instances {
		if inst.Master != hier.Abstract {
			t.Fatalf("parent instance %s is a %s, not the abstract", inst.Name, inst.Master.Name)
		}
		off := inst.Loc.Sub(hier.Die.LL())
		at[[2]int16{int16(math.Round(off.X / g.DX)), int16(math.Round(off.Y / g.DY))}] = inst
	}
	// uncovered counts the gcell-layers of flat copies' tile routes that
	// lie outside obs placed at the parent instance of their copy.
	uncovered := func(obs []cell.Obstruction) int {
		n := 0
		for id, nr := range res.Routes {
			o := res.Origin(id)
			if nr == nil || !o.Placed {
				continue
			}
			inst := at[[2]int16{o.DX, o.DY}]
			if inst == nil {
				t.Fatalf("no parent instance at the flat copy placed at gcell (%d, %d)", o.DX, o.DY)
			}
			for _, s := range nr.Segments {
				if s.IsVia() {
					continue // a via takes no track
				}
				layer := db.Beol.Layers[s.A.L].Name
				for x := min(s.A.X, s.B.X); x <= max(s.A.X, s.B.X); x++ {
					for y := min(s.A.Y, s.B.Y); y <= max(s.A.Y, s.B.Y); y++ {
						// The gcell's centre, moved from the flat die to the
						// parent's.
						p := g.BinCenter(int(x+o.DX), int(y+o.DY)).Sub(flatSt.Die.LL()).Add(hier.Die.LL())
						in := false
						for _, ob := range obs {
							in = in || ob.Layer == layer && ob.Rect.Translate(inst.Loc).Contains(p)
						}
						if !in {
							n++
						}
					}
				}
			}
		}
		return n
	}
	if n := uncovered(hier.Abstract.Obstructions); n != 0 {
		t.Errorf("%d gcell-layers of the flat copies' routes lie outside the abstract's obstructions", n)
	}
	if n := uncovered(hier.Abstract.Obstructions[1:]); n == 0 {
		t.Error("dropping an obstruction run leaves every flat route covered: the check sees nothing")
	}
}
