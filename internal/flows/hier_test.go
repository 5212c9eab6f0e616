package flows

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
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
	cfg.Verify = true
	rep, err := RunHierArray(cfg, HardenMacro3D, 2, 2)
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
// configuration is served from the stash — bit-identical abstract,
// no sub-block flow run — and that the harden traffic counters see it.
func TestHardenCacheWarm(t *testing.T) {
	store, err := stash.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := hierCfg()
	cfg.Cache = store

	cold, err := Harden(cfg, HardenMacro3D)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first harden hit an empty cache")
	}
	warm, err := Harden(cfg, HardenMacro3D)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second harden missed the cache")
	}
	if warm.State != nil || warm.PPA != nil {
		t.Fatal("warm harden carries implementation state")
	}
	if !bytes.Equal(encodeAbstract(cold.Abstract), encodeAbstract(warm.Abstract)) {
		t.Fatal("cached abstract differs from the freshly built one")
	}
	st := store.Stats()
	if st.HardenHits != 1 || st.HardenMisses != 1 {
		t.Fatalf("harden traffic = %d hits / %d misses, want 1/1", st.HardenHits, st.HardenMisses)
	}

	// A different seed is a different block: it must not share the entry.
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	other, err := Harden(cfg2, HardenMacro3D)
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit {
		t.Fatal("different seed hit the first seed's cache entry")
	}
}

// TestHierArrayCancelReachesParent: RunHierArrayCtx's context reaches the
// parent level, so a cancellation that lands after hardening — in the
// tile flow's last stage, with no stage boundary left for it to stop at —
// stops the parent at its first one.
func TestHierArrayCancelReachesParent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := hierCfg()
	cfg.AfterStage = func(flow, stage string, _ *State) {
		if flow == "Macro-3D" && stage == StagePower {
			cancel()
		}
	}
	_, err := RunHierArrayCtx(ctx, cfg, HardenMacro3D, 2, 2)
	var se *StageError
	if !errors.Is(err, context.Canceled) || !errors.As(err, &se) || se.Flow != "hier" || se.Stage != StageCompose {
		t.Fatalf("want the parent stopped at its first stage boundary, got %v", err)
	}
}

// FuzzDecodeAbstract holds the harden cache's payload decoder — it reads
// bytes from disk — to FuzzDecodeResult's contract: no panic, no
// allocation sized by a corrupt count (a pin or obstruction count is held
// to the bytes left), and whatever decodes re-encodes to the same bytes.
// The corpus is a good encoding and the two counts that once allocated
// before the decoder failed: 45 bytes claiming 1<<20 pins (583 MB) and 53
// claiming 1<<24 obstructions (4.9 GB).
func FuzzDecodeAbstract(f *testing.F) {
	good := &cell.Cell{
		Name: "tile_abs", Width: 120, Height: 80, DriveRes: 1.5, Leakage: 7,
		Pins: []cell.Pin{
			{Name: "clk_i", Dir: cell.DirIn, Cap: 2, Offset: geom.Pt(0, 40), Layer: "M4", Clock: true},
			{Name: "d_i", Dir: cell.DirIn, Cap: 1.2, Offset: geom.Pt(0, 10), Layer: "M4", Setup: 310},
			{Name: "q_o", Dir: cell.DirOut, Offset: geom.Pt(120, 10), Layer: "M4", ClkQ: 95},
		},
		Obstructions: []cell.Obstruction{
			{Layer: "M2", Rect: geom.R(0, 0, 60, 80)},
			{Layer: "M3_MD", Rect: geom.R(30, 15, 45, 75)},
		},
		Abstract: &cell.AbstractInfo{SourceFlow: "Macro-3D", SourceConfig: "tiny", MinPeriodPs: 1200, EnergyPerCycleFJ: 4e4, LeakageUW: 7e-3, F2FBumps: 12},
	}
	f.Add(encodeAbstract(good))
	bomb := func(nPins, nObs int) []byte {
		e := stash.NewEnc()
		e.Str("a")
		for range 4 {
			e.F64(1)
		}
		e.Int(nPins)
		if nObs > 0 {
			e.Int(nObs)
		}
		return e.Bytes()
	}
	f.Add(bomb(1<<20, 0)) // 45 bytes
	f.Add(bomb(0, 1<<24)) // 53 bytes
	f.Fuzz(func(t *testing.T, b []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c, err := decodeAbstract(b)
		runtime.ReadMemStats(&m1)
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(16*len(b)+64<<10); got > limit && !raceEnabled {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(b), got, limit)
		}
		if err != nil {
			return
		}
		if again := encodeAbstract(c); !bytes.Equal(again, b) {
			t.Fatalf("%d bytes decode but re-encode to %d different ones", len(b), len(again))
		}
	})
}

// TestHierArrayDeterministic pins the parallel-engine guarantee on the
// hierarchical flow: identical results at any worker count.
func TestHierArrayDeterministic(t *testing.T) {
	run := func(workers int) *HierReport {
		cfg := hierCfg()
		cfg.Workers = workers
		rep, err := RunHierArray(cfg, HardenMacro3D, 2, 2)
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
	if !bytes.Equal(encodeAbstract(a.Abstract), encodeAbstract(b.Abstract)) {
		t.Fatal("abstract differs across worker counts")
	}
}
