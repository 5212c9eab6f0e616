package flows

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"macro3d/internal/lefdef"
	"macro3d/internal/piton"
	"macro3d/internal/stash"
)

// resetTiles empties the tile table so that a test counts its own
// builds, and returns the build count it starts from. The tests of this
// package that run flows do not run in parallel with one another.
func resetTiles() int64 {
	tiles.mu.Lock()
	defer tiles.mu.Unlock()
	tiles.entries = nil
	return tiles.builds.Load()
}

// TestMemo: concurrent first requests build once; the table keeps the
// memoCap most recently used keys; a key that never equals itself
// builds on every request without growing the table; a panicking build
// reaches its caller and leaves an error for the next.
func TestMemo(t *testing.T) {
	m := memo[float64, float64]{build: func(k float64) (float64, error) {
		if k < 0 {
			panic("negative key")
		}
		return 2 * k, nil
	}}
	get := func(k float64) float64 {
		t.Helper()
		v, err := m.get(k)
		if err != nil || (v != 2*k && !math.IsNaN(k)) {
			t.Fatalf("get(%v) = %v, %v", k, v, err)
		}
		return v
	}
	builds := func(want int64) {
		t.Helper()
		if got := m.builds.Load(); got != want {
			t.Fatalf("%d builds, want %d", got, want)
		}
	}

	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() { defer wg.Done(); get(1) }()
	}
	wg.Wait()
	builds(1)

	for _, k := range []float64{2, 3, 4, 1, 5} { // 1 is refreshed, so 5 evicts 2
		get(k)
	}
	builds(5)
	get(1)
	builds(5)
	get(2)
	builds(6)

	for range 10 {
		get(math.NaN())
	}
	builds(16)
	if len(m.entries) != memoCap {
		t.Fatalf("%d entries, want %d", len(m.entries), memoCap)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a panicking build did not reach its caller")
			}
		}()
		m.get(-1)
	}()
	if _, err := m.get(-1); err == nil {
		t.Fatal("a panicked build left no error")
	}
	builds(17)
}

// TestTileTemplates: Table I on the tiny tile builds its two tiles — the
// real one, shared by the four flows, and the pseudo flows' half-area one
// — once each, C2D's pseudo tile is the real one again, and after all
// five flows the libraries every copy shares render the LEF a fresh
// Generate's do: no flow wrote to a shared master.
func TestTileTemplates(t *testing.T) {
	base := resetTiles()
	cfg := Config{Piton: piton.Tiny(), Seed: 7}
	if _, _, err := Run2D(cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunS2D(cfg, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunS2D(cfg, true); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := RunMacro3D(cfg); err != nil {
		t.Fatal(err)
	}
	if n := tiles.builds.Load() - base; n != 2 {
		t.Fatalf("Table I built %d tiles, want 2", n)
	}
	if _, _, err := RunC2D(cfg); err != nil {
		t.Fatal(err)
	}
	if n := tiles.builds.Load() - base; n != 2 {
		t.Fatalf("the five flows built %d tiles, want 2", n)
	}

	pseudo := cfg.Piton
	pseudo.TargetLogicArea *= pseudoSpecs["S2D"].area
	for _, pc := range []piton.Config{cfg.Piton, pseudo} {
		tmpl, err := tiles.get(pc)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := piton.Generate(pc)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := lefdef.WriteLEF(&got, nil, tmpl.Design.Lib); err != nil {
			t.Fatal(err)
		}
		if err := lefdef.WriteLEF(&want, nil, fresh.Design.Lib); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%.0f µm² tile: the shared library renders %d LEF bytes, a fresh one %d", pc.TargetLogicArea, got.Len(), want.Len())
		}
	}
	if n := tiles.builds.Load() - base; n != 2 {
		t.Fatalf("reading the templates built %d tiles, want 2", n)
	}
}

// TestConcurrentRunsMatchSerial: 2D and Macro-3D started together on one
// configuration with no template yet — both ask for it at once — end
// where the same flows run one after the other, uncached, do: first with
// no cache, then sharing one byte-capped stage cache (`make race` runs
// it under the detector). The shared cache evicts to stay under its
// cap, and what it keeps is whole: warm runs over it hit and match.
// It stays outside TestDeterminism: it tests the stash's byte cap and
// eviction and the template race, not one axis.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	cfg := tinyCfg()
	want2D, _, err := Run2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want3D, _, _, err := RunMacro3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both flows' snapshots total ≈ 405 kB on the tiny tile, the largest
	// ≈ 200 kB: the cap holds any one, not all.
	const capBytes = 300 << 10
	dir := t.TempDir()
	capped, err := stash.OpenLimited(dir, capBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []*stash.Store{nil, capped} {
		resetTiles()
		cfg.Cache = store
		var got2D, got3D *PPA
		var err2D, err3D error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); got2D, _, err2D = Run2D(cfg) }()
		go func() { defer wg.Done(); got3D, _, _, err3D = RunMacro3D(cfg) }()
		wg.Wait()
		if err2D != nil || err3D != nil {
			t.Fatal(err2D, err3D)
		}
		if *got2D != *want2D || *got3D != *want3D {
			t.Fatalf("concurrent runs (cache %v) differ from serial ones:\n%+v\n%+v\nserial\n%+v\n%+v", store != nil, *got2D, *got3D, *want2D, *want3D)
		}
	}

	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range snaps {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > capBytes || capped.Stats().Evictions == 0 {
		t.Fatalf("shared cache holds %d B under a %d B cap after %d evictions", total, capBytes, capped.Stats().Evictions)
	}
	// Warm runs through the capped store would evict the very entries
	// they are about to read (a sequential scan over an LRU), so they
	// read what it kept through an uncapped one: the last entry stored
	// always survives, so at least one of them hits.
	warm, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = warm
	warm2D, _, err := Run2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm3D, _, _, err := RunMacro3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats().Hits == 0 {
		t.Fatalf("warm runs after the concurrent ones never hit the shared cache: %+v", warm.Stats())
	}
	if *warm2D != *want2D || *warm3D != *want3D {
		t.Fatalf("warm runs differ from serial ones:\n%+v\n%+v\nserial\n%+v\n%+v", *warm2D, *warm3D, *want2D, *want3D)
	}
}
