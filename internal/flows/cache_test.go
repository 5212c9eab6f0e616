package flows

import (
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"macro3d/internal/piton"
	"macro3d/internal/stash"
)

func tinyCacheCfg() Config {
	return Config{Piton: piton.Tiny(), Seed: 7}
}

// runFlow runs the named flow and returns its PPA.
func runFlow(t *testing.T, flow string, cfg Config) *PPA {
	t.Helper()
	ppa, _, _, err := Run(context.Background(), flow, cfg)
	if err != nil {
		t.Fatalf("%s: %v", flow, err)
	}
	return ppa
}

// TestStageCacheEquivalence pins the cache's core contract for every
// flow: an uncached run, a cold cached run and a warm cached run all
// produce identical PPA, and the warm run serves every checkpoint from
// the cache.
func TestStageCacheEquivalence(t *testing.T) {
	for _, flow := range []string{"2d", "macro3d", "s2d", "bfs2d", "c2d"} {
		t.Run(flow, func(t *testing.T) {
			base := runFlow(t, flow, tinyCacheCfg())

			dir := t.TempDir()
			cold, err := stash.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tinyCacheCfg()
			cfg.Cache = cold
			coldPPA := runFlow(t, flow, cfg)
			cs := cold.Stats()
			if cs.Misses == 0 || cs.Puts == 0 || cs.Hits != 0 {
				t.Errorf("cold stats = %+v; want misses and puts, no hits", cs)
			}

			warm, err := stash.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg = tinyCacheCfg()
			cfg.Cache = warm
			warmPPA := runFlow(t, flow, cfg)
			ws := warm.Stats()
			if ws.Hits == 0 || ws.Misses != 0 {
				t.Errorf("warm stats = %+v; want all hits, no misses", ws)
			}

			if !reflect.DeepEqual(base, coldPPA) {
				t.Errorf("cold cached PPA differs from uncached:\n  %+v\n  %+v", base, coldPPA)
			}
			if !reflect.DeepEqual(base, warmPPA) {
				t.Errorf("warm cached PPA differs from uncached:\n  %+v\n  %+v", base, warmPPA)
			}
		})
	}
}

// TestStageCachePrefixSharing pins that runs differing only in
// TargetPeriod share the place and route snapshots: the target enters
// the chain at the signoff checkpoint, not the root key.
func TestStageCachePrefixSharing(t *testing.T) {
	dir := t.TempDir()
	s, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCacheCfg()
	cfg.Cache = s
	maxPerf := runFlow(t, "macro3d", cfg)

	s2, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg = tinyCacheCfg()
	cfg.Cache = s2
	cfg.TargetPeriod = maxPerf.MinPeriodPs * 2
	runFlow(t, "macro3d", cfg)
	st := s2.Stats()
	if st.Hits < 2 {
		t.Errorf("iso-performance run should hit the shared place+route prefix, stats = %+v", st)
	}
	if st.Misses == 0 {
		t.Errorf("iso-performance run must re-run signoff (different target), stats = %+v", st)
	}
}

// TestStageCacheKeyStability pins the -j independence of the cache:
// serial and parallel runs produce identical keys (file names) and
// bit-identical snapshot bytes.
func TestStageCacheKeyStability(t *testing.T) {
	snapshots := func(workers int) map[string][]byte {
		dir := t.TempDir()
		s, err := stash.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyCacheCfg()
		cfg.Cache = s
		cfg.Workers = workers
		runFlow(t, "macro3d", cfg)
		out := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = b
		}
		return out
	}

	serial := snapshots(1)
	parallel := snapshots(0)
	if len(serial) == 0 {
		t.Fatal("no snapshots written")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial run wrote %d snapshots, parallel %d", len(serial), len(parallel))
	}
	for name, b := range serial {
		pb, ok := parallel[name]
		if !ok {
			t.Errorf("parallel run lacks snapshot %s (key mismatch)", name)
			continue
		}
		if string(b) != string(pb) {
			t.Errorf("snapshot %s differs between -j 1 and -j 0", name)
		}
	}
}

// TestRootKeyCoversPitonConfig: the tile table is keyed by the whole
// piton.Config and the stage cache by the fields rootKey lists by hand,
// so every field — nested ones included — must move the key. A field of
// a kind the test cannot vary fails it too: adding a field to
// piton.Config means revisiting rootKey and this test.
func TestRootKeyCoversPitonConfig(t *testing.T) {
	cfg := tinyCacheCfg().withDefaults()
	base, err := rootKey("Macro-3D", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var vary func(v reflect.Value, path string)
	vary = func(v reflect.Value, path string) {
		for i := range v.NumField() {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			old := reflect.ValueOf(f.Interface())
			switch f.Kind() {
			case reflect.Struct:
				vary(f, name+".")
				continue
			case reflect.String:
				f.SetString(f.String() + "x")
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.5)
			default:
				t.Errorf("piton.Config.%s: no variation for kind %s", name, f.Kind())
				continue
			}
			if k, err := rootKey("Macro-3D", cfg); err != nil || k == base {
				t.Errorf("changing piton.Config.%s leaves the root key as it was (%v)", name, err)
			}
			f.Set(old)
		}
	}
	vary(reflect.ValueOf(&cfg.Piton).Elem(), "")
	if k, _ := rootKey("Macro-3D", cfg); k != base {
		t.Fatal("the test did not restore the configuration")
	}
}

// TestStageCacheCorruptionRecovery truncates every snapshot after a
// cold run: the warm run must treat them as misses, evict them,
// recompute, and still produce identical PPA — never panic or resume
// from garbage.
func TestStageCacheCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCacheCfg()
	cfg.Cache = s
	cold := runFlow(t, "s2d", cfg)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no snapshots written")
	}
	for i, e := range entries {
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			b = b[:len(b)/2] // truncation
		} else {
			b[len(b)-1] ^= 0x10 // bit flip
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg = tinyCacheCfg()
	cfg.Cache = warm
	recomputed := runFlow(t, "s2d", cfg)
	ws := warm.Stats()
	if ws.Evictions == 0 || ws.Misses == 0 {
		t.Errorf("corrupt snapshots must evict and miss, stats = %+v", ws)
	}
	if !reflect.DeepEqual(cold, recomputed) {
		t.Errorf("recovery PPA differs:\n  %+v\n  %+v", cold, recomputed)
	}
}

// TestStageCachePayloadCorruptionFallsBack re-frames a snapshot with a
// truncated payload — a valid checksum over wrong content — to pin the
// decode-validate-then-apply loader: the load fails cleanly, the entry
// is evicted, and the stage recomputes to the same result.
func TestStageCachePayloadCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCacheCfg()
	cfg.Cache = s
	cold := runFlow(t, "macro3d", cfg)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rewrap, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		hexKey := strings.TrimSuffix(e.Name(), ".snap")
		raw, err := hex.DecodeString(hexKey)
		if err != nil || len(raw) != len(stash.Key{}) {
			t.Fatalf("unexpected snapshot name %q", e.Name())
		}
		var k stash.Key
		copy(k[:], raw)
		payload, ok := rewrap.Get(k)
		if !ok {
			t.Fatalf("cannot read back %s", e.Name())
		}
		// Put is first-writer-wins (a present entry is never rewritten),
		// so displace the good snapshot before re-framing the truncated
		// payload under the same key.
		rewrap.Evict(k)
		if err := rewrap.Put(k, payload[:len(payload)*2/3]); err != nil {
			t.Fatal(err)
		}
	}

	warm, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg = tinyCacheCfg()
	cfg.Cache = warm
	recomputed := runFlow(t, "macro3d", cfg)
	ws := warm.Stats()
	if ws.Evictions == 0 {
		t.Errorf("undecodable snapshots must be evicted, stats = %+v", ws)
	}
	if !reflect.DeepEqual(cold, recomputed) {
		t.Errorf("fallback PPA differs:\n  %+v\n  %+v", cold, recomputed)
	}
}

// TestStageCacheVerify runs the paranoia mode against a warm cache:
// every hit re-runs and must confirm bit-identical state.
func TestStageCacheVerify(t *testing.T) {
	dir := t.TempDir()
	s, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCacheCfg()
	cfg.Cache = s
	cold := runFlow(t, "2d", cfg)

	warm, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg = tinyCacheCfg()
	cfg.Cache = warm
	cfg.CacheVerify = true
	verified := runFlow(t, "2d", cfg)
	ws := warm.Stats()
	if ws.Hits == 0 {
		t.Errorf("verify run should still count hits, stats = %+v", ws)
	}
	if ws.Errors != 0 || ws.Evictions != 0 {
		t.Errorf("verify run found mismatches, stats = %+v", ws)
	}
	if !reflect.DeepEqual(cold, verified) {
		t.Errorf("verified PPA differs:\n  %+v\n  %+v", cold, verified)
	}
}

// TestStageCacheDisabledWithHooks pins that runs with state-mutating
// hooks never read or write the cache.
func TestStageCacheDisabledWithHooks(t *testing.T) {
	dir := t.TempDir()
	s, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCacheCfg()
	cfg.Cache = s
	cfg.AfterStage = func(flow, stage string, st *State) {}
	runFlow(t, "2d", cfg)
	if st := s.Stats(); st.Hits+st.Misses+st.Puts != 0 {
		t.Errorf("hooked run touched the cache: %+v", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("hooked run wrote %d snapshots", len(entries))
	}
}

// TestStageCacheVersionMiss: stash.Version 3 marked the change of global
// placer and Version 4 the placer's rewritten wirelength kernel — the
// same configuration means different results, if only in their last
// bits — so a store written under an earlier version must miss, never
// alias. The names are the snapshots commits 6951ce7 (version 2) and
// 6102dd1 (version 3) wrote for this very run (macro3d, tinyCacheCfg); a
// run beside them looks none of them up, reports no decode error, leaves
// them untouched and hits only its own.
func TestStageCacheVersionMiss(t *testing.T) {
	stale := []string{
		"377d3b896c11942dc5e4514d39c18234e4db10324ff1e2934837cb6b5abd4a02.snap",
		"a21bd9863e481461cbfc75123a5a71371493fb634c433270d8acca3de9cc8ef0.snap",
		"d3ab8a6468cb9499be9fb468cb0a04814de0d5e50f3205777163f60ef67e6384.snap",
		"1620cec73f746da676253848c27b255bfd8e0d02ed5e65d55f6acc24f4c041a2.snap",
		"367f2e1793c7ac5d9e74e3792fdc04afd7b7619e84c3dfcbeeed7f5ce84e7530.snap",
		"ae3697997886b271d0cbb414de63d2af0f53deb93ebcddb96fb132ef46bbcfcc.snap",
	}
	const own = 3 // checkpoints of one macro3d run
	dir := t.TempDir()
	old := []byte("M3DSNAP1\x03\x00\x00\x00 a snapshot of an earlier version")
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), old, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func() (*PPA, stash.Stats) {
		s, err := stash.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyCacheCfg()
		cfg.Cache = s
		return runFlow(t, "macro3d", cfg), s.Stats()
	}
	cold, st := run()
	if st.Hits != 0 || st.Misses != own || st.Errors != 0 || st.Evictions != 0 {
		t.Errorf("run over a stale store: stats = %+v; want %d misses and nothing else", st, own)
	}
	for _, name := range stale {
		if b, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(b) != string(old) {
			t.Errorf("stale snapshot %s was touched (err %v)", name, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != len(stale)+own {
		t.Errorf("store holds %d entries (err %v), want the %d old and %d new", len(entries), err, len(stale), own)
	}
	warm, st := run()
	if st.Misses != 0 || st.Hits != own {
		t.Errorf("warm run: stats = %+v; want all hits", st)
	}
	if *cold != *warm {
		t.Errorf("warm PPA differs from cold:\n  %+v\n  %+v", cold, warm)
	}
}
