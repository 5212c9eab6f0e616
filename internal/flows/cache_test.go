package flows

import (
	"bytes"
	"encoding/hex"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/lefdef"
	"macro3d/internal/opt"
	"macro3d/internal/piton"
	"macro3d/internal/stash"
	"macro3d/internal/tech"
)

func tinyCacheCfg() Config {
	return Config{Piton: piton.Tiny(), Seed: 7}
}

// openStore opens a stage cache over a fresh directory.
func openStore(t *testing.T) *stash.Store {
	t.Helper()
	s, err := stash.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStageCachePrefixSharing pins that runs differing only in
// TargetPeriod share the place snapshot: the target enters the chain at
// the signoff checkpoint, not the root key, and that region, routing
// included, re-runs.
func TestStageCachePrefixSharing(t *testing.T) {
	dir := t.TempDir()
	s, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCacheCfg()
	cfg.Cache = s
	maxPerf, _ := mustRun(t, "macro3d", cfg)

	s2, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg = tinyCacheCfg()
	cfg.Cache = s2
	cfg.TargetPeriod = maxPerf.MinPeriodPs * 2
	_, st := mustRun(t, "macro3d", cfg)
	if ss := s2.Stats(); ss.Hits != 1 || ss.Misses != 1 {
		t.Errorf("iso-performance run should hit the place snapshot and miss the signoff one, stats = %+v", ss)
	}
	if got, want := renderStages(st.Trace), "generate floorplan prepare place* cts route extract opt sta power"; got != want {
		t.Errorf("iso-performance stage sequence:\n got %s\nwant %s", got, want)
	}
}

// TestTechFingerprintSeesLibraryEdits: the LEF the technology fingerprint
// hashes (buildTechFingerprint) writes its numbers exactly, so a library
// edit below any fixed rounding still changes the bytes hashed, and with
// them every stage-cache key: a cache cannot serve a run on the edited
// library what a run on the old one stored.
func TestTechFingerprintSeesLibraryEdits(t *testing.T) {
	tt, err := tech.New28(logicMetals)
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	lef := func() []byte {
		var b bytes.Buffer
		if err := lefdef.WriteLEF(&b, tt.Logic, lib); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	before := lef()
	lib.MustCell("INV_X1").Intrinsic += 1e-6
	if bytes.Equal(before, lef()) {
		t.Fatal("INV_X1's intrinsic delay moved by 1e-6 ps leaves the fingerprinted LEF as it was")
	}
}

// TestStageCacheKeyStability pins the -j independence of the cache:
// serial and parallel runs produce identical keys (file names) and
// bit-identical snapshot bytes. It stays outside TestDeterminism: no
// digest sees a cache key.
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
		mustRun(t, "macro3d", cfg)
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
// piton.Config means revisiting rootKey and this test. The same holds
// for Config: each field is on rootKey's list of the deliberately
// excluded, or it moves the key material of the first checkpoint that
// depends on it — the root, the 3D stack's, the pseudo region's or the
// signoff's.
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

	tc, err := tech.New28(logicMetals)
	if err != nil {
		t.Fatal(err)
	}
	root := func(c Config) []byte {
		k, err := rootKey("Macro-3D", c)
		if err != nil {
			t.Fatal(err)
		}
		return k[:]
	}
	stack := func(c Config) []byte { return stackMaterial(c, tc) }
	signoff := func(c Config) []byte { return signoffMaterial(nil, c.budget(opt.Options{})) }
	keyed := map[string]struct {
		material func(Config) []byte
		vary     func(*Config)
	}{
		"Piton":              {root, func(c *Config) { c.Piton.L2 *= 2 }},
		"Seed":               {root, func(c *Config) { c.Seed++ }},
		"MacroDieMetals":     {stack, func(c *Config) { c.MacroDieMetals-- }},
		"F2F":                {stack, func(c *Config) { s := tc.F2F; s.Pitch *= 2; c.F2F = &s }},
		"BlockageResolution": {pseudoMaterial, func(c *Config) { c.BlockageResolution *= 2 }},
		"TargetPeriod":       {signoff, func(c *Config) { c.TargetPeriod = 900 }},
	}
	f, err := parser.ParseFile(token.NewFileSet(), "checkpoint.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var rootDoc string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "rootKey" {
			rootDoc = fn.Doc.Text()
		}
	}
	_, rootDoc, _ = strings.Cut(rootDoc, "Deliberately excluded:")
	rootDoc, _, _ = strings.Cut(rootDoc, "per-stage inputs")
	for _, sf := range reflect.VisibleFields(reflect.TypeFor[Config]()) {
		k, isKeyed := keyed[sf.Name]
		excluded := regexp.MustCompile(`\b` + sf.Name + `\b`).MatchString(rootDoc)
		switch {
		case isKeyed == excluded:
			t.Errorf("Config.%s: keyed %v, on rootKey's exclusion list %v; want exactly one", sf.Name, isKeyed, excluded)
		case isKeyed:
			varied := cfg
			k.vary(&varied)
			if bytes.Equal(k.material(cfg), k.material(varied)) {
				t.Errorf("changing Config.%s leaves the key material it enters as it was", sf.Name)
			}
		}
	}
}

// TestStageCacheCorruptionRecovery truncates every snapshot after a
// cold run: the warm run must treat them as misses, evict them,
// recompute, and still produce identical PPA — never panic or resume
// from garbage. A hardening run's truncated harden snapshot is evicted
// alone: the regions nested in it hit, condense re-runs, and the
// abstract is the cold one.
func TestStageCacheCorruptionRecovery(t *testing.T) {
	t.Run("s2d", func(t *testing.T) {
		dir := t.TempDir()
		s, err := stash.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyCacheCfg()
		cfg.Cache = s
		cold, _ := mustRun(t, "s2d", cfg)

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
		recomputed, _ := mustRun(t, "s2d", cfg)
		ws := warm.Stats()
		if ws.Evictions == 0 || ws.Misses == 0 {
			t.Errorf("corrupt snapshots must evict and miss, stats = %+v", ws)
		}
		if !reflect.DeepEqual(cold, recomputed) {
			t.Errorf("recovery PPA differs:\n  %+v\n  %+v", cold, recomputed)
		}
	})
	t.Run("harden", func(t *testing.T) {
		dir := t.TempDir()
		s, err := stash.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyCacheCfg()
		cfg.Cache = s
		cold, err := Harden(cfg, HardenMacro3D)
		if err != nil {
			t.Fatal(err)
		}
		path := s.Path(hardenRegionKey(t, cfg))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
			t.Fatal(err)
		}

		warm, err := stash.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = warm
		hr, err := Harden(cfg, HardenMacro3D)
		if err != nil {
			t.Fatal(err)
		}
		if ws := warm.Stats(); ws.Evictions != 1 {
			t.Errorf("the truncated harden snapshot must be evicted, stats = %+v", ws)
		}
		if got, want := renderStages(hr.Trace), "generate floorplan prepare place* cts signoff* power condense"; got != want {
			t.Errorf("recovery stage sequence:\n got %s\nwant %s", got, want)
		}
		if !bytes.Equal(abstractBytes(cold.Abstract), abstractBytes(hr.Abstract)) {
			t.Error("recovered abstract differs from the cold one")
		}
	})
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
	cold, _ := mustRun(t, "macro3d", cfg)

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
	recomputed, _ := mustRun(t, "macro3d", cfg)
	ws := warm.Stats()
	if ws.Evictions == 0 {
		t.Errorf("undecodable snapshots must be evicted, stats = %+v", ws)
	}
	if !reflect.DeepEqual(cold, recomputed) {
		t.Errorf("fallback PPA differs:\n  %+v\n  %+v", cold, recomputed)
	}
}

// TestStageCacheVerify runs Config.Check against a warm cache:
// every hit re-runs and must confirm bit-identical state.
func TestStageCacheVerify(t *testing.T) {
	dir := t.TempDir()
	s, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCacheCfg()
	cfg.Cache = s
	cold, _ := mustRun(t, "2d", cfg)

	warm, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg = tinyCacheCfg()
	cfg.Cache = warm
	cfg.Check = true
	verified, _ := mustRun(t, "2d", cfg)
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
	mustRun(t, "2d", cfg)
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
// alias; Version 8 stored a via stack as one segment. The names are the
// snapshots commits 6951ce7 (version 2), 6102dd1 (version 3) and fbe50e5
// (version 7) wrote for this very run (macro3d, tinyCacheCfg); a
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
		"d08e5e9b2b4e91b1fabe1ba3d0d074bf34ce3bd613e2dfa0ba2f26bbc1a1fbed.snap",
		"d68ef64f1e66ecc8f19bbf8b5bed91f9fb040f5efb6a11c41375366205ffcca8.snap",
		"fe9b9a9ac3f0be5fff3c2626c381bfd80de20de3edc1c4a7bcf4a6f1894ae79f.snap",
	}
	const own = 2 // checkpoints of one macro3d run
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
		ppa, _ := mustRun(t, "macro3d", cfg)
		return ppa, s.Stats()
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

// TestPseudoRevisionMissesPrePartitionSnapshot: the pseudo region of
// revision 1 ended before the tier partition, so its snapshot is the
// placement the partition starts from, which loads cleanly into the real
// design. Revision 2 ends with the partition, and its key must differ
// from revision 1's: a run beside such an entry does not read it, while
// the same bytes under the revision-2 key load without error and end
// the run elsewhere.
func TestPseudoRevisionMissesPrePartitionSnapshot(t *testing.T) {
	cfg := tinyCacheCfg()
	cfg.Cache = openStore(t)
	var key stash.Key
	var prePartition []byte
	f := runFlowHooked(t, "s2d", cfg, func(f *flow, name string) {
		switch name {
		case "pseudo-" + StageFloorplan:
			key = f.key // inside a region, the runner's key is the region's
		case StagePartition:
			e := stash.NewEnc()
			if err := placementCheckpoint("pseudo", nil, f.st).save(e); err != nil {
				t.Fatal(err)
			}
			prePartition = e.Bytes()
		}
	})
	cold := f.ppa

	wd := cfg.withDefaults()
	root, err := rootKey("S2D", wd)
	if err != nil {
		t.Fatal(err)
	}
	rev1 := stash.NewEnc() // pseudoMaterial as revision 1 wrote it
	rev1.Int(1)
	rev1.F64(wd.BlockageResolution)
	old := root.Derive("pseudo", rev1.Bytes())
	if key != root.Derive("pseudo", pseudoMaterial(wd)) || key == old {
		t.Fatalf("pseudo key %s; revision 1's is %s", key, old)
	}

	run := func(k stash.Key) (*PPA, stash.Stats) {
		s := openStore(t)
		if err := s.Put(k, prePartition); err != nil {
			t.Fatal(err)
		}
		cfg.Cache = s
		ppa, _ := mustRun(t, "s2d", cfg)
		return ppa, s.Stats()
	}
	if ppa, st := run(old); st.Hits != 0 || st.BytesRead != 0 || *ppa != *cold {
		t.Errorf("beside a revision-1 entry: stats %+v, PPA equal to cold %v", st, *ppa == *cold)
	}
	if ppa, st := run(key); st.Hits != 1 || st.Errors != 0 || *ppa == *cold {
		t.Errorf("the pre-partition placement under the revision-2 key: stats %+v, PPA equal to cold %v; want a clean load and another result", st, *ppa == *cold)
	}
}

// coldKeyed runs Macro-3D cold into s and returns its PPA, and the keys
// of its place and sign-off snapshots with their payloads.
func coldKeyed(t *testing.T, s *stash.Store) (*PPA, map[string]stash.Key, map[string][]byte) {
	t.Helper()
	cfg := tinyCacheCfg()
	cfg.Cache = s
	// Inside a region, the runner's key is the region's.
	first := map[string]string{StagePlace: StagePlace, StageRoute: "signoff"}
	keys := map[string]stash.Key{}
	f := runFlowHooked(t, "macro3d", cfg, func(f *flow, name string) {
		if region, ok := first[name]; ok {
			keys[region] = f.key
		}
	})
	payloads := map[string][]byte{}
	for region, k := range keys {
		p, ok := s.Get(k)
		if !ok {
			t.Fatalf("no %s snapshot", region)
		}
		payloads[region] = p
	}
	return f.ppa, keys, payloads
}

// TestCoveringSnapshotLoadFailure re-frames the sign-off snapshot, the
// one snapshot covering routing and sign-off, with a truncated payload:
// its load fails, so the whole region — routing included — re-runs and
// stores a good snapshot, and the PPA is the cold run's.
func TestCoveringSnapshotLoadFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, keys, payloads := coldKeyed(t, s)
	short := payloads["signoff"][:len(payloads["signoff"])*2/3]
	s.Evict(keys["signoff"])
	if err := s.Put(keys["signoff"], short); err != nil {
		t.Fatal(err)
	}

	warm, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCacheCfg()
	cfg.Cache = warm
	ppa, st := mustRun(t, "macro3d", cfg)
	const want = "generate floorplan prepare place* cts signoff! route extract opt sta power"
	if got := renderStages(st.Trace); got != want {
		t.Errorf("stage sequence:\n got %s\nwant %s", got, want)
	}
	ws := warm.Stats()
	if read := len(payloads[StagePlace]) + len(short); ws.BytesRead != uint64(read) || ws.Puts != 1 {
		t.Errorf("stats %+v; want the place and short sign-off payloads read (%d bytes) and the sign-off stored again", ws, read)
	}
	if stored, ok := warm.Get(keys["signoff"]); !ok || !bytes.Equal(stored, payloads["signoff"]) {
		t.Error("the sign-off snapshot stored again is not the cold run's")
	}
	if *ppa != *cold {
		t.Errorf("PPA differs from cold:\n  %+v\n  %+v", cold, ppa)
	}
}
