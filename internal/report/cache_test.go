package report

import (
	"context"
	"testing"

	"macro3d/internal/flows"
	"macro3d/internal/piton"
	"macro3d/internal/stash"
)

// TestTableIWarmCacheByteIdentical pins the sweep-level cache
// contract: a warm-cache Table I renders byte-identically to the cold
// run that populated the cache, and the warm run misses nothing.
func TestTableIWarmCacheByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cold, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := flows.Config{Piton: piton.Tiny(), Seed: 11, Cache: cold}
	tc, err := RunExperiment(context.Background(), cfg, "table1", false)
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.Puts == 0 {
		t.Fatalf("cold table run stored nothing: %+v", s)
	}

	warm, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = warm
	tw, err := RunExperiment(context.Background(), cfg, "table1", false)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Stats()
	if ws.Hits == 0 || ws.Misses != 0 {
		t.Errorf("warm table stats = %+v; want all hits", ws)
	}
	if tc.Text != tw.Text {
		t.Errorf("warm table differs from cold:\n%s\n%s", tc.Text, tw.Text)
	}
}

// TestIsoPerfSharesPrefix pins that the iso-performance experiment's
// Macro-3D run reuses the max-performance place/route snapshots when a
// prior run populated the cache.
func TestIsoPerfSharesPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := flows.Config{Piton: piton.Tiny(), Seed: 11, Cache: s}
	if _, _, _, err := flows.Run(context.Background(), "macro3d", cfg); err != nil {
		t.Fatal(err)
	}
	baseline := s.Stats()

	iso, err := isoPerf(context.Background(), cfg, []piton.Config{cfg.Piton})
	if err != nil {
		t.Fatal(err)
	}
	if iso.PPA[1] == nil || iso.Cells[1].TargetPeriod != iso.PPA[0].MinPeriodPs {
		t.Fatal("no iso-performance PPA at the 2D period")
	}
	st := s.Stats()
	if st.Hits-baseline.Hits < 2 {
		t.Errorf("iso run should hit the shared Macro-3D place+route prefix: before %+v, after %+v", baseline, st)
	}
}
