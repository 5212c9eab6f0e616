package main

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"macro3d"
	"macro3d/internal/stash"
)

// TestHardenCachesTheExportedLEF: the stage cache keeps a hardened
// abstract as the LEF that `macro3d harden -o` writes, byte for byte —
// one snapshot of a cold harden's cache holds exactly the exported file.
func TestHardenCachesTheExportedLEF(t *testing.T) {
	dir := t.TempDir()
	lefPath, cacheDir := filepath.Join(dir, "abs.lef"), filepath.Join(dir, "stash")
	if code := dispatch([]string{"harden", "-config", "tiny", "-cache-dir", cacheDir, "-o", lefPath}); code != 0 {
		t.Fatalf("macro3d harden: exit %d", code)
	}
	lef, err := os.ReadFile(lefPath)
	if err != nil {
		t.Fatal(err)
	}
	store, err := macro3d.OpenStageCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(cacheDir, "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for _, p := range snaps {
		var k stash.Key
		if _, err := hex.Decode(k[:], []byte(strings.TrimSuffix(filepath.Base(p), ".snap"))); err != nil {
			t.Fatal(err)
		}
		if payload, ok := store.Get(k); ok && bytes.Equal(payload, lef) {
			same++
		}
	}
	if same != 1 {
		t.Fatalf("%d of the %d snapshots hold the exported LEF (%d bytes), want 1", same, len(snaps), len(lef))
	}
}
