// Flat-versus-hierarchical benchmark for the hardened-macro flow. Piped
// through benchjson it yields the harden_flat_over_hier ratio; the
// recorded claim lives in the benchmark's array-verify workload.
package macro3d_test

import (
	"os"
	"testing"

	"macro3d"
)

// BenchmarkHardenArray composes the same 4×4 tile array two ways:
//
//   - flat: sign off one tile with the Macro-3D flow, stitch the array
//     by abutment, and re-verify the flat array with full STA over all
//     N²·|cells| instances.
//   - hier: instantiate N² hardened abstracts in the parent flow —
//     route, clock tree, and sign off against the abstracts' boundary
//     timing model only. The abstract comes from the stage cache
//     (pre-warmed once in setup), the steady state for sweeps and
//     repeated parent runs.
//
// Both paths must close timing at the tile period, so the ratio is a
// wall-clock comparison over equally signed-off arrays.
func BenchmarkHardenArray(b *testing.B) {
	const n = 4
	cfg := macro3d.FlowConfig{Piton: macro3d.TinyTile(), Seed: 5}

	b.Run("flat", func(b *testing.B) {
		t, err := macro3d.New28(6)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			_, st, _, err := macro3d.RunMacro3D(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := macro3d.VerifyTileArray(cfg, st, t, n, n)
			if err != nil {
				b.Fatal(err)
			}
			if !rep.ClosesAtTile {
				b.Fatal("flat array failed timing")
			}
		}
	})

	b.Run("hier", func(b *testing.B) {
		dir, err := os.MkdirTemp("", "bench-harden-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		seedCache, err := macro3d.OpenStageCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		warm := cfg
		warm.Cache = seedCache
		if _, err := macro3d.Harden(warm, macro3d.HardenFlowMacro3D); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache, err := macro3d.OpenStageCache(dir)
			if err != nil {
				b.Fatal(err)
			}
			hcfg := cfg
			hcfg.Cache = cache
			b.StartTimer()
			rep, err := macro3d.RunHierArray(hcfg, macro3d.HardenFlowMacro3D, n, n)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if !rep.ClosesAtTile {
				b.Fatal("hierarchical array failed timing")
			}
			if !rep.HardenCacheHit {
				b.Fatal("hardened abstract missed the warm cache")
			}
			b.StartTimer()
		}
	})
}
