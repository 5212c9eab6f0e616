// Cold-versus-warm benchmark for the content-addressed stage cache.
// `make bench-stash` runs it through benchjson into BENCH_stash.json;
// the headline ratio is stash_cold_over_warm.
package macro3d_test

import (
	"context"
	"os"
	"reflect"
	"testing"

	"macro3d"
)

// stashSweep is the workload: the full Table I sweep (all four flows
// on the small-cache tile), the shape a user resumes most often.
func stashSweep(b *testing.B, cache *macro3d.StageCache) []*macro3d.PPA {
	b.Helper()
	cfg := macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1, Cache: cache}
	t, err := macro3d.RunExperiment(context.Background(), cfg, "table1", false)
	if err != nil {
		b.Fatal(err)
	}
	return t.PPA
}

// BenchmarkStashSweep measures the sweep cold (empty cache directory
// every iteration) and warm (cache pre-populated once; every iteration
// restores all checkpoints). Both sub-benchmarks verify the table
// against an uncached reference, so the speedup is over identical
// results.
func BenchmarkStashSweep(b *testing.B) {
	ref := stashSweep(b, nil)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp("", "stash-cold-*")
			if err != nil {
				b.Fatal(err)
			}
			cache, err := macro3d.OpenStageCache(dir)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			t := stashSweep(b, cache)
			b.StopTimer()
			if !reflect.DeepEqual(ref, t) {
				b.Fatal("cold cached table differs from uncached reference")
			}
			if s := cache.Stats(); s.Hits != 0 || s.Puts == 0 {
				b.Fatalf("cold stats = %+v", s)
			}
			os.RemoveAll(dir)
			b.StartTimer()
		}
	})

	b.Run("warm", func(b *testing.B) {
		dir, err := os.MkdirTemp("", "stash-warm-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		seedCache, err := macro3d.OpenStageCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		stashSweep(b, seedCache)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache, err := macro3d.OpenStageCache(dir)
			if err != nil {
				b.Fatal(err)
			}
			t := stashSweep(b, cache)
			b.StopTimer()
			if !reflect.DeepEqual(ref, t) {
				b.Fatal("warm cached table differs from uncached reference")
			}
			if s := cache.Stats(); s.Hits == 0 || s.Misses != 0 {
				b.Fatalf("warm stats = %+v", s)
			}
			b.StartTimer()
		}
	})
}
