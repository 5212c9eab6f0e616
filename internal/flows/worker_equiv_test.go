package flows

import (
	"context"
	"runtime"
	"testing"

	"macro3d/internal/piton"
)

// TestWorkerEquivalence pins the flow-level contract of the two stages
// that fan out, placement and extraction: every flow run with Workers 1
// (the serial reference), Workers 4 (a forced four-way fan-out) and
// Workers 0 (all CPUs) must produce an identical PPA — every field,
// compared exactly, no tolerance. GOMAXPROCS is raised so Workers=0
// genuinely fans out even on single-CPU CI machines; on the small tile
// the Workers 0 run is the one the package's other tests share
// (runSmall), made at the test binary's own GOMAXPROCS.
//
// `make check` also runs this package under -race, which turns the
// test into a data-race audit of the placer's and the extraction's
// fanned-out phases.
func TestWorkerEquivalence(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	type cacheCfg struct {
		name string
		pc   piton.Config
	}
	cfgs := []cacheCfg{{"small", piton.SmallCache()}}
	if !testing.Short() && !raceEnabled {
		cfgs = append(cfgs, cacheCfg{"large", piton.LargeCache()})
	}
	// Race instrumentation slows the flows an order of magnitude;
	// serial-vs-4-workers on the small cache already exercises every
	// parallel code path under the detector.
	workerSets := []int{1, 4, 0}
	if raceEnabled {
		workerSets = []int{1, 4}
	}

	fns := []struct{ name, key string }{
		{"2d", "2d"}, {"macro3d", "macro3d"}, {"s2d", "s2d"}, {"bf-s2d", "bfs2d"}, {"c2d", "c2d"},
	}
	for _, cc := range cfgs {
		for _, f := range fns {
			t.Run(cc.name+"/"+f.name, func(t *testing.T) {
				var ref *PPA
				for _, w := range workerSets {
					var got *PPA
					if cc.pc == smallCfg().Piton && w == 0 {
						// The small tile's default-workers run is the one
						// the package's other tests share.
						sf, _ := runSmall(t, f.key)
						got = sf.ppa
					} else {
						var err error
						if got, _, _, err = Run(context.Background(), f.key, Config{Piton: cc.pc, Seed: 1, Workers: w}); err != nil {
							t.Fatalf("workers=%d: %v", w, err)
						}
					}
					if ref == nil {
						ref = got // workers=1: the serial reference
						continue
					}
					if *got != *ref {
						t.Fatalf("workers=%d PPA diverged from the serial reference:\n got: %+v\nwant: %+v",
							w, *got, *ref)
					}
				}
			})
		}
	}
}
