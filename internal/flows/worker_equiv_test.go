package flows

import (
	"runtime"
	"testing"

	"macro3d/internal/piton"
)

// TestWorkerEquivalence pins the parallel engines' flow-level
// contract: every flow run with Workers 1 (the serial reference
// paths in route and place), Workers 4 (a forced four-way fan-out) and
// Workers 0 (all CPUs) must produce an identical PPA — every field,
// compared exactly, no tolerance. GOMAXPROCS is raised so Workers=0
// genuinely fans out even on single-CPU CI machines.
//
// `make check` also runs this package under -race, which turns the
// test into a data-race audit of the router's and the placer's
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

	type flowFn struct {
		name string
		run  func(Config) (*PPA, error)
	}
	fns := []flowFn{
		{"2d", func(c Config) (*PPA, error) { p, _, err := Run2D(c); return p, err }},
		{"macro3d", func(c Config) (*PPA, error) { p, _, _, err := RunMacro3D(c); return p, err }},
		{"s2d", func(c Config) (*PPA, error) { p, _, err := RunS2D(c, false); return p, err }},
		{"bf-s2d", func(c Config) (*PPA, error) { p, _, err := RunS2D(c, true); return p, err }},
		{"c2d", func(c Config) (*PPA, error) { p, _, err := RunC2D(c); return p, err }},
	}
	for _, cc := range cfgs {
		for _, f := range fns {
			t.Run(cc.name+"/"+f.name, func(t *testing.T) {
				var ref *PPA
				for _, w := range workerSets {
					got, err := f.run(Config{Piton: cc.pc, Seed: 1, Workers: w})
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
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
