package ddb_test

import (
	"testing"

	"macro3d/internal/flows"
	"macro3d/internal/piton"
)

// TestIncrementalEquivalence is the equivalence property test for the
// incremental engine: every flow runs with Check enabled, so after
// each optimization iteration the journal-maintained extraction and
// the incremental STA report are compared against a from-scratch
// extract.Extract + sta.Analyze (1e-9 tolerance, per-sink Elmore,
// WNS/TNS and path order). Any divergence fails the flow's opt stage;
// the sta stage then holds the hold check it runs on the optimizer's
// engine to a from-scratch sta.Analyze with CheckHold.
//
// The flows run on four workers, so their extraction runs in four
// chunks — including under -race, which `make race` runs on this
// package — while the self-check's from-scratch extraction runs
// serially. flows.TestDeterminism holds the same configuration's final
// state to the serial reference (its checks axis).
func TestIncrementalEquivalence(t *testing.T) {
	type cacheCfg struct {
		name string
		pc   piton.Config
	}
	cfgs := []cacheCfg{{"small", piton.SmallCache()}}
	if !testing.Short() && !raceEnabled {
		cfgs = append(cfgs, cacheCfg{"large", piton.LargeCache()})
	}
	for _, cc := range cfgs {
		cfg := flows.Config{Piton: cc.pc, Seed: 1, Workers: 4, Check: true}
		t.Run(cc.name+"/2d", func(t *testing.T) {
			if _, _, err := flows.Run2D(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(cc.name+"/macro3d", func(t *testing.T) {
			if _, _, _, err := flows.RunMacro3D(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(cc.name+"/s2d", func(t *testing.T) {
			if _, _, err := flows.RunS2D(cfg, false); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(cc.name+"/bf-s2d", func(t *testing.T) {
			if _, _, err := flows.RunS2D(cfg, true); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(cc.name+"/c2d", func(t *testing.T) {
			if _, _, err := flows.RunC2D(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}
