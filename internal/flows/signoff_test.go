package flows

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"macro3d/internal/piton"
	"macro3d/internal/tech"
)

// runFlowInside runs the named flow as Run does and returns its working
// set, and whether the optimizer's engine reached the sta stage with an
// invalidation pending — what a rolled-back last iteration leaves.
func runFlowInside(t *testing.T, key string, cfg Config) (f *flow, pending bool) {
	t.Helper()
	f = runFlowHooked(t, key, cfg, func(f *flow, name string) {
		if name == StageSTA {
			pending = f.eng != nil && f.eng.Pending()
		}
	})
	return f, pending
}

// runFlowHooked runs the named flow as Run does, calling before ahead of
// every stage body that runs — regions' sub-stages included — and
// returns its working set.
func runFlowHooked(t *testing.T, key string, cfg Config, before func(f *flow, name string)) *flow {
	t.Helper()
	for _, e := range flowTable {
		if e.key != key {
			continue
		}
		f := &flow{runner: newRunner(context.Background(), e.name, cfg.withDefaults(), &State{}), dies: e.dies}
		list := e.stages(f)
		var hook func(list []stage)
		hook = func(list []stage) {
			for i := range list {
				s := &list[i]
				hook(s.sub)
				if body, name := s.body, s.name; body != nil {
					s.body = func() error { before(f, name); return body() }
				}
			}
		}
		hook(list)
		if err := f.exec(list); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		f.finish()
		return f
	}
	t.Fatalf("no flow %q", key)
	return nil
}

// smallRuns holds each flow's run on the small tile at seed 1
// (smallCfg), which several tests read and none writes, so the package
// runs each once.
var smallRuns struct {
	sync.Mutex
	m map[string]smallRun
}

type smallRun struct {
	f       *flow
	pending bool
}

// runSmall is runFlowInside on smallCfg, run once per flow.
func runSmall(t *testing.T, key string) (f *flow, pending bool) {
	t.Helper()
	smallRuns.Lock()
	defer smallRuns.Unlock()
	r, ok := smallRuns.m[key]
	if !ok {
		r.f, r.pending = runFlowInside(t, key, smallCfg())
		if smallRuns.m == nil {
			smallRuns.m = map[string]smallRun{}
		}
		smallRuns.m[key] = r
	}
	return r.f, r.pending
}

// TestHoldOnOptimizerEngine: for every flow on both tiles (the small one
// alone under -race, the tiny one alone under -short), hold sign-off on
// the engine the optimizer ran on equals a from-scratch Analyze with
// CheckHold — on at least one run whose last optimizer iteration was
// rolled back and left its invalidation pending. No run's copy of the
// tile template indexes a name but those its optimizer added, and no run
// writes the template's index.
func TestHoldOnOptimizerEngine(t *testing.T) {
	configs := []piton.Config{piton.Tiny(), piton.SmallCache()}
	switch {
	case raceEnabled:
		configs = configs[1:]
	case testing.Short():
		configs = configs[:1]
	}
	pending := 0
	for _, pc := range configs {
		for _, key := range Names() {
			var f *flow
			var p bool
			if pc == smallCfg().Piton {
				f, p = runSmall(t, key)
			} else {
				f, p = runFlowInside(t, key, Config{Piton: pc, Seed: 1})
			}
			if p {
				pending++
			}
			want, err := f.sta(f.st.Report.MinPeriod, true)
			if err != nil {
				t.Fatal(err)
			}
			got := f.st.Report
			if got.HoldWNS != want.HoldWNS || got.HoldViolations != want.HoldViolations || got.HoldEndpoints != want.HoldEndpoints {
				t.Errorf("%s/%s: hold on the optimizer's engine (WNS %v, %d violations, %d endpoints), fresh (WNS %v, %d, %d)",
					key, pc.Name, got.HoldWNS, got.HoldViolations, got.HoldEndpoints, want.HoldWNS, want.HoldViolations, want.HoldEndpoints)
			}

			tmpl, err := tiles.get(pc)
			if err != nil {
				t.Fatal(err)
			}
			td, d := tmpl.Design, f.st.Design
			ownI, ownN, ownP := d.OwnNames()
			if ownI != len(d.Instances)-len(td.Instances) || ownN != len(d.Nets)-len(td.Nets) || ownP != 0 {
				t.Errorf("%s/%s: the copy indexes %d/%d/%d names of its own, its optimizer added %d/%d/0",
					key, pc.Name, ownI, ownN, ownP, len(d.Instances)-len(td.Instances), len(d.Nets)-len(td.Nets))
			}
			if key == "macro3d" && ownI == 0 {
				t.Errorf("%s/%s: the optimizer added no instance", key, pc.Name)
			}
			if i, n, p := td.OwnNames(); i != len(td.Instances) || n != len(td.Nets) || p != len(td.Ports) {
				t.Errorf("%s/%s: the template indexes %d/%d/%d names of its %d/%d/%d records",
					key, pc.Name, i, n, p, len(td.Instances), len(td.Nets), len(td.Ports))
			}
		}
	}
	t.Logf("%d of %d runs reached hold sign-off with a rolled-back iteration pending", pending, len(configs)*len(Names()))
	if pending == 0 {
		t.Error("no run reached hold sign-off with a rolled-back iteration pending")
	}
}

// TestPowerFailsOnNonFiniteCaps: a capacitance table gone NaN after
// sign-off, past the slow-corner extraction's per-net check, fails the
// power stage with an error naming the non-finite quantity: a NaN CPerUm
// in a tile flow's back end, a NaN via C in the hierarchical parent,
// whose stitch routes are via stacks alone.
func TestPowerFailsOnNonFiniteCaps(t *testing.T) {
	nan := func(flow string, corrupt func(*tech.BEOL)) func(string, string, *State) {
		return func(fl, stage string, st *State) {
			if fl == flow && stage == StageSTA {
				corrupt(st.DB.Beol)
			}
		}
	}
	check := func(t *testing.T, err error) {
		t.Helper()
		var se *StageError
		if !errors.As(err, &se) || se.Stage != StagePower || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("want the power stage to fail naming a non-finite total, got %v", err)
		}
	}
	t.Run("2d", func(t *testing.T) {
		cfg := tinyCfg()
		cfg.AfterStage = nan("2D", func(b *tech.BEOL) {
			for i := range b.Layers {
				b.Layers[i].CPerUm = math.NaN()
			}
		})
		_, _, err := Run2D(cfg)
		check(t, err)
	})
	t.Run("hier", func(t *testing.T) {
		hr, err := Harden(hierCfg(), HardenMacro3D)
		if err != nil {
			t.Fatal(err)
		}
		cfg := hierCfg()
		cfg.AfterStage = nan("hier", func(b *tech.BEOL) {
			for i := range b.Vias {
				b.Vias[i].C = math.NaN()
			}
		})
		_, err = InstantiateArray(cfg, hr, 2, 2)
		check(t, err)
	})
}

// TestCoarseBumpPitchVerifies runs checked Macro-3D flows at bump
// pitches near and past the gcell size, where crossings overflow their
// gcells' bump capacity: every bump must still sit a pitch from every
// other, and the route overflow must count each overfull bump bin.
func TestCoarseBumpPitchVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full tiny flows")
	}
	for _, pitch := range []float64{10, 20} {
		f2f := tech.DefaultF2F()
		f2f.Pitch = pitch
		p, _, _, err := RunMacro3D(Config{Piton: piton.Tiny(), Seed: 1, F2F: &f2f, Check: true})
		if err != nil {
			t.Fatalf("pitch %g µm: %v", pitch, err)
		}
		t.Logf("pitch %g µm: %d bumps, overflow %d", pitch, p.F2FBumps, p.RouteOverflow)
	}
}
