package flows

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"macro3d/internal/piton"
	"macro3d/internal/stash"
	"macro3d/internal/tech"
)

// runNamed runs a flow by name and hands back its State.
func runNamed(name string) func(context.Context, Config) (*State, error) {
	return func(ctx context.Context, cfg Config) (*State, error) {
		_, st, _, err := Run(ctx, name, cfg)
		return st, err
	}
}

// goldenStages is the contract of a flow's stage list: every record of
// State.Trace.Stages on the tiny tile with Verify on, cold (nothing
// cached) and warm (every checkpoint a hit). A record renders as its
// stage name, "#n" for attempt n > 1 and "*" for a region restored from
// the stage cache. bench/trace.go maps this sequence to its per-layer
// metrics, `-experiment flowtrace` prints it, and DESIGN.md §3 shows it
// under the CLI invocation that runs it (TestDesignDocStageLists). The
// tile array and the hierarchical parent have no checkpoint region, so
// their warm list is their cold one; their runs hand back no State, so
// the rows take the parent's from the AfterStage hook.
var goldenStages = []struct {
	flow, cli  string
	run        func(context.Context, Config) (*State, error)
	cold, warm string
}{
	{"2D", "-flow 2d",
		runNamed("2d"),
		"generate floorplan place cts route extract opt sta power verify",
		"generate floorplan place* cts route* signoff* sta power verify",
	},
	{"Macro-3D", "-flow macro3d",
		runNamed("macro3d"),
		"generate floorplan prepare place cts route extract opt sta power separate verify",
		"generate floorplan prepare place* cts route* signoff* sta power separate verify",
	},
	{"S2D", "-flow s2d",
		runNamed("s2d"),
		goldenPseudoCold, goldenPseudoWarm,
	},
	{"BF S2D", "-flow bfs2d",
		runNamed("bfs2d"),
		goldenPseudoCold, goldenPseudoWarm,
	},
	{"C2D", "-flow c2d",
		runNamed("c2d"),
		goldenPseudoCold, goldenPseudoWarm,
	},
	{"array", "-flow macro3d -array N",
		func(ctx context.Context, cfg Config) (*State, error) {
			_, tile, _, err := Run(ctx, "macro3d", cfg)
			if err != nil {
				return nil, err
			}
			t, _ := tech.New28(6)
			var st *State
			cfg.AfterStage = func(_, _ string, s *State) { st = s }
			_, err = VerifyTileArray(cfg, tile, t, 2, 2)
			return st, err
		},
		"compose route cts extract sta",
		"compose route cts extract sta",
	},
	{"hier", "harden -array N",
		func(ctx context.Context, cfg Config) (*State, error) {
			hr, err := HardenCtx(ctx, cfg, HardenMacro3D)
			if err != nil {
				return nil, err
			}
			var st *State
			cfg.AfterStage = func(_, _ string, s *State) { st = s }
			_, err = InstantiateArray(cfg, hr, 2, 2)
			return st, err
		},
		"compose route cts extract sta power verify",
		"compose route cts extract sta power verify",
	},
}

// The three pseudo-3D flows share one stage list.
const (
	goldenPseudoCold = "generate floorplan pseudo-floorplan pseudo-place pseudo-route pseudo-opt transfer " +
		"partition prepare cts route extract opt sta power separate verify"
	goldenPseudoWarm = "generate floorplan pseudo* partition* prepare cts route* signoff* sta power separate verify"
)

func renderStages(rep *RunReport) string {
	var out []string
	for _, s := range rep.Stages {
		r := s.Stage
		if s.Attempt > 1 {
			r += fmt.Sprintf("#%d", s.Attempt)
		}
		if s.Cached {
			r += "*"
		}
		if s.Err != "" {
			r += "!"
		}
		out = append(out, r)
	}
	return strings.Join(out, " ")
}

// TestStageSequenceGolden pins the exact stage sequence of all seven
// lists, cold and warm from a cache.
func TestStageSequenceGolden(t *testing.T) {
	for _, g := range goldenStages {
		t.Run(g.flow, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			for _, pass := range []struct{ name, want string }{{"cold", g.cold}, {"warm", g.warm}} {
				store, err := stash.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{Piton: piton.Tiny(), Seed: 7, Verify: true, Cache: store}
				st, err := g.run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("%s: %v", pass.name, err)
				}
				if st.Trace.Flow != g.flow || !st.Trace.Completed {
					t.Errorf("%s: trace is %s completed=%v", pass.name, st.Trace.Flow, st.Trace.Completed)
				}
				if got := renderStages(st.Trace); got != pass.want {
					t.Errorf("%s stage sequence:\n got %s\nwant %s", pass.name, got, pass.want)
				}
			}
		})
	}
}
