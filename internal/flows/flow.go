package flows

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"macro3d/internal/core"
	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/opt"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
)

// flow is the working set the stage bodies of one run share, on top of
// the runner's own (cfg, and st — the State the current stage works on).
type flow struct {
	*runner
	dies int // 1, or 2 for the flows that end on the combined stack
	t    *tech.Tech
	// The macro die's BEOL and the combined two-die stack prepare makes
	// of it; md is nil until prepare, and both stay nil in 2D.
	macroBeol *tech.BEOL
	md        *core.MoLDesign

	// stackKey is the stack's checkpoint key material from prepare until
	// a checkpoint takes it (see material).
	stackKey []byte

	// eng is the timing engine the sign-off optimizer ran on, from the opt
	// stage that ran in this run (never the pseudo design's) until the
	// sta stage takes it; nil when the signoff region was restored from
	// the cache.
	eng *sta.Engine

	// Sign-off results, and the PPA row the power stage closes them into.
	resized, buffers int
	hold             *sta.Report
	ppa              *PPA

	// lend is what a tile array's extraction shares of its tile's.
	lend []extract.Source
}

// The flow table: every flow is a stage list assembled from the shared
// pieces of stages.go.
var flowTable = []struct {
	key    string // CLI name
	name   string // display name: PPA.Flow, StageError.Flow, the cache root key
	dies   int
	stages func(f *flow) []stage
}{
	{"2d", "2D", 1, (*flow).stages2D},
	{"macro3d", "Macro-3D", 2, (*flow).stagesMacro3D},
	{"s2d", "S2D", 2, (*flow).stagesPseudo3D},
	{"bfs2d", "BF S2D", 2, (*flow).stagesPseudo3D},
	{"c2d", "C2D", 2, (*flow).stagesPseudo3D},
}

func (f *flow) stages2D() []stage {
	return slices.Concat(
		f.frontEnd(f.st, floorplan.Style2D),
		[]stage{f.placeRegion(1)},
		f.backEnd(opt.Options{}))
}

// stagesMacro3D is the paper's four steps (§IV): the per-die floorplans;
// the combined BEOL, edited macros and superimposed floorplan; one
// standard 2D P&R pass whose result is directly the 3D design — the
// engine sees reality, so its optimization is trustworthy — and die
// separation.
func (f *flow) stagesMacro3D() []stage {
	return slices.Concat(
		f.frontEnd(f.st, floorplan.StyleMoL),
		[]stage{do(StagePrepare, f.prepare), f.placeRegion(2)},
		f.backEnd(opt.Options{}))
}

// pseudoSpec is everything that tells the pseudo-3D baselines apart.
// S2D [5] shrinks the cells to half area and the wire geometry with them,
// in the 3D footprint; C2D [6] keeps the cells, inflates the footprint 2×
// and scales the per-unit parasitics instead (paper §III).
type pseudoSpec struct {
	style   floorplan.Style // macro floorplan of the real design
	seedOff uint64          // pseudo-place seed is Config.Seed + seedOff
	area    float64         // pseudo design's logic area, as a factor of the real target
	s       float64         // pseudo footprint scale per dimension; the transfer maps back by 1/s
	beol    func(logic *tech.BEOL, s float64) *tech.BEOL
	budget  opt.Options // post-partition optimization
}

// pseudoSpecs is keyed by flow display name. Scaling by s = 1 is exact,
// so the S2D rows run C2D's arithmetic unchanged.
var pseudoSpecs = map[string]pseudoSpec{
	"S2D": {floorplan.StyleMoL, 3, 0.5, 1, shrunkBEOL, opt.Options{Frozen: true}},
	// Macros spread over both dies with maximal z-overlap, which turns
	// partial blockages into full ones (S2D's best case, at the cost of
	// MoL's manufacturing advantages).
	"BF S2D": {floorplan.StyleBalanced, 3, 0.5, 1, shrunkBEOL, opt.Options{Frozen: true}},
	// C2D's "post-tier-partitioning optimization" is a limited touch-up.
	"C2D": {floorplan.StyleMoL, 4, 1, math.Sqrt2, scaledBEOL, opt.Options{MaxIters: 2, MaxMovesPerIter: 8}},
}

// shrunkBEOL is S2D's estimation model: 50 % cell dimensions make 1/√2
// wire pitch, per-µm parasitics unchanged.
func shrunkBEOL(logic *tech.BEOL, _ float64) *tech.BEOL { return tech.ShrinkGeometry(logic, 0.7071) }

// scaledBEOL is C2D's: per-unit parasitics scaled by 1/s, so routes in
// the inflated floorplan estimate target-3D RC.
func scaledBEOL(logic *tech.BEOL, s float64) *tech.BEOL { return tech.ScaleParasitics(logic, 1/s) }

// Names lists the flow names Run accepts, in table order.
func Names() []string {
	names := make([]string, len(flowTable))
	for i, e := range flowTable {
		names[i] = e.key
	}
	return names
}

// Run executes the named flow (see Names), honouring cancellation and
// per-stage deadlines at stage boundaries. On failure the error is a
// *StageError and the returned State carries the partial trace
// (State.Trace) of how far the flow got. The MoLDesign is the combined
// stack of a 3D flow once its prepare stage has run, nil before and in 2D.
func Run(ctx context.Context, name string, cfg Config) (*PPA, *State, *core.MoLDesign, error) {
	for _, e := range flowTable {
		if e.key != name {
			continue
		}
		cfg = cfg.withDefaults()
		f := &flow{runner: newRunner(ctx, e.name, cfg, &State{}), dies: e.dies}
		if err := f.exec(e.stages(f)); err != nil {
			return nil, f.st, f.md, err
		}
		f.finish()
		return f.ppa, f.st, f.md, nil
	}
	return nil, nil, nil, fmt.Errorf("flows: unknown flow %q (want %s)", name, strings.Join(Names(), ", "))
}

// The plain forms of four flows, which the flow ledger (bench/) calls;
// everything else runs a flow by name through Run.

// Run2D runs the baseline single-die flow.
func Run2D(cfg Config) (*PPA, *State, error) { return runPlain("2d", cfg) }

// RunMacro3D runs the paper's flow.
func RunMacro3D(cfg Config) (*PPA, *State, *core.MoLDesign, error) {
	return Run(context.Background(), "macro3d", cfg)
}

// RunS2D runs the Shrunk-2D baseline; balanced selects BF S2D.
func RunS2D(cfg Config, balanced bool) (*PPA, *State, error) {
	if balanced {
		return runPlain("bfs2d", cfg)
	}
	return runPlain("s2d", cfg)
}

// RunC2D runs the Compact-2D baseline.
func RunC2D(cfg Config) (*PPA, *State, error) { return runPlain("c2d", cfg) }

func runPlain(name string, cfg Config) (*PPA, *State, error) {
	ppa, st, _, err := Run(context.Background(), name, cfg)
	return ppa, st, err
}
