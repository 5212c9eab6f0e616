// Package flows implements the end-to-end physical-design flows the
// paper compares on the OpenPiton tile, as data: a flow table (Names,
// Run) whose rows are ordered stage lists, executed by one instrumented
// runner (timeout, panic containment, cancellation, stage cache).
//
//   - 2d: the baseline single-die flow (macros ring the periphery,
//     six metal layers): generate, floorplan, place, then the back end
//     every flow shares — cts, route, sign-off, verify.
//   - macro3d: the paper's flow — the same list with one more stage,
//     prepare (combined two-die BEOL, edited macro abstracts,
//     superimposed floorplan), in front of a single true-3D P&R pass,
//     and die separation at the end.
//   - s2d, bfs2d (Shrunk-2D, [5]) and c2d (Compact-2D, [6]): one
//     pseudo-3D list driven by a three-row spec table (pseudoSpecs). A
//     shrunk or inflated pseudo design is placed against coarse partial
//     blockages and sized; locations and sizing are transferred to the
//     real design, which is tier-partitioned, overlap-legalized, prepared
//     and rerouted by the shared back end, optimization frozen or limited.
//
// Every flow ends in the same sign-off: slow-corner STA for f_max,
// typical-corner power from the signal nets' wire and pin capacitance
// sums (extract.Caps, no RC trees), and the PPA record holding the
// paper's Table I–III rows. The §V-1 checks of a signed-off tile are two
// more lists on the same runner and the same sign-off bodies: the flat
// array (VerifyTileArray) and the hierarchical parent (InstantiateArray)
// compose copies of the tile, then route, cts, extract and sta (and, in
// the parent, power and verify). DESIGN.md §3 shows each stage list.
package flows

import (
	"cmp"
	"fmt"

	"macro3d/internal/cts"
	"macro3d/internal/ddb"
	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/opt"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/stash"
	"macro3d/internal/tech"
)

// Config selects the benchmark and flow parameters.
type Config struct {
	// Piton is the tile configuration (piton.SmallCache() /
	// piton.LargeCache()).
	Piton piton.Config

	// MacroDieMetals is the macro die's metal count, which only 3D
	// flows read (default 6 for M6–M6, 4 for the Table III M6–M4
	// ablation). The logic die has logicMetals.
	MacroDieMetals int

	// TargetPeriod, when > 0, runs timing optimization only until the
	// target is met (iso-performance mode); 0 = max performance.
	TargetPeriod float64

	// BlockageResolution is the partial-blockage rasterization pitch
	// of the S2D/C2D flows, µm (default 50 — deliberately coarse, the
	// commercial-tool behaviour the paper observed).
	BlockageResolution float64

	// F2F overrides the face-to-face via technology (nil = the
	// paper's defaults). Used by the bump-pitch ablation.
	F2F *tech.F2FSpec

	// Generator, when set, supplies the benchmark netlist instead of
	// the tile Piton configures — e.g. a sensor-on-logic SoC. Flows
	// call it once per run and edit what it returns, so it must return
	// a fresh tile each call. Without it a run starts from a copy of
	// the process's one template per Piton configuration (piton
	// package comment), which piton.Generate builds on first use. Only
	// Run2D and RunMacro3D support it; the S2D/C2D baselines need the
	// shrunk/scaled pseudo-design regeneration that is specific to the
	// tile generator.
	Generator func() (*piton.Tile, error)

	Seed uint64

	// Check makes the run check itself without changing its results
	// (the CLI's -check): a final verify stage, after die separation in
	// the two-die flows, fails the run on a dirty report (*verify.Error);
	// the optimizer's every iteration and hold sign-off are held to a
	// from-scratch recompute; and a cache hit re-runs its region, failing
	// unless the re-run state is bit-identical to the snapshot.
	Check bool

	// AfterStage, when set, is invoked after every successful stage
	// with the flow name, stage name and the stage's working state.
	// Used by instrumentation and the fault-injection harness.
	AfterStage func(flow, stage string, st *State)

	// Obs, when set, records the run: hierarchical spans (flow →
	// stage → engine phase), per-engine metrics, and whatever sinks
	// the recorder has attached — the JSONL event stream, the execution
	// timeline (DESIGN.md §14). nil (the default) disables
	// observability entirely — flows produce byte-identical results
	// either way, and it does not enter the stage-cache key.
	Obs *obs.Recorder

	// Workers sets the worker count of the two stages that fan out (the
	// CLI's -j flag): the placer's descent passes and extraction. 0
	// (default) uses every CPU (GOMAXPROCS), 1 runs the whole flow on one
	// goroutine, n > 1 uses n workers. Routing, legalization, timing and
	// the rest run on one goroutine regardless (DESIGN.md §10). Results
	// are bit-identical at any setting. An experiment reads it as the
	// number of cells in flight instead (report.Run).
	Workers int

	// Cache, when set, enables content-addressed stage checkpointing:
	// completed regions store deterministic snapshots keyed by
	// everything they depend on, and later runs with matching inputs
	// load the snapshot instead of recomputing (DESIGN.md §11).
	// Results are byte-identical with and without the cache. Disabled
	// automatically for runs with a custom Generator or an AfterStage
	// hook, whose state the snapshots cannot capture.
	Cache *stash.Store
}

// generate produces the benchmark netlist a flow run owns, under the
// stage span sp (newTile).
func (c Config) generate(sp *obs.Span) (*piton.Tile, error) {
	if c.Generator != nil {
		return c.Generator()
	}
	return newTile(c.Piton, sp)
}

// placeOptions and routeOptions are the one place a flow's
// configuration becomes engine options. sp is the stage span the engine
// reports under (runner.obs), nil when Config.Obs is.
func (c Config) placeOptions(seed uint64, sp *obs.Span) place.Options {
	return place.Options{Seed: seed, Obs: sp, Workers: c.Workers}
}

func (c Config) routeOptions(sp *obs.Span) route.Options {
	return route.Options{Obs: sp}
}

// budget resolves a flow's optimization budget against the
// configuration: its target period, unless the flow sets one, and
// Check.
func (c Config) budget(b opt.Options) opt.Options {
	b.TargetPeriod = cmp.Or(b.TargetPeriod, c.TargetPeriod)
	b.SelfCheck = c.Check
	return b
}

// f2f is the effective face-to-face via technology: the override, or
// the technology's default.
func (c Config) f2f(t *tech.Tech) tech.F2FSpec {
	if c.F2F != nil {
		return *c.F2F
	}
	return t.F2F
}

// logicMetals is the logic die's metal count in every flow: the
// paper's six.
const logicMetals = 6

// util is the standard-cell utilization the die is sized for.
const util = 0.70

func (c Config) withDefaults() Config {
	if c.MacroDieMetals == 0 {
		c.MacroDieMetals = 6
	}
	if c.BlockageResolution == 0 {
		c.BlockageResolution = 50
	}
	return c
}

// PPA is the flow outcome — one column of the paper's tables.
type PPA struct {
	Flow   string
	Config string

	FclkMHz     float64 // max clock frequency (slow corner)
	MinPeriodPs float64
	EmeanFJ     float64 // energy per cycle, typical corner, at Fclk
	PowerUW     float64
	LeakageUW   float64

	FootprintMM2     float64 // per-die footprint (A_footprint)
	LogicCellAreaMM2 float64 // A_logic-cells
	MetalAreaMM2     float64 // footprint × metal layers over all dies

	TotalWLm  float64 // routed + clock wire, metres
	F2FBumps  int
	CpinNF    float64
	CwireNF   float64
	ClkDepth  int
	ClkSkewPs float64

	CritPathWLmm float64
	CritPathPs   float64

	RouteOverflow int
	Dies          int
	MacroPins     int // pins of the memory macros, every die's

	// Hold sign-off (extension beyond the paper's setup-only flow).
	HoldWNSps      float64
	HoldViolations int

	// Optimization statistics.
	Resized, Buffers int
}

// String renders a one-line summary.
func (p *PPA) String() string {
	return fmt.Sprintf("%s/%s: fclk %.0f MHz, Emean %.0f fJ/cyc, A %.2f mm², WL %.2f m, bumps %d, clk depth %d, critWL %.2f mm",
		p.Flow, p.Config, p.FclkMHz, p.EmeanFJ, p.FootprintMM2, p.TotalWLm, p.F2FBumps, p.ClkDepth, p.CritPathWLmm)
}

// State exposes the full implementation objects of a finished flow for
// visualization and deeper inspection.
type State struct {
	Design *netlist.Design
	Tile   *piton.Tile
	Die    geom.Rect
	FP     *floorplan.Floorplan
	Beol   *tech.BEOL
	DB     *route.DB
	Routes *route.Result
	Tree   *cts.Tree
	ExSlow *extract.Design
	// DDB is the design database the optimizer edited through. It is nil
	// after a frozen sign-off (S2D, BF S2D), which edits nothing, and
	// after a sign-off restored from the stage cache, which runs no
	// optimizer.
	DDB    *ddb.DB
	Report *sta.Report
	Sizing floorplan.Sizing

	// Trace is the instrumented stage-by-stage record of the run,
	// populated even when the flow fails part-way.
	Trace *RunReport
}

// signoffRevision versions what a signoff checkpoint holds beyond its
// inputs. 1: the buffer count leaves out rolled-back iterations, and
// ECO free space no longer loses intervals on release — checkpoints
// written before either fix must miss. 2: the key material lost the
// byte that selected the optimizer's deleted from-scratch STA path.
// 3: it lost the buffer span and the fanout load, now the optimizer's
// constants. 4: at a bump pitch wider than a gcell, a gcell holds the
// bonding-lattice sites centred in it instead of one bump.
const signoffRevision = 4

// signoffMaterial is the signoff checkpoint's key material: the 3D
// stack's, which the pseudo flows hold until sign-off (flow.material),
// framed ahead of the resolved optimization budget. SelfCheck
// (Config.Check) is excluded — it verifies, it never changes results.
func signoffMaterial(stack []byte, o opt.Options) []byte {
	e := stash.NewEnc()
	e.Blob(stack)
	e.Int(signoffRevision)
	e.Int(o.MaxIters)
	e.Int(o.MaxMovesPerIter)
	e.F64(o.BufferElmore)
	e.F64(o.TargetPeriod)
	e.Bool(o.Frozen)
	return e.Bytes()
}
