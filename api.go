// Package macro3d is a from-scratch Go implementation of the Macro-3D
// physical-design methodology for face-to-face-stacked heterogeneous
// 3D ICs (Bamberg et al., DATE 2020), together with the complete
// physical-design substrate it needs — synthetic 28 nm technology and
// cell/SRAM libraries, an OpenPiton-like benchmark generator,
// placement, clock-tree synthesis, global routing, RC extraction,
// static timing, power analysis, timing optimization — and the three
// baseline flows the paper compares against (2D, Shrunk-2D,
// Compact-2D).
//
// The quickest route through the API:
//
//	cfg := macro3d.FlowConfig{Piton: macro3d.SmallCache(), Seed: 1}
//	ppa2d, _, _, err := macro3d.RunFlow(ctx, "2d", cfg)
//	ppa3d, st, mol, err := macro3d.RunFlow(ctx, "macro3d", cfg)
//
// and for the paper's experiments:
//
//	t2, err := macro3d.RunExperiment(ctx, macro3d.FlowConfig{Seed: 1}, "table2", false)
//	fmt.Print(t2.Text)
//
// The packages under internal/ hold the implementation; this package
// re-exports the stable surface.
package macro3d

import (
	"context"
	"io"

	"macro3d/internal/cell"
	"macro3d/internal/core"
	"macro3d/internal/flows"
	"macro3d/internal/gds"
	"macro3d/internal/geom"
	"macro3d/internal/lefdef"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/obs/obshttp"
	"macro3d/internal/obs/trace"
	"macro3d/internal/piton"
	"macro3d/internal/report"
	"macro3d/internal/stash"
	"macro3d/internal/tech"
	"macro3d/internal/viz"
)

// --- Benchmark generation ---

// TileConfig selects the OpenPiton-like tile architecture.
type TileConfig = piton.Config

// Tile is a generated benchmark netlist plus its tiling port plan.
type Tile = piton.Tile

// SmallCache returns the paper's small-cache tile configuration
// (8 kB L1I, 16 kB L1D, 16 kB L2, 256 kB L3).
func SmallCache() TileConfig { return piton.SmallCache() }

// LargeCache returns the paper's modern/large-cache tile configuration
// (16 kB L1I/L1D, 128 kB L2, 1 MB L3).
func LargeCache() TileConfig { return piton.LargeCache() }

// GenerateTile builds the benchmark netlist for a configuration.
func GenerateTile(cfg TileConfig) (*Tile, error) { return piton.Generate(cfg) }

// SensorConfig describes a sensor-on-logic SoC (the paper's second
// heterogeneous use case).
type SensorConfig = piton.SensorConfig

// DefaultSensorSoC returns a 16-sensor imaging-style SoC configuration.
func DefaultSensorSoC() SensorConfig { return piton.DefaultSensorSoC() }

// GenerateSensorSoC builds a sensor-on-logic netlist. Run it through
// the 2d or macro3d flow by setting FlowConfig.Generator:
//
//	cfg := macro3d.FlowConfig{Generator: func() (*macro3d.Tile, error) {
//		return macro3d.GenerateSensorSoC(macro3d.DefaultSensorSoC())
//	}}
func GenerateSensorSoC(cfg SensorConfig) (*Tile, error) { return piton.GenerateSensorSoC(cfg) }

// --- Technology ---

// Tech bundles the process node: cell grid, supply, BEOL, corners.
type Tech = tech.Tech

// BEOL is an ordered metal stack.
type BEOL = tech.BEOL

// F2FSpec is the face-to-face bonding via technology.
type F2FSpec = tech.F2FSpec

// New28 returns the synthetic 28 nm technology with the given
// logic-die metal count.
func New28(logicMetals int) (*Tech, error) { return tech.New28(logicMetals) }

// NewBEOL28 builds a single-die 28 nm metal stack.
func NewBEOL28(name string, layers int) (*BEOL, error) { return tech.NewBEOL28(name, layers) }

// CombineBEOL builds the Macro-3D combined two-die stack: logic
// metals, the F2F via, then the macro-die metals renamed with "_MD".
func CombineBEOL(logic, macro *BEOL, f2f F2FSpec) (*BEOL, error) {
	return tech.Combine(logic, macro, f2f)
}

// DefaultF2F returns the paper's F2F via parameters (1 µm pitch,
// 0.5 µm bump, 44 mΩ, 1.0 fF).
func DefaultF2F() F2FSpec { return tech.DefaultF2F() }

// --- Cells and netlists ---

// Cell is a library master (standard cell or hard macro).
type Cell = cell.Cell

// Library is a set of masters with sizing families.
type Library = cell.Library

// SRAMSpec requests a memory macro from the synthetic compiler.
type SRAMSpec = cell.SRAMSpec

// NewSRAM compiles a memory macro: capacity-scaled area/timing/energy,
// pins on M4, M1–M4 obstructions.
func NewSRAM(spec SRAMSpec) (*Cell, error) { return cell.NewSRAM(spec) }

// NewSensor compiles a sensor/analog macro for sensor-on-logic stacks.
func NewSensor(name string, w, h float64, dataBits int) (*Cell, error) {
	return cell.NewSensor(name, w, h, dataBits)
}

// NewLibrary returns an empty cell library (e.g. to gather cells for a
// LEF export).
func NewLibrary(name string) *Library { return cell.NewLibrary(name) }

// NewStdLib28 builds the synthetic 28 nm standard-cell library.
func NewStdLib28(opt cell.LibOptions) *Library { return cell.NewStdLib28(opt) }

// DefaultLibOptions returns the 28 nm library defaults.
func DefaultLibOptions() cell.LibOptions { return cell.DefaultLibOptions() }

// Design is a flat gate-level netlist with placement state.
type Design = netlist.Design

// NewDesign returns an empty design over a library.
func NewDesign(name string, lib *Library) *Design { return netlist.NewDesign(name, lib) }

// --- The Macro-3D core transformations ---

// MoLDesign is a design prepared for single-pass true-3D P&R.
type MoLDesign = core.MoLDesign

// DieLayout is one separated per-die production layout.
type DieLayout = core.DieLayout

// MacroDieView produces the view of a master on the macro die of a
// combined stack: pin and obstruction layers remapped onto the _MD
// layers at unchanged geometry, on a w × h substrate footprint — the
// filler cell's for a Macro-3D macro, the master's own for a hardened
// abstract. WriteLEF of the view is the paper's edited macro LEF.
func MacroDieView(m *Cell, combined *BEOL, w, h float64) (*Cell, error) {
	return core.MacroDieView(m, combined, w, h)
}

// --- Flows ---

// FlowConfig selects benchmark and flow parameters.
type FlowConfig = flows.Config

// PPA is a flow outcome — one column of the paper's tables.
type PPA = flows.PPA

// FlowState exposes the implementation objects of a finished flow.
type FlowState = flows.State

// --- Hardened execution ---
//
// Every flow runs its stages inside an instrumented runner: panics are
// contained and surfaced as *StageError, cancellation is honoured at
// stage boundaries, and each stage is recorded in the state's
// RunReport trace.

// StageError is the structured failure every flow returns: which flow
// and stage failed, under what seed and configuration, and the
// underlying cause (a *PanicError when the stage panicked). Retrieve it
// with errors.As.
type StageError = flows.StageError

// PanicError is the cause inside a StageError when a stage panicked;
// it carries the recovered value and the goroutine stack.
type PanicError = flows.PanicError

// StageRecord is one stage in a flow trace.
type StageRecord = flows.StageRecord

// RunReport is the per-flow execution trace: every stage with its
// seed, duration and outcome, plus whether the flow completed.
// Available as FlowState.Trace even when the flow fails part-way.
type RunReport = flows.RunReport

// FlowNames lists the flow names RunFlow accepts: 2d, macro3d, s2d,
// bfs2d (S2D on the balanced floorplan), c2d.
func FlowNames() []string { return flows.Names() }

// RunFlow executes the named flow, honouring cancellation at stage
// boundaries. The MoLDesign is nil for 2d.
func RunFlow(ctx context.Context, name string, cfg FlowConfig) (*PPA, *FlowState, *MoLDesign, error) {
	return flows.Run(ctx, name, cfg)
}

// SeparateDies splits a signed-off Macro-3D design into its two
// production layouts (both carry the F2F bump locations).
func SeparateDies(md *MoLDesign, st *FlowState) (logic, macro *DieLayout, err error) {
	return core.Separate(md, st.Routes, st.DB)
}

// AbutTiles stitches nx×ny copies of a placed tile into one flat
// design (paper §V-1: aligned half-cycle pins connect by abutment).
func AbutTiles(t *Tile, die geom.Rect, nx, ny int) (*Design, geom.Rect, error) {
	return piton.Abut(t, die, nx, ny)
}

// ArrayReport is the outcome of flat re-verification of a tile array.
type ArrayReport = flows.ArrayReport

// VerifyTileArray composes a signed-off flow result into an nx×ny
// array (routes replicated verbatim, abutment nets stitched) and runs
// full STA — the executable form of the paper's arbitrary-core-count
// claim.
func VerifyTileArray(cfg FlowConfig, st *FlowState, t *Tech, nx, ny int) (*ArrayReport, error) {
	return flows.VerifyTileArray(cfg, st, t, nx, ny)
}

// --- Hierarchical hardened-macro flow (DESIGN.md §13) ---

// AbstractInfo is the provenance and signoff record a hardened macro
// abstract carries (source flow, internal minimum period, per-cycle
// energy).
type AbstractInfo = cell.AbstractInfo

// HardenResult is the outcome of hardening a sub-block into an
// abstract master.
type HardenResult = flows.HardenResult

// HierReport is the outcome of the hierarchical parent flow.
type HierReport = flows.HierReport

// Hardening flow kinds accepted by Harden and RunHierArray.
const (
	HardenFlowMacro3D = flows.HardenMacro3D
	HardenFlow2D      = flows.Harden2D
)

// Harden runs a sub-block flow to signoff and condenses it into an
// abstract master: LEF-style boundary pins with entry caps and
// boundary timing arcs, per-layer routing obstructions, and the
// AbstractInfo record. With FlowConfig.Cache set, the abstract is a
// checkpoint region of the sub-block flow: a repeated harden of a
// configuration restores it instead of running the flow.
func Harden(ctx context.Context, cfg FlowConfig, flow string) (*HardenResult, error) {
	return flows.HardenCtx(ctx, cfg, flow)
}

// RunHierArray hardens the configured tile (or loads it from the
// cache) and instantiates the abstract nx×ny by abutment, signing off
// only the parent level against the boundary timing model.
func RunHierArray(ctx context.Context, cfg FlowConfig, flow string, nx, ny int) (*HierReport, error) {
	return flows.RunHierArray(ctx, cfg, flow, nx, ny)
}

// InstantiateArray runs just the parent level on an already-hardened
// block.
func InstantiateArray(cfg FlowConfig, hr *HardenResult, nx, ny int) (*HierReport, error) {
	return flows.InstantiateArray(cfg, hr, nx, ny)
}

// ComposeAbstractArray stitches nx×ny instances of a hardened
// abstract into a parent netlist by abutment (the hierarchical analog
// of AbutTiles).
func ComposeAbstractArray(t *Tile, abs *Cell, die geom.Rect, nx, ny int) (*Design, geom.Rect, error) {
	return piton.ComposeAbstract(t, abs, die, nx, ny)
}

// --- Experiments (the paper's tables) ---

// MacroProcess scales macro electrical properties relative to the
// logic node.
type MacroProcess = piton.MacroProcess

// ExperimentResult is one experiment run: its cells (one flow run each),
// their PPA in cell order (nil where a run failed) and its report.
type ExperimentResult = report.Result

// ExperimentNames lists the experiments RunExperiment accepts.
func ExperimentNames() []string { return report.Names() }

// RunExperiment runs the named experiment over cfg, which carries the
// seed, the hardening knobs and the stage cache. Cancellation stops it at
// the next stage boundary; with keepGoing a failed run is skipped
// (rendering as "—") and the joined failures come with the result.
func RunExperiment(ctx context.Context, cfg FlowConfig, name string, keepGoing bool) (*ExperimentResult, error) {
	return report.RunExperiment(ctx, cfg, name, keepGoing)
}

// RenderExperiments returns the markdown md with each of its rendered
// blocks — the tables `-experiment seeds|table1|table2|table3` print —
// rewritten from the BENCH_qor.json file qor.
func RenderExperiments(md, qor []byte) ([]byte, error) { return report.Render(md, qor) }

// --- Stage cache ---

// StageCache is the content-addressed on-disk stage cache: completed
// place/route/sign-off stages are snapshotted under a key derived from
// every input that can affect them, and a later run with the same
// inputs restores the snapshot instead of recomputing. Set it on
// FlowConfig.Cache; results are bit-identical with or without it.
type StageCache = stash.Store

// StageCacheStats is a point-in-time snapshot of cache traffic.
type StageCacheStats = stash.Stats

// OpenStageCache opens (creating if needed) a stage cache rooted at
// dir.
func OpenStageCache(dir string) (*StageCache, error) { return stash.Open(dir) }

// OpenStageCacheLimited opens a stage cache with a byte budget: at
// open and after each store it removes the least recently used
// snapshots, by file modification time (a hit sets it), until the
// directory fits maxBytes. A maxBytes of 0 means unlimited (same as
// OpenStageCache).
func OpenStageCacheLimited(dir string, maxBytes int64) (*StageCache, error) {
	return stash.OpenLimited(dir, maxBytes)
}

// --- LEF/DEF interchange ---

// LEFContent is a parsed LEF stream (stack and/or library).
type LEFContent = lefdef.LEFContent

// DEFContent is a parsed DEF stream (design and die area).
type DEFContent = lefdef.DEFContent

// WriteLEF emits a technology stack and/or library in the repository's
// LEF dialect (either argument may be nil).
func WriteLEF(w io.Writer, b *BEOL, lib *Library) error { return lefdef.WriteLEF(w, b, lib) }

// WriteAbstractLEF writes a hardened abstract as a single-macro library
// LEF: what `macro3d harden -o` exports and the stage cache stores.
func WriteAbstractLEF(w io.Writer, abs *Cell) error { return flows.WriteAbstractLEF(w, abs) }

// ParseLEF reads the dialect WriteLEF emits.
func ParseLEF(r io.Reader) (*LEFContent, error) { return lefdef.ParseLEF(r) }

// WriteDEF emits a placed design.
func WriteDEF(w io.Writer, d *Design, die geom.Rect) error { return lefdef.WriteDEF(w, d, die) }

// ParseDEF reads the dialect WriteDEF emits against a library.
func ParseDEF(r io.Reader, lib *Library) (*DEFContent, error) { return lefdef.ParseDEF(r, lib) }

// WriteGDS exports one separated production die as a GDSII stream —
// outline, substrate objects, per-layer wires and the shared F2F
// bumps. Files open in standard viewers (KLayout).
func WriteGDS(w io.Writer, st *FlowState, part *DieLayout) error {
	return gds.ExportDie(w, st.Design, part, st.Routes, st.DB)
}

// --- Visualization ---

// VizOptions controls layout rendering.
type VizOptions = viz.Options

// LayoutSVG renders a placed design inside its die outline.
func LayoutSVG(d *Design, die geom.Rect, o VizOptions) string {
	return viz.LayoutSVG(d, die, o)
}

// CrossSectionSVG draws the Fig. 1-style stack cross view.
func CrossSectionSVG(logicMetals, macroMetals int, mol bool) string {
	return viz.CrossSectionSVG(logicMetals, macroMetals, mol)
}

// ASCIIDensity renders a terminal density map of a placed design.
func ASCIIDensity(d *Design, die geom.Rect, cols int, dieFilter *netlist.Die) string {
	return viz.ASCIIDensity(d, die, cols, dieFilter)
}

// TinyTile returns a reduced tile configuration for fast tests and
// demos (same structure as the paper tiles at a fraction of the size).
func TinyTile() TileConfig { return piton.Tiny() }

// --- Observability ---

// ObsRecorder is the per-run observability hub: hierarchical spans
// (flow → stage → engine phase), typed per-run metrics, and the JSONL
// event stream. Attach one to FlowConfig.Obs to record a run; a nil
// recorder (the default) disables observability with zero overhead
// and byte-identical results.
type ObsRecorder = obs.Recorder

// ObsServer is a running observability HTTP endpoint (Prometheus
// /metrics, JSON snapshot, expvar, pprof) created by ServeObs.
type ObsServer = obshttp.Server

// ServeObs starts rec's inspection endpoint on addr (e.g. ":9090", or
// "127.0.0.1:0" for an ephemeral port), served in the background until
// Close.
func ServeObs(rec *ObsRecorder, addr string) (*ObsServer, error) { return obshttp.Serve(rec, addr) }

// NewObsRecorder returns an enabled recorder with an empty metric
// registry.
func NewObsRecorder() *ObsRecorder { return obs.New() }

// --- Execution tracing ---

// ExecTracer records a run's execution timeline — a slice per stage,
// engine phase and per-worker chunk, with phase, step and
// stash-attribution args. Attach one with ObsRecorder.SetTimeline to
// the recorder of FlowConfig.Obs to trace a run; without one (the
// default) tracing costs a nil check and results are byte-identical.
// Export with WriteChrome (Perfetto / chrome://tracing) and analyze
// with AnalyzeExecTrace.
type ExecTracer = trace.Tracer

// ExecTraceReport is the analyzer's verdict on a recorded timeline:
// per-phase worker occupancy, serial fraction, critical path and
// Amdahl speedup ceilings, plus the top serial segments by wall-clock
// share. Render with its Format method.
type ExecTraceReport = trace.Report

// NewExecTracer returns an enabled execution tracer.
func NewExecTracer() *ExecTracer { return trace.New() }

// AnalyzeExecTrace computes the parallelism report of a recorded
// timeline.
func AnalyzeExecTrace(t *ExecTracer) *ExecTraceReport { return trace.Analyze(t) }

// ReadExecTrace parses a Chrome trace-event JSON file previously
// written by ExecTracer.WriteChrome back into a tracer for analysis.
func ReadExecTrace(r io.Reader) (*ExecTracer, error) { return trace.ReadChrome(r) }
