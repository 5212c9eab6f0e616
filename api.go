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
//	ppa2d, _, err := macro3d.Run2D(cfg)
//	ppa3d, _, _, err := macro3d.RunMacro3D(cfg)
//
// and for the paper's experiments:
//
//	t2, err := macro3d.RunTableII(1)
//	fmt.Print(t2.Format())
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
// Run2D/RunMacro3D by setting FlowConfig.Generator:
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

// NewLibrary returns an empty cell library (e.g. to hold a single
// hardened abstract for LEF export).
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

// EditMacroForMacroDie produces the Macro-3D view of a macro: _MD pin
// and obstruction layers at unchanged geometry, filler-sized
// substrate footprint.
func EditMacroForMacroDie(m *Cell, fillerW, fillerH float64) (*Cell, error) {
	return core.EditMacroForMacroDie(m, fillerW, fillerH)
}

// --- Flows ---

// FlowConfig selects benchmark and flow parameters.
type FlowConfig = flows.Config

// PPA is a flow outcome — one column of the paper's tables.
type PPA = flows.PPA

// FlowState exposes the implementation objects of a finished flow.
type FlowState = flows.State

// Run2D executes the baseline single-die flow.
func Run2D(cfg FlowConfig) (*PPA, *FlowState, error) { return flows.Run2D(cfg) }

// RunMacro3D executes the paper's flow.
func RunMacro3D(cfg FlowConfig) (*PPA, *FlowState, *MoLDesign, error) {
	return flows.RunMacro3D(cfg)
}

// RunS2D executes the Shrunk-2D baseline; balanced selects the BF S2D
// variant.
func RunS2D(cfg FlowConfig, balanced bool) (*PPA, *FlowState, error) {
	return flows.RunS2D(cfg, balanced)
}

// RunC2D executes the Compact-2D baseline.
func RunC2D(cfg FlowConfig) (*PPA, *FlowState, error) { return flows.RunC2D(cfg) }

// --- Hardened execution ---
//
// Every flow runs its stages inside an instrumented runner: panics are
// contained and surfaced as *StageError, cancellation is honoured at
// stage boundaries, and each attempt is recorded in the state's
// RunReport trace.

// StageError is the structured failure every flow returns: which flow
// and stage failed, under what seed and configuration, on which
// attempt, and the underlying cause (a *PanicError when the stage
// panicked). Retrieve it with errors.As.
type StageError = flows.StageError

// PanicError is the cause inside a StageError when a stage panicked;
// it carries the recovered value and the goroutine stack.
type PanicError = flows.PanicError

// RetryPolicy bounds per-stage retries; each retry re-runs the stage
// with a deterministically perturbed seed (see flows.PerturbSeed).
type RetryPolicy = flows.RetryPolicy

// StageRecord is one attempt of one stage in a flow trace.
type StageRecord = flows.StageRecord

// RunReport is the per-flow execution trace: every stage attempt with
// its seed, duration and outcome, plus whether the flow completed.
// Available as FlowState.Trace even when the flow fails part-way.
type RunReport = flows.RunReport

// FlowNames lists the flow names RunFlowCtx accepts: 2d, macro3d, s2d,
// bfs2d, c2d.
func FlowNames() []string { return flows.Names() }

// RunFlowCtx executes the named flow. The MoLDesign is nil for 2d.
func RunFlowCtx(ctx context.Context, name string, cfg FlowConfig) (*PPA, *FlowState, *MoLDesign, error) {
	return flows.Run(ctx, name, cfg)
}

// Run2DCtx is Run2D with cancellation and per-stage deadlines.
func Run2DCtx(ctx context.Context, cfg FlowConfig) (*PPA, *FlowState, error) {
	return flows.Run2DCtx(ctx, cfg)
}

// RunMacro3DCtx is RunMacro3D with cancellation.
func RunMacro3DCtx(ctx context.Context, cfg FlowConfig) (*PPA, *FlowState, *MoLDesign, error) {
	return flows.RunMacro3DCtx(ctx, cfg)
}

// RunS2DCtx is RunS2D with cancellation.
func RunS2DCtx(ctx context.Context, cfg FlowConfig, balanced bool) (*PPA, *FlowState, error) {
	return flows.RunS2DCtx(ctx, cfg, balanced)
}

// RunC2DCtx is RunC2D with cancellation.
func RunC2DCtx(ctx context.Context, cfg FlowConfig) (*PPA, *FlowState, error) {
	return flows.RunC2DCtx(ctx, cfg)
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
// AbstractInfo record. With FlowConfig.Cache set, the abstract is
// content-addressed so each distinct configuration hardens once.
func Harden(cfg FlowConfig, flow string) (*HardenResult, error) {
	return flows.Harden(cfg, flow)
}

// HardenCtx is Harden with run cancellation.
func HardenCtx(ctx context.Context, cfg FlowConfig, flow string) (*HardenResult, error) {
	return flows.HardenCtx(ctx, cfg, flow)
}

// RunHierArray hardens the configured tile (or loads it from the
// cache) and instantiates the abstract nx×ny by abutment, signing off
// only the parent level against the boundary timing model.
func RunHierArray(cfg FlowConfig, flow string, nx, ny int) (*HierReport, error) {
	return flows.RunHierArray(cfg, flow, nx, ny)
}

// RunHierArrayCtx is RunHierArray with run cancellation.
func RunHierArrayCtx(ctx context.Context, cfg FlowConfig, flow string, nx, ny int) (*HierReport, error) {
	return flows.RunHierArrayCtx(ctx, cfg, flow, nx, ny)
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

// RemapAbstractForMacroDie clones a hardened abstract with its pin
// and obstruction layers remapped onto the combined stack's _MD
// macro-die layers, so a block hardened on a plain logic stack can be
// re-instantiated on the macro die of a Macro-3D parent.
func RemapAbstractForMacroDie(m *Cell, combined *BEOL) (*Cell, error) {
	return core.RemapAbstractForMacroDie(m, combined)
}

// --- Experiments (the paper's tables) ---

// TableI is the small-cache flow comparison.
type TableI = report.TableI

// TableII is the in-depth 2D vs Macro-3D comparison.
type TableII = report.TableII

// TableIII is the M6–M4 heterogeneous-BEOL ablation.
type TableIII = report.TableIII

// IsoPerf is the §V-A iso-performance power comparison.
type IsoPerf = report.IsoPerf

// RunTableI reproduces Table I.
func RunTableI(seed uint64) (*TableI, error) { return report.RunTableI(seed) }

// RunTableII reproduces Table II.
func RunTableII(seed uint64) (*TableII, error) { return report.RunTableII(seed) }

// RunTableIII reproduces Table III.
func RunTableIII(seed uint64) (*TableIII, error) { return report.RunTableIII(seed) }

// RunIsoPerf reproduces the iso-performance comparison for one tile.
func RunIsoPerf(cfg TileConfig, seed uint64) (*IsoPerf, error) {
	return report.RunIsoPerf(cfg, seed)
}

// RunTableIWith is RunTableI with cancellation, a caller-supplied flow
// configuration, and keep-going mode: with keepGoing a failed column
// is skipped (rendering as "—") and the joined per-column errors are
// returned alongside the partial table. Cancellation always stops the
// table at the next stage boundary, preserving completed columns.
func RunTableIWith(ctx context.Context, cfg FlowConfig, keepGoing bool) (*TableI, error) {
	return report.RunTableIWith(ctx, cfg, keepGoing)
}

// RunTableIIWith is RunTableII with cancellation and keep-going mode.
func RunTableIIWith(ctx context.Context, cfg FlowConfig, keepGoing bool) (*TableII, error) {
	return report.RunTableIIWith(ctx, cfg, keepGoing)
}

// RunTableIIIWith is RunTableIII with cancellation and keep-going mode.
func RunTableIIIWith(ctx context.Context, cfg FlowConfig, keepGoing bool) (*TableIII, error) {
	return report.RunTableIIIWith(ctx, cfg, keepGoing)
}

// RunIsoPerfCtx is RunIsoPerf with cancellation.
func RunIsoPerfCtx(ctx context.Context, cfg TileConfig, seed uint64) (*IsoPerf, error) {
	return report.RunIsoPerfCtx(ctx, cfg, seed)
}

// BlockageSweep is the S2D blockage-resolution ablation.
type BlockageSweep = report.BlockageSweep

// PitchSweep is the F2F bump-pitch ablation.
type PitchSweep = report.PitchSweep

// RunBlockageSweep quantifies the S2D partial-blockage rasterization
// mechanism across resolutions (nil = default set).
func RunBlockageSweep(seed uint64, resolutions []float64) (*BlockageSweep, error) {
	return report.RunBlockageSweep(seed, resolutions)
}

// RunPitchSweep quantifies Macro-3D sensitivity to the F2F bump pitch
// (nil = default set).
func RunPitchSweep(seed uint64, pitches []float64) (*PitchSweep, error) {
	return report.RunPitchSweep(seed, pitches)
}

// HeteroTechSweep is the future-work extension: macro dies in
// different process nodes.
type HeteroTechSweep = report.HeteroTechSweep

// MacroProcess scales macro electrical properties relative to the
// logic node.
type MacroProcess = piton.MacroProcess

// RunHeteroTechSweep runs Macro-3D with same-node, low-leakage and
// fast-bin macro-die technologies.
func RunHeteroTechSweep(seed uint64) (*HeteroTechSweep, error) {
	return report.RunHeteroTechSweep(seed)
}

// RunBlockageSweepCtx is RunBlockageSweep with cancellation and
// keep-going mode (failed points leave nil gaps rendered as "—").
func RunBlockageSweepCtx(ctx context.Context, seed uint64, resolutions []float64, keepGoing bool) (*BlockageSweep, error) {
	return report.RunBlockageSweepCtx(ctx, seed, resolutions, keepGoing)
}

// RunPitchSweepCtx is RunPitchSweep with cancellation and keep-going.
func RunPitchSweepCtx(ctx context.Context, seed uint64, pitches []float64, keepGoing bool) (*PitchSweep, error) {
	return report.RunPitchSweepCtx(ctx, seed, pitches, keepGoing)
}

// RunHeteroTechSweepCtx is RunHeteroTechSweep with cancellation and
// keep-going.
func RunHeteroTechSweepCtx(ctx context.Context, seed uint64, keepGoing bool) (*HeteroTechSweep, error) {
	return report.RunHeteroTechSweepCtx(ctx, seed, keepGoing)
}

// RunIsoPerfWith is RunIsoPerfCtx taking a full flow configuration,
// so the stage cache and hardening knobs apply to both runs.
func RunIsoPerfWith(ctx context.Context, cfg FlowConfig) (*IsoPerf, error) {
	return report.RunIsoPerfWith(ctx, cfg)
}

// RunBlockageSweepWith is RunBlockageSweepCtx taking a full flow
// configuration.
func RunBlockageSweepWith(ctx context.Context, cfg FlowConfig, resolutions []float64, keepGoing bool) (*BlockageSweep, error) {
	return report.RunBlockageSweepWith(ctx, cfg, resolutions, keepGoing)
}

// RunPitchSweepWith is RunPitchSweepCtx taking a full flow
// configuration.
func RunPitchSweepWith(ctx context.Context, cfg FlowConfig, pitches []float64, keepGoing bool) (*PitchSweep, error) {
	return report.RunPitchSweepWith(ctx, cfg, pitches, keepGoing)
}

// RunHeteroTechSweepWith is RunHeteroTechSweepCtx taking a full flow
// configuration.
func RunHeteroTechSweepWith(ctx context.Context, cfg FlowConfig, keepGoing bool) (*HeteroTechSweep, error) {
	return report.RunHeteroTechSweepWith(ctx, cfg, keepGoing)
}

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

// OpenStageCacheLimited opens a stage cache with a byte budget:
// existing snapshots are indexed least-recently-used and the store
// evicts cold entries to keep the directory under maxBytes. A
// maxBytes of 0 means unlimited (same as OpenStageCache).
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

// ParseLEF reads the dialect WriteLEF emits.
func ParseLEF(r io.Reader) (*LEFContent, error) { return lefdef.ParseLEF(r) }

// WriteDEF emits a placed design.
func WriteDEF(w io.Writer, d *Design, die geom.Rect) error { return lefdef.WriteDEF(w, d, die) }

// ParseDEF reads the dialect WriteDEF emits against a library.
func ParseDEF(r io.Reader, lib *Library) (*DEFContent, error) { return lefdef.ParseDEF(r, lib) }

// RewriteMacroDieLayers performs the paper's scripted LEF edit on
// text: _MD layer suffixes inside MACRO pin/obstruction sections and
// the filler-size SIZE shrink.
func RewriteMacroDieLayers(lef string, fillerW, fillerH float64) string {
	return lefdef.RewriteMacroDieLayers(lef, fillerW, fillerH)
}

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
// /metrics, JSON snapshot, expvar, pprof) created by
// ObsRecorder.Serve.
type ObsServer = obs.Server

// NewObsRecorder returns an enabled recorder with an empty metric
// registry.
func NewObsRecorder() *ObsRecorder { return obs.New() }

// --- Execution tracing ---

// ExecTracer records a run's execution timeline — a slice per stage
// attempt, engine phase and per-worker chunk, with phase, step and
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
