package flows

import (
	"context"
	"fmt"
	"time"

	"macro3d/internal/cell"
	"macro3d/internal/cts"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/power"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
)

// HierReport is the outcome of the hierarchical parent flow: one tile
// hardened into an abstract, nx×ny abstract instances composed by
// abutment, and only the parent-level work (stitch routing, clock
// tree, boundary STA, verification) done from scratch.
type HierReport struct {
	Nx, Ny   int
	Abstract *cell.Cell
	Design   *netlist.Design
	Die      geom.Rect
	Routes   *route.Result
	Tree     *cts.Tree

	TilePeriodPs  float64 // the hardened block's own sign-off period
	ArrayPeriodPs float64 // parent minimum period (floored by the tile's)
	ClosesAtTile  bool    // array period ≤ tile period (+2 % tolerance)
	Critical      sta.Path

	StitchedNets int // inter-tile abutment connections routed by the parent
	F2FBumps     int // parent stitch crossings + per-instance hardened bumps

	// Energy per cycle: parent stitching + clock dynamic energy plus
	// the hardened block's per-cycle energy per instance. Leakage
	// counts every abstract instance (Cell.Leakage) plus the parent
	// clock buffers.
	EnergyPerCycleFJ float64
	PowerUW          float64
	LeakageUW        float64

	HardenCacheHit bool
	HardenElapsed  time.Duration // hardening (or cache load) wall clock
	ParentElapsed  time.Duration // parent-level compose→signoff wall clock
}

// RunHierArray is the hierarchical flow of DESIGN.md §13: harden the
// configured tile once (flow is HardenMacro3D or Harden2D), then
// instantiate the abstract nx×ny by abutment and sign off only the
// parent level. Against VerifyTileArray's flat re-verification this
// trades per-instance detail for wall clock: the sub-block P&R runs
// once (or zero times, on a warm cache), not per instance. ctx reaches
// both the hardening run and the parent.
func RunHierArray(ctx context.Context, cfg Config, flow string, nx, ny int) (*HierReport, error) {
	cfg = cfg.withDefaults()
	hr, err := HardenCtx(ctx, cfg, flow)
	if err != nil {
		return nil, err
	}
	rep, err := instantiate(ctx, cfg, hr, nx, ny)
	if err != nil {
		return nil, err
	}
	rep.HardenCacheHit = hr.CacheHit
	rep.HardenElapsed = hr.Elapsed
	return rep, nil
}

// InstantiateArray runs the parent level of the hierarchical flow on
// an already-hardened block: compose nx×ny abstracts by abutment,
// route the stitched nets against the abstracts' per-layer
// obstructions, synthesize the parent clock tree over the abstract
// clock pins, extract, close timing with the boundary model, and take
// power — the stage list compose → route → cts → extract → sta → power,
// then verify with Config.Check.
func InstantiateArray(cfg Config, hr *HardenResult, nx, ny int) (*HierReport, error) {
	return instantiate(context.Background(), cfg, hr, nx, ny)
}

func instantiate(ctx context.Context, cfg Config, hr *HardenResult, nx, ny int) (*HierReport, error) {
	t0 := time.Now()
	f := &flow{runner: newRunner(ctx, "hier", cfg.withDefaults(), &State{Tile: hr.Tile})}
	abs := hr.Abstract
	// Power: the parent-level analysis sees the stitch wires, the clock
	// tree and every instance's leakage; each instance's dynamic energy
	// comes from its hardened signoff.
	var pw *power.Report
	list := []stage{
		do(StageCompose, func() error { return f.composeAbstract(hr, nx, ny) }),
		do(StageRoute, f.route),
		do(StageCTS, func() error { return f.clockTree(f.namedClock()) }),
		do(StageExtract, f.extract),
		do(StageSTA, func() (err error) {
			f.st.Report, err = f.sta(abs.Abstract.MinPeriodPs, false)
			return err
		}),
		do(StagePower, func() (err error) {
			pw, err = f.powerAt(1e6 / f.st.Report.MinPeriod)
			return err
		}),
	}
	if f.cfg.Check {
		list = append(list, do(StageVerify, func() error { return f.verify(nil, nil) }))
	}
	if err := f.exec(list); err != nil {
		return nil, err
	}
	f.finish()

	st := f.st
	stitched := 0
	for _, n := range st.Design.Nets {
		if !n.Clock && len(n.Sinks) > 0 && !n.Driver.IsPort() && !n.Sinks[0].IsPort() {
			stitched++
		}
	}
	out := &HierReport{
		Nx: nx, Ny: ny,
		Abstract: abs, Design: st.Design, Die: st.Die,
		Routes: st.Routes, Tree: st.Tree,

		TilePeriodPs:  abs.Abstract.MinPeriodPs,
		ArrayPeriodPs: st.Report.MinPeriod,
		ClosesAtTile:  st.Report.MinPeriod <= abs.Abstract.MinPeriodPs*1.02,
		Critical:      st.Report.Critical,

		StitchedNets: stitched,
		F2FBumps:     st.Routes.F2FBumps + nx*ny*abs.Abstract.F2FBumps,

		EnergyPerCycleFJ: pw.DynamicFJ + float64(nx*ny)*abs.Abstract.EnergyPerCycleFJ,
		LeakageUW:        pw.LeakageUW,

		ParentElapsed: time.Since(t0),
	}
	out.PowerUW = out.EnergyPerCycleFJ*(1e6/st.Report.MinPeriod)*1e-3 + pw.LeakageUW
	return out, nil
}

// composeAbstract makes the parent design: nx×ny instances of the
// hardened abstract by abutment, on the hardened block's own stack. The
// parent router sees each instance as its per-layer residual:
// obstructions cover exactly the gcells the hardened implementation used
// or blocked, so stitch routes thread the genuinely free tracks over the
// macros instead of detouring around opaque full-stack blockages.
func (f *flow) composeAbstract(hr *HardenResult, nx, ny int) (err error) {
	abs, st := hr.Abstract, f.st
	if abs == nil || abs.Abstract == nil {
		return fmt.Errorf("hier: HardenResult carries no abstract")
	}
	if f.t, err = tech.New28(logicMetals); err != nil {
		return err
	}
	if st.Beol, err = f.parentBEOL(abs); err != nil {
		return err
	}
	if st.Design, st.Die, err = piton.ComposeAbstract(hr.Tile, abs, geom.R(0, 0, abs.Width, abs.Height), nx, ny); err != nil {
		return err
	}
	st.FP = &floorplan.Floorplan{Die: st.Die, RouteBlk: routeBlockages(st.Design.Instances)}
	return nil
}

// parentBEOL picks the routing stack the parent level runs on: the
// hardened block's own stack. A Macro-3D-hardened abstract carries
// obstructions on the _MD macro-die layers, so the parent must route
// on the same combined BEOL; a 2D-hardened abstract lives on the
// plain logic stack.
func (f *flow) parentBEOL(abs *cell.Cell) (*tech.BEOL, error) {
	needMD := false
	for _, o := range abs.Obstructions {
		if f.t.Logic.LayerIndex(o.Layer) < 0 {
			needMD = true
			break
		}
	}
	if !needMD {
		return f.t.Logic, nil
	}
	if err := f.macroStack(); err != nil {
		return nil, err
	}
	return tech.Combine(f.t.Logic, f.macroBeol, f.cfg.f2f(f.t))
}
