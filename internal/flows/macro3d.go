package flows

import (
	"context"
	"fmt"

	"macro3d/internal/core"
	"macro3d/internal/floorplan"
	"macro3d/internal/opt"
	"macro3d/internal/place"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// RunMacro3D executes the paper's flow (§IV): macro-die floorplan,
// combined BEOL, single-pass 2D P&R that is directly the final 3D
// result, and die separation.
func RunMacro3D(cfg Config) (*PPA, *State, *core.MoLDesign, error) {
	return RunMacro3DCtx(context.Background(), cfg)
}

// RunMacro3DCtx is RunMacro3D honouring cancellation and per-stage
// deadlines at stage boundaries.
func RunMacro3DCtx(ctx context.Context, cfg Config) (*PPA, *State, *core.MoLDesign, error) {
	cfg = cfg.withDefaults()
	st := &State{}
	r := newRunner(ctx, "Macro-3D", cfg, st)

	var t *tech.Tech
	var macroBeol *tech.BEOL
	if err := r.stage(StageGenerate, func() error {
		var err error
		if t, err = tech.New28(cfg.LogicMetals); err != nil {
			return err
		}
		if macroBeol, err = tech.NewBEOL28("macro28", cfg.MacroDieMetals); err != nil {
			return err
		}
		tile, err := cfg.generate()
		if err != nil {
			return err
		}
		st.Design, st.Tile = tile.Design, tile
		return nil
	}); err != nil {
		return nil, st, nil, err
	}
	d := st.Design

	// Step 1: the two per-die floorplans (macros → macro die).
	if err := r.stage(StageFloorplan, func() error {
		sz, err := floorplan.SizeDesign(d, cfg.Util, 1.0, t.RowHeight)
		if err != nil {
			return err
		}
		st.Die, st.Sizing = sz.Die3D, sz
		if _, _, err := floorplan.PlaceMacros(d, sz.Die3D, floorplan.StyleMoL); err != nil {
			return err
		}
		floorplan.AssignPorts(st.Tile, sz.Die3D)
		return nil
	}); err != nil {
		return nil, st, nil, err
	}

	// Step 2: combined BEOL + macro editing + superimposed floorplan.
	var md *core.MoLDesign
	if err := r.stage(StagePrepare, func() error {
		f2f := t.F2F
		if cfg.F2F != nil {
			f2f = *cfg.F2F
		}
		filler := d.Lib.MustCell("FILL_X1")
		var err error
		md, err = core.PrepareMoL(d, t.Logic, macroBeol, f2f, st.Die, filler.Width, filler.Height)
		if err != nil {
			return fmt.Errorf("macro3d prepare: %w", err)
		}
		st.FP = md.FP
		st.Beol = md.Combined
		return nil
	}); err != nil {
		return nil, st, nil, err
	}

	// Step 3: standard 2D P&R over the combined stack — the result is
	// directly valid for the 3D target.
	// The place checkpoint's key material covers the 3D-specific
	// inputs of the stages above it (prepare's combined BEOL and F2F
	// spec); everything else is in the root key.
	if err := r.checkpointed(placementCheckpoint(StagePlace, stackMaterial(cfg, t), d), func() error {
		return r.seededStage(StagePlace, cfg.Seed+2, func(seed uint64) error {
			_, err := place.Place(d, md.FP, t.RowHeight, cfg.placeOptions(seed, r.obs()))
			return err
		})
	}); err != nil {
		return nil, st, nil, err
	}

	if err := r.stage(StageCTS, func() error {
		buildClock(st)
		return nil
	}); err != nil {
		return nil, st, nil, err
	}

	buildDB := func() {
		st.DB = route.NewDB(st.Die, md.Combined, md.FP.RouteBlk, cfg.routeOptions(r.obs()))
	}
	if err := r.checkpointed(routeCheckpoint(st, d, nil, buildDB), func() error {
		return r.stage(StageRoute, func() error {
			buildDB()
			var err error
			st.Routes, err = route.RouteDesign(d, st.DB)
			return err
		})
	}); err != nil {
		return nil, st, nil, err
	}

	// Sign-off with full optimization (the engine sees reality, so
	// optimization is trustworthy — the paper's key property).
	ppa, err := signoff(r, cfg, st, t, opt.Options{}, 2, cfg.LogicMetals+cfg.MacroDieMetals)
	if err != nil {
		return nil, st, nil, err
	}
	if err := verifyStage(r, cfg, st, t, md); err != nil {
		return nil, st, md, err
	}
	r.finish()
	ppa.Flow = "Macro-3D"
	return ppa, st, md, nil
}
