package flows

import (
	"context"
	"fmt"

	"macro3d/internal/core"
	"macro3d/internal/ddb"
	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/opt"
	"macro3d/internal/partition"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
)

// RunS2D executes the Shrunk-2D baseline [5]: a pseudo design with
// cells shrunk to 50 % area is placed and optimized in the 3D
// footprint against *partial* macro blockages and a single-die BEOL;
// the sizing and locations are then transferred to the real design,
// which is tier-partitioned, overlap-legalized against the real macro
// extents, and rerouted on the true combined stack with optimization
// frozen — the sequence whose compounding errors the paper documents.
//
// balanced selects the BF S2D variant: macros distributed over both
// dies with maximal z-overlap, turning partial blockages into full
// ones (S2D's best case, at the cost of MoL's manufacturing
// advantages).
func RunS2D(cfg Config, balanced bool) (*PPA, *State, error) {
	return RunS2DCtx(context.Background(), cfg, balanced)
}

// RunS2DCtx is RunS2D honouring cancellation and per-stage deadlines
// at stage boundaries.
func RunS2DCtx(ctx context.Context, cfg Config, balanced bool) (*PPA, *State, error) {
	cfg = cfg.withDefaults()
	style := floorplan.StyleMoL
	name := "S2D"
	if balanced {
		style = floorplan.StyleBalanced
		name = "BF S2D"
	}
	stP := &State{}
	r := newRunner(ctx, name, cfg, stP)

	var t *tech.Tech
	var realTile *piton.Tile
	var dReal *netlist.Design
	var sz floorplan.Sizing
	var die geom.Rect
	if err := r.stage(StageGenerate, func() error {
		if cfg.Generator != nil {
			return fmt.Errorf("flows: custom generators are only supported by Run2D/RunMacro3D")
		}
		var err error
		if t, err = tech.New28(cfg.LogicMetals); err != nil {
			return err
		}
		// Real design determines footprints and macro floorplan.
		if realTile, err = piton.Generate(cfg.Piton); err != nil {
			return err
		}
		dReal = realTile.Design
		return nil
	}); err != nil {
		return nil, stP, err
	}

	if err := r.stage(StageFloorplan, func() error {
		var err error
		sz, err = floorplan.SizeDesign(dReal, cfg.Util, 1.0, t.RowHeight)
		if err != nil {
			return err
		}
		die = sz.Die3D
		if _, _, err := floorplan.PlaceMacros(dReal, die, style); err != nil {
			return err
		}
		floorplan.AssignPorts(realTile, die)
		return nil
	}); err != nil {
		return nil, stP, err
	}

	// ---- Phase A: the pseudo (shrunk) design. ----
	// The whole pseudo P&R plus the transfer is one checkpoint: its
	// only effect phase B can see is the transferred location, placed
	// flag and drive choice of each real standard cell.
	var dP *netlist.Design
	var fpP *floorplan.Floorplan
	pseudoBody := func() error {
		if err := r.stage("pseudo-"+StageFloorplan, func() error {
			pcfg := cfg.Piton
			pcfg.TargetLogicArea *= 0.5 // the 50 % area shrink
			pseudoTile, err := piton.Generate(pcfg)
			if err != nil {
				return err
			}
			dP = pseudoTile.Design

			// Pseudo macros sit at the real floorplan locations, pins in
			// the single-die BEOL (the S2D inaccuracy: the final pins live
			// in the other die's metal).
			var logicRects, macroRects []geom.Rect
			for _, m := range dReal.Macros() {
				pm := dP.Instance(m.Name)
				if pm == nil {
					return fmt.Errorf("s2d: pseudo design lacks macro %s", m.Name)
				}
				pm.Loc = m.Loc
				pm.Fixed, pm.Placed = true, true
				pm.Die = netlist.LogicDie // single-die view
				if m.Die == netlist.LogicDie {
					logicRects = append(logicRects, m.Bounds())
				} else {
					macroRects = append(macroRects, m.Bounds())
				}
			}
			floorplan.AssignPorts(pseudoTile, die)

			// Partial blockages rasterized at the coarse resolution.
			pbm := floorplan.NewPartialBlockageMap(die, cfg.BlockageResolution, logicRects, macroRects)
			fpP = &floorplan.Floorplan{Die: die, PlaceBlk: pbm.Blockages()}
			// Routing obstructions only where a macro occupies *this* die
			// in the pseudo single-die view (logic-die macros).
			for _, m := range dReal.Macros() {
				if m.Die != netlist.LogicDie {
					continue
				}
				for _, o := range m.Master.Obstructions {
					fpP.RouteBlk = append(fpP.RouteBlk, floorplan.RouteBlockage{
						Layer: o.Layer, Rect: o.Rect.Translate(m.Loc),
					})
				}
			}

			// Shrunk interconnect geometry (50 % dimensions → 1/√2 pitch);
			// per-µm parasitics unchanged — S2D's estimation model.
			shrunkBeol := tech.ShrinkGeometry(t.Logic, 0.7071)
			stP.Design, stP.Tile, stP.Die = dP, pseudoTile, die
			stP.FP, stP.Beol, stP.Sizing = fpP, shrunkBeol, sz
			return nil
		}); err != nil {
			return err
		}

		if err := r.seededStage("pseudo-"+StagePlace, cfg.Seed+3, func(seed uint64) error {
			_, err := place.Place(dP, fpP, t.RowHeight, cfg.placeOptions(seed, r.obs()))
			return err
		}); err != nil {
			return err
		}

		if err := r.stage("pseudo-"+StageRoute, func() error {
			buildClock(stP)
			stP.DB = route.NewDB(die, stP.Beol, fpP.RouteBlk, cfg.routeOptions(r.obs()))
			var err error
			stP.Routes, err = route.RouteDesign(dP, stP.DB)
			return err
		}); err != nil {
			return err
		}

		// Optimize against the pseudo parasitics (sizing only — buffer
		// replication across the transfer is not part of the reference
		// flows either).
		if err := r.stage("pseudo-"+StageOpt, func() error {
			slow := t.CornerScaleFor(tech.CornerSlow)
			stP.ExSlow = extract.Extract(dP, stP.Routes, stP.DB, slow)
			if err := stP.ExSlow.CheckFinite(); err != nil {
				return err
			}
			stP.DDB = ddb.New(dP, stP.DB, stP.Routes, stP.ExSlow, slow)
			_, err := opt.Optimize(&opt.Context{
				Clock: stP.Tree,
				FP:    fpP, RowHeight: t.RowHeight,
				DDB: stP.DDB,
			}, sta.Options{}, opt.Options{BufferElmore: 1e12, SelfCheck: cfg.SelfCheck})
			return err
		}); err != nil {
			return err
		}

		// ---- Transfer: unshrink, keep (x, y) and sizing. ----
		return r.stage(StageTransfer, func() error {
			return transferPseudoScaled(dP, dReal, 1)
		})
	}
	if err := r.checkpointed(pseudoCheckpoint(resolutionMaterial(cfg), dReal), pseudoBody); err != nil {
		return nil, stP, err
	}

	// ---- Phase B: partition, legalize, reroute frozen. ----
	return finish3DBaseline(r, cfg, t, realTile, die, sz, opt.Options{Frozen: true})
}

// finish3DBaseline is the shared S2D/C2D back end: tier partitioning,
// per-die overlap legalization, combined-stack reroute, frozen
// sign-off.
func finish3DBaseline(r *runner, cfg Config, t *tech.Tech, tile *piton.Tile, die geom.Rect, sz floorplan.Sizing, optCfg opt.Options) (*PPA, *State, error) {
	d := tile.Design
	st := &State{Design: d, Tile: tile, Die: die, Sizing: sz}
	r.setState(st)

	if err := r.checkpointed(placementCheckpoint(StagePartition, resolutionMaterial(cfg), d), func() error {
		return r.seededStage(StagePartition, cfg.Seed, func(seed uint64) error {
			if _, err := partition.TierPartition(d, partition.Options{Seed: seed}); err != nil {
				return err
			}
			partition.BinBalance(d, die, cfg.BlockageResolution)
			_, err := partition.LegalizeTiers(d, die, t.RowHeight)
			return err
		})
	}); err != nil {
		return nil, st, err
	}

	// Combined-stack view: edit macro-die macros; remap macro-die
	// cells' pin layers.
	var md *core.MoLDesign
	if err := r.stage(StagePrepare, func() error {
		macroBeol, err := tech.NewBEOL28("macro28", cfg.MacroDieMetals)
		if err != nil {
			return err
		}
		filler := d.Lib.MustCell("FILL_X1")
		if md, err = core.PrepareMoL(d, t.Logic, macroBeol, t.F2F, die, filler.Width, filler.Height); err != nil {
			return fmt.Errorf("%s prepare: %w", r.flow, err)
		}
		for _, c := range d.StdCells() {
			if c.Die == netlist.MacroDie {
				c.Master = core.CellForDie(c.Master, netlist.MacroDie)
			}
		}
		// Logic-die macros (BF floorplan) still obstruct the logic
		// BEOL and block placement — PrepareMoL already added those.
		st.FP, st.Beol = md.FP, md.Combined
		return nil
	}); err != nil {
		return nil, st, err
	}

	if err := r.stage(StageCTS, func() error {
		buildClock(st)
		return nil
	}); err != nil {
		return nil, st, err
	}

	buildDB := func() {
		st.DB = route.NewDB(die, md.Combined, md.FP.RouteBlk, cfg.routeOptions(r.obs()))
	}
	if err := r.checkpointed(routeCheckpoint(st, d, stackMaterial(cfg, t), buildDB), func() error {
		return r.stage(StageRoute, func() error {
			buildDB()
			var err error
			st.Routes, err = route.RouteDesign(d, st.DB)
			return err
		})
	}); err != nil {
		return nil, st, err
	}

	// Sign-off under the baseline's post-partition budget: frozen for
	// S2D; a limited touch-up for C2D (its "post-tier-partitioning
	// optimization"). Either way, the sizing decided against pseudo
	// parasitics is essentially locked in (paper §III).
	ppa, err := signoff(r, cfg, st, t, optCfg, 2, cfg.LogicMetals+cfg.MacroDieMetals)
	if err != nil {
		return nil, st, err
	}
	if err := verifyStage(r, cfg, st, t, md); err != nil {
		return nil, st, err
	}
	r.finish()
	ppa.Flow = r.flow
	return ppa, st, nil
}
