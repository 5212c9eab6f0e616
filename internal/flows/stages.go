package flows

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"macro3d/internal/core"
	"macro3d/internal/cts"
	"macro3d/internal/ddb"
	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/opt"
	"macro3d/internal/par"
	"macro3d/internal/partition"
	"macro3d/internal/place"
	"macro3d/internal/power"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
	"macro3d/internal/verify"
)

// The pieces every flow's stage list is assembled from. Stage bodies read
// and write f.st, the State the runner currently works on.

// frontEnd generates the benchmark into dst and floorplans its macros in
// the given style: the 2D die for Style2D, the 3D footprint otherwise.
func (f *flow) frontEnd(dst *State, style floorplan.Style) []stage {
	// 2D and Macro-3D run P&R on the front end's own State. The pseudo
	// flows first run it on a regeneration, which only the tile generator
	// offers, and reach the macro die's stack in prepare.
	direct := dst == f.st
	return []stage{
		do(StageGenerate, func() error {
			if !direct && f.cfg.Generator != nil {
				return fmt.Errorf("flows: custom generators are only supported by Run2D/RunMacro3D")
			}
			var err error
			if f.t, err = tech.New28(f.cfg.LogicMetals); err != nil {
				return err
			}
			if direct && f.dies > 1 { // Macro-3D: the whole technology up front
				if err := f.macroStack(); err != nil {
					return err
				}
			}
			tile, err := f.cfg.generate()
			if err != nil {
				return err
			}
			dst.Design, dst.Tile = tile.Design, tile
			if style == floorplan.Style2D {
				dst.Beol = f.t.Logic // the 3D flows get theirs in prepare
			}
			return nil
		}),
		do(StageFloorplan, func() error {
			sz, err := floorplan.SizeDesign(dst.Design, f.cfg.Util, 1.0, f.t.RowHeight)
			if err != nil {
				return err
			}
			dst.Die, dst.Sizing = sz.Die3D, sz
			if style == floorplan.Style2D {
				dst.Die = sz.Die2D
			}
			fp, _, err := floorplan.PlaceMacros(dst.Design, dst.Die, style)
			if err != nil {
				return err
			}
			if style == floorplan.Style2D {
				// One die: this is the floorplan P&R runs on.
				dst.FP = fp
				floorplan.BuildBlockages(fp, dst.Design, netlist.LogicDie)
			}
			floorplan.AssignPorts(dst.Tile, dst.Die)
			return nil
		}),
	}
}

// prepare is the paper's step 2: the combined BEOL, the macro-die macros
// edited onto its _MD layers, and the superimposed floorplan. Logic-die
// macros (BF floorplan) still obstruct the logic BEOL and block placement.
func (f *flow) prepare() (err error) {
	d := f.st.Design
	if err = f.macroStack(); err != nil {
		return err
	}
	filler := d.Lib.MustCell("FILL_X1")
	f.md, err = core.PrepareMoL(d, f.t.Logic, f.macroBeol, f.cfg.f2f(f.t), f.st.Die, filler.Width, filler.Height)
	if err != nil {
		return fmt.Errorf("%s prepare: %w", flowSlug(f.flow), err)
	}
	f.st.FP, f.st.Beol = f.md.FP, f.md.Combined
	// The macro-die metal count and the F2F via technology shaped that
	// stack; they key the first checkpoint from here on.
	f.stackKey = stackMaterial(f.cfg, f.t)
	return nil
}

// macroStack builds the macro die's BEOL, once.
func (f *flow) macroStack() (err error) {
	if f.macroBeol == nil {
		f.macroBeol, err = tech.NewBEOL28("macro28", f.cfg.MacroDieMetals)
	}
	return err
}

// material hands the pending key material of the 3D stack, if any, to
// the checkpoint being built.
func (f *flow) material() []byte {
	m := f.stackKey
	f.stackKey = nil
	return m
}

// placeRegion is global placement and legalization under the "place"
// checkpoint.
func (f *flow) placeRegion(seedOff uint64) stage {
	return region(
		func() checkpoint { return placementCheckpoint(StagePlace, f.material(), f.st.Design) },
		f.place(StagePlace, seedOff))
}

func (f *flow) place(name string, seedOff uint64) stage {
	return seeded(name, f.cfg.Seed+seedOff, func(seed uint64) error {
		_, err := place.Place(f.st.Design, f.st.FP, f.t.RowHeight, f.cfg.placeOptions(seed, f.obs()))
		return err
	})
}

// stagesPseudo3D is the S2D / BF S2D / C2D stage list, driven by the
// flow's pseudoSpecs row. Phase A places, routes and sizes a pseudo
// design — shrunk or inflated by the row — against a single-die BEOL and
// partial macro blockages, and transfers locations and drive choices onto
// the real design. Phase B partitions that into tiers, legalizes the
// overlaps and reroutes it on the true combined stack.
func (f *flow) stagesPseudo3D() []stage {
	spec := pseudoSpecs[f.flow]
	real := &State{} // f.st is the pseudo design's until phase B
	tiers := region(
		func() checkpoint { return placementCheckpoint(StagePartition, resolutionMaterial(f.cfg), real.Design) },
		seeded(StagePartition, f.cfg.Seed, func(seed uint64) error {
			if _, err := partition.TierPartition(real.Design, partition.Options{Seed: seed}); err != nil {
				return err
			}
			partition.BinBalance(real.Design, real.Die, f.cfg.BlockageResolution)
			_, err := partition.LegalizeTiers(real.Design, real.Die, f.t.RowHeight)
			return err
		}))
	tiers.on = real // phase B works on the real design
	return slices.Concat(f.frontEnd(real, spec.style), []stage{
		// The whole pseudo P&R plus the transfer is one checkpoint: all
		// phase B can see of it is the transferred location, placed flag
		// and drive choice of each real standard cell.
		region(func() checkpoint { return pseudoCheckpoint(resolutionMaterial(f.cfg), real.Design) },
			do("pseudo-"+StageFloorplan, func() error { return f.pseudoFloorplan(spec, real) }),
			f.place("pseudo-"+StagePlace, spec.seedOff),
			do("pseudo-"+StageRoute, func() error {
				f.clockTree(f.namedClock())
				return f.route()
			}),
			// Sizing only, against the pseudo parasitics — buffers do
			// not survive the transfer in the reference flows either.
			do("pseudo-"+StageOpt, func() error {
				if err := f.extract(); err != nil {
					return err
				}
				_, err := f.optimize(opt.Options{BufferElmore: 1e12, SelfCheck: f.cfg.SelfCheck}, nil)
				return err
			}),
			do(StageTransfer, func() error { return transferPseudo(f.st.Design, real.Design, 1/spec.s) }),
		),
		tiers,
		do(StagePrepare, func() error {
			if err := f.prepare(); err != nil {
				return err
			}
			// Cells the partition moved to the macro die take its pin
			// layers: one view per master, shared by its instances, as a
			// checkpoint restores them (resolveMaster).
			views := core.DieViews{}
			for _, c := range real.Design.StdCells() {
				if c.Die == netlist.MacroDie {
					c.Master = views.MacroDie(c.Master)
				}
			}
			return nil
		}),
	}, f.backEnd(spec.budget))
}

// pseudoFloorplan builds the pseudo design and its single-die view into
// f.st: macros at the real floorplan's locations scaled by s (blockage
// areas by s²), pins in the logic BEOL — the pseudo flows' inaccuracy:
// the final pins live in the other die's metal.
func (f *flow) pseudoFloorplan(spec pseudoSpec, real *State) error {
	s := spec.s
	die := real.Die.Scale(s)
	pcfg := f.cfg.Piton
	pcfg.TargetLogicArea *= spec.area
	tile, err := newTile(pcfg)
	if err != nil {
		return err
	}
	fp := &floorplan.Floorplan{Die: die}
	var logicRects, macroRects []geom.Rect
	for _, m := range real.Design.Macros() {
		pm := tile.Design.Instance(m.Name)
		if pm == nil {
			return fmt.Errorf("%s: pseudo design lacks macro %s", flowSlug(f.flow), m.Name)
		}
		pm.Loc = m.Loc.Scale(s)
		pm.Fixed, pm.Placed = true, true
		pm.Die = netlist.LogicDie
		if m.Die != netlist.LogicDie {
			macroRects = append(macroRects, m.Bounds().Scale(s))
			continue
		}
		logicRects = append(logicRects, m.Bounds().Scale(s))
		// Routing obstructions only where a macro occupies *this* die.
		for _, o := range m.Master.Obstructions {
			fp.RouteBlk = append(fp.RouteBlk, floorplan.RouteBlockage{
				Layer: o.Layer, Rect: o.Rect.Translate(m.Loc).Scale(s),
			})
		}
	}
	floorplan.AssignPorts(tile, die)
	// Partial blockages rasterized at the coarse resolution.
	fp.PlaceBlk = floorplan.NewPartialBlockageMap(die, f.cfg.BlockageResolution, logicRects, macroRects).Blockages()
	st := f.st
	st.Design, st.Tile, st.Die = tile.Design, tile, die
	st.FP, st.Beol, st.Sizing = fp, spec.beol(f.t.Logic, s), real.Sizing
	return nil
}

// transferPseudo copies drive choices and linearly mapped cell
// locations from the pseudo design onto the real one.
func transferPseudo(dP, dReal *netlist.Design, scale float64) error {
	for _, c := range dReal.StdCells() {
		pc := dP.Instance(c.Name)
		if pc == nil {
			return fmt.Errorf("flows: pseudo design lacks instance %s", c.Name)
		}
		ctr := pc.Center().Scale(scale)
		c.Loc = geom.Pt(ctr.X-c.Master.Width/2, ctr.Y-c.Master.Height/2)
		c.Placed = true
		if pc.Master.Name != c.Master.Name {
			to := dReal.Lib.Cell(pc.Master.Name)
			if to == nil {
				return fmt.Errorf("flows: real library lacks %s", pc.Master.Name)
			}
			if err := dReal.Resize(c, to); err != nil {
				return err
			}
		}
	}
	return nil
}

// backEnd is what every flow ends in: clock tree, routing, sign-off
// (slow-corner extraction and optimization under the given budget — full
// for 2D and Macro-3D, frozen for S2D, limited for C2D — then hold STA and
// typical-corner power) and, with Config.Verify, die separation (3D) and
// independent verification.
func (f *flow) backEnd(budget opt.Options) []stage {
	// The effective budget is resolved up front so the signoff
	// checkpoint's key material matches what the optimizer runs with.
	budget.TargetPeriod = cmp.Or(budget.TargetPeriod, f.cfg.TargetPeriod)
	budget.SelfCheck = budget.SelfCheck || f.cfg.SelfCheck

	list := []stage{
		do(StageCTS, func() error { return f.clockTree(f.namedClock()) }),
		region(func() checkpoint { return routeCheckpoint(f.st, f.material(), f.newDB) },
			do(StageRoute, f.route)),
		region(func() checkpoint { return f.signoffCheckpoint(signoffMaterial(budget)) },
			do(StageExtract, f.extract),
			do(StageOpt, func() error {
				res, err := f.optimize(budget, f.obs())
				if err != nil {
					return err
				}
				f.st.Report, f.eng = res.Report, res.Engine
				f.resized, f.buffers = res.Resized, res.Buffers
				f.st.Routes.Recount(f.st.DB)
				return nil
			})),
		do(StageSTA, f.holdSignoff),
		do(StagePower, f.power),
	}
	if !f.cfg.Verify {
		return list
	}
	var bumps []geom.Point
	if f.dies > 1 {
		// The bump list is checked against the bonding pitch.
		list = append(list, do(StageSeparate, func() error {
			logicPart, _, err := core.Separate(f.md, f.st.Routes, f.st.DB)
			if err != nil {
				return err
			}
			bumps = logicPart.Bumps
			return nil
		}))
	}
	return append(list, do(StageVerify, func() error { return f.verify(bumps) }))
}

// clockTree synthesizes the clock tree of clk, driven from src.
func (f *flow) clockTree(clk *netlist.Net, src geom.Point) error {
	st, d := f.st, f.st.Design
	st.Tree = cts.Build(d, clk, src, d.Lib, st.Beol, cts.Options{})
	return nil
}

// namedClock is the clock of a generated or composed design, found by
// name: the "clk" net, driven from the clk_i port, or from the middle of
// the die's left edge without one.
func (f *flow) namedClock() (*netlist.Net, geom.Point) {
	st, d := f.st, f.st.Design
	src := geom.Pt(st.Die.Lx, st.Die.Center().Y)
	if p := d.Port("clk_i"); p != nil {
		src = p.Loc
	}
	return d.Net("clk"), src
}

// newDB builds the empty routing database of f.st, on the route stage
// and on its checkpoint's load path alike.
func (f *flow) newDB() {
	f.st.DB = route.NewDB(f.st.Die, f.st.Beol, f.st.FP.RouteBlk, f.cfg.routeOptions(f.obs()))
}

func (f *flow) route() error {
	f.newDB()
	var err error
	f.st.Routes, err = route.RouteDesign(f.st.Design, f.st.DB)
	return err
}

// extract is slow-corner extraction, the parasitics timing is signed off
// on. Non-finite parasitics fail the stage.
func (f *flow) extract() error {
	f.st.ExSlow = f.extractAt(tech.CornerSlow)
	return f.st.ExSlow.CheckFinite()
}

// extractAt is extraction at corner c on a worker team of Config.Workers.
func (f *flow) extractAt(c tech.Corner) *extract.Design {
	st := f.st
	workers := par.Workers(f.cfg.Workers)
	var team par.Team
	team.Start(workers, f.obs().Workers(workers))
	defer team.Close()
	return extract.ExtractOn(&team, st.Design, st.Routes, st.DB, f.t.CornerScaleFor(c), f.lend...)
}

// openDDB opens the design database on the slow-corner extraction; sp is
// the span it reports under, nil for the pseudo design.
func (f *flow) openDDB(sp *obs.Span) {
	st := f.st
	st.DDB = ddb.New(st.Design, st.DB, st.Routes, st.ExSlow, f.t.CornerScaleFor(tech.CornerSlow))
	st.DDB.AttachObs(sp)
}

func (f *flow) optimize(budget opt.Options, sp *obs.Span) (*opt.Result, error) {
	st := f.st
	f.openDDB(sp)
	res, err := opt.Optimize(&opt.Context{
		Clock: st.Tree,
		FP:    st.FP, RowHeight: f.t.RowHeight,
		DDB: st.DDB,
		Obs: sp,
	}, sta.Options{}, budget)
	if err != nil {
		return nil, fmt.Errorf("%s: optimization: %w", st.Design.Name, err)
	}
	return res, nil
}

// sta is full static timing of f.st at the slow corner against period,
// with the hold check when hold is set.
func (f *flow) sta(period float64, hold bool) (*sta.Report, error) {
	st := f.st
	return sta.Analyze(st.Design, st.ExSlow, period, f.staOptions(hold))
}

func (f *flow) staOptions(hold bool) sta.Options {
	return sta.Options{Corner: f.t.CornerScaleFor(tech.CornerSlow), Clock: f.st.Tree, CheckHold: hold, Obs: f.obs()}
}

// holdSignoff is hold sign-off on the final state, on the engine the
// optimizer ran on — whose setup timing is the final report already —
// or, when the signoff region was restored from the cache, on a new one
// over the slow-corner extraction. Neither runs a setup pass. Under
// Config.SelfCheck a from-scratch analysis must agree.
func (f *flow) holdSignoff() error {
	eng := f.eng
	f.eng = nil
	if eng == nil {
		var err error
		if eng, err = sta.NewEngine(f.st.Design, f.st.ExSlow, f.staOptions(false)); err != nil {
			return err
		}
	}
	hold, err := eng.Hold()
	if err != nil {
		return err
	}
	if f.cfg.SelfCheck {
		want, err := f.sta(f.st.Report.MinPeriod, true)
		if err != nil {
			return err
		}
		if hold.HoldWNS != want.HoldWNS || hold.HoldViolations != want.HoldViolations || hold.HoldEndpoints != want.HoldEndpoints {
			return fmt.Errorf("sta: selfcheck: hold on the optimizer's engine (WNS %v, %d violations, %d endpoints) differs from a fresh analysis (WNS %v, %d, %d)",
				hold.HoldWNS, hold.HoldViolations, hold.HoldEndpoints, want.HoldWNS, want.HoldViolations, want.HoldEndpoints)
		}
	}
	f.hold = hold
	return nil
}

// powerAt is typical-corner power of f.st at fclk MHz, and the extraction
// it is computed on. Non-finite results fail the stage instead of
// propagating into the tables.
func (f *flow) powerAt(fclk float64) (*power.Report, *extract.Design, error) {
	st := f.st
	ex := f.extractAt(tech.CornerTypical)
	if err := ex.CheckFinite(); err != nil {
		return nil, nil, err
	}
	pw := power.Analyze(st.Design, ex, st.Tree, fclk, power.Options{Corner: f.t.CornerScaleFor(tech.CornerTypical)})
	vals := [...]float64{pw.EnergyPerCycleFJ, pw.PowerUW(fclk), pw.LeakageUW}
	for i, name := range [...]string{"energy/cycle", "power", "leakage"} {
		if v := vals[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("power: non-finite %s (%v)", name, v)
		}
	}
	return pw, ex, nil
}

// power is typical-corner power at the achieved frequency (or the
// target, for iso-performance runs), and the PPA row.
func (f *flow) power() error {
	st := f.st
	fclk := 1e6 / st.Report.MinPeriod
	if f.cfg.TargetPeriod > 0 {
		fclk = 1e6 / f.cfg.TargetPeriod
	}
	pw, exTyp, err := f.powerAt(fclk)
	if err != nil {
		return err
	}

	metals := f.cfg.LogicMetals
	if f.dies > 1 {
		metals += f.cfg.MacroDieMetals
	}
	f.ppa = &PPA{
		Flow:        f.flow,
		Config:      st.Design.Name,
		FclkMHz:     fclk,
		MinPeriodPs: st.Report.MinPeriod,
		EmeanFJ:     pw.EnergyPerCycleFJ,
		PowerUW:     pw.PowerUW(fclk),
		LeakageUW:   pw.LeakageUW,

		FootprintMM2:     st.Die.Area() / 1e6,
		LogicCellAreaMM2: opt.LogicCellArea(st.Design) / 1e6,
		MetalAreaMM2:     st.Die.Area() / 1e6 * float64(metals),

		TotalWLm: (st.Routes.WL + st.Tree.Wirelength) / 1e6,
		F2FBumps: st.Routes.F2FBumps,
		CpinNF:   (exTyp.CPinTotal + st.Tree.PinCap) / 1e6,
		CwireNF:  (exTyp.CWireTotal + st.Tree.WireCap) / 1e6,

		ClkDepth:  st.Tree.Depth,
		ClkSkewPs: st.Tree.Skew,

		CritPathWLmm: st.Report.Critical.Wirelength / 1e3,
		CritPathPs:   st.Report.Critical.Delay,

		HoldWNSps:      f.hold.HoldWNS,
		HoldViolations: f.hold.HoldViolations,

		RouteOverflow: st.Routes.Overflow,
		Dies:          f.dies,
		Resized:       f.resized,
		Buffers:       f.buffers,
	}
	return nil
}

// verify is the independent sign-off check; a dirty report fails the run
// with a StageError wrapping *verify.Error.
func (f *flow) verify(bumps []geom.Point) error {
	st := f.st
	rep := verify.Full(st.Design, st.Die, st.Routes, bumps, f.cfg.f2f(f.t), nil)
	if reg := f.obs().Reg(); reg != nil {
		reg.Counter("verify_violations_total",
			"Sign-off verification violations found, duplicates included.").Add(uint64(rep.Total))
		reg.Counter("verify_checked_instances_total",
			"Instances examined by sign-off verification.").Add(uint64(rep.Checked.Instances))
		reg.Counter("verify_checked_nets_total",
			"Nets examined by sign-off verification.").Add(uint64(rep.Checked.Nets))
	}
	if !rep.Clean() {
		return &verify.Error{Report: rep}
	}
	return nil
}
