package flows

import (
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
	"macro3d/internal/piton"
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
			if f.t, err = tech.New28(logicMetals); err != nil {
				return err
			}
			if direct && f.dies > 1 { // Macro-3D: the whole technology up front
				if err := f.macroStack(); err != nil {
					return err
				}
			}
			tile, err := f.cfg.generate(f.obs())
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
			sz, err := floorplan.SizeDesign(dst.Design, util, 1.0, f.t.RowHeight)
			if err != nil {
				return err
			}
			dst.Die, dst.Sizing = sz.Die3D, sz
			if style == floorplan.Style2D {
				dst.Die = sz.Die2D
			}
			fp, err := floorplan.PlaceMacros(dst.Design, dst.Die, style)
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
		func() checkpoint { return placementCheckpoint(StagePlace, f.material(), f.st) },
		f.place(StagePlace, seedOff))
}

// place runs on Config.Seed+seedOff.
func (f *flow) place(name string, seedOff uint64) stage {
	return stage{name: name, seedOff: seedOff, body: func() error {
		_, err := place.Place(f.st.Design, f.st.FP, f.t.RowHeight, f.cfg.placeOptions(f.cfg.Seed+seedOff, f.obs()))
		return err
	}}
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
	return slices.Concat(f.frontEnd(real, spec.style), []stage{
		// The whole pseudo P&R, the transfer and the tier partition are one
		// checkpoint: all phase B can see of them is the real design's
		// placement — each standard cell's partitioned location, die,
		// placed flag and drive choice.
		region(func() checkpoint { return placementCheckpoint("pseudo", pseudoMaterial(f.cfg), real) },
			do("pseudo-"+StageFloorplan, func() error { return f.pseudoFloorplan(spec, real) }),
			f.place("pseudo-"+StagePlace, spec.seedOff),
			do("pseudo-"+StageRoute, func() error {
				f.clockTree(f.namedClock())
				f.st.Design.ReserveIDs() // for the optimizer that follows
				return f.route()
			}),
			// Sizing only, against the pseudo parasitics — buffers do
			// not survive the transfer in the reference flows either.
			// Their extraction is a phase of the stage.
			do("pseudo-"+StageOpt, func() error {
				esp := f.obs().Child(StageExtract)
				err := f.extract()
				esp.End()
				if err != nil {
					return err
				}
				_, err = f.optimize(f.cfg.budget(opt.Options{BufferElmore: 1e12}), f.obs())
				return err
			}),
			do(StageTransfer, func() error { return transferPseudo(f.st.Design, real.Design, 1/spec.s) }),
			// Phase B works on the real design, from the partition on or,
			// when the region is restored, from prepare on.
			stage{name: StagePartition, on: real, body: func() error { return f.partition(real) }},
		),
		stage{name: StagePrepare, on: real, body: func() error {
			if err := f.prepare(); err != nil {
				return err
			}
			// Cells the partition moved to the macro die take its pin
			// layers: one view per master, shared by its instances, as a
			// checkpoint restores them (resolveMaster).
			views := core.DieViews{Combined: real.Beol}
			for _, c := range real.Design.StdCells() {
				if c.Die != netlist.MacroDie {
					continue
				}
				v, err := views.MacroDie(c.Master)
				if err != nil {
					return err
				}
				if err := c.SetMaster(v); err != nil {
					return err
				}
			}
			return nil
		}},
	}, f.backEnd(spec.budget))
}

// partition is phase B's first step on the real design: the tier split,
// the per-bin area balance and the per-die legalization, each a phase
// span of the stage. The stage span carries what the paper's S2D/C2D
// failure comes from: the nets the split cuts, the cells the balance
// flips, the cells that spill off the macro die and how far
// legalization moves cells off the real macros (mean and max, µm).
func (f *flow) partition(real *State) error {
	sp := f.obs()
	psp := sp.Child("tier-split")
	tp, err := partition.TierPartition(real.Design, f.cfg.Seed)
	psp.End()
	if err != nil {
		return err
	}
	psp = sp.Child("bin-balance")
	flips := partition.BinBalance(real.Design, real.Die, f.cfg.BlockageResolution)
	psp.End()
	leg, err := partition.LegalizeTiers(real.Design, real.Die, f.t.RowHeight, sp)
	if err != nil {
		return err
	}
	if sp != nil { // boxing the values allocates even for a nil span
		sp.SetAttr("cut_nets", tp.CutNets)
		sp.SetAttr("bin_flips", flips)
		sp.SetAttr("spilled", leg.Spilled)
		sp.SetAttr("mean_disp_um", leg.MeanDisp)
		sp.SetAttr("max_disp_um", leg.MaxDisp)
	}
	return nil
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
	tile, err := newTile(pcfg, f.obs())
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
// (slow-corner extraction, optimization under the given budget — full
// for 2D and Macro-3D, frozen for S2D, limited for C2D — and hold STA,
// then typical-corner power from two capacitance sums) and, with
// Config.Check, die separation (3D) and independent verification.
func (f *flow) backEnd(budget opt.Options) []stage {
	// The effective budget is resolved up front so the signoff
	// checkpoint's key material matches what the optimizer runs with.
	budget = f.cfg.budget(budget)

	list := []stage{
		do(StageCTS, func() error { return f.clockTree(f.namedClock()) }),
		region(func() checkpoint { return f.signoffCheckpoint(budget) },
			do(StageRoute, func() error {
				if !budget.Frozen { // for the optimizer that follows
					f.st.Design.ReserveIDs()
				}
				return f.route()
			}),
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
			}),
			do(StageSTA, f.holdSignoff)),
		do(StagePower, f.power),
	}
	if !f.cfg.Check {
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
	return append(list, do(StageVerify, func() error { return f.verify(bumps, portPairs(f.st.Tile)) }))
}

// portPairs is a tile's abutment pairs as verify.PortAlignment takes
// them: each grouped port and the port it faces on the adjacent tile.
func portPairs(t *piton.Tile) map[string]string {
	pairs := map[string]string{}
	for name, p := range t.Partners() {
		pairs[name] = p.Name
	}
	return pairs
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
// and on the sign-off checkpoint's load path alike.
func (f *flow) newDB() *route.DB {
	return route.NewDB(f.st.Die, f.st.Beol, f.st.FP.RouteBlk, f.cfg.routeOptions(f.obs()))
}

func (f *flow) route() error {
	f.st.DB = f.newDB()
	var err error
	f.st.Routes, err = route.RouteDesign(f.st.Design, f.st.DB)
	return err
}

// extract is slow-corner extraction, the parasitics timing is signed off
// on. Non-finite parasitics fail the stage.
func (f *flow) extract() error {
	f.st.ExSlow = f.extractSlow()
	return f.st.ExSlow.CheckFinite()
}

// extractSlow is slow-corner extraction on a worker team of
// Config.Workers.
func (f *flow) extractSlow() *extract.Design {
	st := f.st
	workers := par.Workers(f.cfg.Workers)
	var team par.Team
	team.Start(workers, f.obs().Workers(workers))
	defer team.Close()
	return extract.ExtractOn(&team, st.Design, st.Routes, st.DB, f.t.CornerScaleFor(tech.CornerSlow), f.lend...)
}

// openDDB opens the design database on the slow-corner extraction; sp is
// the span it reports under, nil for the pseudo design.
func (f *flow) openDDB(sp *obs.Span) {
	st := f.st
	st.DDB = ddb.New(st.Design, st.DB, st.Routes, st.ExSlow, f.t.CornerScaleFor(tech.CornerSlow))
	st.DDB.AttachObs(sp)
}

// optimize runs the optimizer on f.st under budget, reporting under sp.
// A frozen budget only analyses, so it opens no design database: the
// optimizer reads the state directly. Any other is the one path on
// which a flow's instance and net IDs grow, so the route stage before
// it, in the same region, has reserved the design's ID room
// (netlist.Design.ReserveIDs), sizing its settled-net table by it: the
// database, the timing engine and the optimizer's sets are then
// allocated once, at that capacity, and its buffers append into them.
func (f *flow) optimize(budget opt.Options, sp *obs.Span) (*opt.Result, error) {
	st := f.st
	ctx := &opt.Context{
		Clock: st.Tree,
		FP:    st.FP, RowHeight: f.t.RowHeight,
		Obs: sp,
	}
	if budget.Frozen {
		ctx.Design, ctx.DB, ctx.Routes, ctx.Ex, ctx.Corner = st.Design, st.DB, st.Routes, st.ExSlow, f.t.CornerScaleFor(tech.CornerSlow)
	} else {
		f.openDDB(sp)
		ctx.DDB = st.DDB
	}
	res, err := opt.Optimize(ctx, sta.Options{}, budget)
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
// optimizer ran on — whose setup timing is the final report already, so
// no setup pass runs — into that report's hold fields, which the signoff
// snapshot carries. Under Config.Check a from-scratch analysis must
// agree.
func (f *flow) holdSignoff() error {
	eng := f.eng
	f.eng = nil
	hold, err := eng.Hold()
	if err != nil {
		return err
	}
	if f.cfg.Check {
		want, err := f.sta(f.st.Report.MinPeriod, true)
		if err != nil {
			return err
		}
		if hold.HoldWNS != want.HoldWNS || hold.HoldViolations != want.HoldViolations || hold.HoldEndpoints != want.HoldEndpoints {
			return fmt.Errorf("sta: selfcheck: hold on the optimizer's engine (WNS %v, %d violations, %d endpoints) differs from a fresh analysis (WNS %v, %d, %d)",
				hold.HoldWNS, hold.HoldViolations, hold.HoldEndpoints, want.HoldWNS, want.HoldViolations, want.HoldEndpoints)
		}
	}
	rep := f.st.Report
	rep.HoldWNS, rep.HoldViolations, rep.HoldEndpoints = hold.HoldWNS, hold.HoldViolations, hold.HoldEndpoints
	return nil
}

// powerAt is typical-corner power of f.st at fclk MHz. Power reads only
// the typical corner's two capacitance totals, so they are summed
// (extract.Caps), not extracted. Non-finite results fail the stage
// instead of propagating into the tables.
func (f *flow) powerAt(fclk float64) (*power.Report, error) {
	st := f.st
	typ := f.t.CornerScaleFor(tech.CornerTypical)
	wire, pin := extract.Caps(st.Design, st.Routes, st.DB, typ)
	pw := power.Analyze(st.Design, wire, pin, st.Tree, fclk, f.t.VDD, typ)
	vals := [...]float64{wire, pin, pw.EnergyPerCycleFJ, pw.PowerUW(fclk), pw.LeakageUW}
	for i, name := range [...]string{"wire capacitance", "pin capacitance", "energy/cycle", "power", "leakage"} {
		if v := vals[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("power: non-finite %s (%v)", name, v)
		}
	}
	return pw, nil
}

// power is typical-corner power at the achieved frequency (or the
// target, for iso-performance runs), and the PPA row.
func (f *flow) power() error {
	st := f.st
	fclk := 1e6 / st.Report.MinPeriod
	if f.cfg.TargetPeriod > 0 {
		fclk = 1e6 / f.cfg.TargetPeriod
	}
	pw, err := f.powerAt(fclk)
	if err != nil {
		return err
	}
	macroPins := 0
	for _, i := range st.Design.Instances {
		if i.IsMacro() {
			macroPins += len(i.Master.Pins)
		}
	}

	metals := logicMetals
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
		CpinNF:   (pw.CPinTotalFF + st.Tree.PinCap) / 1e6,
		CwireNF:  (pw.CWireTotalFF + st.Tree.WireCap) / 1e6,

		ClkDepth:  st.Tree.Depth,
		ClkSkewPs: st.Tree.Skew,

		CritPathWLmm: st.Report.Critical.Wirelength / 1e3,
		CritPathPs:   st.Report.Critical.Delay,

		HoldWNSps:      st.Report.HoldWNS,
		HoldViolations: st.Report.HoldViolations,

		RouteOverflow: st.Routes.Overflow,
		Dies:          f.dies,
		MacroPins:     macroPins,
		Resized:       f.resized,
		Buffers:       f.buffers,
	}
	return nil
}

// verify is the independent sign-off check; a dirty report fails the run
// with a StageError wrapping *verify.Error. pairs are the design's §V-1
// abutment pairs (portPairs), nil when it is not a tile.
func (f *flow) verify(bumps []geom.Point, pairs map[string]string) error {
	st := f.st
	rep := verify.Full(st.Design, st.Die, st.Routes, bumps, f.cfg.f2f(f.t), pairs,
		verify.Blockages{Grid: st.DB.Grid, Beol: st.DB.Beol, Rects: st.FP.RouteBlk})
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
