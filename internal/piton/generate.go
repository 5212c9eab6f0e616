package piton

import (
	"fmt"
	"strconv"

	"macro3d/internal/cell"
	"macro3d/internal/netlist"
)

// Generate builds the tile netlist for a configuration. The returned
// design is unplaced; floorplanning and placement are the flow's job.
func Generate(cfg Config) (*Tile, error) {
	if cfg.DataWidth < 4 || cfg.CoreStages < 2 || cfg.CoreWidth < 4 || cfg.NoCs < 1 {
		return nil, fmt.Errorf("piton: implausible config %+v", cfg)
	}
	if cfg.CloudDepth < 1 {
		cfg.CloudDepth = 5
	}

	g := newGen(cfg.Name, cfg, cfg.Seed, 1)
	if err := g.buildTile(); err != nil {
		return nil, err
	}
	if err := g.checkNames(); err != nil {
		return nil, err
	}
	if err := g.calibrate(cfg.TargetLogicArea); err != nil {
		return nil, err
	}
	if err := g.d.Validate(); err != nil {
		return nil, fmt.Errorf("piton: generated invalid netlist: %w", err)
	}
	return g.tile, nil
}

// buildTile builds the tile netlist on g's library.
func (g *gen) buildTile() error {
	cfg := g.cfg

	// Clock input.
	clkPort := g.addPort("clk_i", cell.DirIn)
	clkPort.Layer = "M6"
	g.tile.ClockPort = "clk_i"

	// Core pipeline: CoreStages register banks with clouds between.
	core := g.buildCore()

	// Cache hierarchy. Each level exposes request/response register
	// interfaces; levels are chained core→L1→L2→L3. The D-pin lists
	// are consumed by connectBus, so each pin is driven exactly once.
	l1i, err := g.buildCacheLevel("l1i", cfg.L1I)
	if err != nil {
		return err
	}
	l1d, err := g.buildCacheLevel("l1d", cfg.L1D)
	if err != nil {
		return err
	}
	l2, err := g.buildCacheLevel("l2", cfg.L2)
	if err != nil {
		return err
	}
	l3, err := g.buildCacheLevel("l3", cfg.L3)
	if err != nil {
		return err
	}

	// Core ↔ L1s: fetch path and load/store path.
	g.connectBus("core_l1i", core.outs, &l1i.reqIns, len(l1i.reqIns))
	g.connectBus("l1i_core", l1i.rspOuts, &core.ins, len(core.ins)/3)
	g.connectBus("core_l1d", core.outs, &l1d.reqIns, len(l1d.reqIns))
	g.connectBus("l1d_core", l1d.rspOuts, &core.ins, len(core.ins)/3)

	// L1 ↔ L2 ↔ L3 refill/writeback paths.
	g.connectBus("l1i_l2", l1i.missOuts, &l2.reqIns, len(l2.reqIns)/2)
	g.connectBus("l1d_l2", l1d.missOuts, &l2.reqIns, len(l2.reqIns))
	g.connectBus("l2_l1i", l2.rspOuts, &l1i.fillIns, len(l1i.fillIns))
	g.connectBus("l2_l1d", l2.rspOuts, &l1d.fillIns, len(l1d.fillIns))
	g.connectBus("l2_l3", l2.missOuts, &l3.reqIns, len(l3.reqIns))
	g.connectBus("l3_l2", l3.rspOuts, &l2.fillIns, len(l2.fillIns))

	// NoC routers; router 0 also talks to the L3 (coherence traffic).
	for k := 0; k < cfg.NoCs; k++ {
		r := g.buildRouter(k)
		if k == 0 {
			g.connectBus("l3_noc", l3.missOuts, &r.localIns, len(r.localIns))
			g.connectBus("noc_l3", r.localOuts, &l3.fillIns, len(l3.fillIns))
		} else {
			// Other NoCs carry core-originated traffic.
			g.connectBus("core_noc"+strconv.Itoa(k), core.outs, &r.localIns, len(r.localIns))
			g.connectBus("noc"+strconv.Itoa(k)+"_core", r.localOuts, &core.ins, len(core.ins))
		}
	}

	// Any interface D pins left over by width mismatches get recirculating
	// connections so no input floats.
	g.sweepUndriven()

	// The single clock net reaching every sequential element.
	g.addClock(clkPort)
	return nil
}

// iface bundles the register-file PinRefs a block exposes.
type iface struct {
	ins      []netlist.PinRef // unconsumed D pins accepting data
	outs     []netlist.PinRef // Q pins producing data
	reqIns   []netlist.PinRef
	rspOuts  []netlist.PinRef
	missOuts []netlist.PinRef
	fillIns  []netlist.PinRef
}

// buildCore creates the Ariane-like pipeline and returns its boundary
// registers.
func (g *gen) buildCore() *iface {
	cfg := g.cfg
	banks := make([][]*netlist.Instance, cfg.CoreStages)
	for s := range banks {
		banks[s] = make([]*netlist.Instance, cfg.CoreWidth)
		hint := "core_s" + strconv.Itoa(s)
		for b := range banks[s] {
			banks[s][b] = g.dff(hint)
		}
	}
	// Clouds between consecutive stages.
	for s := 0; s+1 < cfg.CoreStages; s++ {
		drv := make([]netlist.PinRef, len(banks[s]))
		for i, ff := range banks[s] {
			drv[i] = netlist.IPin(ff, "Q")
		}
		outs := g.cloud("core_c"+strconv.Itoa(s), drv, cfg.CoreWidth, cfg.CloudDepth)
		for i, ff := range banks[s+1] {
			g.fanout(outs[i%len(outs)], netlist.IPin(ff, "D"))
		}
	}
	fc := &iface{}
	// First stage D pins are the core's bus inputs; last stage Q pins
	// its outputs.
	for _, ff := range banks[0] {
		fc.ins = append(fc.ins, netlist.IPin(ff, "D"))
	}
	for _, ff := range banks[cfg.CoreStages-1] {
		fc.outs = append(fc.outs, netlist.IPin(ff, "Q"))
	}
	return fc
}

// buildCacheLevel creates the SRAM banks of one cache level plus its
// shared-bus interface registers. The structure mirrors a banked
// cache: one address/data register bank fans out to every SRAM macro
// of the level (long shared buses in 2D — the paper's critical paths),
// per-bank enable decode, and a mux tree merging bank outputs into
// capture registers.
func (g *gen) buildCacheLevel(level string, bytes int) (*iface, error) {
	cfg := g.cfg
	specs := sramBanks(level, bytes, cfg.DataWidth)
	if len(specs) == 0 {
		return nil, fmt.Errorf("piton: cache level %s (%d bytes) produced no SRAM banks", level, bytes)
	}
	macros := make([]*netlist.Instance, len(specs))
	for i, spec := range specs {
		m, err := cell.NewSRAM(spec)
		if err != nil {
			return nil, fmt.Errorf("piton: SRAM compile for %s bank %d failed: %w", level, i, err)
		}
		g.cfg.MacroProcess.Apply(m)
		inst := g.addMacro(level+"_bank"+strconv.Itoa(i), m)
		macros[i] = inst
		g.clk = append(g.clk, netlist.IPin(inst, "CLK"))
	}
	addrBits := specs[0].AddrBits()

	fc := &iface{}

	// busPins fills sinks with the banks' pins of one bus bit; every
	// bank shares the pin name. drive copies, so sinks is reused.
	sinks := make([]netlist.PinRef, len(macros))
	busPins := func(pin string) []netlist.PinRef {
		for i, m := range macros {
			sinks[i] = netlist.IPin(m, pin)
		}
		return sinks
	}

	// Shared address bus: one register per bit driving all banks.
	addrFF := make([]*netlist.Instance, addrBits)
	for b := 0; b < addrBits; b++ {
		ff := g.dff(level + "_addr")
		addrFF[b] = ff
		g.drive(level+"_a", netlist.IPin(ff, "Q"), busPins("A"+strconv.Itoa(b))...)
		fc.reqIns = append(fc.reqIns, netlist.IPin(ff, "D"))
	}

	// Shared write-data bus.
	for b := 0; b < cfg.DataWidth; b++ {
		ff := g.dff(level + "_wdata")
		g.drive(level+"_d", netlist.IPin(ff, "Q"), busPins("D"+strconv.Itoa(b))...)
		fc.fillIns = append(fc.fillIns, netlist.IPin(ff, "D"))
	}

	// Per-bank enable decode from the address registers.
	drvs := make([]netlist.PinRef, 0, addrBits)
	for _, ff := range addrFF {
		drvs = append(drvs, netlist.IPin(ff, "Q"))
	}
	enables := g.cloud(level+"_dec", drvs, 2*len(macros), 2)
	for i, m := range macros {
		g.fanout(enables[(2*i)%len(enables)], netlist.IPin(m, "CE"))
		g.fanout(enables[(2*i+1)%len(enables)], netlist.IPin(m, "WE"))
	}

	// Read-data merge: per bit, a mux tree over the bank Q outputs
	// feeding a capture register.
	for b := 0; b < cfg.DataWidth; b++ {
		cur := append([]netlist.PinRef(nil), busPins("Q"+strconv.Itoa(b))...)
		for len(cur) > 1 {
			var next []netlist.PinRef
			for i := 0; i+1 < len(cur); i += 2 {
				mux := g.instance(level+"_mux", mux2)
				g.fanout(cur[i], netlist.IPin(mux, "A"))
				g.fanout(cur[i+1], netlist.IPin(mux, "B"))
				// Select from an address register (shared select).
				g.fanout(netlist.IPin(addrFF[(b+i)%len(addrFF)], "Q"), netlist.IPin(mux, "C"))
				next = append(next, netlist.IPin(mux, "Y"))
			}
			if len(cur)%2 == 1 {
				next = append(next, cur[len(cur)-1])
			}
			cur = next
		}
		capFF := g.dff(level + "_rcap")
		g.fanout(cur[0], netlist.IPin(capFF, "D"))
		fc.rspOuts = append(fc.rspOuts, netlist.IPin(capFF, "Q"))
		// Miss path re-uses capture registers (tag mismatch forwards
		// the request downstream).
		fc.missOuts = append(fc.missOuts, netlist.IPin(capFF, "Q"))
	}
	return fc, nil
}

// router bundles one NoC router's local-port registers.
type router struct {
	localIns  []netlist.PinRef
	localOuts []netlist.PinRef
}

// buildRouter creates a 5-port wormhole-router-like structure: four
// direction ports wired to half-cycle-constrained tile edges plus a
// local port, input FIFO registers, a crossbar cloud, and output
// registers.
func (g *gen) buildRouter(k int) *router {
	cfg := g.cfg
	w := cfg.DataWidth
	r := &router{}

	dirs := []Edge{North, South, East, West}
	var allInQ []netlist.PinRef

	// Pair allocation makes abutment work: pair 2k holds {N out,
	// S in, E out, W in}, pair 2k+1 the converse, so an output bundle
	// shares its edge coordinate with the facing tile's input bundle
	// ("associated output-input pin pairs have the same x location",
	// §V-1).
	inPair := func(e Edge) int {
		if e == North || e == East {
			return 2*k + 1
		}
		return 2 * k
	}
	outPair := func(e Edge) int {
		if e == North || e == East {
			return 2 * k
		}
		return 2*k + 1
	}

	// Input side: edge port → input register bank.
	for _, e := range dirs {
		group := PortGroup{Edge: e, Pair: inPair(e)}
		hint := "noc" + strconv.Itoa(k) + "_" + e.String() + "_in"
		for b := 0; b < w; b++ {
			p := g.addPort(g.seqName("", hint, b), cell.DirIn)
			p.Layer = "M6"
			p.HalfCycle = true
			ff := g.dff(hint)
			g.drive("nocin", netlist.PPin(p), netlist.IPin(ff, "D"))
			allInQ = append(allInQ, netlist.IPin(ff, "Q"))
			group.Names = append(group.Names, p.Name)
		}
		g.tile.Groups = append(g.tile.Groups, group)
	}
	// Local input registers (from tile logic).
	locIn := "noc" + strconv.Itoa(k) + "_loc_in"
	for b := 0; b < w; b++ {
		ff := g.dff(locIn)
		r.localIns = append(r.localIns, netlist.IPin(ff, "D"))
		allInQ = append(allInQ, netlist.IPin(ff, "Q"))
	}

	// Crossbar + routing logic cloud (depth tracks the core clouds).
	xd := cfg.CloudDepth - 2
	if xd < 2 {
		xd = 2
	}
	xbar := g.cloud("noc"+strconv.Itoa(k)+"_xbar", allInQ, 5*w, xd)

	// Output side: output register bank → edge port.
	oi := 0
	for _, e := range dirs {
		group := PortGroup{Edge: e, Pair: outPair(e)}
		hint := "noc" + strconv.Itoa(k) + "_" + e.String() + "_out"
		for b := 0; b < w; b++ {
			ff := g.dff(hint)
			g.fanout(xbar[oi%len(xbar)], netlist.IPin(ff, "D"))
			oi++
			p := g.addPort(g.seqName("", hint, b), cell.DirOut)
			p.Layer = "M6"
			p.HalfCycle = true
			p.ExtCap = 8 // abutting tile's input register + wire stub
			g.drive("nocout", netlist.IPin(ff, "Q"), netlist.PPin(p))
			group.Names = append(group.Names, p.Name)
		}
		g.tile.Groups = append(g.tile.Groups, group)
	}
	// Local outputs.
	locOut := "noc" + strconv.Itoa(k) + "_loc_out"
	for b := 0; b < w; b++ {
		ff := g.dff(locOut)
		g.fanout(xbar[oi%len(xbar)], netlist.IPin(ff, "D"))
		oi++
		r.localOuts = append(r.localOuts, netlist.IPin(ff, "Q"))
	}
	return r
}

// connectBus consumes up to n sinks from *to and drives them from a
// thin staging cloud over `from`. Consumed sinks are removed so no pin
// is ever driven twice.
func (g *gen) connectBus(hint string, from []netlist.PinRef, to *[]netlist.PinRef, n int) {
	if len(from) == 0 || len(*to) == 0 || n <= 0 {
		return
	}
	if n > len(*to) {
		n = len(*to)
	}
	sinks := (*to)[:n]
	*to = (*to)[n:]
	outs := g.cloud(hint, from, n, 2)
	for i, sink := range sinks {
		g.fanout(outs[i%len(outs)], sink)
	}
}

// sweepUndriven ties any remaining undriven flip-flop D inputs to
// existing register outputs (recirculation), keeping the netlist fully
// connected.
func (g *gen) sweepUndriven() {
	var pool []netlist.PinRef
	for _, inst := range g.d.Instances {
		if inst.Master.Kind == cell.KindSeq {
			pool = append(pool, netlist.IPin(inst, "Q"))
		}
	}
	if len(pool) == 0 {
		return
	}
	for _, inst := range g.d.Instances {
		for pi := range inst.Master.Pins {
			p := &inst.Master.Pins[pi]
			if p.Dir != cell.DirIn || p.Clock {
				continue
			}
			if sink := netlist.IPin(inst, p.Name); g.pins.net(sink) == nil {
				g.fanout(pool[g.rng.Intn(len(pool))], sink)
			}
		}
	}
}
