package flows

import (
	"fmt"

	"macro3d/internal/cell"
	"macro3d/internal/core"
	"macro3d/internal/netlist"
	"macro3d/internal/opt"
	"macro3d/internal/sta"
	"macro3d/internal/stash"
)

// netStateWire is one net's connectivity in a signoff snapshot.
// Existing nets are overwritten wholesale because buffer insertion
// rewires their sinks; appended nets additionally carry their name. The
// sinks of every net of a snapshot share one slice (the snapshot states
// their total up front); a net holds its window of it.
type netStateWire struct {
	name   string
	clock  bool
	weight float64
	driver pinRefWire
	sinks  []pinRefWire
}

// The fewest bytes an instance, a net, a sink, a timing path and a path
// step take in a signoff snapshot (empty strings, no sinks, no steps; a
// sink names a port at least, a step nothing): what Dec.Count checks the
// declared counts against before the decoder sizes its tables by them.
const (
	instWireMin = 4 + 8 + 8 + 3
	netWireMin  = 1 + 8 + 1 + 8
	sinkWireMin = 1 + 4
	pathWireMin = 8 + 8 + 8 + 1
	stepWireMin = 1 + 8
)

// encodeNets writes a signoff snapshot's net section: the sink total,
// then every net, those from preNet on with their names.
func encodeNets(e *stash.Enc, nets []*netlist.Net, preNet int) {
	sinks := 0
	for _, n := range nets {
		sinks += len(n.Sinks)
	}
	e.Int(sinks)
	for i, n := range nets {
		encodeNetState(e, n, i >= preNet)
	}
}

// decodeNets decodes the net section encodeNets wrote for postNet nets,
// and returns them with their sink total. Their sinks fill one slice the
// declared total sizes, and must fill it exactly, as the encoder wrote
// it.
func decodeNets(dec *stash.Dec, preNet, postNet int) ([]netStateWire, int, error) {
	sinks := make([]pinRefWire, 0, dec.Count(sinkWireMin))
	nets := make([]netStateWire, 0, postNet)
	for i := 0; i < postNet && dec.Err() == nil; i++ {
		w, err := decodeNetState(dec, i >= preNet, &sinks)
		if err != nil {
			return nil, 0, err
		}
		nets = append(nets, w)
	}
	if err := dec.Err(); err != nil {
		return nil, 0, err
	}
	if len(sinks) != cap(sinks) {
		return nil, 0, fmt.Errorf("signoff snapshot declares %d sinks, its nets hold %d", cap(sinks), len(sinks))
	}
	return nets, len(sinks), nil
}

func encodeNetState(e *stash.Enc, n *netlist.Net, withName bool) {
	if withName {
		e.Str(n.Name)
	}
	e.Bool(n.Clock)
	e.F64(n.Weight)
	encodePinRef(e, n.Driver)
	e.Int(len(n.Sinks))
	for _, s := range n.Sinks {
		encodePinRef(e, s)
	}
}

// netStateSize is the number of bytes encodeNetState writes for n.
func netStateSize(n *netlist.Net, withName bool) int {
	size := netWireMin - 1 + pinRefSize(n.Driver)
	if withName {
		size += 4 + len(n.Name)
	}
	for _, s := range n.Sinks {
		size += pinRefSize(s)
	}
	return size
}

// decodeNetState decodes one net, appending its sinks to *arena — sized
// by the caller to the snapshot's sink total, which a net may not
// overrun. A sink names an instance or a port.
func decodeNetState(dec *stash.Dec, withName bool, arena *[]pinRefWire) (netStateWire, error) {
	var w netStateWire
	if withName {
		w.name = dec.Str()
	}
	w.clock = dec.Bool()
	w.weight = dec.F64()
	w.driver = decodePinRefWire(dec)
	n := dec.Int()
	if dec.Err() != nil {
		return w, dec.Err()
	}
	lo := len(*arena)
	if n < 0 || n > cap(*arena)-lo {
		return w, fmt.Errorf("signoff snapshot net has %d sinks, %d left of the declared total", n, cap(*arena)-lo)
	}
	for i := 0; i < n; i++ {
		s := decodePinRefWire(dec)
		if !s.hasInst && !s.hasPort && dec.Err() == nil {
			return w, fmt.Errorf("signoff snapshot sink %d names neither an instance nor a port", i)
		}
		*arena = append(*arena, s)
	}
	w.sinks = (*arena)[lo:len(*arena):len(*arena)]
	return w, dec.Err()
}

func (w *netStateWire) validate(masters func(id int) *cell.Cell, nInst, nPort int) error {
	if err := w.driver.validate(masters, nInst, nPort); err != nil {
		return err
	}
	for i := range w.sinks {
		if err := w.sinks[i].validate(masters, nInst, nPort); err != nil {
			return err
		}
	}
	return nil
}

func (w netStateWire) apply(d *netlist.Design, net *netlist.Net) {
	net.Clock = w.clock
	net.Weight = w.weight
	net.Driver = w.driver.resolve(d)
	net.Sinks = d.SinkSpan(len(w.sinks))
	for i, s := range w.sinks {
		net.Sinks[i] = s.resolve(d)
	}
}

func encodeReport(e *stash.Enc, rep *sta.Report) {
	e.F64(rep.MinPeriod)
	e.F64(rep.FmaxMHz)
	e.F64(rep.WNS)
	e.F64(rep.TNS)
	encodePath(e, rep.Critical)
	e.Int(len(rep.Paths))
	for _, p := range rep.Paths {
		encodePath(e, p)
	}
	e.Int(rep.Endpoints)
	e.F64(rep.HoldWNS)
	e.Int(rep.HoldViolations)
	e.Int(rep.HoldEndpoints)
}

func encodePath(e *stash.Enc, p sta.Path) {
	e.Int(len(p.Steps))
	for _, s := range p.Steps {
		encodePinRef(e, s.Ref)
		e.F64(s.Arrival)
	}
	e.F64(p.Delay)
	e.F64(p.Wirelength)
	e.Bool(p.HalfCycle)
}

// reportSize is the number of bytes encodeReport writes for rep.
func reportSize(rep *sta.Report) int {
	size := 4*8 + pathSize(rep.Critical) + 8 + 4*8
	for _, p := range rep.Paths {
		size += pathSize(p)
	}
	return size
}

func pathSize(p sta.Path) int {
	size := 8 + 8 + 8 + 1
	for _, s := range p.Steps {
		size += pinRefSize(s.Ref) + 8
	}
	return size
}

type pathStepWire struct {
	ref     pinRefWire
	arrival float64
}

type pathWire struct {
	steps []pathStepWire
	delay float64
	wl    float64
	half  bool
}

type reportWire struct {
	minPeriod, fmax, wns, tns float64
	critical                  pathWire
	paths                     []pathWire
	endpoints                 int
	holdWNS                   float64
	holdViol, holdEnds        int
}

func decodePathWire(dec *stash.Dec) pathWire {
	var w pathWire
	n := dec.Count(stepWireMin)
	w.steps = make([]pathStepWire, 0, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		w.steps = append(w.steps, pathStepWire{ref: decodePinRefWire(dec), arrival: dec.F64()})
	}
	w.delay = dec.F64()
	w.wl = dec.F64()
	w.half = dec.Bool()
	return w
}

func decodeReportWire(dec *stash.Dec) reportWire {
	var w reportWire
	w.minPeriod = dec.F64()
	w.fmax = dec.F64()
	w.wns = dec.F64()
	w.tns = dec.F64()
	w.critical = decodePathWire(dec)
	n := dec.Count(pathWireMin)
	w.paths = make([]pathWire, 0, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		w.paths = append(w.paths, decodePathWire(dec))
	}
	w.endpoints = dec.Int()
	w.holdWNS = dec.F64()
	w.holdViol = dec.Int()
	w.holdEnds = dec.Int()
	return w
}

func (w pathWire) validate(masters func(id int) *cell.Cell, nInst, nPort int) error {
	for i := range w.steps {
		if err := w.steps[i].ref.validate(masters, nInst, nPort); err != nil {
			return err
		}
	}
	return nil
}

func (w reportWire) validate(masters func(id int) *cell.Cell, nInst, nPort int) error {
	if err := w.critical.validate(masters, nInst, nPort); err != nil {
		return err
	}
	for _, p := range w.paths {
		if err := p.validate(masters, nInst, nPort); err != nil {
			return err
		}
	}
	return nil
}

func (w pathWire) build(d *netlist.Design) sta.Path {
	p := sta.Path{Delay: w.delay, Wirelength: w.wl, HalfCycle: w.half}
	p.Steps = make([]sta.PathStep, len(w.steps))
	for i, s := range w.steps {
		p.Steps[i] = sta.PathStep{Ref: s.ref.resolve(d), Arrival: s.arrival}
	}
	return p
}

func (w reportWire) build(d *netlist.Design) *sta.Report {
	rep := &sta.Report{
		MinPeriod: w.minPeriod, FmaxMHz: w.fmax, WNS: w.wns, TNS: w.tns,
		Critical: w.critical.build(d), Endpoints: w.endpoints,
		HoldWNS: w.holdWNS, HoldViolations: w.holdViol, HoldEndpoints: w.holdEnds,
	}
	rep.Paths = make([]sta.Path, len(w.paths))
	for i, p := range w.paths {
		rep.Paths[i] = p.build(d)
	}
	return rep
}

// signoffSize is the number of bytes a signoff snapshot of st takes, the
// design having held preInst instances and preNet nets before the region
// ran: the encoder is sized by it once, instead of doubling its way up.
func signoffSize(st *State, preInst, preNet int) int {
	d := st.Design
	size := 4 + len(d.Name) + 4*8 + 8 + resultSize(st.Routes) + dynStateSize(st.DB) + reportSize(st.Report) + 2*8
	for i, inst := range d.Instances {
		size += instStateSize(inst, i >= preInst)
	}
	for i, n := range d.Nets {
		size += netStateSize(n, i >= preNet)
	}
	return size
}

// signoffCheckpoint snapshots the route+extract+opt+sta region: the
// design delta optimization produced (resizes, inserted buffers and their
// nets, rewired sinks), the post-ECO routes and DB dynamic state, and the
// timing report. Slow-corner extraction is cheap and pure, so on load
// it re-runs from scratch rather than being stored — incremental and
// from-scratch extraction are bit-identical by the ddb equivalence
// guarantee. No design database is opened on it: nothing after
// sign-off reads one.
func (f *flow) signoffCheckpoint(budget opt.Options) checkpoint {
	st, d := f.st, f.st.Design
	preInst, preNet := d.Counts()
	return checkpoint{
		name:     "signoff",
		material: signoffMaterial(f.material(), budget),
		save: func(e *stash.Enc) error {
			e.Grow(signoffSize(st, preInst, preNet))
			e.Str(d.Name)
			e.Int(preInst)
			e.Int(preNet)
			e.Int(len(d.Instances))
			e.Int(len(d.Nets))
			for i, inst := range d.Instances {
				encodeInstState(e, inst, i >= preInst)
			}
			encodeNets(e, d.Nets, preNet)
			encodeResult(e, st.Routes)
			encodeDynState(e, st.DB)
			encodeReport(e, st.Report)
			e.Int(f.resized)
			e.Int(f.buffers)
			return nil
		},
		load: func(dec *stash.Dec) error {
			// Phase 1: decode and validate everything against the live
			// design without touching it, so a bad snapshot falls back
			// to the cold path with the design intact.
			if name := dec.Str(); dec.Err() == nil && name != d.Name {
				return fmt.Errorf("signoff snapshot is for design %q, running %q", name, d.Name)
			}
			if pi, pn := dec.Int(), dec.Int(); dec.Err() == nil && (pi != preInst || pn != preNet) {
				return fmt.Errorf("signoff snapshot base %d/%d, design at %d/%d", pi, pn, preInst, preNet)
			}
			postInst := dec.Count(instWireMin)
			postNet := dec.Count(netWireMin)
			if dec.Err() == nil && (postInst < preInst || postNet < preNet) {
				return fmt.Errorf("signoff snapshot shrinks the design")
			}
			insts := make([]instStateWire, 0, postInst)
			for i := 0; i < postInst && dec.Err() == nil; i++ {
				insts = append(insts, decodeInstState(dec, i >= preInst))
			}
			nets, sinks, err := decodeNets(dec, preNet, postNet)
			if err != nil {
				return err
			}
			routes, err := decodeResult(dec)
			if err != nil {
				return err
			}
			u := dec.I32s()
			h := dec.F32s()
			fr := dec.I32s()
			rep := decodeReportWire(dec)
			nResized := dec.Int()
			nBuffers := dec.Int()
			if err := dec.Done(); err != nil {
				return err
			}

			views := &core.DieViews{Combined: st.Beol}
			for i := range insts {
				if err := insts[i].validate(); err != nil {
					return err
				}
				var cur *cell.Cell
				if i < preInst {
					cur = d.Instances[i].Master
				} else {
					if d.Instance(insts[i].name) != nil {
						return fmt.Errorf("signoff snapshot appends instance %q, which already exists", insts[i].name)
					}
					if insts[i].name == "" {
						return fmt.Errorf("signoff snapshot appends an unnamed instance")
					}
				}
				m, err := resolveMaster(d, cur, insts[i].master, views)
				if err != nil {
					return err
				}
				insts[i].resolved = m
			}
			// A pin reference resolves on the master its instance will
			// have.
			masterOf := func(id int) *cell.Cell { return insts[id].resolved }
			for i := range nets {
				if i >= preNet {
					if d.Net(nets[i].name) != nil {
						return fmt.Errorf("signoff snapshot appends net %q, which already exists", nets[i].name)
					}
					if nets[i].name == "" {
						return fmt.Errorf("signoff snapshot appends an unnamed net")
					}
				}
				if err := nets[i].validate(masterOf, postInst, len(d.Ports)); err != nil {
					return err
				}
			}
			if len(routes.Routes) != postNet {
				return fmt.Errorf("signoff snapshot routes %d nets, design will have %d", len(routes.Routes), postNet)
			}
			if err := checkRoutePins(routes, func(i int) int { return 1 + len(nets[i].sinks) }); err != nil {
				return err
			}
			db := f.newDB() // the route stage's, empty
			if err := db.CheckDynState(u, h, fr); err != nil {
				return fmt.Errorf("signoff snapshot: %w", err)
			}
			if err := rep.validate(masterOf, postInst, len(d.Ports)); err != nil {
				return err
			}

			// Phase 2: apply. Nothing below can fail.
			d.Reserve(postInst-preInst, postNet-preNet, sinks)
			for i := preInst; i < postInst; i++ {
				inst := d.AddInstance(insts[i].name, insts[i].resolved)
				insts[i].apply(inst)
			}
			for i := 0; i < preInst; i++ {
				insts[i].apply(d.Instances[i])
			}
			for i := preNet; i < postNet; i++ {
				net := d.AddNet(nets[i].name, nets[i].driver.resolve(d))
				nets[i].apply(d, net)
			}
			for i := 0; i < preNet; i++ {
				nets[i].apply(d, d.Nets[i])
			}
			st.Routes, st.DB = routes, db
			db.SetDynState(u, h, fr)
			st.ExSlow = f.extractSlow()
			st.Report = rep.build(d)
			f.resized = nResized
			f.buffers = nBuffers
			return nil
		},
	}
}
