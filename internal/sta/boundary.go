package sta

import (
	"macro3d/internal/cell"
	"macro3d/internal/extract"
	"macro3d/internal/netlist"
)

// PortArc is the boundary timing of one block port, derived from the
// block's own signed-off analysis state. Values are absolute at the
// analyzed corner — a parent flow consuming them must not re-apply a
// corner scale (flows.Harden runs this at the slow corner and stores
// the arcs on the abstract's pins).
type PortArc struct {
	// SetupPs is the input-port budget: the worst (path delay from the
	// port to an internal capture register + that register's setup),
	// referenced to the block's virtual port clock (the tree's mean
	// insertion delay). A parent treats the pin like a flip-flop data
	// input with this setup.
	SetupPs float64
	// ClkQPs is the output-port launch: the worst internal
	// clock-edge→port delay at the block's own signed-off load,
	// referenced the same way. A parent treats the pin like a
	// flip-flop output with this clock-to-out.
	ClkQPs float64
}

// BoundaryArcs condenses a signed-off block's internal timing onto its
// ports: one forward analysis for output clk→out arcs, one backward
// (reverse-topological) pass for input setup budgets. Port-to-port
// feedthrough contributions are excluded from the backward pass — the
// tile methodology registers signals at both ends, and feedthrough
// output timing is already captured by the forward arcs.
func BoundaryArcs(d *netlist.Design, ex *extract.Design, opt Options) (map[string]PortArc, error) {
	e, err := NewEngine(d, ex, opt)
	if err != nil {
		return nil, err
	}
	// Populate full/half pass state; the report itself (slacks at an
	// arbitrary period) is discarded.
	if _, err := e.Run(1e6); err != nil {
		return nil, err
	}

	ioRef := e.ioRef()
	arcs := make(map[string]PortArc, len(d.Ports))

	// Forward: arrival at every output-port sink, worst over both
	// launch passes, relative to the virtual port clock.
	for _, n := range d.Nets {
		if n.Clock {
			continue
		}
		rc := ex.Nets[n.ID]
		if rc == nil {
			continue
		}
		drv, ok := e.refNode(n.Driver)
		if !ok {
			continue
		}
		for si, s := range n.Sinks {
			if s.Port == nil || s.Port.Dir != cell.DirOut {
				continue
			}
			elm := rc.ElmoreTo[si]
			a := arcs[s.Port.Name]
			for _, p := range []*pass{&e.full, &e.half} {
				if at := p.arr[drv]; at > negInf {
					if rel := at + elm - ioRef; rel > a.ClkQPs {
						a.ClkQPs = rel
					}
				}
			}
			arcs[s.Port.Name] = a
		}
	}

	// Backward: worst downstream capture budget per node. down[v] is
	// the delay from v's output to the worst internal capture endpoint
	// including that endpoint's setup and clock latency. Processing the
	// level order in reverse computes sinks before their drivers.
	down := make([]float64, e.nNodes)
	for i := range down {
		down[i] = negInf
	}
	budget := func(node int) float64 {
		if e.lastNet[node] < 0 {
			return negInf
		}
		on := d.Nets[e.lastNet[node]]
		rc := ex.Nets[on.ID]
		if rc == nil {
			return negInf
		}
		worst := negInf
		for si, s := range on.Sinks {
			elm := rc.ElmoreTo[si]
			switch {
			case s.Inst != nil && s.Inst.Master.IsSequential() && !s.MasterPin().Clock:
				setup := s.Inst.Master.Setup * e.opt.Corner.CellDelay
				if s.Inst.Master.Abstract != nil {
					if p := s.MasterPin(); p != nil {
						setup = p.Setup
					}
				}
				if v := elm + setup - e.clockLatency(s.Inst) + ioRef; v > worst {
					worst = v
				}
			case s.Inst != nil && e.isComb[s.Inst.ID]:
				sn := e.nodeOfInst(s.Inst)
				if down[sn] <= negInf {
					continue
				}
				load := e.loadOf(sn)
				// Gate delay evaluated at the forward full-pass slew
				// of this driver, matching what the forward analysis
				// saw on the worst launch.
				gd := s.Inst.Master.Delay(load, e.full.slew[node]+elm) * e.opt.Corner.CellDelay
				if v := elm + gd + down[sn]; v > worst {
					worst = v
				}
			}
		}
		return worst
	}
	order := e.topoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		inst := order[i]
		down[e.nodeOfInst(inst)] = budget(e.nodeOfInst(inst))
	}

	for _, pt := range d.Ports {
		if pt.Dir != cell.DirIn {
			continue
		}
		a := arcs[pt.Name]
		if v := budget(e.nodeOfPort(pt)); v > a.SetupPs {
			a.SetupPs = v
		}
		arcs[pt.Name] = a
	}
	// Floors: a negative arc would let a parent borrow time the block
	// never promised.
	for name, a := range arcs {
		if a.SetupPs < 0 {
			a.SetupPs = 0
		}
		if a.ClkQPs < 0 {
			a.ClkQPs = 0
		}
		arcs[name] = a
	}
	return arcs, nil
}
