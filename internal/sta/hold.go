package sta

import (
	"macro3d/internal/cell"
)

// analyzeHold runs min-delay propagation and hold checks at
// sequential endpoints:
//
//	minArrival(data) ≥ captureLatency + hold
//
// Launches use the same clock latencies as setup analysis (a balanced
// tree makes hold easy; skew between launch and capture is what
// violates it). Results land in rep.Hold*. Hold is checked once per
// sign-off (Analyze with CheckHold, or Engine.Hold), so it propagates
// from scratch each time over the engine's level order and input arcs.
func (e *Engine) analyzeHold(rep *Report) {
	minArr := make([]float64, e.nNodes)
	const posInf = 1e30
	for i := range minArr {
		minArr[i] = posInf
	}

	// Launch points: sequential outputs at latency + clk→Q (fast
	// corner would be more pessimistic for hold; the caller picks the
	// corner via Options). Ports launch at their external delay.
	for _, inst := range e.d.Instances {
		if inst.Master.IsSequential() {
			n := e.nodeOfInst(inst)
			minArr[n] = e.clockLatency(inst) + inst.Master.ClkQ*e.opt.Corner.CellDelay
		}
	}
	for _, p := range e.d.Ports {
		if p.Dir == cell.DirIn {
			minArr[e.nodeOfPort(p)] = p.ExtDelay
		}
	}

	// Min-delay propagation over the same level order. Wire and
	// cell minimum delays: reuse the nominal model (a single corner);
	// the short-path Elmore is the same tree.
	for _, inst := range e.topoOrder() {
		node := e.nodeOfInst(inst)
		load := e.loadOf(node)
		best := posInf
		for _, ev := range e.in.row(inst.ID) {
			rc := e.ex.Nets[ev.net]
			if rc == nil {
				continue
			}
			ia := minArr[ev.drv]
			if ia >= posInf {
				continue
			}
			d := inst.Master.Delay(load, defaultSlew) * e.opt.Corner.CellDelay
			if at := ia + rc.ElmoreTo[ev.si] + d; at < best {
				best = at
			}
		}
		if best < posInf {
			minArr[node] = best
		}
	}

	// Hold checks at sequential data inputs.
	rep.HoldWNS = posInf
	for _, n := range e.d.Nets {
		if n.Clock {
			continue
		}
		rc := e.ex.Nets[n.ID]
		if rc == nil {
			continue
		}
		drv, ok := e.refNode(n.Driver)
		if !ok || minArr[drv] >= posInf {
			continue
		}
		for si, s := range n.Sinks {
			if s.Inst == nil || !s.Inst.Master.IsSequential() || s.MasterPin().Clock {
				continue
			}
			at := minArr[drv] + rc.ElmoreTo[si]
			slack := at - e.clockLatency(s.Inst) - s.Inst.Master.Hold*e.opt.Corner.CellDelay
			rep.HoldEndpoints++
			if slack < rep.HoldWNS {
				rep.HoldWNS = slack
			}
			if slack < 0 {
				rep.HoldViolations++
			}
		}
	}
	if rep.HoldEndpoints == 0 {
		rep.HoldWNS = 0
	}
}
