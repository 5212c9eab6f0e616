// Package cts builds a clock distribution tree over the sequential
// elements of a placed design: recursive geometric bisection down to
// leaf clusters, a buffer per tree node, and distance-proportional
// repeater chains on long tree edges. The tree is an analysis object —
// it yields the paper's clock metrics (max tree depth, skew, latency)
// and the clock contribution to power — rather than inserting buffer
// instances into the netlist.
package cts

import (
	"cmp"
	"math"
	"slices"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/tech"
)

// Options tunes tree construction.
type Options struct {
	// MaxLeafSinks is the sink count a single leaf buffer may drive
	// (default 12).
	MaxLeafSinks int
	// RepeaterSpan is the wire length after which a repeater is
	// inserted on a tree edge, µm (default 220).
	RepeaterSpan float64
	// NoSkewBalance disables the final leaf-delay balancing pass.
	// Balanced trees are standard sign-off practice: delay padding at
	// the leaves equalizes sink latencies to the slowest branch,
	// leaving only an engineering residual (residualSkew).
	NoSkewBalance bool
}

// ClockBuffer is the clock buffer master every tree node and repeater
// instantiates; power prices the tree's buffers as this master.
const ClockBuffer = "BUF_X8"

// residualSkew is the skew a balanced tree keeps, ps.
const residualSkew = 25.0

func (o Options) withDefaults() Options {
	if o.MaxLeafSinks <= 0 {
		o.MaxLeafSinks = 12
	}
	if o.RepeaterSpan <= 0 {
		o.RepeaterSpan = 220
	}
	return o
}

// Sink is one clocked endpoint.
type Sink struct {
	Inst *netlist.Instance
	Loc  geom.Point
	Cap  float64
	lat  float64 // insertion delay before balancing, set at its leaf
}

// Tree is the synthesized clock tree with its analysis results.
type Tree struct {
	Depth      int     // max buffers on any source→sink path
	Buffers    int     // total buffers (tree nodes + repeaters)
	Sinks      int     // clocked instances reached
	Wirelength float64 // µm
	WireCap    float64 // fF
	PinCap     float64 // fF (sink + buffer input pins)

	MaxLatency  float64 // ps
	MinLatency  float64 // ps
	Skew        float64 // ps (max − min)
	MeanLatency float64
	// RootDelay is the root buffer's stage delay, ps — the fixed
	// source-insertion component every sink path shares, and a lower
	// bound on every sink latency.
	RootDelay float64

	// Latency is the insertion delay by instance ID, ps: 0 where the tree
	// does not reach. It spans the instances the design had when the
	// tree was built; read it through LatencyOf.
	Latency []float64
}

// LatencyOf returns the insertion delay of instance id, ps: 0 for an
// instance that is no sink, or that was added after the tree was built
// (an optimizer's buffers).
func (t *Tree) LatencyOf(id int) float64 {
	if id < len(t.Latency) {
		return t.Latency[id]
	}
	return 0
}

// clock wires route on the top metal pair; use an average of the two
// top layers' per-µm parasitics.
func clockWireRC(b *tech.BEOL) (rPer, cPer float64) {
	n := len(b.Layers)
	l1, l2 := b.Layers[n-1], b.Layers[max(0, n-2)]
	return (l1.RPerUm + l2.RPerUm) / 2, (l1.CPerUm + l2.CPerUm) / 2
}

// builder is what every node of one Build shares.
type builder struct {
	t          *Tree
	buf        *cell.Cell
	bufCap     float64 // the buffer's input pin, fF
	rPer, cPer float64
	opt        Options
}

// Build synthesizes a clock tree for the design's clock net, rooted at
// src (the clock port). Sequential instances on other dies are reached
// through the F2F via transparently — their (x, y) is what matters.
func Build(d *netlist.Design, clk *netlist.Net, src geom.Point, lib *cell.Library, beol *tech.BEOL, opt Options) *Tree {
	opt = opt.withDefaults()
	buf := lib.MustCell(ClockBuffer)
	rPer, cPer := clockWireRC(beol)
	t := &Tree{Latency: make([]float64, len(d.Instances))}
	b := builder{t: t, buf: buf, bufCap: buf.Pin("A").Cap, rPer: rPer, cPer: cPer, opt: opt}

	// The one sink array of the build: every node sorts and splits the
	// part of it its parent handed down, so when the leaves are done it
	// lies in the order they were written.
	sinks := make([]Sink, 0, len(clk.Sinks))
	for _, s := range clk.Sinks {
		if s.Inst == nil {
			continue
		}
		sinks = append(sinks, Sink{Inst: s.Inst, Loc: s.Loc(), Cap: s.Cap()})
		// Mark the slot (its leaf overwrites it) to count an instance the
		// net reaches by two pins once.
		if t.Latency[s.Inst.ID] == 0 {
			t.Latency[s.Inst.ID] = 1
			t.Sinks++
		}
	}
	if len(sinks) == 0 {
		return t
	}

	t.MinLatency = math.MaxFloat64
	t.RootDelay = b.node(sinks, src, 1, 0)
	if t.MinLatency == math.MaxFloat64 {
		t.MinLatency = 0
	}
	t.Skew = t.MaxLatency - t.MinLatency

	if !opt.NoSkewBalance && t.Sinks > 1 {
		// Leaf delay padding: every sink is slowed to the latest branch
		// minus a proportional share of the residual, like the delay
		// cells a production CTS inserts.
		spread := residualSkew
		if t.Skew < spread {
			spread = t.Skew
		}
		for _, s := range sinks { // in write order: the last pin of an instance wins, as at the leaves
			frac := 0.0
			if t.Skew > 0 {
				frac = (t.MaxLatency - s.lat) / t.Skew
			}
			t.Latency[s.Inst.ID] = t.MaxLatency - frac*spread
		}
		t.MinLatency = t.MaxLatency - spread
		t.Skew = spread
	}

	// Summed in instance-ID order — float addition is order-sensitive; the
	// zeros of the instances that are no sinks add nothing.
	sum := 0.0
	for _, l := range t.Latency {
		sum += l
	}
	t.MeanLatency = sum / float64(t.Sinks)
	return t
}

// node builds the subtree over sinks, in place: it accounts the buffer
// at this node, the wires to children, and repeaters on long spans.
// depth counts buffers from the root, pathLatency in ps accumulates
// along the path. Results accumulate in the tree; the return — the path
// latency through this node's buffer — is, for the root, the tree's
// source insertion delay.
func (b *builder) node(sinks []Sink, at geom.Point, depth int, pathLatency float64) float64 {
	t, cPer, rPer := b.t, b.cPer, b.rPer
	// This node carries one buffer.
	t.Buffers++
	if depth > t.Depth {
		t.Depth = depth
	}
	t.PinCap += b.bufCap

	if len(sinks) <= b.opt.MaxLeafSinks {
		// Leaf: the buffer drives the sinks directly over a star.
		var load, wl, caps float64
		for _, s := range sinks {
			dist := at.Manhattan(s.Loc)
			wl += dist
			load += s.Cap + dist*cPer
			caps += s.Cap
		}
		t.Wirelength += wl
		t.WireCap += wl * cPer
		t.PinCap += caps
		drv := b.buf.Delay(load, 0)
		for i := range sinks {
			s := &sinks[i]
			dist := at.Manhattan(s.Loc)
			wire := dist * rPer * (dist*cPer/2 + s.Cap)
			s.lat = pathLatency + drv + wire
			t.Latency[s.Inst.ID] = s.lat
			if s.lat > t.MaxLatency {
				t.MaxLatency = s.lat
			}
			if s.lat < t.MinLatency {
				t.MinLatency = s.lat
			}
		}
		return pathLatency + drv
	}

	// Internal node: bisect along the wider axis at the median.
	bb := geom.Rect{Lx: sinks[0].Loc.X, Ly: sinks[0].Loc.Y, Ux: sinks[0].Loc.X, Uy: sinks[0].Loc.Y}
	for _, s := range sinks[1:] {
		bb.Lx, bb.Ly = math.Min(bb.Lx, s.Loc.X), math.Min(bb.Ly, s.Loc.Y)
		bb.Ux, bb.Uy = math.Max(bb.Ux, s.Loc.X), math.Max(bb.Uy, s.Loc.Y)
	}
	byX := bb.W() >= bb.H()
	// By one coordinate — not a total order, and which half a sink lands
	// in sets its latency. Ties fall where pdqsort leaves them, as they
	// did under sort.Slice (place.TestSortFuncKeepsSortSliceTies): the
	// sort is a function of the sequence it is given, and sorting in
	// place hands each child the sequence a sorted copy would.
	slices.SortFunc(sinks, func(p, q Sink) int {
		if byX {
			return cmp.Compare(p.Loc.X, q.Loc.X)
		}
		return cmp.Compare(p.Loc.Y, q.Loc.Y)
	})
	mid := len(sinks) / 2
	halves := [2][]Sink{sinks[:mid], sinks[mid:]}

	// The node buffer drives the two child buffers over tree edges.
	var childLocs [2]geom.Point
	var load float64
	for i, h := range halves {
		childLocs[i] = centroid(h)
		dist := at.Manhattan(childLocs[i])
		load += dist*cPer + b.bufCap
	}
	drv := b.buf.Delay(load, 0)

	for i, h := range halves {
		dist := at.Manhattan(childLocs[i])
		t.Wirelength += dist
		t.WireCap += dist * cPer

		// Repeater chain on long spans: each repeater adds a buffer
		// stage and resets the RC accumulation.
		nRep := int(dist / b.opt.RepeaterSpan)
		repDelay := 0.0
		childDepth := depth + 1 + nRep
		if nRep > 0 {
			t.Buffers += nRep
			t.PinCap += float64(nRep) * b.bufCap
			seg := dist / float64(nRep+1)
			segRC := seg * rPer * (seg*cPer/2 + b.bufCap)
			repDelay = float64(nRep)*b.buf.Delay(seg*cPer+b.bufCap, 0) + float64(nRep+1)*segRC
		} else {
			repDelay = dist * rPer * (dist*cPer/2 + b.bufCap)
		}
		b.node(h, childLocs[i], childDepth, pathLatency+drv+repDelay)
	}
	return pathLatency + drv
}

func centroid(sinks []Sink) geom.Point {
	var x, y float64
	for _, s := range sinks {
		x += s.Loc.X
		y += s.Loc.Y
	}
	n := float64(len(sinks))
	return geom.Pt(x/n, y/n)
}

// TotalCap returns the switched capacitance of the tree (wire + pins),
// fF — the clock net toggles every cycle, so power weights this at
// activity 1.
func (t *Tree) TotalCap() float64 { return t.WireCap + t.PinCap }
