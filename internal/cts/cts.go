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
	// BufferName selects the clock buffer master (default BUF_X8).
	BufferName string
	// NoSkewBalance disables the final leaf-delay balancing pass.
	// Balanced trees are standard sign-off practice: delay padding at
	// the leaves equalizes sink latencies to the slowest branch,
	// leaving only an engineering residual.
	NoSkewBalance bool
	// ResidualSkew is the skew remaining after balancing, ps
	// (default 25).
	ResidualSkew float64
}

func (o Options) withDefaults() Options {
	if o.MaxLeafSinks <= 0 {
		o.MaxLeafSinks = 12
	}
	if o.RepeaterSpan <= 0 {
		o.RepeaterSpan = 220
	}
	if o.BufferName == "" {
		o.BufferName = "BUF_X8"
	}
	if o.ResidualSkew <= 0 {
		o.ResidualSkew = 25
	}
	return o
}

// Sink is one clocked endpoint.
type Sink struct {
	Inst *netlist.Instance
	Loc  geom.Point
	Cap  float64
}

// Tree is the synthesized clock tree with its analysis results.
type Tree struct {
	Depth      int     // max buffers on any source→sink path
	Buffers    int     // total buffers (tree nodes + repeaters)
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

	// Latency per sink instance ID (ps).
	LatencyOf map[int]float64
}

// clock wires route on the top metal pair; use an average of the two
// top layers' per-µm parasitics.
func clockWireRC(b *tech.BEOL) (rPer, cPer float64) {
	n := len(b.Layers)
	l1, l2 := b.Layers[n-1], b.Layers[max(0, n-2)]
	return (l1.RPerUm + l2.RPerUm) / 2, (l1.CPerUm + l2.CPerUm) / 2
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Build synthesizes a clock tree for the design's clock net, rooted at
// src (the clock port). Sequential instances on other dies are reached
// through the F2F via transparently — their (x, y) is what matters.
func Build(d *netlist.Design, clk *netlist.Net, src geom.Point, lib *cell.Library, beol *tech.BEOL, opt Options) *Tree {
	opt = opt.withDefaults()
	buf := lib.MustCell(opt.BufferName)
	rPer, cPer := clockWireRC(beol)

	var sinks []Sink
	for _, s := range clk.Sinks {
		if s.Inst == nil {
			continue
		}
		sinks = append(sinks, Sink{Inst: s.Inst, Loc: s.Loc(), Cap: s.Cap()})
	}
	t := &Tree{LatencyOf: make(map[int]float64, len(sinks))}
	if len(sinks) == 0 {
		return t
	}

	t.MinLatency = math.MaxFloat64
	buildNode(t, sinks, src, 1, buf, rPer, cPer, opt)
	if t.MinLatency == math.MaxFloat64 {
		t.MinLatency = 0
	}
	t.Skew = t.MaxLatency - t.MinLatency

	if !opt.NoSkewBalance && len(t.LatencyOf) > 1 {
		// Leaf delay padding: every sink is slowed to the latest branch
		// minus a proportional share of the residual, like the delay
		// cells a production CTS inserts.
		spread := opt.ResidualSkew
		if t.Skew < spread {
			spread = t.Skew
		}
		for id, l := range t.LatencyOf {
			frac := 0.0
			if t.Skew > 0 {
				frac = (t.MaxLatency - l) / t.Skew
			}
			t.LatencyOf[id] = t.MaxLatency - frac*spread
		}
		t.MinLatency = t.MaxLatency - spread
		t.Skew = spread
	}

	// Sum in sorted-ID order: float addition is order-sensitive and
	// map iteration is randomized, so a raw range would make
	// MeanLatency wobble by an ULP between otherwise identical runs.
	ids := make([]int, 0, len(t.LatencyOf))
	for id := range t.LatencyOf {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	sum := 0.0
	for _, id := range ids {
		sum += t.LatencyOf[id]
	}
	t.MeanLatency = sum / float64(len(t.LatencyOf))
	return t
}

// buildNode recursively splits the sink set; it accounts the buffer at
// this node, the wires to children, and repeaters on long spans.
// depth counts buffers from the root, latency in ps accumulates along
// the path. Results accumulate in t; the root call's return — the path
// latency through the root buffer — is the tree's source insertion
// delay and lands in t.RootDelay.
func buildNode(t *Tree, sinks []Sink, at geom.Point, depth int, buf *cell.Cell, rPer, cPer float64, opt Options) {
	t.RootDelay = buildNodeFrom(t, sinks, at, depth, 0, buf, rPer, cPer, opt)
}

func buildNodeFrom(t *Tree, sinks []Sink, at geom.Point, depth int, pathLatency float64, buf *cell.Cell, rPer, cPer float64, opt Options) float64 {
	// This node carries one buffer.
	t.Buffers++
	if depth > t.Depth {
		t.Depth = depth
	}
	t.PinCap += buf.Pin("A").Cap

	if len(sinks) <= opt.MaxLeafSinks {
		// Leaf: the buffer drives the sinks directly over a star.
		var load, wl float64
		for _, s := range sinks {
			dist := at.Manhattan(s.Loc)
			wl += dist
			load += s.Cap + dist*cPer
		}
		t.Wirelength += wl
		t.WireCap += wl * cPer
		t.PinCap += sumCaps(sinks)
		drv := buf.Delay(load, 0)
		for _, s := range sinks {
			dist := at.Manhattan(s.Loc)
			wire := dist * rPer * (dist*cPer/2 + s.Cap)
			lat := pathLatency + drv + wire
			t.LatencyOf[s.Inst.ID] = lat
			if lat > t.MaxLatency {
				t.MaxLatency = lat
			}
			if lat < t.MinLatency {
				t.MinLatency = lat
			}
		}
		return pathLatency + drv
	}

	// Internal node: bisect along the wider axis at the median.
	bb := boundingBox(sinks)
	byX := bb.W() >= bb.H()
	sorted := append([]Sink(nil), sinks...)
	// By one coordinate — not a total order, and which half a sink lands
	// in sets its latency. Ties fall where pdqsort leaves them, as they
	// did under sort.Slice (place.TestSortFuncKeepsSortSliceTies).
	slices.SortFunc(sorted, func(p, q Sink) int {
		if byX {
			return cmp.Compare(p.Loc.X, q.Loc.X)
		}
		return cmp.Compare(p.Loc.Y, q.Loc.Y)
	})
	mid := len(sorted) / 2
	halves := [][]Sink{sorted[:mid], sorted[mid:]}

	// The node buffer drives the two child buffers over tree edges.
	var childLocs [2]geom.Point
	var load float64
	for i, h := range halves {
		childLocs[i] = centroid(h)
		dist := at.Manhattan(childLocs[i])
		load += dist*cPer + buf.Pin("A").Cap
	}
	drv := buf.Delay(load, 0)

	for i, h := range halves {
		dist := at.Manhattan(childLocs[i])
		t.Wirelength += dist
		t.WireCap += dist * cPer

		// Repeater chain on long spans: each repeater adds a buffer
		// stage and resets the RC accumulation.
		nRep := int(dist / opt.RepeaterSpan)
		repDelay := 0.0
		childDepth := depth + 1 + nRep
		if nRep > 0 {
			t.Buffers += nRep
			t.PinCap += float64(nRep) * buf.Pin("A").Cap
			seg := dist / float64(nRep+1)
			segRC := seg * rPer * (seg*cPer/2 + buf.Pin("A").Cap)
			repDelay = float64(nRep)*buf.Delay(seg*cPer+buf.Pin("A").Cap, 0) + float64(nRep+1)*segRC
		} else {
			repDelay = dist * rPer * (dist*cPer/2 + buf.Pin("A").Cap)
		}
		buildNodeFrom(t, h, childLocs[i], childDepth, pathLatency+drv+repDelay, buf, rPer, cPer, opt)
	}
	return pathLatency + drv
}

func sumCaps(sinks []Sink) float64 {
	s := 0.0
	for _, k := range sinks {
		s += k.Cap
	}
	return s
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

func boundingBox(sinks []Sink) geom.Rect {
	pts := make([]geom.Point, len(sinks))
	for i, s := range sinks {
		pts[i] = s.Loc
	}
	return geom.BoundingBox(pts)
}

// TotalCap returns the switched capacitance of the tree (wire + pins),
// fF — the clock net toggles every cycle, so power weights this at
// activity 1.
func (t *Tree) TotalCap() float64 { return t.WireCap + t.PinCap }
