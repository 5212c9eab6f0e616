// Package extract computes net parasitics from global routes: per-net
// RC trees over the BEOL's layer tables (including via and F2F-bump R
// and C), total wire/pin capacitances, and Elmore delays from the
// driver to every sink. Because Macro-3D routes on the combined
// two-die stack, extraction here *is* the final 3D extraction — no
// post-partitioning re-estimation exists in that flow, which is the
// paper's core accuracy argument.
package extract

import (
	"fmt"
	"math"
	"slices"

	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/par"
	"macro3d/internal/route"
	"macro3d/internal/slab"
	"macro3d/internal/tech"
)

// NetRC is the extracted view of one net: an RC tree reduced to what
// timing and power read. Its net is its index in Design.Nets.
type NetRC struct {
	WireC float64 // fF
	WireR float64 // kΩ (total, for reporting)
	PinC  float64 // fF (sink pins + port loads)

	// ElmoreTo[i] is the wire Elmore delay from the driver to the net's
	// Sinks[i], ps.
	ElmoreTo []float64
}

// CTotal is the total load the driver sees at DC.
func (n *NetRC) CTotal() float64 { return n.WireC + n.PinC }

// Design aggregates extraction over all routed nets of a netlist design.
type Design struct {
	Nets []*NetRC // indexed by net ID; nil for clock/unrouted nets

	CWireTotal float64 // fF
	CPinTotal  float64 // fF

	// Corner is the corner the records were extracted at.
	Corner tech.CornerScale

	nl *netlist.Design // the design Nets is indexed by, for net names

	// borrows is set when some records belong to another extraction
	// (Source): they are read-only here, so Reextract refuses the design.
	borrows bool

	// What Reextract cannot rewrite in place comes from these: the
	// record of a net that had none, an Elmore vector longer than the
	// one the net has (which is then abandoned).
	ecoRecs   slab.Slab[NetRC]
	ecoElmore slab.Slab[float64]
}

// Source lends a tile's extraction to a flat array of the tile's copies.
// Copy c of tile net t is net NetID[c*len(tile nets)+t] of the array, or
// has none (-1), as in piton.Array.NetID. A copy whose route is the tile
// net's own record (route.Result.Place) is the tile net's RC tree: the
// same segments, and — as the route's pin nodes already assume — the
// same sinks in the same order on the same masters. Extract stores the
// tile's record itself under such a copy instead of extracting it again,
// when Ex was extracted at the corner asked for.
type Source struct {
	Ex     *Design       // the tile's Extract result, owner of every lent record
	Routes *route.Result // the tile's routes Ex was extracted from
	NetID  []int32
}

// lend stores under each net of out the record s lends it for routes
// res at corner, and reports whether it lent any.
func (out *Design) lend(s Source, res *route.Result, corner tech.CornerScale) bool {
	if s.Ex.Corner != corner {
		return false
	}
	tile, lent := len(s.Ex.nl.Nets), false
	for k, id := range s.NetID {
		t := k % tile
		if id >= 0 && t < len(s.Routes.Routes) && t < len(s.Ex.Nets) && s.Ex.Nets[t] != nil &&
			res.Routes[id] == s.Routes.Routes[t] {
			out.Nets[id], lent = s.Ex.Nets[t], true
		}
	}
	return lent
}

// Extract is ExtractOn a serial team: every net on the calling goroutine.
func Extract(d *netlist.Design, res *route.Result, db *route.DB, corner tech.CornerScale, from ...Source) *Design {
	var serial par.Team
	return ExtractOn(&serial, d, res, db, corner, from...)
}

// parMinNets is the net count below which extraction stays on the
// calling goroutine whatever the team's size.
const parMinNets = 256

// ExtractOn builds RC trees for every routed net at the given corner. A
// net a source lends a record to (Source) shares that record instead.
// Nets are independent, so the trees are built in the team's contiguous
// net-ID chunks; the capacitance totals are then reduced sequentially in
// net-ID order, which keeps every float result bit-identical to the
// serial pass — and, lent records included, to an extraction without
// sources.
//
// The full pass owns the records it extracts: each chunk carves the
// NetRCs and Elmore vectors of its nets from one []NetRC and one
// []float64 sized by a count over the chunk's unlent nets, instead of
// two heap objects per net, and extracts them in a scratch sized for the
// chunk's largest net. Reextract later rewrites those records where they
// lie. The arrays are allocated here, before the team's workers start on
// them: they are the pass's large allocations, so a collection
// they trigger begins with no worker running. A worker preempted for the
// stack scan within its first microseconds has a frame of whatever its
// recycled stack last held, which is scanned conservatively — on
// back-to-back flat verifications that kept the whole previous array
// alive through the cycle and doubled the heap goal (DESIGN.md §18).
func ExtractOn(team *par.Team, d *netlist.Design, res *route.Result, db *route.DB, corner tech.CornerScale, from ...Source) *Design {
	out := &Design{Nets: make([]*NetRC, len(d.Nets)), Corner: corner, nl: d}
	for _, s := range from {
		out.borrows = out.lend(s, res, corner) || out.borrows
	}
	if n := len(d.Nets); n < parMinNets || team.Size() == 1 {
		var c chunk
		c.prepare(out, d.Nets, res)
		out.extractChunk(d.Nets, res, db, corner, &c)
	} else {
		size, count := team.Split(n)
		chunks := make([]chunk, count)
		for k := range chunks {
			chunks[k].prepare(out, d.Nets[k*size:min((k+1)*size, n)], res)
		}
		team.Chunks("extract/nets", n, func(k, lo, hi int) {
			out.extractChunk(d.Nets[lo:hi], res, db, corner, &chunks[k])
		})
	}
	for _, rc := range out.Nets {
		if rc != nil {
			out.CWireTotal += rc.WireC
			out.CPinTotal += rc.PinC
		}
	}
	return out
}

// Caps is ExtractOn's CWireTotal and CPinTotal at corner, bit for bit,
// without the RC trees: per routed net in net-ID order, its wire and cut
// capacitances summed in edge order and its sink pin caps in sink order,
// each net's two sums then added to the totals — the order ExtractOn sums
// in, record by record. A lent record holds the same two sums (Source),
// so Caps takes no sources. It builds no node table and no record, and
// allocates nothing: what power reads of the typical corner.
func Caps(d *netlist.Design, res *route.Result, db *route.DB, corner tech.CornerScale) (wire, pin float64) {
	for _, n := range d.Nets {
		r := res.Routes[n.ID]
		if r == nil {
			continue
		}
		var w, p float64
		for _, sg := range r.Segments {
			if !sg.IsVia() {
				_, c := edgeRC(sg, db, corner)
				w += c
				continue
			}
			for k := range sg.Cuts() {
				_, c := edgeRC(sg.Cut(k), db, corner)
				w += c
			}
		}
		for _, pr := range n.Sinks {
			p += pr.Cap()
		}
		wire += w
		pin += p
	}
	return wire, pin
}

// toExtract reports whether net id is routed and lent no record.
func (out *Design) toExtract(id int, res *route.Result) bool {
	return res.Routes[id] != nil && out.Nets[id] == nil
}

// chunk is what the full pass extracts one contiguous net-ID chunk with:
// the chunk's record arrays and a scratch of its own.
type chunk struct {
	recs   []NetRC
	elmore []float64
	s      Scratch
}

// prepare sizes c for the unlent routed nets among nets: a NetRC per net,
// an Elmore entry per sink, and scratch arrays that hold the largest of
// them, so extracting the chunk allocates nothing more.
func (c *chunk) prepare(out *Design, nets []*netlist.Net, res *route.Result) {
	routed, sinks, maxNodes, maxSegs, maxSinks := 0, 0, 0, 0, 0
	for _, n := range nets {
		if out.toExtract(n.ID, res) {
			segs := route.Elements(res.Routes[n.ID].Segments)
			routed++
			sinks += len(n.Sinks)
			maxNodes = max(maxNodes, 2*segs+n.NumPins())
			maxSegs = max(maxSegs, segs)
			maxSinks = max(maxSinks, len(n.Sinks))
		}
	}
	c.recs, c.elmore = make([]NetRC, routed), make([]float64, sinks)
	if routed > 0 {
		c.s.reserve(maxNodes, maxSegs, maxSinks)
	}
}

// extractChunk extracts the nets of one contiguous net-ID chunk into
// out.Nets with the chunk's scratch and record arrays; chunks write
// disjoint entries, so they run concurrently.
func (out *Design) extractChunk(nets []*netlist.Net, res *route.Result, db *route.DB, corner tech.CornerScale, c *chunk) {
	recs, elmore := c.recs, c.elmore
	for _, n := range nets {
		if !out.toExtract(n.ID, res) {
			continue
		}
		rc := &recs[0]
		recs = recs[1:]
		k := len(n.Sinks)
		rc.ElmoreTo = elmore[:k:k]
		elmore = elmore[k:]
		c.s.extractNet(rc, n, res.Routes[n.ID], db, corner)
		out.Nets[n.ID] = rc
	}
}

// Reextract re-extracts net n from route r (after sizing changed its pin
// caps or a reroute changed its segments), working in the caller's
// scratch, and keeps the totals current. The net's record is rewritten
// where it lies — a caller that may undo the edit copies it first
// (ddb.Txn.Reroute) — with its Elmore vector when that has room for the
// net's sinks; a net without a record gets one from the design's ECO
// slab. At steady state it allocates nothing. A design holding lent
// records (Source) is a sign-off view, never edited: Reextract panics on
// one.
func (d *Design) Reextract(s *Scratch, n *netlist.Net, r *route.NetRoute, db *route.DB, corner tech.CornerScale) *NetRC {
	if d.borrows {
		panic(fmt.Sprintf("extract: Reextract of net %s in an extraction holding lent records", n.Name))
	}
	for n.ID >= len(d.Nets) {
		d.Nets = append(d.Nets, nil)
	}
	rc := d.Nets[n.ID]
	if rc == nil {
		rc = d.ecoRecs.Alloc()
		d.Nets[n.ID] = rc
	}
	d.CWireTotal -= rc.WireC
	d.CPinTotal -= rc.PinC
	*rc = NetRC{ElmoreTo: d.ecoElmore.Fit(rc.ElmoreTo, len(n.Sinks))}
	s.extractNet(rc, n, r, db, corner)
	d.CWireTotal += rc.WireC
	d.CPinTotal += rc.PinC
	return rc
}

// Restore makes rc net netID's entry again with the contents of was — a
// copy taken before Reextract rewrote the record, whose Elmore vector
// fits rc's because a vector is only ever replaced by a longer one — and
// maintains the totals. A nil rc removes the entry.
func (d *Design) Restore(netID int, rc *NetRC, was NetRC) {
	if old := d.Nets[netID]; old != nil {
		d.CWireTotal -= old.WireC
		d.CPinTotal -= old.PinC
	}
	if rc != nil {
		elmore := append(rc.ElmoreTo[:0], was.ElmoreTo...)
		*rc = was
		rc.ElmoreTo = elmore
		d.CWireTotal += rc.WireC
		d.CPinTotal += rc.PinC
	}
	d.Nets[netID] = rc
}

// CheckFinite scans the extraction for NaN/Inf parasitics — the
// symptom of corrupt geometry or layer tables upstream — and returns
// a descriptive error naming the first offending net and quantity.
// Flows run it after every extraction so non-finite values become
// stage failures instead of NaN rows in the PPA tables.
func (d *Design) CheckFinite() error {
	for id := range d.Nets {
		if err := d.CheckNet(id); err != nil {
			return err
		}
	}
	if bad(d.CWireTotal) || bad(d.CPinTotal) {
		return fmt.Errorf("extract: non-finite capacitance totals (wire %v, pin %v)", d.CWireTotal, d.CPinTotal)
	}
	return nil
}

// CheckNet is CheckFinite for net id alone, the check of an incremental
// update; a net without a record passes.
func (d *Design) CheckNet(id int) error {
	rc := d.Nets[id]
	if rc == nil {
		return nil
	}
	switch {
	case bad(rc.WireC):
		return fmt.Errorf("extract: non-finite wire capacitance %v on net %s", rc.WireC, d.netName(id))
	case bad(rc.WireR):
		return fmt.Errorf("extract: non-finite wire resistance %v on net %s", rc.WireR, d.netName(id))
	case bad(rc.PinC):
		return fmt.Errorf("extract: non-finite pin capacitance %v on net %s", rc.PinC, d.netName(id))
	}
	for i, el := range rc.ElmoreTo {
		if bad(el) {
			return fmt.Errorf("extract: non-finite Elmore delay %v to sink %d of net %s", el, i, d.netName(id))
		}
	}
	return nil
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// netName names net id from the design, or by its ID in an extraction
// built by Reextract alone.
func (d *Design) netName(id int) string {
	if d.nl != nil && id < len(d.nl.Nets) {
		return d.nl.Nets[id].Name
	}
	return fmt.Sprintf("#%d", id)
}

// Scratch is the reusable working state of one net's extraction: the
// net's route nodes numbered locally through a generation-stamped hash
// table, and the RC graph, BFS tree, downstream capacitance and Elmore
// delay as flat arrays over those numbers. The zero value is ready to
// use; arrays only grow, so a warmed scratch extracts a net allocating
// nothing. One scratch serves one goroutine:
// ExtractOn keeps one per chunk, sized up front (reserve), ddb.DB owns
// the one behind Txn.Reroute.
type Scratch struct {
	tab  []nodeSlot // open-addressed route.Node → local id
	mask uint64     // probe mask of the current net (≤ len(tab)-1)
	gen  uint32     // a slot is live iff its gen matches

	// By local node id (first-seen order).
	capAt   []float64 // grounded capacitance, fF
	cur     []int32   // degree, then CSR fill cursor
	off     []int32   // CSR row offsets into adjTo/adjR
	parent  []int32   // BFS parent; rootNode, unseenNode
	parentR []float64 // resistance of the edge to the parent
	down    []float64 // downstream capacitance
	delay   []float64 // Elmore delay from the driver

	adjTo      []int32 // CSR adjacency, per node in edge insertion order
	adjR       []float64
	order      []int32 // BFS order from the driver
	segA, segB []int32 // local endpoint ids per edge: a wire, or one cut of a via stack
	segR       []float64
	sink       []int32 // local node id per Net.Sinks entry
}

type nodeSlot struct {
	node route.Node
	gen  uint32
	id   int32
}

const (
	rootNode   = -1
	unseenNode = -2
)

// reserve sizes every array for a net of at most nodes route nodes, segs
// edges (route.Elements: wires and via cuts) and sinks sinks, so
// extracting such nets never grows one.
func (s *Scratch) reserve(nodes, segs, sinks int) {
	s.reset(nodes)
	s.capAt, s.cur, s.order = make([]float64, 0, nodes), make([]int32, 0, nodes), make([]int32, 0, nodes)
	s.off = make([]int32, 0, nodes+1)
	s.parent, s.parentR = make([]int32, 0, nodes), make([]float64, 0, nodes)
	s.down, s.delay = make([]float64, 0, nodes), make([]float64, 0, nodes)
	s.adjTo, s.adjR = make([]int32, 0, 2*segs), make([]float64, 0, 2*segs)
	s.segA, s.segB, s.segR = make([]int32, 0, segs), make([]int32, 0, segs), make([]float64, 0, segs)
	s.sink = make([]int32, 0, sinks)
}

// grow returns s resized to n; contents are unspecified.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// reset prepares the node table for a net of at most maxNodes nodes.
func (s *Scratch) reset(maxNodes int) {
	size := 8
	for size < 2*maxNodes {
		size <<= 1
	}
	if len(s.tab) < size {
		s.tab = make([]nodeSlot, size)
		s.gen = 0
	}
	s.mask = uint64(size - 1)
	s.gen++
	if s.gen == 0 { // generation wrap: stale stamps could collide
		clear(s.tab)
		s.gen = 1
	}
	s.capAt, s.cur = s.capAt[:0], s.cur[:0]
}

// id returns the node's local number, assigning the next one (with zero
// capacitance and degree) on first sight.
func (s *Scratch) id(n route.Node) int32 {
	h := uint64(n.X)*0x9E3779B97F4A7C15 + uint64(n.Y)*0xC2B2AE3D27D4EB4F + uint64(n.L)*0x165667B19E3779F9
	for i := (h ^ h>>32) & s.mask; ; i = (i + 1) & s.mask {
		sl := &s.tab[i]
		if sl.gen != s.gen {
			*sl = nodeSlot{node: n, gen: s.gen, id: int32(len(s.capAt))}
			s.capAt = append(s.capAt, 0)
			s.cur = append(s.cur, 0)
			return sl.id
		}
		if sl.node == n {
			return sl.id
		}
	}
}

// extractNet builds the RC tree of net n routed as r into rc — zero but
// for an ElmoreTo sized one entry per sink — and runs Elmore. Every
// accumulation — per-node capacitance in edge order (segment order, a
// via stack's cuts from A to B) then pin order,
// adjacency in edge insertion order, BFS from the driver with the
// first-found parent winning, downstream sums in reverse BFS order —
// keeps one fixed sequence, so the floats are reproducible bit for bit.
func (s *Scratch) extractNet(rc *NetRC, n *netlist.Net, r *route.NetRoute, db *route.DB, corner tech.CornerScale) {
	nseg := route.Elements(r.Segments)
	s.reset(2*nseg + n.NumPins())
	s.segA, s.segB, s.segR = grow(s.segA, nseg), grow(s.segB, nseg), grow(s.segR, nseg)

	// One edge per wire and per cut of a via stack, in segment order and
	// a stack's cuts from A to B.
	i := 0
	for _, sg := range r.Segments {
		if !sg.IsVia() {
			s.edge(rc, i, sg, db, corner)
			i++
			continue
		}
		for k := range sg.Cuts() {
			s.edge(rc, i, sg.Cut(k), db, corner)
			i++
		}
	}

	// Pin caps at their nodes (the driver contributes no load to itself).
	s.sink = grow(s.sink, len(n.Sinks))
	for i, p := range n.Sinks {
		id := s.id(r.PinNode[i+1])
		s.sink[i] = id
		s.capAt[id] += p.Cap()
		rc.PinC += p.Cap()
	}
	if len(n.Sinks) == 0 {
		return
	}
	driver := s.id(r.PinNode[0])
	nn := len(s.capAt)

	// Adjacency as CSR: rows filled in edge order, a's entry before
	// b's, which is the order the edges were inserted in.
	s.off = grow(s.off, nn+1)
	s.off[0] = 0
	for u, deg := range s.cur {
		s.off[u+1] = s.off[u] + deg
		s.cur[u] = s.off[u]
	}
	s.adjTo, s.adjR = grow(s.adjTo, 2*nseg), grow(s.adjR, 2*nseg)
	for i := 0; i < nseg; i++ {
		a, b, res := s.segA[i], s.segB[i], s.segR[i]
		s.adjTo[s.cur[a]], s.adjR[s.cur[a]] = b, res
		s.cur[a]++
		s.adjTo[s.cur[b]], s.adjR[s.cur[b]] = a, res
		s.cur[b]++
	}

	// BFS tree from the driver (the routed graph can contain parallel
	// connections from overlapping MST paths; first-found parent
	// wins).
	s.parent, s.parentR = grow(s.parent, nn), grow(s.parentR, nn)
	s.down, s.delay = grow(s.down, nn), grow(s.delay, nn)
	for u := range s.parent {
		s.parent[u] = unseenNode
		s.down[u], s.delay[u] = 0, 0
	}
	s.parent[driver] = rootNode
	s.order = append(s.order[:0], driver)
	for qi := 0; qi < len(s.order); qi++ {
		u := s.order[qi]
		for e := s.off[u]; e < s.off[u+1]; e++ {
			if v := s.adjTo[e]; s.parent[v] == unseenNode {
				s.parent[v], s.parentR[v] = u, s.adjR[e]
				s.order = append(s.order, v)
			}
		}
	}

	// Downstream capacitance by reverse BFS order.
	for i := len(s.order) - 1; i >= 0; i-- {
		u := s.order[i]
		s.down[u] += s.capAt[u]
		if p := s.parent[u]; p >= 0 {
			s.down[p] += s.down[u]
		}
	}

	// Elmore from driver to each node: delay(u) = delay(parent) +
	// R_edge × downstream(u). kΩ·fF = ps. A sink the segments do not
	// reach keeps delay 0.
	for _, u := range s.order {
		if p := s.parent[u]; p >= 0 {
			s.delay[u] = s.delay[p] + s.parentR[u]*s.down[u]
		}
	}
	for i, id := range s.sink {
		rc.ElmoreTo[i] = s.delay[id]
	}
}

// edge adds RC edge i of rc's tree, the wire or cut e: its resistance
// and capacitance to the totals, half the capacitance to each end.
func (s *Scratch) edge(rc *NetRC, i int, e route.Seg, db *route.DB, corner tech.CornerScale) {
	res, c := edgeRC(e, db, corner)
	rc.WireC += c
	rc.WireR += res
	ia, ib := s.id(e.A), s.id(e.B)
	s.capAt[ia] += c / 2
	s.capAt[ib] += c / 2
	s.cur[ia]++
	s.cur[ib]++
	s.segA[i], s.segB[i], s.segR[i] = ia, ib, res
}

// edgeRC is the resistance (kΩ) and capacitance (fF) at corner of one
// RC edge: a wire, or one cut of a via stack (route.Seg.Cut). It is the
// one source of both for the RC trees and for Caps.
func edgeRC(e route.Seg, db *route.DB, corner tech.CornerScale) (r, c float64) {
	if e.IsVia() {
		v := db.Beol.Vias[min(e.A.L, e.B.L)]
		return v.R * corner.WireR, v.C * corner.WireC
	}
	ly := db.Beol.Layers[e.A.L]
	length := float64(geom.AbsInt(int(e.B.X)-int(e.A.X)))*db.Grid.DX + float64(geom.AbsInt(int(e.B.Y)-int(e.A.Y)))*db.Grid.DY
	return length * ly.RPerUm * corner.WireR, length * ly.CPerUm * corner.WireC
}
