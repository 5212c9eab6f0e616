// Package route implements global routing over a gcell grid spanning
// an arbitrary BEOL — including the 10–13-layer combined stacks of
// Macro-3D designs. Nets are decomposed into two-pin connections by a
// rectilinear MST, routed with congestion-aware pattern routes
// (L-shapes over an H/V layer pair), and negotiated with
// PathFinder-style rip-up-and-reroute using 3D A* for overflowed nets.
//
// The router honours preferred directions, per-layer track capacities,
// macro obstructions (which is what forces ≥6 metal layers over
// memories in 2D designs), and the F2F bonding via: crossing the F2F
// boundary consumes bump capacity on the bump grid, and every crossing
// is counted — the paper's F2F-bump cost metric.
package route

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/slab"
	"macro3d/internal/tech"
)

// Options tunes the router.
type Options struct {
	// GCellPitch is the routing grid pitch, µm (default 15).
	GCellPitch float64
	// MaxIters is the number of negotiation iterations (default 6).
	MaxIters int
	// CapacityFill derates raw track capacity (default 0.65 — tracks
	// lost to pins, power and detailed-routing inefficiency).
	CapacityFill float64
	// ViaCost is the routing cost of one via step, in gcell-lengths
	// (default 1.0).
	ViaCost float64
	// Grid, when non-nil, overrides the gcell grid (it must tile the
	// die exactly). Used when composing tile arrays so routes can be
	// translated between aligned grids.
	Grid *geom.Grid
	// Workers is ignored: the router runs on the calling goroutine
	// (DESIGN.md §10). It stays until the benchmark harness stops setting
	// it.
	Workers int

	// Obs, when non-nil, is the stage span the router hangs its phase
	// spans under (each pass, each rip-up iteration around its pass) and
	// whose registry and timeline receive its metrics.
	// nil disables instrumentation; results are identical either way.
	Obs *obs.Span
}

func (o Options) withDefaults() Options {
	if o.GCellPitch <= 0 {
		o.GCellPitch = 15
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 6
	}
	if o.CapacityFill <= 0 {
		o.CapacityFill = 0.65
	}
	if o.ViaCost <= 0 {
		o.ViaCost = 1.0
	}
	return o
}

// The grid a Node can address. The paper's stacks are 6–13 layers and
// its tiles 52–146 gcells wide at the default pitch (a 4×4 array of the
// large 2D tile: 584), so a node is 6 bytes and a segment 12; NewDB
// refuses a grid past these limits (DB.Err) instead of letting a
// coordinate wrap.
const (
	MaxGridDim = math.MaxInt16 // gcells per grid axis (NX, NY)
	MaxLayers  = math.MaxInt8  // routing layers of the BEOL
)

// Node is a point on the routing grid: gcell (X, Y) on layer L. It is
// 6 bytes — 16-bit coordinates, an 8-bit layer — which bounds the grids
// the router addresses to MaxGridDim × MaxGridDim gcells over MaxLayers
// layers. Every node of a route lies on the grid of the DB that produced
// it, and a DB only exists for an addressable grid, so the narrow fields
// never wrap.
type Node struct {
	X, Y int16
	L    int8
}

// At returns the node of gcell (x, y) on layer l, which must lie on an
// addressable grid (see MaxGridDim, MaxLayers).
func At(x, y, l int) Node { return Node{X: int16(x), Y: int16(y), L: int8(l)} }

// Seg is one straight route element on a single layer (A.L == B.L) or
// a via (A.X==B.X, A.Y==B.Y, |A.L−B.L|==1). 12 bytes.
type Seg struct {
	A, B Node
}

// IsVia reports whether the segment is a layer change.
func (s Seg) IsVia() bool { return s.A.L != s.B.L }

// NetRoute is the routing result of one net: a shape in gcells. Its net
// is its index in Result.Routes and its position the result's to say
// (Origin): every copy of a tile in an array shares the tile's records.
type NetRoute struct {
	Segments []Seg
	// PinNode maps pin index (net.PinAt order) to its grid node at
	// the pin's layer.
	PinNode []Node

	WL   float64 // routed wirelength, µm
	Vias int
	F2F  int // F2F bump crossings
}

// Result is the design-level routing outcome. Its geometry is stored in
// 12-byte segments and 6-byte pin nodes (Node), so a result only exists
// over a grid within MaxGridDim and MaxLayers.
//
// The result owns its records: route records, pin nodes and segments
// are carved from chunked slabs, and a chunk never moves, so Routes
// keeps pointing at them. A bulk build — RouteDesign, a decoded snapshot
// — fills the first set (NewRoute). An ECO route (RouteNet) rewrites the
// net's record where it lies and takes from the second set only what
// does not fit: the record of a new net, a pin or segment span larger
// than the one the net has, which is then abandoned as a rip-up victim's
// is. The second set is separate because a slab's next chunk is as large
// as everything before it: the first ECO route after an exact-size bulk
// build would double the result.
// The exception is a placed route (Place), borrowed read-only from
// another result; only a tile array's result has any.
type Result struct {
	Routes []*NetRoute // indexed by net ID (nil for clock/unrouted)

	WL         float64   // total routed wirelength, µm
	WLPerLayer []float64 // µm per layer
	Vias       int
	F2FBumps   int
	Overflow   int // gcell-layers above capacity after negotiation
	OverflowWL float64

	origins []Origin // by net ID; nil until the first Place

	recs, ecoRecs   slab.Slab[NetRoute]
	nodes, ecoNodes slab.Slab[Node]
	segs, ecoSegs   slab.Slab[Seg]
}

// Reserve sizes the result's slabs for a builder that knows what it
// will add with NewRoute: that many more routes, pin nodes and
// segments, each in one allocation.
func (res *Result) Reserve(routes, pinNodes, segments int) {
	res.recs.Reserve(routes)
	res.nodes.ReserveSpans(pinNodes)
	res.segs.ReserveSpans(segments)
}

// Origin is where a route's shape sits on the result's grid, in gcells:
// zero for every ordinary route. Placed marks a record borrowed from
// another result (Place), never written through this one.
type Origin struct {
	DX, DY int16
	Placed bool
}

// at returns segment s of the shape as it lies on the grid.
func (o Origin) at(s Seg) Seg {
	s.A.X, s.A.Y, s.B.X, s.B.Y = s.A.X+o.DX, s.A.Y+o.DY, s.B.X+o.DX, s.B.Y+o.DY
	return s
}

// Origin returns the origin of net netID's route.
func (res *Result) Origin(netID int) Origin {
	if netID < len(res.origins) {
		return res.origins[netID]
	}
	return Origin{}
}

// Place stores r itself — the record, not a copy — as net netID's route
// (inside the table) with its shape at (dx, dy) gcells: the tile-array
// composition primitive (grids aligned, the moved shape on this grid).
// What reads a route's grid position — CommitRoute, ReleaseNet,
// RebuildUsage, the overflow scan — adds the origin; what reads
// differences (extraction, connectivity, Recount) needs none; RouteNet
// and Restore give the net a record of its own before writing.
func (res *Result) Place(netID int, r *NetRoute, dx, dy int) {
	if res.origins == nil {
		res.origins = make([]Origin, len(res.Routes))
	}
	res.origins[netID] = Origin{DX: int16(dx), DY: int16(dy), Placed: true}
	res.Routes[netID] = r
}

// NewRoute carves a zero route record out of the result's slab and
// stores it under netID (growing the table like SetRoute). The caller
// sizes PinNode and Segments with PinSpan and SegSpan and fills them and
// the metrics in place.
func (res *Result) NewRoute(netID int) *NetRoute {
	r := res.recs.Alloc()
	res.SetRoute(netID, r)
	return r
}

// PinSpan returns k zero pin nodes from the result's slab (len == cap).
func (res *Result) PinSpan(k int) []Node { return res.nodes.Span(k) }

// SegSpan returns k zero segments from the result's slab (len == cap).
func (res *Result) SegSpan(k int) []Seg { return res.segs.Span(k) }

// DB is the routing database: capacities and usage per gcell per layer.
type DB struct {
	Grid geom.Grid
	Beol *tech.BEOL
	opt  Options

	layerIdx map[string]int

	cap   []int32 // per layer*bins, tracks available
	usage []int32
	hist  []float32 // negotiation history cost; nil until negotiation creates it (history)

	f2fIdx  int // via index of the F2F boundary, -1 if none
	f2fCap  []int32
	f2fUse  []int32
	gcellWL float64 // µm per grid step (average of DX, DY)

	// patternPairs[k] is the ≤ 3 (H-layer, V-layer) pairs the pattern
	// router tries for distance bucket k (see distBucket), best-ranked
	// first; read-only after NewDB.
	patternPairs [4][][2]int

	eco *mazeScratch // single-thread maze scratch (ECO routes, tests)

	err error // the grid is not addressable; see Err
}

// Err reports why the database cannot route: its grid has more gcells
// per axis than MaxGridDim or its BEOL more layers than MaxLayers, which
// a Node cannot address. Such a DB holds no capacity arrays; RouteDesign
// and RouteNet return this error. nil for every usable DB.
func (db *DB) Err() error { return db.err }

// NewDB builds the routing database for a die, BEOL and blockage set.
func NewDB(die geom.Rect, beol *tech.BEOL, blk []floorplan.RouteBlockage, opt Options) *DB {
	opt = opt.withDefaults()
	g := geom.NewGrid(die, opt.GCellPitch)
	if opt.Grid != nil {
		g = *opt.Grid
	}
	nl := beol.NumLayers()
	if g.NX > MaxGridDim || g.NY > MaxGridDim || nl > MaxLayers {
		return &DB{Grid: g, Beol: beol, opt: opt, f2fIdx: -1, err: fmt.Errorf(
			"route: grid %d×%d gcells × %d layers exceeds the addressable %d×%d × %d (die %v at pitch %g µm)",
			g.NX, g.NY, nl, MaxGridDim, MaxGridDim, MaxLayers, die, opt.GCellPitch)}
	}
	db := &DB{
		Grid:     g,
		Beol:     beol,
		opt:      opt,
		layerIdx: make(map[string]int, nl),
		cap:      make([]int32, nl*g.Bins()),
		usage:    make([]int32, nl*g.Bins()),
		f2fIdx:   beol.F2FViaIndex(),
		gcellWL:  (g.DX + g.DY) / 2,
	}
	for i, l := range beol.Layers {
		db.layerIdx[l.Name] = i
		// Tracks crossing a gcell in the preferred direction.
		span := g.DY
		if l.Dir == tech.DirVertical {
			span = g.DX
		}
		tracks := int32(span / l.Pitch * opt.CapacityFill)
		if tracks < 1 {
			tracks = 1
		}
		base := i * g.Bins()
		for b := 0; b < g.Bins(); b++ {
			db.cap[base+b] = tracks
		}
	}
	// Obstructions knock capacity out.
	for _, rb := range blk {
		li, ok := db.layerIdx[rb.Layer]
		if !ok {
			continue
		}
		x0, y0, x1, y1, ok := g.CoverRange(rb.Rect)
		if !ok {
			continue
		}
		base := li * g.Bins()
		for iy := y0; iy <= y1; iy++ {
			for ix := x0; ix <= x1; ix++ {
				bin := g.BinRect(ix, iy)
				frac := rb.Rect.Intersect(bin).Area() / bin.Area()
				i := base + g.Index(ix, iy)
				left := float64(db.cap[i]) * (1 - frac)
				db.cap[i] = int32(left)
			}
		}
	}
	// Pattern-router layer pairs per distance bucket: short nets target
	// low layers, long nets the top pair of the logic die; the longest
	// nets on a combined stack also consider the macro die's top pair,
	// routing through the other die when it is cheaper (the F2F bump is
	// nearly free at 44 mΩ / 1 fF). Every pair is ranked by
	// |pairLevel − preferred| (stable, so ties keep lowest-first) and the
	// best three are candidates; cost decides among them. The four
	// rankings share one array.
	pairs := db.hvPairs()
	n, m := len(pairs), min(len(pairs), 3)
	ranked := make([][2]int, 4*n)
	for k, pref := range [4]int{0, 2, beol.LogicDieLayers() - 1, db.f2fIdx + 1} {
		r := ranked[k*n : (k+1)*n]
		copy(r, pairs)
		slices.SortStableFunc(r, func(p, q [2]int) int {
			return cmp.Compare(geom.AbsInt((p[0]+p[1])/2-pref), geom.AbsInt((q[0]+q[1])/2-pref))
		})
		db.patternPairs[k] = r[:m:m]
	}
	// F2F bump capacity per gcell from the bump pitch.
	if db.f2fIdx >= 0 {
		p := beol.Vias[db.f2fIdx].Pitch
		per := int32(g.DX / p * g.DY / p * 0.5)
		if per < 1 {
			per = 1
		}
		db.f2fCap = make([]int32, g.Bins())
		db.f2fUse = make([]int32, g.Bins())
		for b := range db.f2fCap {
			db.f2fCap[b] = per
		}
	}
	return db
}

func (db *DB) idx(n Node) int {
	return int(n.L)*db.Grid.Bins() + db.Grid.Index(int(n.X), int(n.Y))
}

// isF2F reports whether via segment s crosses the F2F boundary.
func (db *DB) isF2F(s Seg) bool {
	return db.f2fIdx >= 0 && int(min(s.A.L, s.B.L)) == db.f2fIdx
}

// LayerIndex resolves a layer name (-1 when absent).
func (db *DB) LayerIndex(name string) int {
	if i, ok := db.layerIdx[name]; ok {
		return i
	}
	return -1
}

// congestionCost is the PathFinder-style cost of using one more track
// in a gcell-layer.
func (db *DB) congestionCost(i int) float64 {
	var h float64 // a DB that has not negotiated has no history: 0
	if db.hist != nil {
		h = float64(db.hist[i])
	}
	c := float64(db.cap[i])
	if c <= 0 {
		return 64 + h
	}
	u := float64(db.usage[i])
	over := (u + 1) / c
	if over <= 0.8 {
		return h * 0.1
	}
	// Quadratic penalty past 80 % fill, steep past capacity.
	pen := (over - 0.8) * (over - 0.8) * 8
	if u+1 > c {
		pen += 16
	}
	return pen + h
}

// history returns the negotiation history plane, creating it on first
// use: only negotiation writes it, and a flat tile array or a clean
// route never negotiates.
func (db *DB) history() []float32 {
	if db.hist == nil {
		db.hist = make([]float32, len(db.usage))
	}
	return db.hist
}

// addUsage commits or releases (delta ±1) the occupancy of net netID's
// route, if any, where res places it.
func (db *DB) addUsage(res *Result, netID int, delta int32) {
	if netID < len(res.Routes) && res.Routes[netID] != nil {
		db.addSegs(res.Routes[netID].Segments, res.Origin(netID), delta)
	}
}

// addSegs adds delta to the occupancy under a shape at o, in order.
func (db *DB) addSegs(segs []Seg, o Origin, delta int32) {
	for _, s := range segs {
		s = o.at(s)
		if s.IsVia() {
			if db.isF2F(s) {
				db.f2fUse[db.Grid.Index(int(s.A.X), int(s.A.Y))] += delta
			}
			continue
		}
		// Walk the gcells under the straight segment.
		forEachStep(s, func(n Node) {
			db.usage[db.idx(n)] += delta
		})
	}
}

// forEachStep visits every gcell of a straight segment, inclusive of
// both ends.
func forEachStep(s Seg, f func(Node)) {
	dx := sign(s.B.X - s.A.X)
	dy := sign(s.B.Y - s.A.Y)
	n := s.A
	for {
		f(n)
		if n.X == s.B.X && n.Y == s.B.Y {
			return
		}
		n.X += dx
		n.Y += dy
	}
}

func sign(v int16) int16 {
	if v > 0 {
		return 1
	}
	if v < 0 {
		return -1
	}
	return 0
}

// segLen returns the µm length of a straight segment.
func (db *DB) segLen(s Seg) float64 {
	return float64(geom.AbsInt(int(s.B.X)-int(s.A.X)))*db.Grid.DX +
		float64(geom.AbsInt(int(s.B.Y)-int(s.A.Y)))*db.Grid.DY
}

// PinNode maps a pin reference to its routing-grid node.
func (db *DB) PinNode(p netlist.PinRef) (Node, error) {
	li := db.LayerIndex(p.Layer())
	if li < 0 {
		return Node{}, fmt.Errorf("route: pin %s on unknown layer %q", p, p.Layer())
	}
	ix, iy := db.Grid.Locate(p.Loc())
	return At(ix, iy, li), nil
}

// distBucket classes a two-pin connection by Manhattan gcell distance
// for the pattern router's layer-pair preference (patternPairs).
func (db *DB) distBucket(dist int) int {
	switch {
	case dist > 24 && db.f2fIdx >= 0:
		return 3
	case dist > 12:
		return 2
	case dist > 4:
		return 1
	}
	return 0
}

// hvPairs enumerates (H-layer, V-layer) adjacent pairs usable by the
// pattern router, lowest first.
func (db *DB) hvPairs() [][2]int {
	var out [][2]int
	ls := db.Beol.Layers
	for i := 0; i+1 < len(ls); i++ {
		a, b := i, i+1
		if ls[a].Dir == tech.DirHorizontal && ls[b].Dir == tech.DirVertical {
			out = append(out, [2]int{a, b})
		} else if ls[a].Dir == tech.DirVertical && ls[b].Dir == tech.DirHorizontal {
			out = append(out, [2]int{b, a})
		}
	}
	return out
}

// Overflow recomputes the current overflow (gcell-layers over
// capacity).
func (db *DB) Overflow() int {
	over := 0
	for i := range db.usage {
		if db.usage[i] > db.cap[i] {
			over++
		}
	}
	if db.f2fCap != nil {
		for i := range db.f2fUse {
			if db.f2fUse[i] > db.f2fCap[i] {
				over++
			}
		}
	}
	return over
}

// bumpHistory raises history cost on currently overflowed nodes.
func (db *DB) bumpHistory() {
	hist := db.history()
	for i := range db.usage {
		if db.usage[i] > db.cap[i] {
			hist[i] += 2
		}
	}
}

// UsedObstructions condenses the committed routing into per-layer
// blockage rectangles: every gcell with nonzero usage (or with its
// capacity fully knocked out by an input obstruction) is covered.
// Per row, consecutive used gcells merge into runs; vertically
// identical runs merge into taller rects. This is what hardening a
// block exports as the abstract's routing obstructions — a parent flow
// then blocks only the layers and regions the block really uses,
// instead of treating it as an opaque full-stack blockage. Output
// order is deterministic (layer index, then scan order).
func (db *DB) UsedObstructions() []floorplan.RouteBlockage {
	type run struct {
		x0, x1, y0, y1 int
	}
	var out []floorplan.RouteBlockage
	g := db.Grid
	for l := 0; l < db.Beol.NumLayers(); l++ {
		base := l * g.Bins()
		used := func(ix, iy int) bool {
			i := base + g.Index(ix, iy)
			return db.usage[i] > 0 || db.cap[i] == 0
		}
		var open []run // runs still growing upward, sorted by x0
		for iy := 0; iy < g.NY; iy++ {
			var rows []run
			for ix := 0; ix < g.NX; ix++ {
				if !used(ix, iy) {
					continue
				}
				x1 := ix
				for x1+1 < g.NX && used(x1+1, iy) {
					x1++
				}
				rows = append(rows, run{x0: ix, x1: x1, y0: iy, y1: iy})
				ix = x1
			}
			// Extend an open run only by an identical row run; emit the
			// rest.
			var next []run
			for _, o := range open {
				ext := false
				for i := range rows {
					if rows[i].x0 == o.x0 && rows[i].x1 == o.x1 && rows[i].y0 == o.y1+1 {
						o.y1 = rows[i].y0
						rows[i].x1 = -1 // consumed
						next = append(next, o)
						ext = true
						break
					}
				}
				if !ext {
					out = append(out, db.runBlockage(l, o.x0, o.y0, o.x1, o.y1))
				}
			}
			for _, r := range rows {
				if r.x1 >= 0 {
					next = append(next, r)
				}
			}
			open = next
		}
		for _, o := range open {
			out = append(out, db.runBlockage(l, o.x0, o.y0, o.x1, o.y1))
		}
	}
	return out
}

func (db *DB) runBlockage(l, x0, y0, x1, y1 int) floorplan.RouteBlockage {
	a := db.Grid.BinRect(x0, y0)
	b := db.Grid.BinRect(x1, y1)
	return floorplan.RouteBlockage{
		Layer: db.Beol.Layers[l].Name,
		Rect:  a.Union(b),
	}
}

// UsageSnapshot returns a per-layer utilization summary (mean fill of
// used gcells) for reports.
func (db *DB) UsageSnapshot() []float64 {
	nl := db.Beol.NumLayers()
	out := make([]float64, nl)
	for l := 0; l < nl; l++ {
		var u, c float64
		base := l * db.Grid.Bins()
		for b := 0; b < db.Grid.Bins(); b++ {
			u += float64(db.usage[base+b])
			c += float64(db.cap[base+b])
		}
		if c > 0 {
			out[l] = u / c
		}
	}
	return out
}
