// Package route implements global routing over a gcell grid spanning
// an arbitrary BEOL — including the 10–13-layer combined stacks of
// Macro-3D designs. Nets are decomposed into two-pin connections by a
// rectilinear MST, routed with congestion-aware pattern routes
// (L-shapes over an H/V layer pair), and negotiated with
// PathFinder-style rip-up-and-reroute using 3D A* for overflowed nets.
//
// The router honours preferred directions, per-layer track capacities,
// macro obstructions (walls outside a pin's column, for ECO routes too:
// what forces ≥6 metal layers over memories in 2D designs), and the F2F
// bonding via: crossing the F2F boundary consumes bump capacity on the
// bump grid, and every crossing is counted — the paper's F2F-bump cost
// metric.
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
	return o
}

// CapacityFill derates raw track capacity: the tracks lost to pins,
// power and detailed-routing inefficiency. A gcell-layer holds
// max(1, ⌊span / pitch · CapacityFill⌋) tracks, less the fraction a
// blockage fills (truncated, one blockage at a time).
const CapacityFill = 0.65

// BumpFill derates the F2F bump sites of a gcell (BumpCapacity).
const BumpFill = 0.5

// BumpCapacity is the F2F crossings gcell (ix, iy) of g holds at bump
// pitch p. A gcell the pitch fits in holds
// max(1, ⌊DX / p · DY / p · BumpFill⌋). Where the pitch is wider than a
// gcell side, a gcell holds the sites of the bonding lattice
// (BumpLattice) whose centres fall in it, so some hold none.
func BumpCapacity(g geom.Grid, p float64, ix, iy int) int32 {
	if p <= g.DX && p <= g.DY {
		return max(int32(g.DX/p*g.DY/p*BumpFill), 1)
	}
	// The sites of an axis of n, centred at (k+½)·p, in gcell i of width d.
	span := func(i int, d float64, n int) int32 {
		first := func(x float64) int32 { return int32(min(max(int(math.Ceil(x/p-0.5)), 0), n)) }
		return first(float64(i+1)*d) - first(float64(i)*d)
	}
	nx, ny := BumpLattice(g, p)
	return span(ix, g.DX, nx) * span(iy, g.DY, ny)
}

// BumpLattice is the size of g's bonding lattice at pitch p: the sites
// F2F bumps sit on, p apart, site (i, j) centred at
// Region.LL() + ((i+½)·p, (j+½)·p).
func BumpLattice(g geom.Grid, p float64) (nx, ny int) {
	return max(int(g.Region.W()/p), 1), max(int(g.Region.H()/p), 1)
}

// viaCost is the routing cost of one via step, in gcell-lengths.
const viaCost = 1.0

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

// Seg is one straight route element, 12 bytes: a wire along one layer
// (A.L == B.L, A and B in one gcell row or column) or a via stack
// (A.X == B.X, A.Y == B.Y, A.L != B.L) — every cut from layer A.L to
// layer B.L at one gcell, however many (Cuts). A net that crosses the
// dies of a combined stack climbs logic metals, F2F_VIA and the macro
// die's metals in one segment, not one per cut (DESIGN.md §17).
type Seg struct {
	A, B Node
}

// IsVia reports whether the segment is a via stack (a layer change).
func (s Seg) IsVia() bool { return s.A.L != s.B.L }

// Cuts returns the number of vias the segment holds: |A.L − B.L|, 0 for
// a wire.
func (s Seg) Cuts() int { return geom.AbsInt(int(s.B.L) - int(s.A.L)) }

// Cut returns cut k of via stack s, 0 ≤ k < s.Cuts(), counted from A to
// B: the one-layer via from layer A.L ± k to A.L ± (k+1). Whatever gives
// a cut meaning of its own — an RC edge, a node a check walks — expands
// a stack this way, in this order.
func (s Seg) Cut(k int) Seg {
	step := int8(1)
	if s.B.L < s.A.L {
		step = -1
	}
	s.A.L += int8(k) * step
	s.B = s.A
	s.B.L += step
	return s
}

// Spans reports whether s holds via v, the cut between layers v and
// v+1; never for a wire.
func (s Seg) Spans(v int) bool { return int(min(s.A.L, s.B.L)) <= v && v < int(max(s.A.L, s.B.L)) }

// Valid reports whether s is a segment the router can produce, and so
// one every consumer can walk: a wire along a gcell row or column of one
// layer, or a via stack in one gcell column.
func (s Seg) Valid() bool {
	if s.IsVia() {
		return s.A.X == s.B.X && s.A.Y == s.B.Y
	}
	return s.A.X == s.B.X || s.A.Y == s.B.Y
}

// Elements returns the number of elements segs holds one cut at a time:
// its wires plus the cuts of its via stacks.
func Elements(segs []Seg) int {
	n := 0
	for _, s := range segs {
		n += max(s.Cuts(), 1)
	}
	return n
}

// continues reports whether the step p→n, taken from the end p of
// segment last, extends last in a straight line: a wire step along its
// row or column on its layer, or a via step (or stack) further up or
// down its stack.
func continues(last Seg, p, n Node) bool {
	if last.IsVia() != (p.L != n.L) {
		return false
	}
	if last.IsVia() {
		return (last.B.L > last.A.L) == (n.L > p.L)
	}
	return last.A.L == n.L &&
		(last.A.Y == last.B.Y && last.B.Y == n.Y || last.A.X == last.B.X && last.B.X == n.X)
}

// NetRoute is the routing result of one net: a shape in gcells. Its net
// is its index in Result.Routes and its position the result's to say
// (Origin): every copy of a tile in an array shares the tile's records.
type NetRoute struct {
	// Segments are the shape's wires and via stacks, in route order; a
	// stack is one segment however many cuts it holds (Seg).
	Segments []Seg
	// PinNode maps pin index (net.PinAt order) to its grid node at
	// the pin's layer.
	PinNode []Node

	WL   float64 // routed wirelength, µm
	Vias int     // via cuts, every cut of every stack
	F2F  int     // F2F bump crossings: the stacks that hold the F2F via
}

// Result is the design-level routing outcome. Its geometry is stored in
// 12-byte segments, a via stack in one (Seg), and 6-byte pin nodes
// (Node), so a result only exists over a grid within MaxGridDim and
// MaxLayers.
//
// The result owns its records: route records, pin nodes and segments
// are carved from chunked slabs, and a chunk never moves, so Routes
// keeps pointing at them. A bulk build — RouteDesign, a decoded snapshot
// — fills the first set (NewRoute); a rip-up victim's reroute is written
// over its span when it fits, and takes a new one from the same set when
// it does not. An ECO route (RouteNet) rewrites the net's record where
// it lies and takes from the second set only what does not fit: the
// record of a new net, a pin or segment span larger than the one the net
// has. A span that is outgrown is abandoned where it lies. The second
// set is separate because a slab's next chunk is as large as everything
// before it: the first ECO route after an exact-size bulk build would
// double the result.
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

	f2fIdx int // via index of the F2F boundary, -1 if none
	f2fCap []int32
	f2fUse []int32

	// patternPairs[k] is the ≤ 3 (H-layer, V-layer) pairs the pattern
	// router tries for distance bucket k (see distBucket), best-ranked
	// first; read-only after NewDB.
	patternPairs [4][][2]int

	scr *mazeScratch // the single-thread router scratch (scratch)
	ov  overScan     // the overflow scan's buffers (overflowed)
	st  settle       // the settled-net rule's stamps (settle.go)

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
	}
	for i, l := range beol.Layers {
		db.layerIdx[l.Name] = i
		// Tracks crossing a gcell in the preferred direction.
		span := g.DY
		if l.Dir == tech.DirVertical {
			span = g.DX
		}
		tracks := int32(span / l.Pitch * CapacityFill)
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
		db.f2fCap = make([]int32, g.Bins())
		db.f2fUse = make([]int32, g.Bins())
		for b := range db.f2fCap {
			ix, iy := g.Coords(b)
			db.f2fCap[b] = BumpCapacity(g, p, ix, iy)
		}
	}
	return db
}

func (db *DB) idx(n Node) int {
	return int(n.L)*db.Grid.Bins() + db.Grid.Index(int(n.X), int(n.Y))
}

// isF2F reports whether segment s, a via stack, crosses the F2F
// boundary: it holds the F2F via, once, as a stack holds each cut (and
// none without an F2F via, whose index is -1).
func (db *DB) isF2F(s Seg) bool { return s.Spans(db.f2fIdx) }

// Tracks returns gcell-layer n's capacity in tracks — 0 for a wall — and
// the usage committed to it.
func (db *DB) Tracks(n Node) (capacity, used int) {
	i := db.idx(n)
	return int(db.cap[i]), int(db.usage[i])
}

// LayerIndex resolves a layer name (-1 when absent).
func (db *DB) LayerIndex(name string) int {
	if i, ok := db.layerIdx[name]; ok {
		return i
	}
	return -1
}

// congestionCost is the PathFinder-style cost of using one more track
// in a gcell-layer; a zero-capacity one, a wall but in a pin's column
// (blocked), fills one track and is past capacity at any use.
func (db *DB) congestionCost(i int) float64 {
	var h float64 // a DB that has not negotiated has no history: 0
	if db.hist != nil {
		h = float64(db.hist[i])
	}
	over := fill(db.usage[i], db.cap[i])
	if over <= fillKnee {
		return h * 0.1
	}
	// Quadratic penalty past 80 % fill, steep past capacity.
	pen := (over - fillKnee) * (over - fillKnee) * 8
	if db.usage[i]+1 > db.cap[i] {
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
// route, if any, where res places it. Either way the net is no longer
// settled: its usage moved outside the DB's own route-and-commit.
func (db *DB) addUsage(res *Result, netID int, delta int32) {
	db.unsettle(netID)
	if netID < len(res.Routes) && res.Routes[netID] != nil {
		db.addSegs(res.Routes[netID].Segments, res.Origin(netID), delta)
	}
}

// addSegs adds delta to the occupancy under a shape at o, in order,
// stamping the columns whose cost it moves once the stamps are started.
func (db *DB) addSegs(segs []Seg, o Origin, delta int32) {
	stamp, bins := db.stamping(), db.Grid.Bins()
	for _, s := range segs {
		s = o.at(s)
		if s.IsVia() {
			if db.isF2F(s) {
				col := db.Grid.Index(int(s.A.X), int(s.A.Y))
				was := db.f2fUse[col]
				db.f2fUse[col] = was + delta
				if stamp {
					db.stampF2F(col, was, was+delta)
				}
			}
			continue
		}
		// Step through the gcells under the straight segment; on one
		// layer, a column index moves by the same stride.
		i, step, n := db.stride(s)
		for col := i - int(s.A.L)*bins; n > 0; i, col, n = i+step, col+step, n-1 {
			was := db.usage[i]
			db.usage[i] = was + delta
			if stamp {
				db.stampUse(i, col, was, was+delta)
			}
		}
	}
}

// stride locates a wire (a Valid segment on one layer) in the
// gcell-layer planes: the flat index (idx) of A, the step from one node
// to the next toward B (±1 or ±NX) and the count of nodes, A and B
// included — the nodes Walk visits, in its order.
func (db *DB) stride(s Seg) (i, step, n int) {
	dx, dy := int(s.B.X)-int(s.A.X), int(s.B.Y)-int(s.A.Y)
	return db.idx(s.A), cmp.Compare(dx, 0) + cmp.Compare(dy, 0)*db.Grid.NX, geom.AbsInt(dx) + geom.AbsInt(dy) + 1
}

// Walk calls f on every node of s from A through B, in order: each
// gcell along a wire, each layer up or down a via stack. s must be
// Valid; a slanted segment never reaches B.
func (s Seg) Walk(f func(Node)) {
	dx, dy := sign(s.B.X-s.A.X), sign(s.B.Y-s.A.Y)
	dl := int8(sign(int16(s.B.L) - int16(s.A.L)))
	for n := s.A; ; n.X, n.Y, n.L = n.X+dx, n.Y+dy, n.L+dl {
		f(n)
		if n == s.B {
			return
		}
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

// Overflow counts the gcell-layers and F2F bins whose usage is past
// capacity under res's routes (overflowed), a wall's pin access being
// capacity: the route overflow a result reports.
func (db *DB) Overflow(res *Result) int {
	cells, bins, _ := db.overflowed(res)
	return len(cells) + len(bins)
}

// overflowed lists, in index order, the gcell-layers whose usage is past
// capacity and the F2F bins past their bump capacity, into the DB's
// overScan: valid until the next call. A zero-capacity gcell-layer holds one track
// for each pin of res's routes in its column — the pin access blocked
// grants — so it counts only past those (pinTracks); access is how many
// hold usage within them.
func (db *DB) overflowed(res *Result) (cells, bins []int32, access int) {
	s := &db.ov
	cells, cols := s.cells[:0], s.cols[:0]
	nb := int32(db.Grid.Bins())
	for i, u := range db.usage {
		if u > db.cap[i] {
			cells = append(cells, int32(i))
			if db.cap[i] == 0 {
				cols = append(cols, int32(i)%nb)
			}
		}
	}
	if len(cols) > 0 {
		cols, tracks := db.pinTracks(res, s, cols)
		n := len(cells)
		cells = slices.DeleteFunc(cells, func(i int32) bool {
			if db.cap[i] != 0 {
				return false
			}
			j, _ := slices.BinarySearch(cols, i%nb)
			return db.usage[i] <= tracks[j]
		})
		access = n - len(cells)
	}
	bins = s.bins[:0]
	for i := range db.f2fUse {
		if db.f2fUse[i] > db.f2fCap[i] {
			bins = append(bins, int32(i))
		}
	}
	s.cells, s.bins = cells, bins
	return cells, bins, access
}

// overScan is the overflow scan's reusable state, grown on the first
// negotiation that needs it: the gcell-layers and bump bins past
// capacity, the walled columns and their pin tracks (overflowed), and
// the victim scan's marks (overflowedNets).
type overScan struct {
	cells, bins, cols, tracks []int32
	bad, badF2F               []bool
}

// pinTracks counts the pins of res's routes in each of the gcell columns
// cols names: it sorts and deduplicates cols in place and returns them
// with tracks[j], column cols[j]'s count, in s. One pass over the pin
// nodes with a binary search each: a state with no wall past capacity
// never gets here, and one with a few needs no plane.
func (db *DB) pinTracks(res *Result, s *overScan, cols []int32) (_, tracks []int32) {
	slices.Sort(cols)
	cols = slices.Compact(cols)
	s.cols = cols
	s.tracks = slices.Grow(s.tracks[:0], len(cols))[:len(cols)]
	tracks = s.tracks
	clear(tracks)
	for id, r := range res.Routes {
		if r == nil {
			continue
		}
		o := res.Origin(id)
		for _, p := range r.PinNode {
			c := int32(db.Grid.Index(int(p.X+o.DX), int(p.Y+o.DY)))
			if j, ok := slices.BinarySearch(cols, c); ok {
				tracks[j]++
			}
		}
	}
	return cols, tracks
}

// bumpHistory raises history cost on the overflowed gcell-layers.
func (db *DB) bumpHistory(cells []int32) {
	hist, bins := db.history(), int32(db.Grid.Bins())
	for _, i := range cells {
		hist[i] += 2
		if db.stamping() {
			db.stampCol(int(i % bins))
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
