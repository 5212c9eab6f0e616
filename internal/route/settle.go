package route

import (
	"fmt"
	"math"
	"slices"

	"macro3d/internal/netlist"
)

// --- the settled-net rule (DESIGN.md §19) ---
//
// A pattern route is a function of its net's pin nodes, which fix the
// MST edges and the walls, and of the costs lCost reads inside the pins'
// bounding box: congestionCost of every gcell-layer a candidate L runs
// through, and viaStackCost of the columns its stacks stand in. Those
// costs move only on
//   - a usage change at or past congestionCost's fill knee (below it a
//     gcell-layer costs its history alone),
//   - a history bump,
//   - an F2F use change at or past its bump capacity (below it a
//     crossing costs the same).
// The DB stamps the gcell column of each such change with the current
// epoch, and each net whose route it computed pattern-first and
// committed with the epoch it committed at. A net whose pin nodes are
// what they were, and whose bounding box holds no column stamped after
// it, would be routed — released first — back into the route it has:
// every cost its candidates read is the one its search read. A net the
// maze routed, a route the DB did not compute (a restored or placed
// record, one committed by CommitRoute) and a DB state installed
// wholesale (SetDynState, a RebuildUsage that changed it) are never
// settled.

// settle is the rule's state. The net table stays nil until RouteDesign
// starts the stamps, and the column table until a change is first
// stamped: a DB that only places tile records, stitches an array or
// restores a checkpoint keeps neither, and none of its nets settles; a
// parent design whose stitch routes move no cost keeps no column table.
type settle struct {
	col   []uint32 // by gcell column: the epoch of the last cost change; nil: none yet
	net   []uint32 // by net ID: the epoch the net's route was committed at; 0 unsettled
	epoch uint32   // the epoch a change now is stamped with; ≥ 1

	rebuilt []int32 // RebuildUsage's copy of the usage it replaces
}

// startStamps allocates the net table for nets net IDs, every net
// unsettled, with room for netCap (netlist.Design.IDCap: the nets an
// editing run appends then stamp in place), and clears any column
// stamps.
func (db *DB) startStamps(nets, netCap int) {
	s := &db.st
	s.net = make([]uint32, nets, netCap)
	clear(s.col)
	s.epoch = 1
}

// stamping reports whether the stamps are started; CheckSettled and
// RebuildUsage hold them off while they undo their own changes.
func (db *DB) stamping() bool { return db.st.net != nil }

// stampCol stamps gcell column col with the current epoch.
func (db *DB) stampCol(col int) {
	s := &db.st
	if s.col == nil {
		s.col = make([]uint32, db.Grid.Bins())
	}
	s.col[col] = s.epoch
}

// fill is a gcell-layer's fill with one more track used, the ratio
// congestionCost prices past fillKnee.
func fill(u, c int32) float64 { return (float64(u) + 1) / max(float64(c), 1) }

// fillKnee is the fill up to which a gcell-layer costs its history
// alone.
const fillKnee = 0.8

// stampUse stamps column col when gcell-layer i's usage change from was
// to now moves its cost: unless both lie below the knee, that is, unless
// the larger does (fill rises with usage).
func (db *DB) stampUse(i, col int, was, now int32) {
	if fill(max(was, now), db.cap[i]) > fillKnee {
		db.stampCol(col)
	}
}

// stampF2F stamps column col when its bump use change from was to now
// moves a crossing's cost: unless both leave a bump free.
func (db *DB) stampF2F(col int, was, now int32) {
	if max(was, now)+1 > db.f2fCap[col] {
		db.stampCol(col)
	}
}

// settleNet records that net id's route was just committed; pattern
// says whether the DB computed it pattern-first, every connection a
// pattern L. Only such a route is stamped; any other leaves the net
// unsettled.
func (db *DB) settleNet(id int, pattern bool) {
	s := &db.st
	if !db.stamping() {
		return
	}
	for len(s.net) <= id {
		s.net = append(s.net, 0)
	}
	if !pattern {
		s.net[id] = 0
		return
	}
	s.net[id] = s.epoch
	if s.epoch++; s.epoch == 0 { // wrapped: no stamp can be told apart
		db.resetStamps()
	}
}

// unsettle drops net id's stamp: its route is no longer one the DB
// computed against the state its stamp names.
func (db *DB) unsettle(id int) {
	if id < len(db.st.net) {
		db.st.net[id] = 0
	}
}

// resetStamps unsettles every net, after a change the stamps did not
// follow.
func (db *DB) resetStamps() {
	s := &db.st
	clear(s.col)
	clear(s.net)
	s.epoch = 1
}

// Settled reports whether routing net n, released, would return the
// route it holds in res (the settled-net rule above): its stamp is
// current, its record is its own, every pin node is the one it was
// routed from, and no column of the pins' bounding box changed a cost
// since. It reads the DB and res only.
func (db *DB) Settled(res *Result, n *netlist.Net) bool {
	s := &db.st
	if n.ID >= len(s.net) || s.net[n.ID] == 0 || n.ID >= len(res.Routes) {
		return false
	}
	r := res.Routes[n.ID]
	if r == nil || res.Origin(n.ID).Placed || len(r.PinNode) != n.NumPins() {
		return false
	}
	x0, y0, x1, y1 := math.MaxInt, math.MaxInt, -1, -1
	for i, was := range r.PinNode {
		nd, err := db.PinNode(n.PinAt(i))
		if err != nil || nd != was {
			return false
		}
		x0, x1 = min(x0, int(nd.X)), max(x1, int(nd.X))
		y0, y1 = min(y0, int(nd.Y)), max(y1, int(nd.Y))
	}
	g, nx := s.net[n.ID], db.Grid.NX
	for y := y0; y <= y1 && s.col != nil; y++ {
		for _, c := range s.col[y*nx+x0 : y*nx+x1+1] {
			if c > g {
				return false
			}
		}
	}
	return true
}

// CheckSettled holds the rule to the router for one net: when Settled
// says net n keeps its route, the route is released, the net routed as
// RouteNet would route it, and the route committed again, all with
// stamping off — usage, stamps and record end as they were — and the
// search must have returned the kept segments. A net that is not
// settled is not routed. Used by the optimizer's self-check.
func (db *DB) CheckSettled(res *Result, n *netlist.Net) error {
	if !db.Settled(res, n) {
		return nil
	}
	r := res.Routes[n.ID]
	net := db.st.net
	db.st.net = nil
	defer func() { db.st.net = net }()
	db.addSegs(r.Segments, Origin{}, -1)
	defer db.addSegs(r.Segments, Origin{}, 1)
	s := db.scratch()
	s.edges = slices.Grow(s.edges[:0], len(r.PinNode))
	t := netTask{net: n, route: r, edges: s.edges} // prep rewrites the pin nodes it just matched
	if err := db.prepTask(&t, s); err != nil {
		return err
	}
	segs, pattern, err := db.routeTask(&t, false, s)
	if err != nil {
		return err
	}
	if !pattern || !slices.Equal(segs, r.Segments) {
		return fmt.Errorf("route: net %s is settled, but routing it returns %d segments (pattern %v), not the %d it keeps",
			n.Name, len(segs), pattern, len(r.Segments))
	}
	return nil
}
