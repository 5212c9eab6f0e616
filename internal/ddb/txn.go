package ddb

import (
	"fmt"

	"macro3d/internal/cell"
	"macro3d/internal/extract"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/route"
)

// Txn is one journaled edit bundle. All mutations of the design tuple
// go through its methods; each records the touched net/instance ids and
// saves first-touch undo state, so the bundle can be either committed
// (undo state dropped) or rolled back in O(edits). One transaction is
// open on a DB at a time: its undo state is the DB's journal, whose
// buffers the next transaction reuses.
type Txn struct {
	db *DB

	// Design size at Begin: ids at or above these are additions of this
	// transaction and are truncated away on rollback.
	baseInsts int
	baseNets  int

	dirtyNets  *intSet // the DB's, emptied at Begin
	dirtyInsts *intSet
	topo       bool
	done       bool
}

// journal is the undo state of the open transaction: first-touch copies
// of what the edits then rewrite in place — masters and locations, sink
// lists, adjacency rows, route and RC records. The copies go into flat
// buffers that are emptied, not freed, when the transaction ends, the
// way place.Undo keeps free lists; so a transaction at steady state
// allocates nothing for its undo.
type journal struct {
	insts    []instSave
	instSeen intSet

	sinks    []sinkSave
	sinkSeen intSet
	sinkBuf  []netlist.PinRef

	// Adjacency undo: first-touch copies of the input rows of
	// pre-existing instances, and the pre-existing drivers that gained
	// a net (their rows lose the appended ids again on rollback).
	inputs    []rowSave
	inputSeen intSet
	inputBuf  []int32
	newDriven []netlist.PinRef

	nets    []netSave
	netSeen intSet
	nodeBuf []route.Node
	segBuf  []route.Seg
	elmBuf  []float64
}

type instSave struct {
	inst   *netlist.Instance
	master *cell.Cell
	loc    geom.Point
}

// sinkSave is a net's sink list before its first edit: the slice the
// net held — edits shuffle its backing array in place or leave it for
// another, so it is still the net's to take back — and a copy of its
// contents, sinkBuf[end of the previous save:end].
type sinkSave struct {
	net  *netlist.Net
	held []netlist.PinRef
	end  int
}

type rowSave struct {
	inst int
	end  int // inputBuf[end of the previous save:end] is the row
}

// netSave is a net's route and RC records before their first edit: the
// records the tables held (nil: none) and copies of their contents,
// with the pin nodes, segments and Elmore delays in the journal's
// buffers up to the given ends.
type netSave struct {
	id       int
	route    *route.NetRoute
	rc       *extract.NetRC
	routeWas route.NetRoute
	rcWas    extract.NetRC
	nodeEnd  int
	segEnd   int
	elmEnd   int
}

func (j *journal) reset() {
	j.insts, j.sinks, j.inputs, j.nets = j.insts[:0], j.sinks[:0], j.inputs[:0], j.nets[:0]
	j.sinkBuf, j.inputBuf, j.newDriven = j.sinkBuf[:0], j.inputBuf[:0], j.newDriven[:0]
	j.nodeBuf, j.segBuf, j.elmBuf = j.nodeBuf[:0], j.segBuf[:0], j.elmBuf[:0]
	j.instSeen.reset()
	j.sinkSeen.reset()
	j.inputSeen.reset()
	j.netSeen.reset()
}

// Begin opens a transaction over the current state. Free-space edits of
// a transaction that was abandoned without Commit or Rollback stay, as
// its design edits do.
func (db *DB) Begin() *Txn {
	db.freeUndo.Commit()
	db.undo.reset()
	db.dirtyNets.reset()
	db.dirtyInsts.reset()
	nInst, nNets := db.Design.Counts()
	return &Txn{
		db:         db,
		dirtyNets:  &db.dirtyNets,
		dirtyInsts: &db.dirtyInsts,
		baseInsts:  nInst,
		baseNets:   nNets,
	}
}

// DirtyNets returns the touched net ids in ascending order. Valid while
// the transaction is open — the incremental STA engine consumes it
// before the accept/reject decision — and, like every dirty view
// (DirtyInsts, Rollback's results), only until the next one of the same
// kind is asked for: the views share a buffer per kind.
func (t *Txn) DirtyNets() []int { return t.dirtyNets.sortedBelow(int(^uint(0) >> 1)) }

// DirtyInsts returns the touched instance ids in ascending order.
func (t *Txn) DirtyInsts() []int { return t.dirtyInsts.sortedBelow(int(^uint(0) >> 1)) }

// TopoChanged reports whether connectivity changed (instances or nets
// added, sink membership edited) — the signal that levelization and
// adjacency caches must be rebuilt.
func (t *Txn) TopoChanged() bool { return t.topo }

// Resize swaps an instance's master through the netlist's family
// check. The old master is saved on first touch.
func (t *Txn) Resize(inst *netlist.Instance, to *cell.Cell) error {
	old := inst.Master
	if err := t.db.Design.Resize(inst, to); err != nil {
		return err
	}
	t.noteMaster(inst, old)
	return nil
}

// SetMaster swaps a master unchecked — the fault-injection path, which
// deliberately installs degenerate masters the family check would
// reject.
func (t *Txn) SetMaster(inst *netlist.Instance, to *cell.Cell) {
	old := inst.Master
	inst.Master = to
	t.noteMaster(inst, old)
}

func (t *Txn) noteMaster(inst *netlist.Instance, old *cell.Cell) {
	t.saveInst(inst, old)
	t.dirtyInsts.add(inst.ID)
}

// saveInst journals a pre-existing instance's master (as it was before
// the edit under way) and location on the first edit of either; both
// are still what they were at Begin then.
func (t *Txn) saveInst(inst *netlist.Instance, master *cell.Cell) {
	j := &t.db.undo
	if inst.ID >= t.baseInsts || j.instSeen.has(inst.ID) {
		return
	}
	j.instSeen.add(inst.ID)
	j.insts = append(j.insts, instSave{inst, master, inst.Loc})
}

// SetLoc moves an instance (ECO placement).
func (t *Txn) SetLoc(inst *netlist.Instance, p geom.Point) {
	t.saveInst(inst, inst.Master)
	inst.Loc = p
	t.dirtyInsts.add(inst.ID)
}

// Alloc claims legal free space on a die for a cell of width w centred
// near target and returns its lower-left corner; ok is false when
// nothing fits or the database tracks no free space.
func (t *Txn) Alloc(die netlist.Die, w float64, target geom.Point) (geom.Point, bool) {
	if t.db.Free == nil {
		return geom.Point{}, false
	}
	return t.db.Free.Alloc(&t.db.freeUndo, die, w, target)
}

// Upsize swaps in a master of the instance's family and, when the
// footprint grows and free space is tracked, relocates the cell into
// legal space near its old centre. When no space is left it returns an
// error and the cell keeps its master, location and footprint.
func (t *Txn) Upsize(inst *netlist.Instance, to *cell.Cell) error {
	fs, u := t.db.Free, &t.db.freeUndo
	if fs == nil || to.Width <= inst.Master.Width+1e-9 {
		return t.Resize(inst, to)
	}
	oldB, die := inst.Bounds(), inst.Die
	fs.Release(u, die, oldB)
	loc, ok := fs.Alloc(u, die, to.Width, inst.Center())
	if !ok {
		fs.Occupy(u, die, oldB)
		return fmt.Errorf("ddb: no legal space to upsize %s to %s", inst.Name, to.Name)
	}
	if err := t.Resize(inst, to); err != nil {
		fs.Release(u, die, geom.RectWH(loc, to.Width, to.Height))
		fs.Occupy(u, die, oldB)
		return err
	}
	t.SetLoc(inst, loc)
	return nil
}

// AddInstance appends a new instance (buffer insertion). Rollback
// removes it via truncation.
func (t *Txn) AddInstance(name string, master *cell.Cell) *netlist.Instance {
	inst := t.db.Design.AddInstance(name, master)
	t.db.drivenI = append(t.db.drivenI, nil)
	t.db.inputs = append(t.db.inputs, nil)
	t.dirtyInsts.add(inst.ID)
	t.topo = true
	return inst
}

// AddNet appends a new net and indexes its driver/sink adjacency.
func (t *Txn) AddNet(name string, driver netlist.PinRef, sinks ...netlist.PinRef) *netlist.Net {
	n := t.db.Design.AddNet(name, driver, sinks...)
	if row := t.db.drivenRow(driver); row != nil {
		*row = append(t.db.grow(*row), int32(n.ID))
		if driver.Inst == nil || driver.Inst.ID < t.baseInsts {
			t.db.undo.newDriven = append(t.db.undo.newDriven, driver)
		}
	}
	if !n.Clock {
		for _, s := range n.Sinks {
			if s.Inst != nil {
				t.addInput(s.Inst, n)
			}
		}
	}
	t.dirtyNets.add(n.ID)
	t.topo = true
	return n
}

// addInput and removeInput edit an instance's input row, saving it on
// first touch, and mark the instance dirty.
func (t *Txn) addInput(inst *netlist.Instance, n *netlist.Net) {
	t.saveInputs(inst.ID)
	t.db.addInput(inst.ID, int32(n.ID))
	t.dirtyInsts.add(inst.ID)
}

// removeInput drops n from inst's input row unless another pin of inst
// still sinks on it.
func (t *Txn) removeInput(inst *netlist.Instance, n *netlist.Net) {
	if !sinksOn(n, inst) {
		t.saveInputs(inst.ID)
		t.db.removeInput(inst.ID, int32(n.ID))
	}
	t.dirtyInsts.add(inst.ID)
}

func (t *Txn) saveInputs(instID int) {
	j := &t.db.undo
	if instID >= t.baseInsts || j.inputSeen.has(instID) {
		return
	}
	j.inputSeen.add(instID)
	j.inputBuf = append(j.inputBuf, t.db.inputs[instID]...)
	j.inputs = append(j.inputs, rowSave{instID, len(j.inputBuf)})
}

func (t *Txn) saveSinks(n *netlist.Net) {
	j := &t.db.undo
	if n.ID >= t.baseNets || j.sinkSeen.has(n.ID) {
		return
	}
	j.sinkSeen.add(n.ID)
	j.sinkBuf = append(j.sinkBuf, n.Sinks...)
	j.sinks = append(j.sinks, sinkSave{n, n.Sinks, len(j.sinkBuf)})
}

// RemoveSinkAt detaches and returns the sink at index si of net n.
func (t *Txn) RemoveSinkAt(n *netlist.Net, si int) netlist.PinRef {
	t.saveSinks(n)
	s := n.Sinks[si]
	n.Sinks = append(n.Sinks[:si], n.Sinks[si+1:]...)
	if s.Inst != nil && !n.Clock {
		t.removeInput(s.Inst, n)
	}
	t.dirtyNets.add(n.ID)
	t.topo = true
	return s
}

// AppendSink attaches a sink to net n.
func (t *Txn) AppendSink(n *netlist.Net, s netlist.PinRef) {
	t.saveSinks(n)
	n.Sinks = append(n.Sinks, s)
	if s.Inst != nil && !n.Clock {
		t.addInput(s.Inst, n)
	}
	t.dirtyNets.add(n.ID)
	t.topo = true
}

// ReplaceSinks swaps net n's sink list wholesale (fanout decoupling:
// the driver keeps only the shield buffer inputs).
func (t *Txn) ReplaceSinks(n *netlist.Net, sinks []netlist.PinRef) {
	t.saveSinks(n)
	old := n.Sinks
	n.Sinks = sinks
	if !n.Clock {
		for _, s := range old {
			if s.Inst != nil {
				t.removeInput(s.Inst, n)
			}
		}
		for _, s := range n.Sinks {
			if s.Inst != nil {
				t.addInput(s.Inst, n)
			}
		}
	}
	t.dirtyNets.add(n.ID)
	t.topo = true
}

// saveRouteRC journals a pre-existing net's route and RC records before
// their first edit.
func (t *Txn) saveRouteRC(id int) {
	j := &t.db.undo
	if id >= t.baseNets || j.netSeen.has(id) {
		return
	}
	j.netSeen.add(id)
	sv := netSave{id: id}
	if id < len(t.db.Routes.Routes) {
		if r := t.db.Routes.Routes[id]; r != nil {
			sv.route, sv.routeWas = r, *r
			j.nodeBuf = append(j.nodeBuf, r.PinNode...)
			j.segBuf = append(j.segBuf, r.Segments...)
		}
	}
	if id < len(t.db.Ex.Nets) {
		if rc := t.db.Ex.Nets[id]; rc != nil {
			sv.rc, sv.rcWas = rc, *rc
			j.elmBuf = append(j.elmBuf, rc.ElmoreTo...)
		}
	}
	sv.nodeEnd, sv.segEnd, sv.elmEnd = len(j.nodeBuf), len(j.segBuf), len(j.elmBuf)
	j.nets = append(j.nets, sv)
}

// Reroute re-routes net n (releasing any existing route's usage first)
// and re-extracts it, rewriting the net's route and RC records where
// they lie — the incremental extraction step. What the records held is
// in the journal by then.
func (t *Txn) Reroute(n *netlist.Net) error {
	t.saveRouteRC(n.ID)
	t.db.Grid.ReleaseNet(t.db.Routes, n.ID)
	r, err := t.db.Grid.RouteNet(t.db.Routes, n)
	if err != nil {
		return err
	}
	t.db.Ex.Reextract(&t.db.exScratch, n, r, t.db.Grid, t.db.Corner)
	t.dirtyNets.add(n.ID)
	t.db.Obs.Reg().Counter("ddb_incremental_reroutes_total",
		"Per-net incremental reroute+re-extract operations (Txn.Reroute).").Inc()
	return nil
}

// DropRoute discards a net's route without re-routing — the
// dangling-net fault injection. Usage is deliberately left unreleased,
// mirroring the corruption this fault models (a route table entry lost
// after the router accounted for it).
func (t *Txn) DropRoute(n *netlist.Net) {
	t.saveRouteRC(n.ID)
	if n.ID < len(t.db.Routes.Routes) {
		t.db.Routes.SetRoute(n.ID, nil)
	}
	t.dirtyNets.add(n.ID)
}

// Commit finalizes the bundle: undo state is dropped, the edits stay.
func (t *Txn) Commit() {
	t.db.freeUndo.Commit()
	t.dropUndo()
	if reg := t.db.Obs.Reg(); reg != nil {
		reg.Counter("ddb_txn_commits_total",
			"Committed design-database transactions.").Inc()
		reg.Counter("ddb_txn_dirty_nets_total",
			"Net touches across committed transactions.").Add(uint64(len(t.dirtyNets.ids)))
		reg.Counter("ddb_txn_dirty_insts_total",
			"Instance touches across committed transactions.").Add(uint64(len(t.dirtyInsts.ids)))
	}
}

// dropUndo closes the transaction and empties the journal.
func (t *Txn) dropUndo() {
	t.done = true
	t.db.undo.reset()
}

// Rollback undoes every edit of the bundle in O(edits): restores saved
// routes (by the same ±1 usage increments the router applied), RC
// trees, sink lists, masters, locations, adjacency rows and free-space
// segments from their journal copies, and truncates appended instances
// and nets — rows included: the outer adjacency slices keep their
// capacity, so the next AddInstance appends without copying. It returns
// the surviving dirty view — the ids that existed before the transaction
// and were touched by it — which the caller feeds to the STA engine so
// its incremental state re-converges onto the restored design.
func (t *Txn) Rollback() (nets, insts []int, topo bool) {
	db, j := t.db, &t.db.undo
	d := db.Design

	// Appended nets: release their routes and drop their extraction.
	// Their records stay behind in the ECO slabs.
	for id := t.baseNets; id < len(d.Nets); id++ {
		db.Grid.ReleaseNet(db.Routes, id)
		if id < len(db.Ex.Nets) {
			db.Ex.Restore(id, nil, extract.NetRC{})
		}
	}
	// Journaled pre-existing nets: release the current route, write the
	// saved route and RC tree back into their records, commit the route.
	nodeLo, segLo, elmLo := 0, 0, 0
	for i := range j.nets {
		sv := &j.nets[i]
		if sv.id < len(db.Routes.Routes) {
			db.Grid.ReleaseNet(db.Routes, sv.id)
			was := sv.routeWas
			was.PinNode, was.Segments = j.nodeBuf[nodeLo:sv.nodeEnd], j.segBuf[segLo:sv.segEnd]
			db.Routes.Restore(sv.id, sv.route, was)
			db.Grid.CommitRoute(db.Routes, sv.id)
		}
		if sv.id < len(db.Ex.Nets) {
			was := sv.rcWas
			was.ElmoreTo = j.elmBuf[elmLo:sv.elmEnd]
			db.Ex.Restore(sv.id, sv.rc, was)
		}
		nodeLo, segLo, elmLo = sv.nodeEnd, sv.segEnd, sv.elmEnd
	}
	// Connectivity and placement.
	lo := 0
	for _, sv := range j.sinks {
		sv.net.Sinks = sv.held
		copy(sv.net.Sinks, j.sinkBuf[lo:sv.end])
		lo = sv.end
	}
	for _, sv := range j.insts {
		sv.inst.Master, sv.inst.Loc = sv.master, sv.loc
	}
	// Truncate the appended tail everywhere.
	if len(db.Routes.Routes) > t.baseNets {
		db.Routes.Routes = db.Routes.Routes[:t.baseNets]
	}
	if len(db.Ex.Nets) > t.baseNets {
		db.Ex.Nets = db.Ex.Nets[:t.baseNets]
	}
	d.TruncateTo(t.baseInsts, t.baseNets)
	// Adjacency: appended net ids are the tail of a surviving driver's
	// row; input rows go back to their first-touch copies.
	for _, drv := range j.newDriven {
		row := db.drivenRow(drv)
		for n := len(*row); n > 0 && int((*row)[n-1]) >= t.baseNets; n-- {
			*row = (*row)[:n-1]
		}
	}
	lo = 0
	for _, sv := range j.inputs {
		db.inputs[sv.inst] = append(db.inputs[sv.inst][:0], j.inputBuf[lo:sv.end]...)
		lo = sv.end
	}
	db.drivenI = db.drivenI[:t.baseInsts]
	db.inputs = db.inputs[:t.baseInsts]
	db.freeUndo.Rollback()

	nets = t.dirtyNets.sortedBelow(t.baseNets)
	insts = t.dirtyInsts.sortedBelow(t.baseInsts)
	topo = t.topo
	t.dropUndo()
	if reg := db.Obs.Reg(); reg != nil {
		reg.Counter("ddb_txn_rollbacks_total",
			"Rolled-back design-database transactions.").Inc()
	}
	return nets, insts, topo
}
