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
// open on a DB at a time.
type Txn struct {
	db *DB

	// Design size at Begin: ids at or above these are additions of this
	// transaction and are truncated away on rollback.
	baseInsts int
	baseNets  int

	// First-touch saves for pre-existing objects.
	savedSinks  map[int][]netlist.PinRef
	sinksOrder  []int
	savedMaster map[*netlist.Instance]*cell.Cell
	savedLoc    map[*netlist.Instance]geom.Point
	savedRoute  map[int]*route.NetRoute
	savedRC     map[int]*extract.NetRC
	routeOrder  []int
	// Adjacency undo: first-touch copies of the input rows of
	// pre-existing instances, and the pre-existing drivers that gained
	// a net (their rows lose the appended ids again on rollback).
	savedInputs map[int][]int32
	newDriven   []netlist.PinRef

	dirtyNets  *intSet // the DB's, emptied at Begin
	dirtyInsts *intSet
	topo       bool
	done       bool
}

// Begin opens a transaction over the current state. Free-space edits of
// a transaction that was abandoned without Commit or Rollback stay, as
// its design edits do.
func (db *DB) Begin() *Txn {
	db.freeUndo.Commit()
	db.dirtyNets.reset()
	db.dirtyInsts.reset()
	nInst, nNets := db.Design.Counts()
	return &Txn{
		db:          db,
		dirtyNets:   &db.dirtyNets,
		dirtyInsts:  &db.dirtyInsts,
		baseInsts:   nInst,
		baseNets:    nNets,
		savedSinks:  map[int][]netlist.PinRef{},
		savedMaster: map[*netlist.Instance]*cell.Cell{},
		savedLoc:    map[*netlist.Instance]geom.Point{},
		savedRoute:  map[int]*route.NetRoute{},
		savedRC:     map[int]*extract.NetRC{},
		savedInputs: map[int][]int32{},
	}
}

// DirtyNets returns the touched net ids in ascending order. Valid while
// the transaction is open — the incremental STA engine consumes it
// before the accept/reject decision.
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
	if inst.ID < t.baseInsts {
		if _, ok := t.savedMaster[inst]; !ok {
			t.savedMaster[inst] = old
		}
	}
	t.dirtyInsts.add(inst.ID)
}

// SetLoc moves an instance (ECO placement).
func (t *Txn) SetLoc(inst *netlist.Instance, p geom.Point) {
	if inst.ID < t.baseInsts {
		if _, ok := t.savedLoc[inst]; !ok {
			t.savedLoc[inst] = inst.Loc
		}
	}
	inst.Loc = p
	t.dirtyInsts.add(inst.ID)
}

// Alloc claims legal free space for a cell of width w centred near
// target and returns its lower-left corner; ok is false when nothing
// fits or the database tracks no free space.
func (t *Txn) Alloc(w float64, target geom.Point) (geom.Point, bool) {
	if t.db.Free == nil {
		return geom.Point{}, false
	}
	return t.db.Free.Alloc(&t.db.freeUndo, w, target)
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
	oldB := inst.Bounds()
	fs.Release(u, oldB)
	loc, ok := fs.Alloc(u, to.Width, inst.Center())
	if !ok {
		fs.Occupy(u, oldB)
		return fmt.Errorf("ddb: no legal space to upsize %s to %s", inst.Name, to.Name)
	}
	if err := t.Resize(inst, to); err != nil {
		fs.Release(u, geom.RectWH(loc, to.Width, to.Height))
		fs.Occupy(u, oldB)
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
		*row = append(*row, int32(n.ID))
		if driver.Inst == nil || driver.Inst.ID < t.baseInsts {
			t.newDriven = append(t.newDriven, driver)
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
	if instID >= t.baseInsts {
		return
	}
	if _, ok := t.savedInputs[instID]; !ok {
		t.savedInputs[instID] = append([]int32(nil), t.db.inputs[instID]...)
	}
}

func (t *Txn) saveSinks(n *netlist.Net) {
	if n.ID >= t.baseNets {
		return
	}
	if _, ok := t.savedSinks[n.ID]; ok {
		return
	}
	t.savedSinks[n.ID] = append([]netlist.PinRef(nil), n.Sinks...)
	t.sinksOrder = append(t.sinksOrder, n.ID)
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

func (t *Txn) saveRouteRC(id int) {
	if id >= t.baseNets {
		return
	}
	if _, ok := t.savedRoute[id]; ok {
		return
	}
	var old *route.NetRoute
	if id < len(t.db.Routes.Routes) {
		old = t.db.Routes.Routes[id]
	}
	var oldRC *extract.NetRC
	if id < len(t.db.Ex.Nets) {
		oldRC = t.db.Ex.Nets[id]
	}
	t.savedRoute[id] = old
	t.savedRC[id] = oldRC
	t.routeOrder = append(t.routeOrder, id)
}

// Reroute re-routes net n (releasing any existing route's usage first)
// and patches its RC tree in place — the incremental extraction step.
func (t *Txn) Reroute(n *netlist.Net) error {
	t.saveRouteRC(n.ID)
	if n.ID < len(t.db.Routes.Routes) {
		if old := t.db.Routes.Routes[n.ID]; old != nil {
			t.db.Grid.ReleaseNet(old)
		}
	}
	r, err := t.db.Grid.RouteNet(n)
	if err != nil {
		return err
	}
	t.db.Routes.SetRoute(n.ID, r)
	t.db.Ex.Replace(n.ID, extract.One(&t.db.exScratch, n, r, t.db.Grid, t.db.Corner))
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

// dropUndo closes the transaction and releases its undo state.
func (t *Txn) dropUndo() {
	t.done = true
	t.savedSinks, t.savedMaster, t.savedLoc = nil, nil, nil
	t.savedRoute, t.savedRC = nil, nil
	t.savedInputs, t.newDriven = nil, nil
}

// Rollback undoes every edit of the bundle in O(edits): restores saved
// routes (by the same ±1 usage increments the router applied), RC
// trees, sink lists, masters, locations, adjacency rows and free-space
// segments, and truncates appended instances and nets — rows included:
// the outer adjacency slices keep their capacity, so the next
// AddInstance appends without copying. It returns the surviving dirty
// view — the ids that existed before the transaction and were touched
// by it — which the caller feeds to the STA engine so its incremental
// state re-converges onto the restored design.
func (t *Txn) Rollback() (nets, insts []int, topo bool) {
	db := t.db
	d := db.Design

	// Appended nets: release their routes and drop their extraction.
	for id := t.baseNets; id < len(d.Nets); id++ {
		if id < len(db.Routes.Routes) {
			if r := db.Routes.Routes[id]; r != nil {
				db.Grid.ReleaseNet(r)
			}
		}
		if id < len(db.Ex.Nets) {
			db.Ex.Replace(id, nil)
		}
	}
	// Rerouted pre-existing nets: release the current route, restore
	// the saved one and its RC tree.
	for _, id := range t.routeOrder {
		var cur *route.NetRoute
		if id < len(db.Routes.Routes) {
			cur = db.Routes.Routes[id]
		}
		old := t.savedRoute[id]
		if cur != old {
			if cur != nil {
				db.Grid.ReleaseNet(cur)
			}
			if old != nil {
				db.Grid.CommitRoute(old)
			}
			db.Routes.SetRoute(id, old)
		}
		if id < len(db.Ex.Nets) && db.Ex.Nets[id] != t.savedRC[id] {
			db.Ex.Replace(id, t.savedRC[id])
		}
	}
	// Connectivity and placement.
	for _, id := range t.sinksOrder {
		d.Nets[id].Sinks = t.savedSinks[id]
	}
	for inst, m := range t.savedMaster {
		inst.Master = m
	}
	for inst, p := range t.savedLoc {
		inst.Loc = p
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
	for _, drv := range t.newDriven {
		row := db.drivenRow(drv)
		for n := len(*row); n > 0 && int((*row)[n-1]) >= t.baseNets; n-- {
			*row = (*row)[:n-1]
		}
	}
	for id, row := range t.savedInputs {
		db.inputs[id] = append(db.inputs[id][:0], row...)
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
