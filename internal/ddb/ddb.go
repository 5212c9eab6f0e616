// Package ddb is the incremental design database: it owns the live
// {netlist, placement, routes, extraction} tuple of a flow stage and
// the change journal through which every optimization edit and fault
// injection flows.
//
// The point of the package is the contract it enforces: after routing,
// nothing outside ddb mutates the netlist connectivity, the route
// table, or the extraction in place. Every mutation goes through a Txn
// — gate resize, ECO move, buffer insert, net reroute — which records
// exactly which nets and instances were touched (the dirty set), saves
// the first-touch undo state, and keeps the per-instance net adjacency
// current. Consumers get three things for free:
//
//   - incremental extraction: Txn.Reroute re-routes the one touched net
//     and re-builds its RC tree, rewriting both records where they lie;
//   - a dirty view (DirtyNets/DirtyInsts/TopoChanged) that seeds the
//     incremental STA engine's re-propagation frontier;
//   - O(edit) rollback: Txn.Rollback restores saved masters, locations,
//     sink lists, routes, RC trees, adjacency rows and free-space
//     segments and truncates appended instances and nets, instead of
//     re-deriving anything from the whole design.
//
// Edits rewrite records in place, so what a transaction saves on first
// touch is a copy, kept in a journal whose buffers the DB reuses from
// one transaction to the next (txn.go). Rollback is bit-exact for
// everything timing reads: routes are undone by the same ±1 usage
// increments the router applied, and a restored route or RC tree is the
// journal's copy of what the pre-edit routing and extraction produced,
// written back into the same record. Only the
// extraction's running capacitance totals may drift in the last float
// bits (they are maintained by += / -=); no table-visible metric reads
// them — power sums the typical-corner capacitances from scratch.
package ddb

import (
	"fmt"
	"slices"

	"macro3d/internal/extract"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/place"
	"macro3d/internal/route"
	"macro3d/internal/slab"
	"macro3d/internal/tech"
)

// DB bundles the stage state and the derived adjacency.
type DB struct {
	Design *netlist.Design
	Grid   *route.DB
	Routes *route.Result
	Ex     *extract.Design
	Corner tech.CornerScale

	// Obs, when non-nil, locates the run's metric registry;
	// transactions publish commit/rollback and dirty-set statistics
	// there. nil disables instrumentation. Prefer AttachObs, which also
	// pre-registers the ddb metric family so exports show it at zero.
	Obs *obs.Span

	// Free, when non-nil, is the placement's free-space map. ECO edits
	// claim and return row space through the transaction (Txn.Alloc,
	// Txn.Upsize), which journals the touched segments so a rollback
	// puts them back. nil makes edits electrical-only. Whoever sets it
	// builds it from the current placement (the optimizer does, on
	// entry): Txn.SetLoc and edits outside transactions do not update it.
	Free *place.FreeSpace

	// drivenI[i] lists the nets driven by instance i in net-ID order
	// (clock nets included — callers filter); drivenP is the same for
	// port drivers. inputs[i] lists the non-clock nets instance i sinks
	// on, each once, also in net-ID order. Transactions keep all three
	// equal to what rebuildAdjacency would derive.
	drivenI [][]int32
	drivenP [][]int32
	inputs  [][]int32
	// rows backs every row a transaction grows (grow), so an edit
	// allocates no row of its own.
	rows slab.Slab[int32]

	// State of the open transaction that is reused from one to the
	// next: the journals, the dirty sets, and the counts of its Reroute
	// calls, of those that changed no segment (Txn.Reroutes), and of
	// those that kept a settled route unrouted (Txn.Skipped).
	freeUndo                     place.Undo
	undo                         journal
	dirtyNets, dirtyInsts        netlist.IDSet
	reroutes, unchanged, skipped int

	// exScratch is the extraction working state behind Txn.Reroute;
	// transactions on one DB run one at a time.
	exScratch extract.Scratch
}

// New builds the database over an already routed and extracted design.
// Its tables keyed by instance or net ID — the adjacency's outer
// slices, the dirty sets and the journal's — are allocated at the
// design's ID capacity (netlist.Design.IDCap), so the instances and
// nets transactions append up to it reallocate none of them.
func New(d *netlist.Design, grid *route.DB, routes *route.Result, ex *extract.Design, corner tech.CornerScale) *DB {
	db := &DB{Design: d, Grid: grid, Routes: routes, Ex: ex, Corner: corner}
	db.rebuildAdjacency()
	nInst, nNets := d.IDCap()
	db.dirtyNets, db.dirtyInsts = netlist.NewIDSet(nNets), netlist.NewIDSet(nInst)
	j := &db.undo
	j.instSeen, j.inputSeen = netlist.NewIDSet(nInst), netlist.NewIDSet(nInst)
	j.sinkSeen, j.netSeen = netlist.NewIDSet(nNets), netlist.NewIDSet(nNets)
	return db
}

// AttachObs wires the database to the run's observability span and
// pre-registers the transaction metric family, so a run that commits
// no transactions still exports the ddb_ series at zero.
func (db *DB) AttachObs(sp *obs.Span) {
	db.Obs = sp
	if reg := sp.Reg(); reg != nil {
		reg.Counter("ddb_txn_commits_total", "Committed design-database transactions.")
		reg.Counter("ddb_txn_rollbacks_total", "Rolled-back design-database transactions.")
		reg.Counter("ddb_txn_dirty_nets_total", "Net touches across committed transactions.")
		reg.Counter("ddb_txn_dirty_insts_total", "Instance touches across committed transactions.")
		reg.Counter("ddb_incremental_reroutes_total",
			"Per-net incremental reroute+re-extract operations (Txn.Reroute).")
	}
}

// rebuildAdjacency derives the three adjacency tables from the design
// as a counting build: size every row, carve the rows as exact-size
// views of one flat array, fill. Nets are visited in id order, so rows
// are born sorted and a net that sinks on an instance through several
// pins is deduplicated by looking at the row's last entry. A row is
// full (len == cap), so a transaction growing it copies it out instead
// of running into the next. The tables by instance have room for the
// design's ID capacity, which AddInstance appends into.
func (db *DB) rebuildAdjacency() {
	d := db.Design
	instCap, _ := d.IDCap()
	db.drivenI = make([][]int32, len(d.Instances), instCap)
	db.drivenP = make([][]int32, len(d.Ports))
	db.inputs = make([][]int32, len(d.Instances), instCap)

	degI := make([]int32, len(d.Instances))
	degP := make([]int32, len(d.Ports))
	degIn := make([]int32, len(d.Instances))
	seen := make([]int32, len(d.Instances)) // id+1 of the last net counted into the instance's inputs
	total := 0
	for _, n := range d.Nets {
		switch {
		case n.Driver.Port != nil:
			degP[n.Driver.Port.ID]++
			total++
		case n.Driver.Inst != nil:
			degI[n.Driver.Inst.ID]++
			total++
		}
		if n.Clock {
			continue
		}
		for _, s := range n.Sinks {
			if s.Inst != nil && seen[s.Inst.ID] != int32(n.ID)+1 {
				seen[s.Inst.ID] = int32(n.ID) + 1
				degIn[s.Inst.ID]++
				total++
			}
		}
	}
	flat := make([]int32, total)
	carve := func(rows [][]int32, deg []int32) {
		for i, k := range deg {
			if k > 0 {
				rows[i], flat = flat[:0:k], flat[k:]
			}
		}
	}
	carve(db.drivenI, degI)
	carve(db.drivenP, degP)
	carve(db.inputs, degIn)

	for _, n := range d.Nets {
		id := int32(n.ID)
		if row := db.drivenRow(n.Driver); row != nil {
			*row = append(*row, id)
		}
		if n.Clock {
			continue
		}
		for _, s := range n.Sinks {
			if s.Inst == nil {
				continue
			}
			if row := db.inputs[s.Inst.ID]; len(row) == 0 || row[len(row)-1] != id {
				db.inputs[s.Inst.ID] = append(row, id)
			}
		}
	}
}

func (db *DB) addInput(instID int, netID int32) {
	row := db.inputs[instID]
	if i, found := slices.BinarySearch(row, netID); !found {
		db.inputs[instID] = slices.Insert(db.grow(row), i, netID)
	}
}

// grow returns row with room for one more id: row itself while it has
// spare capacity, else a copy in a span of the DB's row slab twice its
// length. The outgrown span is abandoned where it lies; a rollback
// copies the journaled row back into whichever span the row holds.
func (db *DB) grow(row []int32) []int32 {
	if len(row) < cap(row) {
		return row
	}
	return append(db.rows.Span(max(2*len(row), 2))[:0], row...)
}

func (db *DB) removeInput(instID int, netID int32) {
	if i, found := slices.BinarySearch(db.inputs[instID], netID); found {
		db.inputs[instID] = slices.Delete(db.inputs[instID], i, i+1)
	}
}

// CheckAdjacency compares the transaction-maintained adjacency with a
// from-scratch derivation over the current design, row for row.
func (db *DB) CheckAdjacency() error {
	fresh := &DB{Design: db.Design}
	fresh.rebuildAdjacency()
	for _, tab := range []struct {
		name       string
		have, want [][]int32
	}{
		{"driven-by-instance", db.drivenI, fresh.drivenI},
		{"driven-by-port", db.drivenP, fresh.drivenP},
		{"inputs", db.inputs, fresh.inputs},
	} {
		if len(tab.have) != len(tab.want) {
			return fmt.Errorf("ddb: %s adjacency has %d rows, scratch %d", tab.name, len(tab.have), len(tab.want))
		}
		for i := range tab.want {
			if !slices.Equal(tab.have[i], tab.want[i]) {
				return fmt.Errorf("ddb: %s adjacency row %d is %v, scratch %v", tab.name, i, tab.have[i], tab.want[i])
			}
		}
	}
	return nil
}

// Driven returns the ids of the nets driven by an instance, lowest id
// first (clock nets included).
func (db *DB) Driven(inst *netlist.Instance) []int32 { return db.drivenI[inst.ID] }

// DrivenBy returns the ids of the nets whose driver matches the given
// connection point (an instance output or a design port).
func (db *DB) DrivenBy(ref netlist.PinRef) []int32 {
	if row := db.drivenRow(ref); row != nil {
		return *row
	}
	return nil
}

// drivenRow locates the adjacency row of a driver; nil for an empty
// reference.
func (db *DB) drivenRow(ref netlist.PinRef) *[]int32 {
	switch {
	case ref.Port != nil:
		return &db.drivenP[ref.Port.ID]
	case ref.Inst != nil:
		return &db.drivenI[ref.Inst.ID]
	}
	return nil
}

// InputNets returns the ids of the non-clock nets the instance sinks
// on, each once, lowest id first.
func (db *DB) InputNets(inst *netlist.Instance) []int32 { return db.inputs[inst.ID] }

// sinksOn reports whether inst still appears among n's sinks.
func sinksOn(n *netlist.Net, inst *netlist.Instance) bool {
	for _, s := range n.Sinks {
		if s.Inst == inst {
			return true
		}
	}
	return false
}
