package ddb_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"macro3d/internal/ddb"
	"macro3d/internal/extract"
	"macro3d/internal/flows"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/sta"
)

// TestIncrementalEquivalence is the database's equivalence property:
// an edited design equals one rebuilt from scratch. Each subtest takes
// one flow's signed-off state on one tile and makes random edit bundles
// through ddb.Txn — a resize within the master's family, a cell moved
// and its nets rerouted, a buffer inserted, a sink handed to a new net
// of its driver — and commits or rolls each one back. After each
// outcome, and before a rollback too (a commit keeps the edited state):
//
//   - the transaction's dirty views name exactly the nets and instances
//     the bundle touched (after a rollback, those that survive it);
//   - every net's RC tree equals a from-scratch extract.Extract within
//     1e-9;
//   - the route DB's wire and F2F usage equal a RebuildUsage of the
//     routes exactly, and the adjacency rows a rebuild's
//     (CheckAdjacency);
//   - an sta.Engine invalidated only from the dirty views reports
//     exactly what a fresh sta.Analyze reports.
//
// Four of the five flows end on two dies, so their routes carry F2F
// bump usage that the edits move. The tiles are the tiny, small and
// large ones (the large dropped under -short, both larger ones under
// -race, where the tiny tile's five parallel runs already share the
// one template). The flow-level claim — each flow's optimizer held to
// a from-scratch recompute at every iteration — is the determinism
// harness's checks axis (flows.TestDeterminism,
// flows.TestWorkerEquivalence); this test runs no flow under Check.
func TestIncrementalEquivalence(t *testing.T) {
	type tile struct {
		name string
		pc   piton.Config
	}
	tiles := []tile{{"tiny", piton.Tiny()}}
	if !raceEnabled {
		tiles = append(tiles, tile{"small", piton.SmallCache()})
		if !testing.Short() {
			tiles = append(tiles, tile{"large", piton.LargeCache()})
		}
	}
	for _, tile := range tiles {
		for _, key := range flows.Names() {
			name := key
			if name == "bfs2d" {
				name = "bf-s2d"
			}
			t.Run(tile.name+"/"+name, func(t *testing.T) {
				t.Parallel()
				_, st, _, err := flows.Run(context.Background(), key, flows.Config{Piton: tile.pc, Seed: 7, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				db := st.DDB
				if db == nil {
					// S2D and BF S2D sign off frozen and open no database.
					db = ddb.New(st.Design, st.DB, st.Routes, st.ExSlow, st.ExSlow.Corner)
				}
				staOpt := sta.Options{Corner: db.Corner, Clock: st.Tree, TopPaths: 48}
				// Half the signed-off period: nearly every endpoint's slack
				// enters TNS, so a stale arrival anywhere shows.
				period := st.Report.MinPeriod / 2
				eng, err := sta.NewEngine(db.Design, db.Ex, staOpt)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Run(period); err != nil {
					t.Fatal(err)
				}
				check := func(when string) {
					t.Helper()
					if err := checkState(db, eng, staOpt, period); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
				check("signed-off state")

				e := &editor{db: db, rng: geom.NewRNG(7)}
				commits, rollbacks := 0, 0
				for step := 0; step < 16; step++ {
					when := "step " + strconv.Itoa(step)
					base := len(db.Design.Nets)
					baseInsts := len(db.Design.Instances)
					e.begin()
					for k := 1 + e.rng.Intn(3); k > 0; k-- {
						if err := e.edit(); err != nil {
							t.Fatalf("%s: %v", when, err)
						}
					}
					nets, insts, topo := e.txn.DirtyNets(), e.txn.DirtyInsts(), e.txn.TopoChanged()
					if err := e.wantDirty(nets, insts, topo, len(db.Design.Nets), len(db.Design.Instances)); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					eng.Invalidate(nets, insts, topo)
					if e.rng.Intn(3) == 0 {
						check(when + " edited")
						nets, insts, topo := e.txn.Rollback()
						if err := e.wantDirty(nets, insts, topo, base, baseInsts); err != nil {
							t.Fatalf("%s rolled back: %v", when, err)
						}
						eng.Invalidate(nets, insts, topo)
						rollbacks++
						check(when + " rolled back")
					} else {
						e.txn.Commit()
						commits++
						check(when + " committed")
					}
				}
				for k, n := range e.made {
					if n == 0 {
						t.Errorf("no %s edit was made", editKinds[k])
					}
				}
				if commits == 0 || rollbacks == 0 {
					t.Errorf("%d commits, %d rollbacks: the run must exercise both", commits, rollbacks)
				}
			})
		}
	}
}

// checkState holds what the transactions maintained to a from-scratch
// derivation: extraction, route usage, adjacency and timing.
func checkState(db *ddb.DB, eng *sta.Engine, staOpt sta.Options, period float64) error {
	if err := checkRC(db); err != nil {
		return err
	}
	usage, _, f2f := db.Grid.DynState()
	usage, f2f = slices.Clone(usage), slices.Clone(f2f)
	db.Grid.RebuildUsage(db.Routes)
	if u, _, f := db.Grid.DynState(); !slices.Equal(u, usage) || !slices.Equal(f, f2f) {
		return fmt.Errorf("journaled route usage differs from a rebuild of the routes")
	}
	if err := db.CheckAdjacency(); err != nil {
		return err
	}
	got, err := eng.Update(period)
	if err != nil {
		return err
	}
	want, err := sta.Analyze(db.Design, db.Ex, period, staOpt)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("incremental report (period %v, WNS %v, TNS %v) differs from a fresh analysis (period %v, WNS %v, TNS %v)",
			got.MinPeriod, got.WNS, got.TNS, want.MinPeriod, want.WNS, want.TNS)
	}
	return nil
}

// checkRC compares every net's maintained RC tree with a from-scratch
// extraction of the current design and routes.
func checkRC(db *ddb.DB) error {
	const tol = 1e-9
	fresh := extract.Extract(db.Design, db.Routes, db.Grid, db.Corner)
	if len(fresh.Nets) != len(db.Ex.Nets) {
		return fmt.Errorf("extraction has %d nets, scratch %d", len(db.Ex.Nets), len(fresh.Nets))
	}
	for id, want := range fresh.Nets {
		have := db.Ex.Nets[id]
		if (want == nil) != (have == nil) {
			return fmt.Errorf("net %d: extracted %v, scratch %v", id, have != nil, want != nil)
		}
		if want == nil {
			continue
		}
		if math.Abs(want.WireC-have.WireC) > tol || math.Abs(want.WireR-have.WireR) > tol ||
			math.Abs(want.PinC-have.PinC) > tol || len(want.ElmoreTo) != len(have.ElmoreTo) {
			return fmt.Errorf("net %d RC (C=%v R=%v pin=%v, %d sinks), scratch (C=%v R=%v pin=%v, %d sinks)", id,
				have.WireC, have.WireR, have.PinC, len(have.ElmoreTo), want.WireC, want.WireR, want.PinC, len(want.ElmoreTo))
		}
		for i := range want.ElmoreTo {
			if math.Abs(want.ElmoreTo[i]-have.ElmoreTo[i]) > tol {
				return fmt.Errorf("net %d sink %d Elmore %v, scratch %v", id, i, have.ElmoreTo[i], want.ElmoreTo[i])
			}
		}
	}
	return nil
}

// The edit kinds an editor makes.
const (
	editResize = iota
	editMove
	editBuffer
	editHandOff
	nEditKinds
)

var editKinds = [nEditKinds]string{"resize", "move", "buffer-insert", "sink-handoff"}

// editor makes random edit bundles through one open transaction and
// models the dirty views they must leave.
type editor struct {
	db  *ddb.DB
	rng *geom.RNG
	txn *ddb.Txn
	seq int // names the inserted buffers and nets, never reused

	nets, insts map[int]bool // what the open bundle touched
	topo        bool         // whether one of its edits changed connectivity
	made        [nEditKinds]int
}

func (e *editor) begin() {
	e.txn = e.db.Begin()
	e.nets, e.insts, e.topo = map[int]bool{}, map[int]bool{}, false
}

// edit makes one edit of a random kind; a kind with no candidate where
// the draw landed makes nothing and is drawn again.
func (e *editor) edit() error {
	for {
		kind := e.rng.Intn(nEditKinds)
		ok, err := [nEditKinds]func() (bool, error){e.resize, e.move, e.buffer, e.handOff}[kind]()
		if ok {
			e.made[kind]++
		}
		if ok || err != nil {
			return err
		}
	}
}

// resize swaps a standard cell's master for another of its family and
// reroutes the cell's nets, whose pin capacitances and pin offsets moved.
func (e *editor) resize() (bool, error) {
	inst := e.stdCell()
	fam := e.db.Design.Lib.Family(inst.Master.Family)
	if len(fam) < 2 {
		return false, nil
	}
	to := fam[e.rng.Intn(len(fam))]
	if to == inst.Master {
		return false, nil
	}
	if err := e.txn.Resize(inst, to); err != nil {
		return false, err
	}
	e.insts[inst.ID] = true
	return true, e.rerouteNetsOf(inst)
}

// move shifts a standard cell by up to 20 µm each way, inside the
// routing region, and reroutes its nets.
func (e *editor) move() (bool, error) {
	inst := e.stdCell()
	r := e.db.Grid.Grid.Region
	x := geom.Clamp(inst.Loc.X+e.rng.Range(-20, 20), r.Lx, r.Ux-inst.Master.Width)
	y := geom.Clamp(inst.Loc.Y+e.rng.Range(-20, 20), r.Ly, r.Uy-inst.Master.Height)
	e.txn.SetLoc(inst, geom.Pt(x, y))
	e.insts[inst.ID] = true
	return true, e.rerouteNetsOf(inst)
}

// buffer inserts a buffer halfway along one arc of a signal net: the
// sink leaves the net, the buffer's input joins it, and a new net from
// the buffer's output drives the sink.
func (e *editor) buffer() (bool, error) {
	n := e.signalNet(1)
	s := e.txn.RemoveSinkAt(n, e.rng.Intn(len(n.Sinks)))
	fam := e.db.Design.Lib.Family("BUF")
	buf := e.txn.AddInstance(e.name("eqbuf"), fam[e.rng.Intn(len(fam))])
	buf.Die, buf.Placed = netlist.LogicDie, true
	if d := n.Driver.Inst; d != nil && !d.IsMacro() {
		buf.Die = d.Die
	}
	a, b, r := n.Driver.Loc(), s.Loc(), e.db.Grid.Grid.Region
	buf.Loc = geom.Pt(geom.Clamp((a.X+b.X)/2, r.Lx, r.Ux-buf.Master.Width), geom.Clamp((a.Y+b.Y)/2, r.Ly, r.Uy-buf.Master.Height))
	e.txn.AppendSink(n, netlist.IPin(buf, "A"))
	nn := e.txn.AddNet(e.name("eqnet"), netlist.IPin(buf, "Y"), s)
	e.touchSink(s)
	e.insts[buf.ID], e.topo = true, true
	e.nets[n.ID], e.nets[nn.ID] = true, true
	return true, e.reroute(n, nn)
}

// handOff moves one sink of a multi-sink signal net to a new net of the
// same driver: a driver that already existed gains a net.
func (e *editor) handOff() (bool, error) {
	n := e.signalNet(2)
	s := e.txn.RemoveSinkAt(n, e.rng.Intn(len(n.Sinks)))
	nn := e.txn.AddNet(e.name("eqnet"), n.Driver, s)
	e.touchSink(s)
	e.topo = true
	e.nets[n.ID], e.nets[nn.ID] = true, true
	return true, e.reroute(n, nn)
}

func (e *editor) name(prefix string) string {
	e.seq++
	return prefix + "_" + strconv.Itoa(e.seq)
}

// touchSink records the instance whose input membership an edit changed.
func (e *editor) touchSink(s netlist.PinRef) {
	if s.Inst != nil {
		e.insts[s.Inst.ID] = true
	}
}

// stdCell draws a movable standard cell.
func (e *editor) stdCell() *netlist.Instance {
	d := e.db.Design
	for {
		if inst := d.Instances[e.rng.Intn(len(d.Instances))]; !inst.Fixed && !inst.IsMacro() {
			return inst
		}
	}
}

// signalNet draws a routed signal net with at least minSinks sinks.
func (e *editor) signalNet(minSinks int) *netlist.Net {
	d := e.db.Design
	for {
		n := d.Nets[e.rng.Intn(len(d.Nets))]
		if !n.Clock && len(n.Sinks) >= minSinks && n.ID < len(e.db.Routes.Routes) && e.db.Routes.Routes[n.ID] != nil {
			return n
		}
	}
}

// rerouteNetsOf reroutes every signal net an instance drives or sinks on.
func (e *editor) rerouteNetsOf(inst *netlist.Instance) error {
	var nets []*netlist.Net
	for _, id := range slices.Concat(e.db.Driven(inst), e.db.InputNets(inst)) {
		if n := e.db.Design.Nets[id]; !n.Clock && len(n.Sinks) > 0 {
			nets = append(nets, n)
		}
	}
	return e.reroute(nets...)
}

func (e *editor) reroute(nets ...*netlist.Net) error {
	for _, n := range nets {
		if err := e.txn.Reroute(n); err != nil {
			return err
		}
		e.nets[n.ID] = true
	}
	return nil
}

// wantDirty compares dirty views with the model: the ids below the
// given design size that the bundle touched, ascending, and whether any
// edit changed connectivity.
func (e *editor) wantDirty(nets, insts []int, topo bool, nNets, nInsts int) error {
	want := func(touched map[int]bool, below int) []int {
		ids := []int{}
		for id := range touched {
			if id < below {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		return ids
	}
	if w := want(e.nets, nNets); !slices.Equal(nets, w) {
		return fmt.Errorf("dirty nets %v, edits touched %v", nets, w)
	}
	if w := want(e.insts, nInsts); !slices.Equal(insts, w) {
		return fmt.Errorf("dirty instances %v, edits touched %v", insts, w)
	}
	if topo != e.topo {
		return fmt.Errorf("topology change reported %v, edits changed connectivity %v", topo, e.topo)
	}
	return nil
}
