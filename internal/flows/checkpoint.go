package flows

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"macro3d/internal/cell"
	"macro3d/internal/core"
	"macro3d/internal/geom"
	"macro3d/internal/lefdef"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/route"
	"macro3d/internal/stash"
	"macro3d/internal/tech"
)

// cacheEnabled reports whether this run participates in stage
// checkpointing. Custom generators produce netlists the cache key
// cannot fingerprint, and AfterStage hooks (instrumentation, fault
// injection) may mutate state a snapshot would not capture — both
// disable caching rather than risk a wrong resume.
func (c Config) cacheEnabled() bool {
	return c.Cache != nil && c.Generator == nil && c.AfterStage == nil
}

// buildTechFingerprint hashes the technology every run builds on: the
// logic BEOL and the standard-cell library, rendered through the LEF
// writer so any change to the built-in tables invalidates the cache. A
// process computes it once (techFingerprint).
func buildTechFingerprint() ([]byte, error) {
	t, err := tech.New28(logicMetals)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := lefdef.WriteLEF(&buf, t.Logic, cell.NewStdLib28(cell.DefaultLibOptions())); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return sum[:], nil
}

// rootKey derives the first key of a run's checkpoint chain from
// everything every stage depends on: codec version, flow kind,
// technology fingerprint, the tile configuration and the seed.
//
// Deliberately excluded: Workers (results are bit-identical at any
// worker count — the parallel-engine equivalence guarantee, pinned by
// TestStageCacheKeyStability), Obs and Check (pure observation and
// checking — spans and the timeline record a run, checks hold it to a
// recompute, neither changes results), Cache (the cache itself),
// AfterStage/Generator (either disables the cache: cacheEnabled), and
// the per-stage inputs TargetPeriod, MacroDieMetals, F2F and
// BlockageResolution, which enter the chain as key material of the
// first checkpoint that depends on them so unrelated prefixes still hit
// (TestRootKeyCoversPitonConfig holds every Config field to one side or
// the other). The seed is included: results depend on it, so sharing
// entries across seeds would be unsound.
func rootKey(flow string, cfg Config) (stash.Key, error) {
	fp, err := techFingerprint()
	if err != nil {
		return stash.Key{}, err
	}
	e := stash.NewEnc()
	e.U32(stash.Version)
	e.Str(flow)
	e.Blob(fp)
	p := cfg.Piton
	e.Str(p.Name)
	e.Int(p.L1I)
	e.Int(p.L1D)
	e.Int(p.L2)
	e.Int(p.L3)
	e.Int(p.DataWidth)
	e.Int(p.CoreStages)
	e.Int(p.CoreWidth)
	e.Int(p.CloudDepth)
	e.Int(p.NoCs)
	e.F64(p.TargetLogicArea)
	e.F64(p.MacroProcess.ClkQScale)
	e.F64(p.MacroProcess.EnergyScale)
	e.F64(p.MacroProcess.LeakageScale)
	e.U64(p.Seed)
	e.U64(cfg.Seed)
	return stash.NewKey(e.Bytes()), nil
}

// stackMaterial is the key material of the first checkpoint that
// depends on the 3D stack: the macro-die metal count and the effective
// F2F via technology, which shape the combined BEOL the prepare stage
// builds.
func stackMaterial(cfg Config, t *tech.Tech) []byte {
	f2f := cfg.f2f(t)
	e := stash.NewEnc()
	e.Int(cfg.MacroDieMetals)
	e.F64(f2f.Pitch)
	e.F64(f2f.Size)
	e.F64(f2f.Height)
	e.F64(f2f.R)
	e.F64(f2f.C)
	return e.Bytes()
}

// pseudoRevision versions the pseudo checkpoint's snapshot beyond its
// inputs. 1: it is a placement snapshot of every instance of the real
// design (placementCheckpoint), no longer a codec of its own over the
// standard cells — a snapshot written before must miss, not fail to
// decode. 2: the region ends in the tier partition, so it holds the
// partitioned placement; a revision-1 snapshot holds the placement
// before it and would decode cleanly.
const pseudoRevision = 2

// pseudoMaterial is the pseudo checkpoint's key material: the
// snapshot's revision and the blockage pitch the pseudo floorplan
// rasterizes at and the partition balances bins by.
func pseudoMaterial(cfg Config) []byte {
	e := stash.NewEnc()
	e.Int(pseudoRevision)
	e.F64(cfg.BlockageResolution)
	return e.Bytes()
}

// checkpoint is one cacheable region of a flow: a name (also the span
// and trace label of a hit), key material covering the region's own
// inputs beyond the upstream chain, and the snapshot codec. load must
// fully validate before mutating any state — a failed load falls back
// to running the region, so a half-applied snapshot would corrupt it.
type checkpoint struct {
	name     string
	material []byte
	save     func(*stash.Enc) error
	load     func(*stash.Dec) error
}

// counter returns a named run counter, or nil (nil counters no-op).
func (r *runner) counter(name, help string) *obs.Counter {
	if reg := r.cfg.Obs.Registry(); reg != nil {
		return reg.Counter(name, help)
	}
	return nil
}

func (r *runner) stashHits() *obs.Counter {
	return r.counter("stash_hits_total", "Stage-cache hits (snapshots loaded instead of running the stage).")
}

func (r *runner) stashMisses() *obs.Counter {
	return r.counter("stash_misses_total", "Stage-cache misses (stage ran and its snapshot was stored).")
}

func (r *runner) stashBytes() *obs.Counter {
	return r.counter("stash_bytes_total", "Snapshot payload bytes read on hits and written on misses.")
}

func (r *runner) stashErrors() *obs.Counter {
	return r.counter("stash_errors_total", "Stage-cache failures: corrupt loads, store errors, verify mismatches.")
}

// checkpointed runs a cacheable region: on a hit the snapshot is
// loaded and the region skipped; on a miss (or a corrupt snapshot,
// which is evicted) the region runs and its snapshot is stored. Cache
// failures never fail a flow — except under Check, where a hit re-runs
// the region and a snapshot that is not bit-identical to the re-run
// state is a hard error.
func (r *runner) checkpointed(cp checkpoint, sub []stage) error {
	if r.caching && r.key == (stash.Key{}) {
		// The chain's root, at the first region: a list without one never
		// fingerprints the technology. A failing fingerprint silently
		// disables caching; the flow itself will surface the real error.
		k, err := rootKey(r.flow, r.cfg)
		r.key, r.caching = k, err == nil
	}
	if !r.caching {
		return r.exec(sub)
	}
	key := r.key.Derive(cp.name, cp.material)
	r.key = key

	payload, hit := r.cfg.Cache.Get(key)
	if !hit {
		r.stashMisses().Inc()
		return r.runAndStore(cp, key, sub)
	}
	if r.cfg.Check {
		return r.verifyHit(cp, key, payload, sub)
	}
	if r.span != nil {
		r.cur = r.span.Child(cp.name, obs.KV("cache", "hit"), obs.KV("bytes", len(payload)))
	}
	start := time.Now()
	err := contain(func() error { return cp.load(stash.NewDec(payload)) })
	dur := time.Since(start)
	if err == nil {
		r.cur.End()
		r.cur = nil
		r.cached(cp.name, dur)
		r.stashBytes().Add(uint64(len(payload)))
		r.cfg.Obs.Sample()
		return nil
	}
	// A snapshot that decodes or validates badly is treated
	// exactly like corruption: evict, record, run the region.
	r.cur.SetAttr("err", err.Error())
	r.cur.End()
	r.cur = nil
	r.record(cp.name, r.cfg.Seed, dur,
		fmt.Errorf("cache load: %w", err))
	r.cfg.Cache.Evict(key)
	r.stashErrors().Inc()
	r.stashMisses().Inc()
	return r.runAndStore(cp, key, sub)
}

// cached records a region restored from the cache and counts the hit.
func (r *runner) cached(name string, dur time.Duration) {
	r.trace.Stages = append(r.trace.Stages, StageRecord{
		Stage: name, Seed: r.cfg.Seed,
		Duration: dur, Cached: true,
	})
	r.stashHits().Inc()
}

// runAndStore executes the region and stores its snapshot. Store
// failures (encode panic, full disk) only count an error — the flow's
// own result is already computed and stands.
func (r *runner) runAndStore(cp checkpoint, key stash.Key, sub []stage) error {
	if err := r.exec(sub); err != nil {
		return err
	}
	enc := stash.NewEnc()
	if err := contain(func() error { return cp.save(enc) }); err != nil {
		r.stashErrors().Inc()
		return nil
	}
	if err := r.cfg.Cache.Put(key, enc.Bytes()); err != nil {
		r.stashErrors().Inc()
		return nil
	}
	r.stashBytes().Add(uint64(enc.Len()))
	return nil
}

// verifyHit is a hit under Check: the region re-runs, its state is
// re-encoded, and anything short of bit-identity with the cached
// snapshot evicts the entry and fails the run.
func (r *runner) verifyHit(cp checkpoint, key stash.Key, payload []byte, sub []stage) error {
	if err := r.exec(sub); err != nil {
		return err
	}
	enc := stash.NewEnc()
	verr := contain(func() error { return cp.save(enc) })
	if verr != nil {
		verr = fmt.Errorf("cache verify: re-encode: %w", verr)
	} else if !bytes.Equal(enc.Bytes(), payload) {
		verr = fmt.Errorf("cache verify: region %q re-ran to state differing from the cached snapshot (%d vs %d bytes)",
			cp.name, enc.Len(), len(payload))
	}
	if verr != nil {
		r.cfg.Cache.Evict(key)
		r.stashErrors().Inc()
		r.record(cp.name, r.cfg.Seed, 0, verr)
		return r.fail(cp.name, r.cfg.Seed, verr)
	}
	r.stashHits().Inc()
	r.counter("stash_verified_total", "Cache hits re-run and confirmed bit-identical under -check.").Inc()
	r.stashBytes().Add(uint64(len(payload)))
	return nil
}

// ---- shared wire helpers ----

// resolveMaster maps a snapshotted master name back to a library cell.
// cur short-circuits the common unchanged case; names with the
// macro-die suffix resolve to the library master's macro-die view so
// post-partition designs (whose per-die clones are not library members)
// round-trip. views shares one clone per master within a single load,
// as the prepare stage does when it makes them, and validates it against
// the state's combined stack: before prepare there is none, and a
// snapshot naming a view is refused.
//
// A master that replaces cur must list its pins as cur does
// (Instance.SetMaster), or the design's pin references would name other
// pins.
func resolveMaster(d *netlist.Design, cur *cell.Cell, name string, views *core.DieViews) (*cell.Cell, error) {
	if cur != nil && cur.Name == name {
		return cur, nil
	}
	m := d.Lib.Cell(name)
	if base, ok := strings.CutSuffix(name, tech.MDSuffix); ok && m == nil {
		if lm := d.Lib.Cell(base); lm != nil {
			var err error
			if m, err = views.MacroDie(lm); err != nil {
				return nil, fmt.Errorf("snapshot references %q: %w", name, err)
			}
		}
	}
	if m == nil {
		return nil, fmt.Errorf("snapshot references unknown master %q", name)
	}
	if cur != nil {
		if err := cur.SamePins(m); err != nil {
			return nil, fmt.Errorf("snapshot swaps master: %w", err)
		}
	}
	return m, nil
}

func encodePinRef(e *stash.Enc, ref netlist.PinRef) {
	var flags uint8
	if ref.Inst != nil {
		flags |= 1
	}
	if ref.Port != nil {
		flags |= 2
	}
	e.U8(flags)
	if ref.Inst != nil {
		e.U32(uint32(ref.Inst.ID))
		e.Str(ref.Pin())
	}
	if ref.Port != nil {
		e.U32(uint32(ref.Port.ID))
	}
}

// pinRefSize is the number of bytes encodePinRef writes for ref.
func pinRefSize(ref netlist.PinRef) int {
	n := 1
	if ref.Inst != nil {
		n += 4 + 4 + len(ref.Pin())
	}
	if ref.Port != nil {
		n += 4
	}
	return n
}

type pinRefWire struct {
	hasInst, hasPort bool
	instID, portID   uint32
	k                int32 // the pin's index on its instance's master, once validated
	pin              string
}

func decodePinRefWire(dec *stash.Dec) pinRefWire {
	var w pinRefWire
	flags := dec.Flags(3)
	w.hasInst = flags&1 != 0
	w.hasPort = flags&2 != 0
	if w.hasInst {
		w.instID = dec.U32()
		w.pin = dec.Sym()
	}
	if w.hasPort {
		w.portID = dec.U32()
	}
	return w
}

// validate holds the reference to the design it will be resolved on —
// nInst instances, the one of ID id on master masters(id), and nPort
// ports — and resolves its pin name to the pin's index on that master.
func (w *pinRefWire) validate(masters func(id int) *cell.Cell, nInst, nPort int) error {
	if w.hasInst {
		if int(w.instID) >= nInst {
			return fmt.Errorf("pin ref instance %d out of range (%d instances)", w.instID, nInst)
		}
		m := masters(int(w.instID))
		k := m.PinIndex(w.pin)
		if k < 0 {
			return fmt.Errorf("pin ref names pin %q, which master %s of instance %d lacks", w.pin, m.Name, w.instID)
		}
		w.k = int32(k)
	}
	if w.hasPort && int(w.portID) >= nPort {
		return fmt.Errorf("pin ref port %d out of range (%d ports)", w.portID, nPort)
	}
	return nil
}

// resolve builds the live PinRef; call only after validate and after
// any appended instances exist.
func (w pinRefWire) resolve(d *netlist.Design) netlist.PinRef {
	var ref netlist.PinRef
	if w.hasInst {
		ref = netlist.IPinAt(d.Instances[w.instID], int(w.k))
	}
	if w.hasPort {
		ref.Port = d.Ports[w.portID]
	}
	return ref
}

// ---- placement snapshots ----

type instStateWire struct {
	name   string // appended instances only
	master string
	x, y   float64
	orient uint8
	flags  uint8 // bit 0 Fixed, bit 1 Placed
	die    uint8

	resolved *cell.Cell
}

func encodeInstState(e *stash.Enc, inst *netlist.Instance, withName bool) {
	if withName {
		e.Str(inst.Name)
	}
	e.Str(inst.Master.Name)
	e.F64(inst.Loc.X)
	e.F64(inst.Loc.Y)
	e.U8(uint8(inst.Orient))
	var flags uint8
	if inst.Fixed {
		flags |= 1
	}
	if inst.Placed {
		flags |= 2
	}
	e.U8(flags)
	e.U8(uint8(inst.Die))
}

// instStateSize is the number of bytes encodeInstState writes for inst.
func instStateSize(inst *netlist.Instance, withName bool) int {
	n := instWireMin + len(inst.Master.Name)
	if withName {
		n += 4 + len(inst.Name)
	}
	return n
}

func decodeInstState(dec *stash.Dec, withName bool) instStateWire {
	var w instStateWire
	if withName {
		w.name = dec.Str()
	}
	w.master = dec.Sym()
	w.x = dec.F64()
	w.y = dec.F64()
	w.orient = dec.U8()
	w.flags = dec.Flags(3)
	w.die = dec.U8()
	return w
}

// validate rejects a state no instance can be in: an orientation or a die
// past the last there is, or a location that is not a finite number.
// (decodeInstState already rejects flag bits the encoder never writes.)
func (w instStateWire) validate() error {
	if geom.Orient(w.orient) > geom.OrientFS {
		return fmt.Errorf("snapshot instance orientation %d does not exist", w.orient)
	}
	if netlist.Die(w.die) > netlist.MacroDie {
		return fmt.Errorf("snapshot instance die %d does not exist", w.die)
	}
	return finiteLoc(w.x, w.y)
}

// finiteLoc rejects a snapshot location that is NaN or infinite.
func finiteLoc(x, y float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("snapshot instance location (%v, %v) is not finite", x, y)
	}
	return nil
}

func (w instStateWire) apply(inst *netlist.Instance) {
	if w.resolved != nil {
		// resolveMaster checked the swap.
		if err := inst.SetMaster(w.resolved); err != nil {
			panic(err)
		}
	}
	inst.Loc = geom.Pt(w.x, w.y)
	inst.Orient = geom.Orient(w.orient)
	inst.Fixed = w.flags&1 != 0
	inst.Placed = w.flags&2 != 0
	inst.Die = netlist.Die(w.die)
}

// placementSize is the number of bytes a placement snapshot of d takes.
func placementSize(d *netlist.Design) int {
	size := 8
	for _, inst := range d.Instances {
		size += instStateSize(inst, false)
	}
	return size
}

// placementCheckpoint snapshots the full placement state of every
// instance (location, orientation, die, flags, master). Used for the
// place stage of the 2D and Macro-3D flows and for the S2D/C2D pseudo
// region, which ends in the tier partition; neither adds or removes
// instances of the design it snapshots.
func placementCheckpoint(name string, material []byte, st *State) checkpoint {
	d := st.Design
	return checkpoint{
		name:     name,
		material: material,
		save: func(e *stash.Enc) error {
			e.Grow(placementSize(d))
			e.Int(len(d.Instances))
			for _, inst := range d.Instances {
				encodeInstState(e, inst, false)
			}
			return nil
		},
		load: func(dec *stash.Dec) error {
			states, err := decodePlacement(dec, d, st.Beol)
			if err != nil {
				return err
			}
			for i := range states {
				states[i].apply(d.Instances[i])
			}
			return nil
		},
	}
}

// decodePlacement decodes a placement snapshot of d and validates it
// against d and its stack beol — the instance count, every state, every
// master — without touching d. The count is held to the bytes left
// before it sizes the state table, so a short snapshot cannot allocate
// by the design's size.
func decodePlacement(dec *stash.Dec, d *netlist.Design, beol *tech.BEOL) ([]instStateWire, error) {
	n := dec.Count(instWireMin)
	if dec.Err() == nil && n != len(d.Instances) {
		return nil, fmt.Errorf("placement snapshot has %d instances, design has %d", n, len(d.Instances))
	}
	states := make([]instStateWire, 0, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		states = append(states, decodeInstState(dec, false))
	}
	if err := dec.Done(); err != nil {
		return nil, err
	}
	views := &core.DieViews{Combined: beol}
	for i := range states {
		if err := states[i].validate(); err != nil {
			return nil, err
		}
		m, err := resolveMaster(d, d.Instances[i].Master, states[i].master, views)
		if err != nil {
			return nil, err
		}
		states[i].resolved = m
	}
	return states, nil
}

// ---- routing snapshots ----
//
// A routing result on the wire (DESIGN.md §11):
//
//	Int  table length — len(Routes), nil entries included
//	Int  routes, Int pin nodes, Int segments — totals over the table
//	per table entry: Bool present, and when present
//	     U32 segment count, the segments as node pairs
//	     U32 pin count, the pin nodes
//	     F64 WL, U32 vias, U32 F2F crossings
//	F64 WL, F64s WLPerLayer, Int vias, Int bumps, Int overflow, F64 overflow WL
//
// A node is nodeWire bytes: X and Y as little-endian uint16, L as one
// byte. The totals let the decoder size every slab once.
const (
	nodeWire  = 5
	segWire   = 2 * nodeWire
	routeWire = 1 + 4 + 4 + 8 + 4 + 4 // a present entry with no geometry
)

func putNode(b []byte, n route.Node) {
	b[0], b[1] = byte(n.X), byte(uint16(n.X)>>8)
	b[2], b[3] = byte(n.Y), byte(uint16(n.Y)>>8)
	b[4] = byte(n.L)
}

// getNode reads a node; the high bit of b[1], b[3] or b[4] marks a value
// no route.Node holds, which decodeResult rejects.
func getNode(b []byte) route.Node {
	return route.Node{
		X: int16(uint16(b[0]) | uint16(b[1])<<8),
		Y: int16(uint16(b[2]) | uint16(b[3])<<8),
		L: int8(b[4]),
	}
}

// resultTotals counts what a routing result's header states: the
// non-nil routes, and their pin nodes and segments.
func resultTotals(res *route.Result) (routes, pins, segs int) {
	for _, nr := range res.Routes {
		if nr != nil {
			routes++
			pins += len(nr.PinNode)
			segs += len(nr.Segments)
		}
	}
	return routes, pins, segs
}

// resultSize is the number of bytes encodeResult writes for res.
func resultSize(res *route.Result) int {
	routes, pins, segs := resultTotals(res)
	return 4*8 + (len(res.Routes) - routes) + routeWire*routes + segWire*segs + nodeWire*pins +
		8 + 4 + 8*len(res.WLPerLayer) + 3*8 + 8
}

// dynStateSize is the number of bytes encodeDynState writes for db: the
// history plane is the usage plane's size, whether or not the DB holds
// one.
func dynStateSize(db *route.DB) int {
	u, _, f := db.DynState()
	return 3*4 + 4*(2*len(u)+len(f))
}

// encodeDynState writes the DB's mutable routing state: usage,
// negotiation history — zeros from a DB that never negotiated — and F2F
// bump usage.
func encodeDynState(e *stash.Enc, db *route.DB) {
	u, h, f := db.DynState()
	if h == nil {
		h = make([]float32, len(u))
	}
	e.I32s(u)
	e.F32s(h)
	e.I32s(f)
}

// encodeResult writes res — a tile's: the format has no origin, so a
// result with placed routes is a bug to encode, not a shape to lose.
func encodeResult(e *stash.Enc, res *route.Result) {
	e.Grow(resultSize(res)) // a no-op inside a snapshot whose save sized the whole
	routes, pins, segs := resultTotals(res)
	e.Int(len(res.Routes))
	e.Int(routes)
	e.Int(pins)
	e.Int(segs)
	for id, nr := range res.Routes {
		e.Bool(nr != nil)
		if nr == nil {
			continue
		}
		if res.Origin(id).Placed {
			panic(fmt.Sprintf("flows: encodeResult: net %d's route is placed; a result with origins has no snapshot", id))
		}
		e.U32(uint32(len(nr.Segments)))
		b := e.Extend(segWire * len(nr.Segments))
		for i, s := range nr.Segments {
			putNode(b[segWire*i:], s.A)
			putNode(b[segWire*i+nodeWire:], s.B)
		}
		e.U32(uint32(len(nr.PinNode)))
		b = e.Extend(nodeWire * len(nr.PinNode))
		for i, p := range nr.PinNode {
			putNode(b[nodeWire*i:], p)
		}
		e.F64(nr.WL)
		e.U32(uint32(nr.Vias))
		e.U32(uint32(nr.F2F))
	}
	e.F64(res.WL)
	e.F64s(res.WLPerLayer)
	e.Int(res.Vias)
	e.Int(res.F2FBumps)
	e.Int(res.Overflow)
	e.F64(res.OverflowWL)
}

var errRouteHeader = errors.New("route snapshot: per-route counts disagree with the header totals")

// decodeResult decodes a routing result straight into the records it
// will live in. The header's totals are each checked against the bytes
// left (so a corrupt count cannot over-allocate) and size the route, pin
// node and segment slabs in one allocation each; the per-route counts
// must then add up to exactly those totals. Every segment must be one
// the router writes (route.Seg.Valid) on a layer the result's
// WLPerLayer counts: a slanted one would walk its consumers past its
// end. Nothing of the live design is touched or needed: a route is
// bound to its net by its index.
func decodeResult(dec *stash.Dec) (*route.Result, error) {
	n := dec.Count(1)
	routes, pins, segs := dec.Count(routeWire), dec.Count(nodeWire), dec.Count(segWire)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	res := &route.Result{Routes: make([]*route.NetRoute, n)}
	res.Reserve(routes, pins, segs)
	var bad byte    // high bits of every node byte that must not carry one
	top := int8(-1) // the highest layer a segment reaches
	for i := 0; i < n && dec.Err() == nil; i++ {
		if !dec.Bool() {
			continue
		}
		ns := int(dec.U32())
		b := dec.View(segWire * ns)
		if dec.Err() != nil {
			break
		}
		if routes == 0 || ns > segs {
			return nil, errRouteHeader
		}
		routes--
		segs -= ns
		nr := res.NewRoute(i)
		nr.Segments = res.SegSpan(ns)
		for j := range nr.Segments {
			w := b[segWire*j : segWire*j+segWire]
			sg := route.Seg{A: getNode(w), B: getNode(w[nodeWire:])}
			if !sg.Valid() {
				return nil, fmt.Errorf("route snapshot: net %d segment %v→%v is neither a wire along a row or column nor a via stack", i, sg.A, sg.B)
			}
			nr.Segments[j] = sg
			bad |= w[1] | w[3] | w[4] | w[6] | w[8] | w[9]
			top = max(top, sg.A.L, sg.B.L)
		}
		np := int(dec.U32())
		b = dec.View(nodeWire * np)
		if dec.Err() != nil {
			break
		}
		if np > pins {
			return nil, errRouteHeader
		}
		pins -= np
		nr.PinNode = res.PinSpan(np)
		for j := range nr.PinNode {
			w := b[nodeWire*j : nodeWire*j+nodeWire]
			nr.PinNode[j] = getNode(w)
			bad |= w[1] | w[3] | w[4]
		}
		nr.WL = dec.F64()
		nr.Vias = int(dec.U32())
		nr.F2F = int(dec.U32())
	}
	res.WL = dec.F64()
	res.WLPerLayer = dec.F64s()
	res.Vias = dec.Int()
	res.F2FBumps = dec.Int()
	res.Overflow = dec.Int()
	res.OverflowWL = dec.F64()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if routes != 0 || pins != 0 || segs != 0 {
		return nil, errRouteHeader
	}
	if bad&0x80 != 0 {
		return nil, errors.New("route snapshot: node outside the addressable grid")
	}
	if int(top) >= len(res.WLPerLayer) {
		return nil, fmt.Errorf("route snapshot: a segment on layer %d of a %d-layer result", top, len(res.WLPerLayer))
	}
	return res, nil
}

// checkRoutePins holds a routing result to the nets it routes, net i
// having pins(i) pins: a present route carries one pin node per pin, the
// driver's then each sink's. Extraction reads a sink's node by the
// sink's index, so a route that names a pin its net lacks, or lacks one
// it has, is refused here.
func checkRoutePins(res *route.Result, pins func(net int) int) error {
	for i, r := range res.Routes {
		if r != nil && len(r.PinNode) != pins(i) {
			return fmt.Errorf("route snapshot: net %d has %d pins, its route %d pin nodes", i, pins(i), len(r.PinNode))
		}
	}
	return nil
}
