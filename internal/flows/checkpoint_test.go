package flows

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/core"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/stash"
	"macro3d/internal/tech"
)

// randomResult builds a routing result of n table entries — about one
// in eight nil — with random geometry that reaches the corners of the
// addressable grid.
func randomResult(seed uint64, n int) *route.Result {
	rng := geom.NewRNG(seed)
	node := func() route.Node {
		switch rng.Intn(16) {
		case 0:
			return route.At(route.MaxGridDim-1, route.MaxGridDim-1, route.MaxLayers-1)
		case 1:
			return route.Node{}
		}
		return route.At(rng.Intn(route.MaxGridDim), rng.Intn(route.MaxGridDim), rng.Intn(route.MaxLayers))
	}
	res := &route.Result{WLPerLayer: make([]float64, 1+rng.Intn(13))}
	for i := range res.WLPerLayer {
		res.WLPerLayer[i] = rng.Range(0, 1e6)
	}
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			res.SetRoute(i, nil)
			continue
		}
		nr := res.NewRoute(i)
		nr.Segments = res.SegSpan(rng.Intn(40))
		for j := range nr.Segments {
			nr.Segments[j] = route.Seg{A: node(), B: node()}
		}
		nr.PinNode = res.PinSpan(rng.Intn(6))
		for j := range nr.PinNode {
			nr.PinNode[j] = node()
		}
		nr.WL, nr.Vias, nr.F2F = rng.Range(0, 5000), rng.Intn(100), rng.Intn(10)
	}
	res.WL, res.Vias, res.F2FBumps = rng.Range(0, 1e7), rng.Intn(1e6), rng.Intn(1e5)
	res.Overflow, res.OverflowWL = rng.Intn(500), rng.Range(0, 100)
	return res
}

func encodeResultBytes(res *route.Result) []byte {
	e := stash.NewEnc()
	encodeResult(e, res)
	return e.Bytes()
}

func decodeResultBytes(b []byte) (*route.Result, error) {
	dec := stash.NewDec(b)
	res, err := decodeResult(dec)
	if err != nil {
		return nil, err
	}
	return res, dec.Done()
}

// sameResult compares two results field for field.
func sameResult(a, b *route.Result) error {
	if len(a.Routes) != len(b.Routes) {
		return fmt.Errorf("%d routes vs %d", len(a.Routes), len(b.Routes))
	}
	for i, ra := range a.Routes {
		rb := b.Routes[i]
		if (ra == nil) != (rb == nil) {
			return fmt.Errorf("route %d: nil mismatch", i)
		}
		if ra == nil {
			continue
		}
		if !slices.Equal(ra.Segments, rb.Segments) || !slices.Equal(ra.PinNode, rb.PinNode) {
			return fmt.Errorf("route %d: geometry differs", i)
		}
		if ra.WL != rb.WL || ra.Vias != rb.Vias || ra.F2F != rb.F2F {
			return fmt.Errorf("route %d: metrics differ", i)
		}
	}
	if a.WL != b.WL || a.Vias != b.Vias || a.F2FBumps != b.F2FBumps ||
		a.Overflow != b.Overflow || a.OverflowWL != b.OverflowWL ||
		!slices.Equal(a.WLPerLayer, b.WLPerLayer) {
		return errors.New("totals differ")
	}
	return nil
}

// TestResultCodecRoundTrip: random results — and a real tile's — encode,
// decode to a field-for-field equal result, and re-encode to the same
// bytes.
func TestResultCodecRoundTrip(t *testing.T) {
	check := func(t *testing.T, res *route.Result) {
		t.Helper()
		b := encodeResultBytes(res)
		got, err := decodeResultBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(res, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeResultBytes(got), b) {
			t.Fatal("re-encoded result is not byte-identical")
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		check(t, randomResult(seed, int(seed*seed)%300))
	}
	t.Run("tile", func(t *testing.T) {
		_, st, _, err := Run(context.Background(), "2d", tinyCacheCfg())
		if err != nil {
			t.Fatal(err)
		}
		segs := 0
		for _, r := range st.Routes.Routes {
			if r != nil {
				segs += len(r.Segments)
			}
		}
		if segs == 0 {
			t.Fatal("tile result has no segments")
		}
		check(t, st.Routes)
		// 10 bytes a segment on disk, not the 48 of its 64-bit fields.
		if n := len(encodeResultBytes(st.Routes)); n > 20*segs {
			t.Errorf("snapshot is %d bytes for %d segments", n, segs)
		}
	})
}

// TestDecodeResultAllocs: a decoded result is a constant number of heap
// objects — the table, one chunk per slab, the per-layer totals — however
// many nets it holds.
//
// The collector is off while counting: a 5 000-net decode is large
// enough to start a GC cycle inside every measured run, and under -race
// each cycle costs one runtime heap object that is not the decoder's
// (10 against 9 on most `make race` runs).
func TestDecodeResultAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(nets int) float64 {
		b := encodeResultBytes(randomResult(9, nets))
		return testing.AllocsPerRun(5, func() {
			if _, err := decodeResultBytes(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(250), allocs(5000)
	if small != large || large > 12 {
		t.Errorf("decode allocates %.0f objects at 250 nets, %.0f at 5000; want equal and <= 12", small, large)
	}
}

// TestDecodeResultCorrupt runs the corrupt-snapshot table — truncated,
// bit-flipped, oversized or inconsistent counts — against the count
// header: every case is an error, never a panic, a hang or an
// allocation sized by the corrupt value.
func TestDecodeResultCorrupt(t *testing.T) {
	good := encodeResultBytes(randomResult(3, 200))
	if _, err := decodeResultBytes(good); err != nil {
		t.Fatal(err)
	}
	for _, c := range corruptResultCases(good) {
		if _, err := decodeResultBytes(c.b); err == nil {
			t.Errorf("%s: corrupt snapshot decoded without error", c.name)
		}
	}
}

// corruptCase is one damaged encoding of a routing result.
type corruptCase struct {
	name string
	b    []byte
}

// corruptResultCases damages good — a valid encoding with at least one
// present route — every way the table knows; none of the cases decodes.
func corruptResultCases(good []byte) []corruptCase {
	putInt := func(b []byte, off int, v int64) []byte {
		b = slices.Clone(b)
		for i := 0; i < 8; i++ {
			b[off+i] = byte(uint64(v) >> (8 * i))
		}
		return b
	}
	getInt := func(off int) int64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(good[off+i]) << (8 * i)
		}
		return int64(v)
	}
	var cases []corruptCase
	for _, n := range []int{0, 7, 8, 31, 32, 33, 40, len(good) / 2, len(good) - 9, len(good) - 1} {
		cases = append(cases, corruptCase{fmt.Sprintf("truncated-%d", n), good[:n]})
	}
	cases = append(cases, corruptCase{"trailing", append(slices.Clone(good), 0)})
	// The four header counts: table length, routes, pin nodes, segments.
	for f, name := range []string{"table", "routes", "pins", "segments"} {
		off := 8 * f
		for _, v := range []int64{-1, int64(len(good)), 1 << 40, 1<<63 - 1, getInt(off) + 1, getInt(off) - 1} {
			cases = append(cases, corruptCase{fmt.Sprintf("%s-count-%d", name, v), putInt(good, off, v)})
		}
		for bit := 0; bit < 64; bit += 7 {
			b := slices.Clone(good)
			b[off+bit/8] ^= 1 << (bit % 8)
			cases = append(cases, corruptCase{fmt.Sprintf("%s-bitflip-%d", name, bit), b})
		}
	}
	// The first present route's segment count (after the four header
	// Ints and the route's presence byte), oversized.
	first := 32
	for good[first] == 0 {
		first++
	}
	over := slices.Clone(good)
	over[first+1], over[first+2], over[first+3], over[first+4] = 0xff, 0xff, 0xff, 0x7f
	cases = append(cases, corruptCase{"route-segment-count", over})
	// A node byte no route.Node holds: the high bit of X, Y or L.
	for i, name := range []string{"x", "y", "l"} {
		b := slices.Clone(good)
		b[first+5+[]int{1, 3, 4}[i]] |= 0x80
		cases = append(cases, corruptCase{"node-high-bit-" + name, b})
	}
	return cases
}

// FuzzDecodeResult: whatever the bytes, decoding a routing result never
// panics and never allocates past a small multiple of the input's size
// (a corrupt count cannot size a slab), and an input that decodes is
// canonical — it re-encodes to the same bytes. Seeded with a good
// encoding — a small one: the engine minimizes every input that reaches
// new code, an execution per byte — and TestDecodeResultCorrupt's table
// over it; `go test` runs the seeds, `make check` fuzzes for a bounded
// time.
func FuzzDecodeResult(f *testing.F) {
	good := encodeResultBytes(randomResult(3, 12))
	f.Add(good)
	f.Add(encodeResultBytes(&route.Result{}))
	for _, c := range corruptResultCases(good) {
		f.Add(c.b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := decodeResultBytes(b)
		runtime.ReadMemStats(&m1)
		// Each header count is held to the bytes left, not to the others:
		// a table of 8-byte pointers for one-byte entries, 72-byte records
		// for 25, 6-byte nodes for 5, 12-byte segments for 10 — 13.3× the
		// input at the worst, before size-class rounding, the fixed objects
		// and whatever the fuzzing engine allocated beside.
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(16*len(b)+64<<10); got > limit && !raceEnabled {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(b), got, limit)
		}
		if err != nil {
			return
		}
		if again := encodeResultBytes(res); !bytes.Equal(again, b) {
			t.Fatalf("%d bytes decode but re-encode to %d different ones", len(b), len(again))
		}
	})
}

// TestUnaddressableGridFailsFlow: a die whose routing grid has more
// gcells per axis than a route.Node addresses fails the flow at the
// route stage with the router's error, leaving no routes behind.
func TestUnaddressableGridFailsFlow(t *testing.T) {
	cfg := tinyCacheCfg()
	cfg.AfterStage = func(_, stage string, st *State) {
		if stage == StageCTS {
			st.Die.Ux = st.Die.Lx + 15*float64(route.MaxGridDim+1)
		}
	}
	_, st, _, err := Run(context.Background(), "2d", cfg)
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageRoute || se.Stack != nil {
		t.Fatalf("want a clean route-stage error, got %v", err)
	}
	if !strings.Contains(err.Error(), "exceeds the addressable") || !errors.Is(err, st.DB.Err()) {
		t.Errorf("flow error does not carry the router's: %v", err)
	}
	if st.Routes != nil {
		t.Error("a route result exists over an unaddressable grid")
	}
}

// TestDecodeNetStateSinkArena: the nets of a signoff snapshot decode
// their sinks into the one arena its declared total sized, each net a
// full window of it; a net overrunning the total is an error.
func TestDecodeNetStateSinkArena(t *testing.T) {
	d := netlist.NewDesign("n", cell.NewStdLib28(cell.DefaultLibOptions()))
	var ports []netlist.PinRef
	for i := 0; i < 7; i++ {
		ports = append(ports, netlist.PPin(d.AddPort(fmt.Sprintf("p%d", i), cell.DirIn)))
	}
	e := stash.NewEnc()
	encodeNetState(e, d.AddNet("a", ports[0], ports[1], ports[2]), false)
	encodeNetState(e, d.AddNet("b", ports[3], ports[4], ports[5], ports[6]), false)

	arena := make([]pinRefWire, 0, 5)
	dec := stash.NewDec(e.Bytes())
	a, err := decodeNetState(dec, false, &arena)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeNetState(dec, false, &arena)
	if err != nil || dec.Done() != nil {
		t.Fatal(err, dec.Done())
	}
	if len(a.sinks) != 2 || cap(a.sinks) != 2 || len(b.sinks) != 3 || len(arena) != 5 ||
		a.sinks[1].portID != 2 || b.sinks[0].portID != 4 {
		t.Fatalf("sink windows: %+v %+v", a.sinks, b.sinks)
	}

	arena = make([]pinRefWire, 0, 4)
	dec = stash.NewDec(e.Bytes())
	if _, err := decodeNetState(dec, false, &arena); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeNetState(dec, false, &arena); err == nil {
		t.Fatal("a net overran the declared sink total without error")
	}
}

// signoffFixture is the design FuzzDecodeSignoff validates snapshots
// against and rebuilds them on — three inverters between two ports, its
// third net appended after the base (preNet 2), as a buffer's is — and
// a timing report over it.
func signoffFixture(lib *cell.Library) (d *netlist.Design, preNet int, rep *sta.Report) {
	d = netlist.NewDesign("fz", lib)
	in, out := d.AddPort("in", cell.DirIn), d.AddPort("out", cell.DirOut)
	a, b, c := d.AddInstance("a", lib.MustCell("INV_X1")), d.AddInstance("b", lib.MustCell("INV_X2")), d.AddInstance("c", lib.MustCell("INV_X1"))
	d.AddNet("n0", netlist.PPin(in), netlist.IPin(a, "A"))
	d.AddNet("n1", netlist.IPin(a, "Y"), netlist.IPin(b, "A"), netlist.PPin(out))
	buf := d.AddNet("buf_n", netlist.IPin(b, "Y"), netlist.IPin(c, "A"))
	buf.Weight, buf.Clock = 1.5, true
	path := sta.Path{
		Steps: []sta.PathStep{{Ref: netlist.PPin(in), Arrival: 10}, {Ref: netlist.IPin(a, "Y"), Arrival: 31.5}, {Ref: netlist.IPin(b, "A"), Arrival: 40}},
		Delay: 40, Wirelength: 120, HalfCycle: true,
	}
	rep = &sta.Report{
		MinPeriod: 812.5, FmaxMHz: 1230.8, WNS: -3, TNS: -7.25, Critical: path,
		Paths: []sta.Path{path, {Delay: 12}}, Endpoints: 4, HoldWNS: 2.5, HoldViolations: 1, HoldEndpoints: 3,
	}
	return d, 2, rep
}

// encodeSignoffTail writes the part of a signoff snapshot
// decodeSignoffTail reads: the net count, the net section and the timing
// report, as the checkpoint's save writes them.
func encodeSignoffTail(nets []*netlist.Net, preNet int, rep *sta.Report) []byte {
	e := stash.NewEnc()
	e.Int(len(nets))
	encodeNets(e, nets, preNet)
	encodeReport(e, rep)
	return e.Bytes()
}

// decodeSignoffTail is the decode-and-validate half of the signoff load
// for what encodeSignoffTail writes, against d: it touches nothing of d.
func decodeSignoffTail(b []byte, d *netlist.Design, preNet int) ([]netStateWire, reportWire, error) {
	dec := stash.NewDec(b)
	nets, _, err := decodeNets(dec, preNet, dec.Count(netWireMin))
	if err != nil {
		return nil, reportWire{}, err
	}
	rep := decodeReportWire(dec)
	if err := dec.Done(); err != nil {
		return nil, reportWire{}, err
	}
	for _, w := range nets {
		if err := w.validate(len(d.Instances), len(d.Ports)); err != nil {
			return nil, reportWire{}, err
		}
	}
	return nets, rep, rep.validate(len(d.Instances), len(d.Ports))
}

// FuzzDecodeSignoff holds the signoff snapshot's net and report decoders
// (decodeNets over decodeNetState, decodeReportWire) to FuzzDecodeResult's
// contract: whatever the bytes, decoding and validating never panics and
// never allocates past a small multiple of the input (every count is held
// to the bytes left), and an input that decodes is canonical — rebuilt
// into nets and a report on the design it validated against, it
// re-encodes to the same bytes. The corpus is one good snapshot tail and
// its truncations.
func FuzzDecodeSignoff(f *testing.F) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	d, preNet, rep := signoffFixture(lib)
	good := encodeSignoffTail(d.Nets, preNet, rep)
	if _, _, err := decodeSignoffTail(good, d, preNet); err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, n := range []int{0, 7, 8, 16, 17, 40, len(good) / 2, len(good) - 25, len(good) - 1} {
		f.Add(good[:n])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d, preNet, _ := signoffFixture(lib)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		nets, rw, err := decodeSignoffTail(b, d, preNet)
		runtime.ReadMemStats(&m1)
		// Each count is held to the bytes left at its element's fewest
		// bytes: 88-byte net records for 18, 32-byte sinks for 5, 48-byte
		// paths for 25, 40-byte steps for 9 — 6.4× the input at the
		// worst for one count, 11.3× for a net count and a sink total
		// claiming the same bytes — before size-class rounding, the
		// decoder's symbol table and whatever the fuzzing engine allocated
		// beside.
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(16*len(b)+64<<10); got > limit && !raceEnabled {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(b), got, limit)
		}
		if err != nil {
			return
		}
		live := make([]*netlist.Net, len(nets))
		for i, w := range nets {
			live[i] = &netlist.Net{Name: w.name}
			w.apply(d, live[i])
		}
		if again := encodeSignoffTail(live, preNet, rw.build(d)); !bytes.Equal(again, b) {
			t.Fatalf("%d bytes decode but re-encode to %d different ones", len(b), len(again))
		}
	})
}

// tinySignedOff runs the tiny Macro-3D flow and returns its finished
// state with the placement and signoff checkpoints over it.
func tinySignedOff(t *testing.T) (st *State, place, signoff checkpoint) {
	t.Helper()
	_, st, _, err := RunMacro3D(Config{Piton: piton.Tiny(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tt, err := tech.New28(6)
	if err != nil {
		t.Fatal(err)
	}
	f := &flow{runner: &runner{st: st}, t: tt}
	return st, placementCheckpoint(StagePlace, nil, st.Design), f.signoffCheckpoint(nil)
}

// TestCheckpointLoadAllocs: restoring a snapshot costs a string per
// distinct master and pin name (Dec.Sym), not one per instance and per
// sink. The placement load is the decoder's tables and little else; the
// signoff load also re-extracts the design and rebuilds the timing
// report, and still stays far below one object per record.
func TestCheckpointLoadAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st, place, signoff := tinySignedOff(t)
	insts, sinks := len(st.Design.Instances), 0
	for _, n := range st.Design.Nets {
		sinks += len(n.Sinks)
	}
	loadAllocs := func(cp checkpoint) float64 {
		e := stash.NewEnc()
		if err := cp.save(e); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if err := cp.load(stash.NewDec(e.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a := loadAllocs(place); a > float64(insts)/8 {
		t.Errorf("placement load allocates %.0f objects for %d instances", a, insts)
	}
	if a := loadAllocs(signoff); a > float64(insts+sinks)/4 {
		t.Errorf("signoff load allocates %.0f objects for %d instances + %d sinks", a, insts, sinks)
	}
}

// TestSnapshotSizesExact: the size each save states to the encoder up
// front is the size of what it then writes, so a snapshot is encoded into
// one allocation of its own length instead of a buffer doubled up to it.
func TestSnapshotSizesExact(t *testing.T) {
	st, place, signoff := tinySignedOff(t)
	inst, nets := st.Design.Counts()
	for _, c := range []struct {
		cp   checkpoint
		size int
	}{
		{place, placementSize(st.Design)},
		{signoff, signoffSize(st, inst, nets)},
		{routeCheckpoint(st, nil, nil), resultSize(st.Routes) + dynStateSize(st.DB)},
	} {
		e := stash.NewEnc()
		if err := c.cp.save(e); err != nil {
			t.Fatal(err)
		}
		if e.Len() != c.size {
			t.Errorf("%s snapshot is %d bytes, its save states %d", c.cp.name, e.Len(), c.size)
		}
		if cap(e.Bytes()) > e.Len()+e.Len()/16 { // a size class of slack, not a second growth
			t.Errorf("%s snapshot: %d bytes in a buffer of %d", c.cp.name, e.Len(), cap(e.Bytes()))
		}
	}
	// The named forms, which a finished state's own snapshot has none of.
	e := stash.NewEnc()
	size := 0
	for _, inst := range st.Design.Instances {
		encodeInstState(e, inst, true)
		size += instStateSize(inst, true)
	}
	for _, n := range st.Design.Nets {
		encodeNetState(e, n, true)
		size += netStateSize(n, true)
	}
	if e.Len() != size {
		t.Errorf("named instances and nets encode to %d bytes, their sizes add up to %d", e.Len(), size)
	}
	for _, nets := range []int{0, 1, 250} {
		res := randomResult(11, nets)
		if got := len(encodeResultBytes(res)); got != resultSize(res) {
			t.Errorf("a %d-net result encodes to %d bytes, resultSize says %d", nets, got, resultSize(res))
		}
	}
}

// BenchmarkResultCodec is the stash-codec kernel: the small Macro-3D
// tile's routing result through encodeResult and decodeResult (`make
// bench`, with allocations: the decode is a constant handful of
// objects and the bytes of the records it fills).
func BenchmarkResultCodec(b *testing.B) {
	_, st, _, err := RunMacro3D(Config{Piton: piton.SmallCache(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	payload := encodeResultBytes(st.Routes)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if len(encodeResultBytes(st.Routes)) != len(payload) {
				b.Fatal("encoding is not stable")
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			res, err := decodeResultBytes(payload)
			if err != nil || len(res.Routes) != len(st.Routes.Routes) {
				b.Fatal(err)
			}
		}
	})
}

// instStateDefects damages the instance state whose coordinates start at
// byte off of a good snapshot, once per value no instance can hold: an
// orientation past geom.OrientFS, a die past netlist.MacroDie, a flag bit
// the encoder never writes, a coordinate that is not a finite number.
func instStateDefects(good []byte, off int) []corruptCase {
	set := func(name string, at int, b ...byte) corruptCase {
		c := slices.Clone(good)
		copy(c[at:], b)
		return corruptCase{name, c}
	}
	f64 := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	return []corruptCase{
		set("orient", off+16, byte(geom.OrientFS)+1),
		set("die", off+18, byte(netlist.MacroDie)+1),
		set("flags", off+17, 4),
		set("nan-x", off, f64(math.NaN())...),
		set("inf-y", off+8, f64(math.Inf(-1))...),
	}
}

// TestInstStateRejectsImpossibleValues: the placement, signoff and pseudo
// loads reject every instStateDefects case (the pseudo snapshot carries
// coordinates only) before they apply anything: the design snapshots to
// the same bytes afterwards.
func TestInstStateRejectsImpossibleValues(t *testing.T) {
	st, place, signoff := tinySignedOff(t)
	d := st.Design
	pseudo := pseudoCheckpoint(nil, d)
	save := func(cp checkpoint) []byte {
		e := stash.NewEnc()
		if err := cp.save(e); err != nil {
			t.Fatal(err)
		}
		return e.Bytes()
	}
	firstCell := d.StdCells()[0].Master.Name
	for _, c := range []struct {
		cp         checkpoint
		off        int  // the first instance's coordinates
		coordsOnly bool // the snapshot has no orientation, flags or die
	}{
		{place, 8 + 4 + len(d.Instances[0].Master.Name), false},
		{signoff, 4 + len(d.Name) + 4*8 + 4 + len(d.Instances[0].Master.Name), false},
		{pseudo, 8 + 4 + len(firstCell), true},
	} {
		good := save(c.cp)
		before := save(signoff)
		if err := c.cp.load(stash.NewDec(good)); err != nil {
			t.Fatalf("%s: the good snapshot does not load: %v", c.cp.name, err)
		}
		defects := instStateDefects(good, c.off)
		if c.coordsOnly {
			defects = defects[3:] // the coordinate cases
		}
		for _, bad := range defects {
			if err := c.cp.load(stash.NewDec(bad.b)); err == nil {
				t.Errorf("%s snapshot with an impossible %s loaded", c.cp.name, bad.name)
			}
			if !bytes.Equal(save(signoff), before) {
				t.Fatalf("%s snapshot with an impossible %s changed the design", c.cp.name, bad.name)
			}
		}
	}
}

// placementFixture is the design FuzzDecodePlacement decodes against — a
// copy of the tiny tile, as a flow starts from — and a good placement
// snapshot of another copy whose instances take every orientation, both
// dies, every flag combination and a spread of locations, and whose
// every seventh standard cell is a macro-die view (an "_MD" master that
// resolves through core.DieViews).
func placementFixture(tb testing.TB) (*netlist.Design, []byte) {
	d, err := newTile(piton.Tiny())
	if err != nil {
		tb.Fatal(err)
	}
	src, err := newTile(piton.Tiny())
	if err != nil {
		tb.Fatal(err)
	}
	views := core.DieViews{}
	for i, inst := range src.Design.Instances {
		inst.Loc = geom.Pt(float64(i)*0.75, -float64(i%29)*1.5)
		inst.Orient = geom.Orient(i % 4)
		inst.Die = netlist.Die(i % 2)
		inst.Fixed, inst.Placed = i%3 == 0, i%5 != 0
		if i%7 == 0 && !inst.IsMacro() {
			inst.Master = views.MacroDie(inst.Master)
		}
	}
	e := stash.NewEnc()
	if err := placementCheckpoint(StagePlace, nil, src.Design).save(e); err != nil {
		tb.Fatal(err)
	}
	return d.Design, e.Bytes()
}

// encodeStates re-encodes decoded instance states as a placement
// snapshot, each applied to a scratch record.
func encodeStates(states []instStateWire) []byte {
	e := stash.NewEnc()
	e.Int(len(states))
	for _, w := range states {
		var inst netlist.Instance
		w.apply(&inst)
		encodeInstState(e, &inst, false)
	}
	return e.Bytes()
}

// FuzzDecodePlacement holds the placement snapshot's decoder
// (decodePlacement over decodeInstState, as the placement and partition
// checkpoints load) to FuzzDecodeResult's contract: whatever the bytes,
// decoding and validating against a tiny-tile design never panics and
// never allocates past a small multiple of the input (the instance count
// is held to the bytes left before it sizes the state table), and an
// input that decodes is canonical — it re-encodes to the same bytes. The
// corpus is one good snapshot and one case of each impossible state.
func FuzzDecodePlacement(f *testing.F) {
	d, good := placementFixture(f)
	states, err := decodePlacement(stash.NewDec(good), d)
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.Equal(encodeStates(states), good) {
		f.Fatal("the good snapshot does not re-encode to itself")
	}
	f.Add(good)
	for _, c := range instStateDefects(good, 8+4+len(states[0].master)) {
		if _, err := decodePlacement(stash.NewDec(c.b), d); err == nil {
			f.Fatalf("a snapshot with an impossible %s decodes", c.name)
		}
		f.Add(c.b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		states, err := decodePlacement(stash.NewDec(b), d)
		runtime.ReadMemStats(&m1)
		// 64-byte states for at least 23 bytes each, 2.8× the input, then
		// the decoder's symbol table and a view per distinct "_MD" master.
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(16*len(b)+64<<10); got > limit && !raceEnabled {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(b), got, limit)
		}
		if err != nil {
			return
		}
		if again := encodeStates(states); !bytes.Equal(again, b) {
			t.Fatalf("%d bytes decode but re-encode to %d different ones", len(b), len(again))
		}
	})
}
