package gds

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"testing"

	"macro3d/internal/core"
	"macro3d/internal/flows"
	"macro3d/internal/piton"
)

// parseRecords splits a stream into (type, payload) records.
func parseRecords(t *testing.T, b []byte) [][2]interface{} {
	t.Helper()
	var out [][2]interface{}
	for len(b) > 0 {
		if len(b) < 4 {
			t.Fatal("truncated record header")
		}
		total := int(binary.BigEndian.Uint16(b))
		kind := binary.BigEndian.Uint16(b[2:])
		if total < 4 || total > len(b) {
			t.Fatalf("bad record length %d (have %d)", total, len(b))
		}
		out = append(out, [2]interface{}{kind, append([]byte(nil), b[4:total]...)})
		b = b[total:]
	}
	return out
}

func kinds(recs [][2]interface{}) []uint16 {
	ks := make([]uint16, len(recs))
	for i, r := range recs {
		ks[i] = r[0].(uint16)
	}
	return ks
}

func TestWriterStreamStructure(t *testing.T) {
	var buf bytes.Buffer
	g := NewWriter(&buf, "lib")
	g.BeginStruct("die")
	g.Boundary(1, 0, 0, 10, 5)
	g.Path(3, 0.2, 0, 0, 100, 0)
	g.EndStruct()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	recs := parseRecords(t, buf.Bytes())
	ks := kinds(recs)
	want := []uint16{recHEADER, recBGNLIB, recLIBNAME, recUNITS, recBGNSTR, recSTRNAME,
		recBOUNDARY, recLAYER, recDATATYPE, recXY, recENDEL,
		recPATH, recLAYER, recDATATYPE, recWIDTH, recXY, recENDEL,
		recENDSTR, recENDLIB}
	if len(ks) != len(want) {
		t.Fatalf("record count %d, want %d: %v", len(ks), len(want), ks)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("record %d = 0x%04x, want 0x%04x", i, ks[i], want[i])
		}
	}
	// Boundary XY: 5 points closed polygon in nm.
	var xy []byte
	for _, r := range recs {
		if r[0].(uint16) == recXY {
			xy = r[1].([]byte)
			break
		}
	}
	if len(xy) != 40 {
		t.Fatalf("boundary XY payload %d bytes", len(xy))
	}
	x0 := int32(binary.BigEndian.Uint32(xy[0:]))
	x1 := int32(binary.BigEndian.Uint32(xy[8:]))
	if x0 != 0 || x1 != 10*DBUPerUm {
		t.Fatalf("coords %d %d", x0, x1)
	}
	first := xy[:8]
	last := xy[32:]
	if !bytes.Equal(first, last) {
		t.Fatal("polygon not closed")
	}
}

// decodeGDSReal inverts the excess-64 encoding for the test.
func decodeGDSReal(b []byte) float64 {
	if isZero(b) {
		return 0
	}
	sign := 1.0
	if b[0]&0x80 != 0 {
		sign = -1
	}
	exp := int(b[0]&0x7F) - 64
	var mant uint64
	for i := 1; i < 8; i++ {
		mant = mant<<8 | uint64(b[i])
	}
	return sign * float64(mant) / math.Pow(2, 56) * math.Pow(16, float64(exp))
}

func isZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// realBytes is v's GDSII real as the stream holds it.
func realBytes(v float64) []byte { return binary.BigEndian.AppendUint64(nil, gdsReal(v)) }

// TestWriterAllocatesNothing: every record is built in the writer's one
// scratch buffer, so an element costs no allocation, however many a
// die's stream holds.
func TestWriterAllocatesNothing(t *testing.T) {
	g := NewWriter(io.Discard, "lib")
	g.BeginStruct("die")
	if n := testing.AllocsPerRun(100, func() { g.Boundary(LayerCells, 1.5, 2, 10.25, 5) }); n != 0 {
		t.Errorf("Boundary: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.Path(3, 0.2, 0, 0, 100, 0.5) }); n != 0 {
		t.Errorf("Path: %v allocations, want 0", n)
	}
	g.EndStruct()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGDSRealRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1e-3, 1e-9, 1, 0.5, 2, 1e6, 3.14159, 1e-12} {
		got := decodeGDSReal(realBytes(v))
		if v == 0 {
			if got != 0 {
				t.Fatalf("zero encodes to %v", got)
			}
			continue
		}
		if math.Abs(got-v)/v > 1e-12 {
			t.Fatalf("real %v round-trips to %v", v, got)
		}
	}
	// Negative values.
	if got := decodeGDSReal(realBytes(-2.5)); math.Abs(got+2.5) > 1e-12 {
		t.Fatalf("-2.5 → %v", got)
	}
}

func TestLayerNumber(t *testing.T) {
	cases := []struct {
		name string
		want int16
	}{
		{"M1", 1}, {"M6", 6}, {"M4_MD", 14}, {"M1_MD", 11}, {"F2F_VIA", LayerF2F},
	}
	for _, c := range cases {
		got, err := LayerNumber(c.name)
		if err != nil || got != c.want {
			t.Errorf("LayerNumber(%s) = %d, %v", c.name, got, err)
		}
	}
	if _, err := LayerNumber("poly"); err == nil {
		t.Fatal("unknown layer accepted")
	}
}

// element is one BOUNDARY or PATH of a stream: its record type, layer
// and points (dbu).
type element struct {
	kind  uint16
	layer int16
	xy    []int32
}

// elements reads a stream's BOUNDARY and PATH elements in order.
func elements(t *testing.T, b []byte) []element {
	t.Helper()
	var out []element
	var cur *element
	for _, r := range parseRecords(t, b) {
		kind, payload := r[0].(uint16), r[1].([]byte)
		switch kind {
		case recBOUNDARY, recPATH:
			out = append(out, element{kind: kind})
			cur = &out[len(out)-1]
		case recLAYER:
			cur.layer = int16(binary.BigEndian.Uint16(payload))
		case recXY:
			for i := 0; i+4 <= len(payload); i += 4 {
				cur.xy = append(cur.xy, int32(binary.BigEndian.Uint32(payload[i:])))
			}
		}
	}
	return out
}

// isMacroDieLayer reports whether a GDS layer is an M<k>_MD metal.
func isMacroDieLayer(layer int16) bool { return layer > macroDieBase && layer < macroDieBase+10 }

// TestExportSeparatedDies holds the two streams of a Macro-3D run to
// the separation contract: the logic stream carries no macro-die metal;
// the macro stream only macro-die metal, the F2F bumps, the outline and
// the macros; both carry the same bump boxes, one per F2F crossing; and
// each layer's paths add up to the route's wirelength on that layer. A
// separation that wrote one stream over both dies' layers fails all but
// the bump check. The tiny tile routes no wire on the macro die, so the
// small one is run too.
func TestExportSeparatedDies(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  flows.Config
	}{
		{"tiny", flows.Config{Piton: piton.Tiny(), Seed: 5}},
		{"small", flows.Config{Piton: piton.SmallCache(), Seed: 1}},
	} {
		t.Run(c.name, func(t *testing.T) { testExportSeparatedDies(t, c.cfg) })
	}
}

func testExportSeparatedDies(t *testing.T, cfg flows.Config) {
	_, st, mol, err := flows.RunMacro3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logicPart, macroPart, err := core.Separate(mol, st.Routes, st.DB)
	if err != nil {
		t.Fatal(err)
	}
	var logicBuf, macroBuf bytes.Buffer
	if err := ExportDie(&logicBuf, st.Design, logicPart, st.Routes, st.DB); err != nil {
		t.Fatal(err)
	}
	if err := ExportDie(&macroBuf, st.Design, macroPart, st.Routes, st.DB); err != nil {
		t.Fatal(err)
	}
	logic, macro := elements(t, logicBuf.Bytes()), elements(t, macroBuf.Bytes())
	count := func(els []element, layer int16) int {
		n := 0
		for _, e := range els {
			if e.layer == layer {
				n++
			}
		}
		return n
	}
	// Logic die: cells and logic metal, no macro-die metal.
	if count(logic, LayerCells) == 0 {
		t.Fatal("logic die has no cell geometry")
	}
	if count(logic, 5) == 0 {
		t.Fatal("logic die has no M5 wires")
	}
	for _, e := range logic {
		if isMacroDieLayer(e.layer) {
			t.Fatalf("logic die carries macro-die layer %d", e.layer)
		}
	}
	// Macro die: macros, and nothing of the logic die.
	if count(macro, LayerMacros) == 0 {
		t.Fatal("macro die has no macros")
	}
	for _, e := range macro {
		if !isMacroDieLayer(e.layer) && e.layer != LayerF2F && e.layer != LayerOutline && e.layer != LayerMacros {
			t.Fatalf("macro die carries layer %d", e.layer)
		}
	}

	// Both carry the same bump boxes at the same coordinates, one per
	// F2F crossing.
	bumps := func(els []element) []string {
		var out []string
		for _, e := range els {
			if e.layer == LayerF2F {
				out = append(out, fmt.Sprint(e.xy))
			}
		}
		slices.Sort(out)
		return out
	}
	lb, mb := bumps(logic), bumps(macro)
	if len(lb) != st.Routes.F2FBumps || !slices.Equal(lb, mb) {
		t.Fatalf("bump boxes: %d in the logic stream, %d in the macro stream (equal: %v), %d F2F bumps routed",
			len(lb), len(mb), slices.Equal(lb, mb), st.Routes.F2FBumps)
	}

	// Per-layer path length, both streams together, is the route's
	// per-layer wirelength, within a dbu of rounding per path end pair.
	length, paths := map[int16]int64{}, map[int16]int{}
	for _, e := range append(logic, macro...) {
		if e.kind != recPATH {
			continue
		}
		dx, dy := int64(e.xy[2]-e.xy[0]), int64(e.xy[3]-e.xy[1])
		length[e.layer] += max(dx, -dx) + max(dy, -dy)
		paths[e.layer]++
	}
	for li, l := range st.DB.Beol.Layers {
		num, err := LayerNumber(l.Name)
		if err != nil {
			t.Fatal(err)
		}
		want := st.Routes.WLPerLayer[li] * DBUPerUm
		if got := float64(length[num]); math.Abs(got-want) > float64(paths[num])+1e-9*want {
			t.Errorf("layer %s: %d paths %.0f dbu long, the route %.0f", l.Name, paths[num], got, want)
		}
		delete(length, num)
	}
	if len(length) != 0 {
		t.Errorf("paths on layers the stack lacks: %v", length)
	}
}
