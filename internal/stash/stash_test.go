package stash

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

func testKey(s string) Key { return NewKey([]byte(s)) }

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("a")
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on an empty store")
	}
	payload := []byte("the stage state")
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v; want 1 hit, 1 miss, 1 put", st)
	}
	if st.BytesRead != uint64(len(payload)) || st.BytesWritten != uint64(len(payload)) {
		t.Errorf("byte counters = %+v", st)
	}
}

// TestStoreNoTempLeftovers pins the atomic-write contract: after puts,
// the directory contains only committed .snap files.
func TestStoreNoTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := s.Put(testKey(name), []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("want 3 entries, got %d", len(entries))
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".snap") {
			t.Errorf("leftover non-snapshot file %q", e.Name())
		}
	}
}

// TestStoreCorruptionIsMissAndEviction covers every frame-level
// corruption: truncation, a flipped payload bit, bad magic and a
// version from the future all read as a miss and remove the file.
func TestStoreCorruptionIsMissAndEviction(t *testing.T) {
	corrupt := []struct {
		name string
		mod  func(b []byte) []byte
	}{
		{"truncated-header", func(b []byte) []byte { return b[:headerSize/2] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-3] }},
		{"bit-flip", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"future-version", func(b []byte) []byte { b[len(fileMagic)] = 0xee; return b }},
		{"empty", func([]byte) []byte { return nil }},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			k := testKey(tc.name)
			if err := s.Put(k, []byte("some perfectly good state")); err != nil {
				t.Fatal(err)
			}
			path := s.Path(k)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mod(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(k); ok {
				t.Fatalf("corrupt snapshot read back as a hit: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt snapshot was not evicted")
			}
			if st := s.Stats(); st.Evictions != 1 {
				t.Errorf("stats = %+v; want 1 eviction", st)
			}
		})
	}
}

func TestKeyDerivation(t *testing.T) {
	root := NewKey([]byte("root"))
	a := root.Derive("place", nil)
	b := root.Derive("place", []byte("x"))
	c := root.Derive("route", nil)
	if a == b || a == c || b == c || a == root {
		t.Error("distinct inputs must derive distinct keys")
	}
	if a != root.Derive("place", nil) {
		t.Error("derivation must be deterministic")
	}
	// Length-prefixed stage names: ("ab", "c") must differ from ("a", "bc").
	if root.Derive("ab", []byte("c")) == root.Derive("a", []byte("bc")) {
		t.Error("stage name and material must not concatenate ambiguously")
	}
	if len(root.String()) != 64 {
		t.Errorf("key hex = %q", root.String())
	}
}

func TestCodecRoundTrip(t *testing.T) {
	e := NewEnc()
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.Int(-42)
	e.F64(3.14159)
	e.F32(-2.5)
	e.Str("hello, stash")
	e.I32s([]int32{-1, 0, 1 << 30})
	e.F32s([]float32{0.5, -0.25})
	e.F64s([]float64{1e-300, 1e300})

	d := NewDec(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip")
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %x", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Errorf("U64 = %x", got)
	}
	if got := d.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.F32(); got != -2.5 {
		t.Errorf("F32 = %v", got)
	}
	if got := d.Str(); got != "hello, stash" {
		t.Errorf("Str = %q", got)
	}
	if got := d.I32s(); len(got) != 3 || got[0] != -1 || got[2] != 1<<30 {
		t.Errorf("I32s = %v", got)
	}
	if got := d.F32s(); len(got) != 2 || got[1] != -0.25 {
		t.Errorf("F32s = %v", got)
	}
	if got := d.F64s(); len(got) != 2 || got[1] != 1e300 {
		t.Errorf("F64s = %v", got)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}

	// Flags: the bits of the mask pass, any other is an error.
	d = NewDec([]byte{3, 4})
	if got := d.Flags(3); got != 3 || d.Err() != nil {
		t.Errorf("Flags = %d, %v", got, d.Err())
	}
	if got := d.Flags(3); got != 0 || d.Err() == nil {
		t.Errorf("Flags(3) of 4 = %d, %v; want an error", got, d.Err())
	}
}

// TestCodecTruncationNeverPanics decodes every prefix of a valid
// snapshot: each must end in a sticky error or a clean Done, never a
// panic or a giant allocation.
func TestCodecTruncationNeverPanics(t *testing.T) {
	e := NewEnc()
	e.Str("net")
	e.I32s([]int32{1, 2, 3, 4})
	e.F64(1.0)
	full := e.Bytes()
	for n := 0; n < len(full); n++ {
		d := NewDec(full[:n])
		d.Str()
		d.I32s()
		d.F64()
		if err := d.Done(); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded cleanly", n, len(full))
		}
	}
}

// TestCodecHugeLengthPrefix pins that a corrupt length prefix is
// rejected before allocation.
func TestCodecHugeLengthPrefix(t *testing.T) {
	e := NewEnc()
	e.U32(0xffffffff) // a length prefix promising 4 G entries
	d := NewDec(e.Bytes())
	if got := d.I32s(); got != nil {
		t.Errorf("I32s on corrupt prefix = %v", got)
	}
	if d.Err() == nil {
		t.Error("huge length prefix must error")
	}
	d2 := NewDec(e.Bytes())
	if got := d2.Str(); got != "" || d2.Err() == nil {
		t.Error("huge string prefix must error")
	}
}

// TestCodecExtendView: fixed-width records written through Extend read
// back through View in place, between ordinary fields; a View past the
// end is a sticky error, and Extend's window survives later appends as
// bytes of the snapshot.
func TestCodecExtendView(t *testing.T) {
	e := NewEnc()
	e.U8(7)
	copy(e.Extend(5), "abcde")
	e.Extend(0)
	e.U32(9)
	d := NewDec(e.Bytes())
	if d.U8() != 7 || string(d.View(5)) != "abcde" || len(d.View(0)) != 0 || d.U32() != 9 {
		t.Fatal("Extend/View round trip")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	d = NewDec(e.Bytes())
	if d.View(e.Len()+1) != nil || d.Err() == nil || d.U8() != 0 {
		t.Error("oversized View must fail and stick")
	}
}

// TestEncGrow: after Grow(n) the next n bytes are appended in place, and
// what was encoded before is kept.
func TestEncGrow(t *testing.T) {
	e := NewEnc()
	e.U8(7)
	e.Grow(1 << 20)
	room := cap(e.Bytes())
	e.Extend(1 << 20)
	if cap(e.Bytes()) != room || e.Len() != 1<<20+1 || e.Bytes()[0] != 7 {
		t.Errorf("after Grow(1<<20): cap %d → %d, len %d, first byte %d", room, cap(e.Bytes()), e.Len(), e.Bytes()[0])
	}
}

// TestDecSym: Sym reads what Str reads; equal values share their
// backing bytes, distinct values do not; a truncated or oversized length
// fails exactly as Str's does, and Done still sees trailing bytes.
func TestDecSym(t *testing.T) {
	words := []string{"NAND2_X1", "A", "NAND2_X1", "", "A", "NAND2_X1_MD", "NAND2_X1"}
	e := NewEnc()
	for _, w := range words {
		e.Str(w)
	}
	full := e.Bytes()

	d, ref := NewDec(full), NewDec(full)
	got := make([]string, len(words))
	for i, w := range words {
		got[i] = d.Sym()
		if got[i] != w || ref.Str() != w {
			t.Fatalf("Sym %d = %q, want %q", i, got[i], w)
		}
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	data := func(s string) *byte { return unsafe.StringData(s) }
	if data(got[0]) != data(got[2]) || data(got[0]) != data(got[6]) || data(got[1]) != data(got[4]) {
		t.Error("equal symbols do not share backing storage")
	}
	if data(got[0]) == data(got[5]) || data(got[0]) == data(got[1]) {
		t.Error("distinct symbols share backing storage")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		d := NewDec(full)
		for range words {
			d.Sym()
		}
	}); allocs > 6 { // the decoder, the table and its buckets, three distinct non-empty values
		t.Errorf("reading %d symbols of 3 distinct values allocates %.0f objects", len(words), allocs)
	}

	// Every prefix, and an oversized length: the same error at the same
	// offset as Str, and sticky.
	huge := NewEnc()
	huge.U32(0xffffffff)
	cases := [][]byte{huge.Bytes()}
	for n := 0; n < len(full); n++ {
		cases = append(cases, full[:n])
	}
	for _, b := range cases {
		sd, rd := NewDec(b), NewDec(b)
		for range words {
			if s, r := sd.Sym(), rd.Str(); s != r {
				t.Fatalf("%d-byte input: Sym %q, Str %q", len(b), s, r)
			}
		}
		if sd.Err() == nil || sd.Err().Error() != rd.Err().Error() {
			t.Fatalf("%d-byte input: Sym error %v, Str error %v", len(b), sd.Err(), rd.Err())
		}
		if sd.Sym() != "" || sd.Done() == nil {
			t.Fatalf("%d-byte input: the error did not stick", len(b))
		}
	}

	e.U8(0)
	d = NewDec(e.Bytes())
	for range words {
		d.Sym()
	}
	if d.Err() != nil || d.Done() == nil {
		t.Error("trailing bytes after the last symbol must fail Done")
	}
}

func TestDecDoneRejectsTrailingBytes(t *testing.T) {
	e := NewEnc()
	e.U32(1)
	e.U8(0)
	d := NewDec(e.Bytes())
	d.U32()
	if err := d.Done(); err == nil {
		t.Error("trailing bytes must fail Done")
	}
}

func TestFrameUnframe(t *testing.T) {
	payload := []byte("payload")
	got, err := unframe(append(frameHeader(payload), payload...))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("unframe(header(p) + p) = %q, %v", got, err)
	}
	if _, err := unframe(frameHeader(nil)); err != nil {
		t.Fatalf("empty payload must frame cleanly: %v", err)
	}
}

// FuzzUnframe holds the snapshot frame reader to its contract on
// arbitrary bytes: it never panics, and what it accepts re-frames to the
// same bytes; frameHeader(p)+p unframes to p; and flipping any single
// byte of that frame — magic, version, length, checksum or payload —
// makes it fail. The seeds are an empty and a short payload, each as
// bare bytes and as a whole frame, and a frame cut short.
func FuzzUnframe(f *testing.F) {
	for _, p := range [][]byte{nil, []byte("payload")} {
		f.Add(p, byte(1))
		f.Add(append(frameHeader(p), p...), byte(0x80))
	}
	f.Add(frameHeader([]byte("cut"))[:headerSize-1], byte(0xff))
	f.Fuzz(func(t *testing.T, data []byte, mask byte) {
		if got, err := unframe(data); err == nil {
			if again := append(frameHeader(got), got...); !bytes.Equal(again, data) {
				t.Fatalf("unframe accepted %d bytes that re-frame to %d others", len(data), len(again))
			}
		}
		frame := append(frameHeader(data), data...)
		got, err := unframe(frame)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("unframe(header(p) + p) = %d bytes, %v; want the %d of p", len(got), err, len(data))
		}
		if mask == 0 {
			mask = 1
		}
		// Every position of a short frame; a long one's header and a stride
		// through its payload, so an input costs O(len), not O(len²).
		stride := max(1, len(frame)/1024)
		for i := 0; i < len(frame); i++ {
			if i >= headerSize && (i-headerSize)%stride != 0 {
				continue
			}
			frame[i] ^= mask
			if _, err := unframe(frame); err == nil {
				t.Fatalf("a frame with byte %d of %d flipped by %#x unframes", i, len(frame), mask)
			}
			frame[i] ^= mask
		}
	})
}

func TestOpenCreatesNestedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "stash")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey("x"), []byte("y")); err != nil {
		t.Fatal(err)
	}
}
