package stash

import (
	"fmt"
	"math"
	"slices"
)

// Enc builds a deterministic little-endian binary snapshot. All
// multi-byte values are written least-significant byte first; floats
// are written as their IEEE-754 bit patterns, so the encoding of equal
// state is byte-identical across runs, worker counts and platforms.
type Enc struct {
	b []byte
}

// NewEnc returns an empty encoder.
func NewEnc() *Enc { return &Enc{b: make([]byte, 0, 4096)} }

// Bytes returns the encoded snapshot.
func (e *Enc) Bytes() []byte { return e.b }

// Len returns the number of bytes encoded so far.
func (e *Enc) Len() int { return len(e.b) }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a bool as one byte (0/1).
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Int appends an int as its two's-complement 64-bit pattern.
func (e *Enc) Int(v int) { e.U64(uint64(int64(v))) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// F32 appends a float32 as its IEEE-754 bit pattern.
func (e *Enc) F32(v float32) { e.U32(math.Float32bits(v)) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.b = append(e.b, b...)
}

// Grow makes room for n more bytes in one allocation, for a caller that
// knows (a lower bound on) the size of what it is about to encode; the
// buffer otherwise doubles from 4 kB, allocating several times the
// payload on the way.
func (e *Enc) Grow(n int) { e.b = slices.Grow(e.b, n) }

// Extend appends n bytes and returns them for the caller to fill: the
// bulk counterpart of U8 for fixed-width records (see Dec.View). The
// slice is valid until the next append.
func (e *Enc) Extend(n int) []byte {
	e.b = slices.Grow(e.b, n)
	e.b = e.b[:len(e.b)+n]
	return e.b[len(e.b)-n:]
}

// Write appends p: an Enc is an io.Writer, for a payload that is a
// stream of its own (the harden region's LEF).
func (e *Enc) Write(p []byte) (int, error) {
	e.b = append(e.b, p...)
	return len(p), nil
}

// I32s appends a length-prefixed []int32.
func (e *Enc) I32s(v []int32) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U32(uint32(x))
	}
}

// F32s appends a length-prefixed []float32.
func (e *Enc) F32s(v []float32) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.F32(x)
	}
}

// F64s appends a length-prefixed []float64.
func (e *Enc) F64s(v []float64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Dec reads a snapshot produced by Enc. Every read is bounds-checked
// against the remaining input and length prefixes are validated before
// allocation, so a truncated or bit-flipped snapshot yields an error
// from Err — never a panic or an over-allocation. The error is sticky:
// after the first failure all further reads return zero values.
type Dec struct {
	b   []byte
	off int
	err error

	syms map[string]string // Sym's table: each distinct value, once
}

// NewDec returns a decoder over the snapshot bytes.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Done returns an error if decoding failed or input bytes remain.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("stash: %d trailing bytes after decode", len(d.b)-d.off)
	}
	return nil
}

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("stash: "+format+" at offset %d", append(args, d.off)...)
	}
}

// take returns the next n bytes, or nil after recording an error.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("truncated: need %d bytes, have %d", n, len(d.b)-d.off)
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// View reads the next n bytes without copying them — a window on the
// snapshot, for a caller that decodes fixed-width records in bulk and
// keeps no reference. nil (and a sticky error) when fewer remain.
func (d *Dec) View(n int) []byte { return d.take(n) }

// Rest reads every byte left, without copying them: the payload a
// Write stream left (see View).
func (d *Dec) Rest() []byte { return d.take(len(d.b) - d.off) }

// Bool reads a one-byte bool, rejecting values other than 0 and 1.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid bool byte")
		return false
	}
}

// Flags reads a one-byte bit set, rejecting bits outside mask: the
// encoder writes no others, so a decodable byte re-encodes to itself.
func (d *Dec) Flags(mask uint8) uint8 {
	b := d.U8()
	if b&^mask != 0 {
		d.fail("invalid flag bits %#x", b&^mask)
		return 0
	}
	return b
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Int reads a two's-complement 64-bit int.
func (d *Dec) Int() int { return int(int64(d.U64())) }

// F64 reads an IEEE-754 float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// F32 reads an IEEE-754 float32.
func (d *Dec) F32() float32 { return math.Float32frombits(d.U32()) }

// sliceLen validates a length prefix against the remaining bytes at
// the given element width, preventing huge allocations from corrupt
// prefixes.
func (d *Dec) sliceLen(elemSize int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if int(n) > (len(d.b)-d.off)/elemSize {
		d.fail("length prefix %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

// Count reads an Int written as an element count and validates it
// against the remaining input at elemSize encoded bytes per element, so
// a decoder may size an allocation by it.
func (d *Dec) Count(elemSize int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > (len(d.b)-d.off)/elemSize {
		d.fail("count %d exceeds remaining input", n)
		return 0
	}
	return n
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.sliceLen(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Sym is Str for a field drawn from a small vocabulary — a master name
// per instance, a pin name per sink: equal values read through one
// decoder share one allocation, so such a field costs a heap object per
// distinct value rather than per record. The wire format and the errors
// are Str's.
func (d *Dec) Sym() string {
	n := d.sliceLen(1)
	b := d.take(n)
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.syms[string(b)]; ok { // the conversion does not allocate
		return s
	}
	if d.syms == nil {
		d.syms = make(map[string]string)
	}
	s := string(b)
	d.syms[s] = s
	return s
}

// I32s reads a length-prefixed []int32.
func (d *Dec) I32s() []int32 {
	n := d.sliceLen(4)
	if d.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.U32())
	}
	return out
}

// F32s reads a length-prefixed []float32.
func (d *Dec) F32s() []float32 {
	n := d.sliceLen(4)
	if d.err != nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = d.F32()
	}
	return out
}

// F64s reads a length-prefixed []float64.
func (d *Dec) F64s() []float64 {
	n := d.sliceLen(8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}
