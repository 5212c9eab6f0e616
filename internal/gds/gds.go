// Package gds writes GDSII stream format — the production handoff the
// paper's separation step produces for each die. The writer emits a
// standard library with one structure per die containing the die
// outline, cell and macro footprints, routed wire paths per metal
// layer, and the F2F bump boxes (present in both dies' streams, as the
// paper prescribes). Files open in standard viewers (KLayout etc.).
package gds

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Record types (GDSII stream spec).
const (
	recHEADER   = 0x0002
	recBGNLIB   = 0x0102
	recLIBNAME  = 0x0206
	recUNITS    = 0x0305
	recENDLIB   = 0x0400
	recBGNSTR   = 0x0502
	recSTRNAME  = 0x0606
	recENDSTR   = 0x0700
	recBOUNDARY = 0x0800
	recPATH     = 0x0900
	recLAYER    = 0x0D02
	recDATATYPE = 0x0E02
	recWIDTH    = 0x0F03
	recXY       = 0x1003
	recENDEL    = 0x1100
)

// Writer emits GDSII records. Coordinates are in database units; the
// stream declares 1 dbu = 1 nm (so µm values are scaled by 1000). Each
// record is built in one reused scratch buffer, so writing an element
// allocates nothing.
type Writer struct {
	w   *bufio.Writer
	rec []byte // the record being built: length and type, then payload
	err error
}

// DBUPerUm is the database-unit scale: 1000 dbu per µm (1 nm grid).
const DBUPerUm = 1000

// NewWriter starts a GDSII stream with the given library name.
func NewWriter(w io.Writer, libName string) *Writer {
	g := &Writer{w: bufio.NewWriter(w)}
	g.start(recHEADER).i16(600).end()
	// BGNLIB carries modification/access timestamps: 12 int16 values.
	// A reproduction artifact wants determinism, so they are zero.
	g.start(recBGNLIB).zeros(24).end()
	g.start(recLIBNAME).str(libName).end()
	g.start(recUNITS).real(1e-3).real(1e-9).end()
	return g
}

// BeginStruct opens a structure (a die layout).
func (g *Writer) BeginStruct(name string) {
	g.start(recBGNSTR).zeros(24).end()
	g.start(recSTRNAME).str(name).end()
}

// EndStruct closes the open structure.
func (g *Writer) EndStruct() { g.start(recENDSTR).end() }

// Boundary emits a rectangle on a layer. Coordinates in µm.
func (g *Writer) Boundary(layer int16, lx, ly, ux, uy float64) {
	g.start(recBOUNDARY).end()
	g.start(recLAYER).i16(layer).end()
	g.start(recDATATYPE).i16(0).end()
	// Closed polygon: 5 points, first repeated.
	g.start(recXY).xy(lx, ly).xy(ux, ly).xy(ux, uy).xy(lx, uy).xy(lx, ly).end()
	g.start(recENDEL).end()
}

// Path emits a two-point wire of the given width on a layer (µm).
func (g *Writer) Path(layer int16, widthUm, x1, y1, x2, y2 float64) {
	g.start(recPATH).end()
	g.start(recLAYER).i16(layer).end()
	g.start(recDATATYPE).i16(0).end()
	g.start(recWIDTH).i32(dbu(widthUm)).end()
	g.start(recXY).xy(x1, y1).xy(x2, y2).end()
	g.start(recENDEL).end()
}

// Close terminates the library and flushes. It returns the first error
// encountered while writing.
func (g *Writer) Close() error {
	g.start(recENDLIB).end()
	if g.err != nil {
		return g.err
	}
	return g.w.Flush()
}

// start begins a record of the given type in the scratch buffer, its
// length left for end to fill in.
func (g *Writer) start(kind uint16) *Writer {
	g.rec = binary.BigEndian.AppendUint16(append(g.rec[:0], 0, 0), kind)
	return g
}

func (g *Writer) i16(v int16) *Writer {
	g.rec = binary.BigEndian.AppendUint16(g.rec, uint16(v))
	return g
}

func (g *Writer) i32(v int32) *Writer {
	g.rec = binary.BigEndian.AppendUint32(g.rec, uint32(v))
	return g
}

// xy appends one point, µm to dbu.
func (g *Writer) xy(x, y float64) *Writer { return g.i32(dbu(x)).i32(dbu(y)) }

func (g *Writer) str(s string) *Writer {
	g.rec = append(g.rec, s...)
	return g
}

func (g *Writer) zeros(n int) *Writer {
	g.rec = append(g.rec, make([]byte, n)...)
	return g
}

// real appends an 8-byte GDSII real: sign bit, 7-bit excess-64 base-16
// exponent, 56-bit mantissa with value = mantissa/2^56 × 16^(exp−64).
func (g *Writer) real(v float64) *Writer {
	g.rec = binary.BigEndian.AppendUint64(g.rec, gdsReal(v))
	return g
}

// end pads the record to an even length, fills in its length and
// writes it: u16 total length, u16 type, payload.
func (g *Writer) end() {
	if g.err != nil {
		return
	}
	if len(g.rec)%2 == 1 {
		g.rec = append(g.rec, 0)
	}
	if len(g.rec) > 0xFFFF {
		g.err = fmt.Errorf("gds: record 0x%04x too long (%d bytes)", binary.BigEndian.Uint16(g.rec[2:]), len(g.rec))
		return
	}
	binary.BigEndian.PutUint16(g.rec, uint16(len(g.rec)))
	if _, err := g.w.Write(g.rec); err != nil {
		g.err = err
	}
}

func dbu(um float64) int32 { return int32(math.Round(um * DBUPerUm)) }

// gdsReal encodes v as an 8-byte GDSII real, most significant byte
// first.
func gdsReal(v float64) uint64 {
	if v == 0 {
		return 0
	}
	sign := uint64(0)
	if v < 0 {
		sign = 0x80
		v = -v
	}
	exp := 0
	for v >= 1 {
		v /= 16
		exp++
	}
	for v < 1.0/16 {
		v *= 16
		exp--
	}
	// v now in [1/16, 1).
	mant := uint64(v * (1 << 56))
	return (sign|uint64(exp+64))<<56 | mant
}
