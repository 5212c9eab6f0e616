package cell

import (
	"math"
	"strconv"

	"macro3d/internal/geom"
)

// LibOptions configures synthetic library generation.
type LibOptions struct {
	RowHeight float64 // µm
	SiteWidth float64 // µm
	// AreaScale inflates standard-cell widths. Case-study netlists are
	// generated at reduced instance counts for runtime; scaling cell
	// area up keeps the total logic area — and therefore the
	// wire-versus-gate balance that drives every 3D-vs-2D result — at
	// the paper's physical scale.
	AreaScale float64
	PinLayer  string // layer carrying standard-cell pins
}

// DefaultLibOptions returns the 28 nm-class defaults.
func DefaultLibOptions() LibOptions {
	return LibOptions{
		RowHeight: 1.2,
		SiteWidth: 0.19,
		AreaScale: 1.0,
		PinLayer:  "M1",
	}
}

// gateSpec is the X1 prototype of one sizing family.
type gateSpec struct {
	family    string
	kind      Kind
	inputs    int
	sites     float64 // width in sites at X1 (before AreaScale)
	cin       float64 // fF per input at X1
	res       float64 // kΩ at X1
	intrinsic float64 // ps
	energy    float64 // fJ per output toggle at X1
	leak      float64 // nW at X1
	drives    []int
}

var gates28 = []gateSpec{
	{"INV", KindInv, 1, 2, 1.2, 3.0, 8, 0.40, 2.0, []int{1, 2, 4, 8, 16, 32}},
	{"BUF", KindBuf, 1, 3, 1.1, 2.8, 16, 0.70, 3.0, []int{1, 2, 4, 8, 16, 32}},
	{"NAND2", KindComb, 2, 3, 1.4, 3.6, 10, 0.55, 3.2, []int{1, 2, 4, 8}},
	{"NAND3", KindComb, 3, 4, 1.5, 4.0, 12, 0.65, 4.0, []int{1, 2, 4, 8}},
	{"NOR2", KindComb, 2, 3, 1.5, 4.2, 11, 0.60, 3.4, []int{1, 2, 4, 8}},
	{"AOI22", KindComb, 4, 5, 1.6, 4.6, 14, 0.80, 4.8, []int{1, 2, 4}},
	{"OAI22", KindComb, 4, 5, 1.6, 4.6, 14, 0.80, 4.8, []int{1, 2, 4}},
	{"XOR2", KindComb, 2, 6, 2.2, 4.0, 18, 1.10, 5.5, []int{1, 2, 4}},
	{"MUX2", KindComb, 3, 6, 1.8, 3.8, 16, 0.95, 5.0, []int{1, 2, 4}},
}

// dffSpec: the flip-flop family.
var dff28 = struct {
	sites             float64
	dCap, ckCap       float64
	res               float64
	clkq, setup, hold float64
	energy, leak      float64
	drives            []int
}{
	sites: 8, dCap: 1.3, ckCap: 1.0,
	res: 2.6, clkq: 70, setup: 35, hold: 5,
	energy: 1.8, leak: 6.0,
	drives: []int{1, 2, 4},
}

// inputNames generates A, B, C, … pin names.
func inputNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	return names
}

// NewStdLib28 builds the synthetic 28 nm standard-cell library.
func NewStdLib28(opt LibOptions) *Library {
	if opt.AreaScale <= 0 {
		opt.AreaScale = 1
	}
	lib := NewLibrary("stdlib28")
	for _, g := range gates28 {
		for _, n := range g.drives {
			lib.Add(makeGate(g, n, opt))
		}
	}
	for _, n := range dff28.drives {
		lib.Add(makeDFF(n, opt))
	}
	// Filler: the minimum-width cell. In the Macro-3D flow, macro-die
	// macros are shrunk to exactly this substrate footprint ("the size
	// of a filler cell; commercial tools do not allow an area of 0").
	lib.Add(&Cell{
		Name:   "FILL_X1",
		Kind:   KindFiller,
		Family: "",
		Width:  opt.SiteWidth,
		Height: opt.RowHeight,
	})
	return lib
}

// footprintDrive quantizes a drive to its footprint group: libraries
// share one cell image inside {X1..X4}, {X8..X16} and {X32}, so sizing
// within a group is footprint-neutral (in-place) while crossing groups
// needs an ECO move.
func footprintDrive(drive int) float64 {
	switch {
	case drive <= 4:
		return 4
	case drive <= 16:
		return 16
	}
	return 32
}

func makeGate(g gateSpec, drive int, opt LibOptions) *Cell {
	d := float64(drive)
	w := g.sites * (1 + 0.8*(footprintDrive(drive)-1)) * opt.SiteWidth * opt.AreaScale
	c := &Cell{
		Name:           g.family + "_X" + strconv.Itoa(drive),
		Kind:           g.kind,
		Family:         g.family,
		Drive:          drive,
		Width:          w,
		Height:         opt.RowHeight,
		Intrinsic:      g.intrinsic * (1 + 0.05*math.Log2(d)),
		DriveRes:       g.res / d,
		SlewSens:       0.12,
		SlewIntrinsic:  10,
		SlewRes:        3.6 / d,
		InternalEnergy: g.energy * d,
		Leakage:        g.leak * d,
	}
	names := inputNames(g.inputs)
	for i, nm := range names {
		c.Pins = append(c.Pins, Pin{
			Name:   nm,
			Dir:    DirIn,
			Cap:    g.cin * (0.7 + 0.3*d),
			Offset: geom.Pt(w*0.15, opt.RowHeight*(0.25+0.5*float64(i)/math.Max(1, float64(g.inputs-1)))),
			Layer:  opt.PinLayer,
		})
	}
	c.Pins = append(c.Pins, Pin{
		Name:   "Y",
		Dir:    DirOut,
		Offset: geom.Pt(w*0.85, opt.RowHeight*0.5),
		Layer:  opt.PinLayer,
	})
	return c
}

func makeDFF(drive int, opt LibOptions) *Cell {
	d := float64(drive)
	w := dff28.sites * (1 + 0.5*(footprintDrive(drive)-1)) * opt.SiteWidth * opt.AreaScale
	c := &Cell{
		Name:           "DFF_X" + strconv.Itoa(drive),
		Kind:           KindSeq,
		Family:         "DFF",
		Drive:          drive,
		Width:          w,
		Height:         opt.RowHeight,
		Intrinsic:      0, // sequential launch uses ClkQ
		DriveRes:       dff28.res / d,
		SlewSens:       0.10,
		SlewIntrinsic:  12,
		SlewRes:        3.2 / d,
		ClkQ:           dff28.clkq * (1 + 0.04*math.Log2(d)),
		Setup:          dff28.setup,
		Hold:           dff28.hold,
		InternalEnergy: dff28.energy * d,
		Leakage:        dff28.leak * d,
	}
	c.Pins = []Pin{
		{Name: "D", Dir: DirIn, Cap: dff28.dCap * (0.8 + 0.2*d),
			Offset: geom.Pt(w*0.1, opt.RowHeight*0.3), Layer: opt.PinLayer},
		{Name: "CK", Dir: DirIn, Cap: dff28.ckCap, Clock: true,
			Offset: geom.Pt(w*0.1, opt.RowHeight*0.7), Layer: opt.PinLayer},
		{Name: "Q", Dir: DirOut,
			Offset: geom.Pt(w*0.9, opt.RowHeight*0.5), Layer: opt.PinLayer},
	}
	return c
}
