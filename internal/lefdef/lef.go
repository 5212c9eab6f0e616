// Package lefdef reads and writes a compact LEF/DEF-style text
// interchange for libraries, technology stacks and placed designs.
// The dialect is a faithful subset of the real formats: LAYER/VIA
// sections for the BEOL, MACRO blocks with SIZE/PIN/OBS for masters,
// and DEF-like DIEAREA/COMPONENTS/PINS/NETS sections for designs.
// Numbers are written in their shortest exact form, so a stream reads
// back to the values it was written from, bit for bit, and the readers
// require the statements the writers always emit.
//
// The paper's "simple scripted modifications in the lef files" (§IV)
// are WriteLEF of the combined stack and of core.MacroDieView's masters:
// those files, with the DEF of the superimposed design, are all that
// Macro-3D's place and route read of the edit (DESIGN.md §3).
package lefdef

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"macro3d/internal/cell"
	"macro3d/internal/tech"
)

// WriteLEF emits the technology stack and every master of the library.
func WriteLEF(w io.Writer, b *tech.BEOL, lib *cell.Library) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "VERSION 5.8 ;\nBUSBITCHARS \"[]\" ;\nDIVIDERCHAR \"/\" ;\n\n")
	if b != nil {
		for i, l := range b.Layers {
			fmt.Fprintf(bw, "LAYER %s\n  TYPE ROUTING ;\n  DIRECTION %s ;\n  PITCH %g ;\n  WIDTH %g ;\n  RESISTANCE RPERSQ %g ;\n  CAPACITANCE CPERSQDIST %g ;\nEND %s\n\n",
				l.Name, lefDir(l.Dir), l.Pitch, l.Width, l.RPerUm, l.CPerUm, l.Name)
			if i < len(b.Vias) {
				v := b.Vias[i]
				kind := "CUT"
				if v.F2F {
					kind = "CUT F2F"
				}
				fmt.Fprintf(bw, "LAYER %s\n  TYPE %s ;\n  RESISTANCE %g ;\n  CAPACITANCE %g ;\n",
					viaName(b, i), kind, v.R, v.C)
				if v.F2F {
					fmt.Fprintf(bw, "  PITCH %g ;\n", v.Pitch)
				}
				fmt.Fprintf(bw, "END %s\n\n", viaName(b, i))
			}
		}
	}
	if lib != nil {
		for _, c := range lib.Cells() {
			writeMacro(bw, c)
		}
	}
	return bw.Flush()
}

func viaName(b *tech.BEOL, i int) string {
	if b.Vias[i].Name != "" {
		return b.Vias[i].Name
	}
	return fmt.Sprintf("VIA%d%d", i+1, i+2)
}

func lefDir(d tech.Dir) string {
	if d == tech.DirHorizontal {
		return "HORIZONTAL"
	}
	return "VERTICAL"
}

func writeMacro(w io.Writer, c *cell.Cell) {
	fmt.Fprintf(w, "MACRO %s\n", c.Name)
	fmt.Fprintf(w, "  CLASS %s ;\n", lefClass(c.Kind))
	fmt.Fprintf(w, "  SIZE %g BY %g ;\n", c.Width, c.Height)
	if c.Family != "" {
		fmt.Fprintf(w, "  PROPERTY family name \"%s\" drive %d ;\n", c.Family, c.Drive)
	}
	fmt.Fprintf(w, "  PROPERTY timing intrinsic %g driveres %g clkq %g setup %g hold %g ;\n",
		c.Intrinsic, c.DriveRes, c.ClkQ, c.Setup, c.Hold)
	fmt.Fprintf(w, "  PROPERTY slew sens %g intrinsic %g res %g ;\n",
		c.SlewSens, c.SlewIntrinsic, c.SlewRes)
	fmt.Fprintf(w, "  PROPERTY power internal %g leakage %g ;\n", c.InternalEnergy, c.Leakage)
	if c.Macro != nil {
		fmt.Fprintf(w, "  PROPERTY sram words %d bits %d energy %g ;\n",
			c.Macro.Words, c.Macro.Bits, c.Macro.EnergyPerAccess)
	}
	// Abstract provenance and per-pin boundary arcs are emitted only
	// for hardened masters, so the LEF of ordinary libraries (and the
	// cache fingerprints hashed over it) is unchanged.
	if c.Abstract != nil {
		fmt.Fprintf(w, "  PROPERTY abstract flow \"%s\" config \"%s\" minperiod %g energy %g leakage %g bumps %d ;\n",
			c.Abstract.SourceFlow, c.Abstract.SourceConfig, c.Abstract.MinPeriodPs,
			c.Abstract.EnergyPerCycleFJ, c.Abstract.LeakageUW, c.Abstract.F2FBumps)
	}
	for _, p := range c.Pins {
		fmt.Fprintf(w, "  PIN %s\n    DIRECTION %s ;\n", p.Name, lefPinDir(p.Dir))
		if p.Clock {
			fmt.Fprintf(w, "    USE CLOCK ;\n")
		}
		fmt.Fprintf(w, "    CAPACITANCE %g ;\n", p.Cap)
		if c.Abstract != nil {
			fmt.Fprintf(w, "    PROPERTY arc setup %g clkq %g ;\n", p.Setup, p.ClkQ)
		}
		fmt.Fprintf(w, "    PORT\n      LAYER %s ;\n      POINT %g %g ;\n    END\n", p.Layer, p.Offset.X, p.Offset.Y)
		fmt.Fprintf(w, "  END %s\n", p.Name)
	}
	if len(c.Obstructions) > 0 {
		fmt.Fprintf(w, "  OBS\n")
		for _, o := range c.Obstructions {
			fmt.Fprintf(w, "    LAYER %s ;\n      RECT %g %g %g %g ;\n",
				o.Layer, o.Rect.Lx, o.Rect.Ly, o.Rect.Ux, o.Rect.Uy)
		}
		fmt.Fprintf(w, "  END\n")
	}
	fmt.Fprintf(w, "END %s\n\n", c.Name)
}

func lefClass(k cell.Kind) string {
	switch k {
	case cell.KindMacro:
		return "BLOCK"
	case cell.KindFiller:
		return "CORE SPACER"
	case cell.KindSeq:
		return "CORE SEQUENTIAL"
	case cell.KindBuf:
		return "CORE BUFFER"
	case cell.KindInv:
		return "CORE INVERTER"
	}
	return "CORE"
}

func lefPinDir(d cell.PinDir) string {
	switch d {
	case cell.DirIn:
		return "INPUT"
	case cell.DirOut:
		return "OUTPUT"
	}
	return "INOUT"
}

// LEFContent is the parsed form of a LEF stream.
type LEFContent struct {
	Beol *tech.BEOL
	Lib  *cell.Library
}

// ParseLEF reads the dialect WriteLEF emits.
func ParseLEF(r io.Reader) (*LEFContent, error) {
	tk := newTokenizer(r)
	out := &LEFContent{Lib: cell.NewLibrary("lef")}
	var layers []tech.Layer
	var vias []tech.Via
	pendingVia := false
	var curVia tech.Via

	for {
		w, ok := tk.next()
		if !ok {
			break
		}
		switch w {
		case "VERSION", "BUSBITCHARS", "DIVIDERCHAR":
			tk.skipStatement()
		case "LAYER":
			name, _ := tk.next()
			lp, err := parseLayerBody(tk, name)
			if err != nil {
				return nil, err
			}
			switch lp.kind {
			case "ROUTING":
				l := tech.Layer{Name: name, Pitch: lp.pitch, Width: lp.width, RPerUm: lp.res, CPerUm: lp.cap}
				if lp.vertical {
					l.Dir = tech.DirVertical
				}
				l.MacroDie = strings.HasSuffix(name, tech.MDSuffix)
				layers = push(layers, l)
				if pendingVia {
					vias = push(vias, curVia)
					pendingVia = false
				}
			case "CUT":
				curVia = tech.Via{Name: name, R: lp.res, C: lp.cap}
				if lp.f2f {
					curVia.F2F = true
					curVia.Pitch = lp.pitch
				}
				pendingVia = true
			}
		case "MACRO":
			name, _ := tk.next()
			c, err := parseMacroBody(tk, name)
			if err != nil {
				return nil, err
			}
			if out.Lib.Cell(name) != nil {
				return nil, tk.errf("duplicate MACRO %q", name)
			}
			out.Lib.Add(c)
		default:
			tk.skipStatement()
		}
	}
	if len(layers) > 0 {
		out.Beol = &tech.BEOL{Name: "lef", Layers: layers, Vias: vias}
		if err := out.Beol.Validate(); err != nil {
			return nil, fmt.Errorf("lefdef: parsed stack invalid: %w", err)
		}
	}
	return out, nil
}

// layerProps are the statements of a LAYER block the stack keeps.
type layerProps struct {
	kind                   string // TYPE
	pitch, width, res, cap float64
	vertical, f2f          bool
}

// parseLayerBody consumes a LAYER block.
func parseLayerBody(tk *tokenizer, name string) (layerProps, error) {
	var lp layerProps
	for {
		w, ok := tk.next()
		if !ok {
			return lp, tk.errf("unexpected EOF in LAYER %s", name)
		}
		switch w {
		case "TYPE":
			var ok bool
			lp.kind, ok = tk.next()
			if !ok {
				return lp, tk.errf("unexpected EOF after TYPE in LAYER %s", name)
			}
			// optional F2F marker before ';'
			for {
				x, ok := tk.next()
				if !ok {
					return lp, tk.errf("unexpected EOF in TYPE of LAYER %s", name)
				}
				if x == ";" {
					break
				}
				if x == "F2F" {
					lp.f2f = true
				}
			}
		case "DIRECTION":
			d, _ := tk.next()
			if d == "VERTICAL" {
				lp.vertical = true
			}
			tk.expect(";")
		case "PITCH", "WIDTH":
			v, err := tk.nextFloat()
			if err != nil {
				return lp, err
			}
			if w == "PITCH" {
				lp.pitch = v
			} else {
				lp.width = v
			}
			tk.expect(";")
		case "RESISTANCE", "CAPACITANCE":
			// Either "RESISTANCE RPERSQ v ;" or "RESISTANCE v ;".
			x, _ := tk.next()
			v, err := strconv.ParseFloat(x, 64)
			if err != nil {
				if v, err = tk.nextFloat(); err != nil {
					return lp, err
				}
			}
			if w == "RESISTANCE" {
				lp.res = v
			} else {
				lp.cap = v
			}
			tk.expect(";")
		case "END":
			tk.next() // name
			return lp, nil
		default:
			tk.skipStatement()
		}
	}
}

// parseMacroBody consumes a MACRO block, which must have a SIZE.
func parseMacroBody(tk *tokenizer, name string) (*cell.Cell, error) {
	c := &cell.Cell{Name: name}
	sized := false
	for {
		w, ok := tk.next()
		if !ok {
			return nil, tk.errf("unexpected EOF in MACRO %s", name)
		}
		switch w {
		case "CLASS":
			// No class the dialect writes has more than two words.
			var words [2]string
			n := 0
			for {
				x, ok := tk.next()
				if !ok {
					return nil, tk.errf("unexpected EOF in CLASS of MACRO %s", name)
				}
				if x == ";" {
					break
				}
				if n < len(words) {
					words[n] = x
				}
				n++
			}
			switch n {
			case 1:
				c.Kind = classKind(words[0])
			case 2:
				c.Kind = classKind(words[0] + " " + words[1])
			default:
				c.Kind = cell.KindComb
			}
		case "SIZE":
			var err error
			if c.Width, err = tk.nextFloat(); err != nil {
				return nil, err
			}
			tk.expect("BY")
			if c.Height, err = tk.nextFloat(); err != nil {
				return nil, err
			}
			tk.expect(";")
			sized = true
		case "PROPERTY":
			if err := parseProperty(tk, c); err != nil {
				return nil, err
			}
		case "PIN":
			pname, _ := tk.next()
			p, err := parsePinBody(tk, pname)
			if err != nil {
				return nil, err
			}
			c.Pins = push(c.Pins, p)
		case "OBS":
			if err := parseObs(tk, c); err != nil {
				return nil, err
			}
		case "END":
			tk.next() // macro name
			if !sized {
				return nil, tk.errf("MACRO %s has no SIZE", name)
			}
			return c, nil
		default:
			tk.skipStatement()
		}
	}
}

func classKind(class string) cell.Kind {
	switch class {
	case "BLOCK":
		return cell.KindMacro
	case "CORE SPACER":
		return cell.KindFiller
	case "CORE SEQUENTIAL":
		return cell.KindSeq
	case "CORE BUFFER":
		return cell.KindBuf
	case "CORE INVERTER":
		return cell.KindInv
	}
	return cell.KindComb
}

// parseProperty consumes a macro's PROPERTY statement: a kind, whose
// fields it zeroes, then key value pairs, each set on c as it is read.
func parseProperty(tk *tokenizer, c *cell.Cell) error {
	kind, _ := tk.next()
	switch kind {
	case "family":
		c.Family = ""
	case "timing":
		c.Intrinsic, c.DriveRes, c.ClkQ, c.Setup, c.Hold = 0, 0, 0, 0, 0
	case "slew":
		c.SlewSens, c.SlewIntrinsic, c.SlewRes = 0, 0, 0
	case "power":
		c.InternalEnergy, c.Leakage = 0, 0
	case "sram":
		c.Macro = &cell.MacroInfo{}
	case "abstract":
		c.Abstract = &cell.AbstractInfo{}
	}
	key := ""
	for {
		w, ok := tk.next()
		if !ok {
			return tk.errf("unexpected EOF in PROPERTY")
		}
		if w == ";" {
			break
		}
		if key == "" {
			key = w
			continue
		}
		setProperty(c, kind, key, strings.Trim(w, `"`))
		key = ""
	}
	if kind == "sram" {
		c.Macro.CapacityBytes = c.Macro.Words * c.Macro.Bits / 8
	}
	return nil
}

// setProperty sets the field a PROPERTY kind's key names; a value that
// does not parse sets it to zero, and an unknown key sets nothing.
func setProperty(c *cell.Cell, kind, key, v string) {
	f, _ := strconv.ParseFloat(v, 64)
	n, _ := strconv.Atoi(v)
	switch kind + " " + key {
	case "family name":
		c.Family = v
	case "family drive":
		if d, err := strconv.Atoi(v); err == nil {
			c.Drive = d
		}
	case "timing intrinsic":
		c.Intrinsic = f
	case "timing driveres":
		c.DriveRes = f
	case "timing clkq":
		c.ClkQ = f
	case "timing setup":
		c.Setup = f
	case "timing hold":
		c.Hold = f
	case "slew sens":
		c.SlewSens = f
	case "slew intrinsic":
		c.SlewIntrinsic = f
	case "slew res":
		c.SlewRes = f
	case "power internal":
		c.InternalEnergy = f
	case "power leakage":
		c.Leakage = f
	case "sram words":
		c.Macro.Words = n
	case "sram bits":
		c.Macro.Bits = n
	case "sram energy":
		c.Macro.EnergyPerAccess = f
	case "abstract flow":
		c.Abstract.SourceFlow = v
	case "abstract config":
		c.Abstract.SourceConfig = v
	case "abstract minperiod":
		c.Abstract.MinPeriodPs = f
	case "abstract energy":
		c.Abstract.EnergyPerCycleFJ = f
	case "abstract leakage":
		c.Abstract.LeakageUW = f
	case "abstract bumps":
		c.Abstract.F2FBumps = n
	}
}

// parsePinBody consumes a PIN block, which must have a PORT with a
// LAYER and a POINT.
func parsePinBody(tk *tokenizer, name string) (cell.Pin, error) {
	p := cell.Pin{Name: name}
	layer, point := false, false
	for {
		w, ok := tk.next()
		if !ok {
			return p, tk.errf("unexpected EOF in PIN %s", name)
		}
		switch w {
		case "DIRECTION":
			d, _ := tk.next()
			switch d {
			case "INPUT":
				p.Dir = cell.DirIn
			case "OUTPUT":
				p.Dir = cell.DirOut
			default:
				p.Dir = cell.DirInOut
			}
			tk.expect(";")
		case "USE":
			u, _ := tk.next()
			if u == "CLOCK" {
				p.Clock = true
			}
			tk.expect(";")
		case "CAPACITANCE":
			v, err := tk.nextFloat()
			if err != nil {
				return p, err
			}
			p.Cap = v
			tk.expect(";")
		case "PROPERTY":
			kind, _ := tk.next()
			arc := kind == "arc"
			if arc {
				p.Setup, p.ClkQ = 0, 0
			}
			key := ""
			for {
				x, ok := tk.next()
				if !ok {
					return p, tk.errf("unexpected EOF in PIN %s PROPERTY", name)
				}
				if x == ";" {
					break
				}
				if key == "" {
					key = x
					continue
				}
				v, err := strconv.ParseFloat(x, 64)
				if err != nil {
					return p, tk.errf("bad number %q for %s in PIN %s PROPERTY", x, key, name)
				}
				switch {
				case arc && key == "setup":
					p.Setup = v
				case arc && key == "clkq":
					p.ClkQ = v
				}
				key = ""
			}
		case "PORT":
			for {
				x, ok := tk.next()
				if !ok {
					return p, tk.errf("unexpected EOF in PORT of PIN %s", name)
				}
				if x == "LAYER" {
					var ok bool
					if p.Layer, ok = tk.next(); !ok {
						return p, tk.errf("unexpected EOF after LAYER in PORT of PIN %s", name)
					}
					if p.Layer == ";" { // a pin on no layer, as WriteLEF writes it
						p.Layer = ""
					} else {
						tk.expect(";")
					}
					layer = true
				} else if x == "POINT" {
					var err error
					if p.Offset.X, err = tk.nextFloat(); err != nil {
						return p, err
					}
					if p.Offset.Y, err = tk.nextFloat(); err != nil {
						return p, err
					}
					tk.expect(";")
					point = true
				} else if x == "END" {
					break
				}
			}
		case "END":
			tk.next() // pin name
			if !layer || !point {
				return p, tk.errf("PIN %s has no PORT with a LAYER and a POINT", name)
			}
			return p, nil
		default:
			tk.skipStatement()
		}
	}
}

func parseObs(tk *tokenizer, c *cell.Cell) error {
	layer := ""
	for {
		w, ok := tk.next()
		if !ok {
			return tk.errf("unexpected EOF in OBS")
		}
		switch w {
		case "LAYER":
			var ok bool
			if layer, ok = tk.next(); !ok {
				return tk.errf("unexpected EOF after LAYER in OBS")
			}
			tk.expect(";")
		case "RECT":
			var r [4]float64
			for i := range r {
				v, err := tk.nextFloat()
				if err != nil {
					return err
				}
				r[i] = v
			}
			tk.expect(";")
			c.Obstructions = push(c.Obstructions, cell.Obstruction{
				Layer: layer,
				Rect:  rect4(r),
			})
		case "END":
			return nil
		}
	}
}
