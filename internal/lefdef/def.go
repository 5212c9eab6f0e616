package lefdef

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
)

// WriteDEF emits a placed design: die area, components with locations,
// orientations and die assignment, pins, and net connectivity.
func WriteDEF(w io.Writer, d *netlist.Design, die geom.Rect) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "VERSION 5.8 ;\nDESIGN %s ;\nUNITS DISTANCE MICRONS 1000 ;\n", d.Name)
	fmt.Fprintf(bw, "DIEAREA ( %g %g ) ( %g %g ) ;\n\n", die.Lx, die.Ly, die.Ux, die.Uy)

	fmt.Fprintf(bw, "COMPONENTS %d ;\n", len(d.Instances))
	for _, inst := range d.Instances {
		status := "UNPLACED"
		if inst.Fixed {
			status = "FIXED"
		} else if inst.Placed {
			status = "PLACED"
		}
		fmt.Fprintf(bw, "  - %s %s + %s ( %g %g ) %s + PROPERTY die %d ;\n",
			inst.Name, inst.Master.Name, status, inst.Loc.X, inst.Loc.Y,
			inst.Orient, inst.Die)
	}
	fmt.Fprintf(bw, "END COMPONENTS\n\n")

	fmt.Fprintf(bw, "PINS %d ;\n", len(d.Ports))
	for _, p := range d.Ports {
		half := 0
		if p.HalfCycle {
			half = 1
		}
		fmt.Fprintf(bw, "  - %s + DIRECTION %s + LAYER %s ( %g %g ) + PROPERTY halfcycle %d extcap %g extdelay %g ;\n",
			p.Name, lefPinDir(p.Dir), p.Layer, p.Loc.X, p.Loc.Y, half, p.ExtCap, p.ExtDelay)
	}
	fmt.Fprintf(bw, "END PINS\n\n")

	fmt.Fprintf(bw, "NETS %d ;\n", len(d.Nets))
	for _, n := range d.Nets {
		fmt.Fprintf(bw, "  - %s", n.Name)
		if n.Clock {
			fmt.Fprintf(bw, " + USE CLOCK")
		}
		writeRef := func(r netlist.PinRef) {
			if r.Port != nil {
				fmt.Fprintf(bw, " ( PIN %s )", r.Port.Name)
			} else {
				fmt.Fprintf(bw, " ( %s %s )", r.Inst.Name, r.Pin())
			}
		}
		writeRef(n.Driver)
		for _, s := range n.Sinks {
			writeRef(s)
		}
		fmt.Fprintf(bw, " ;\n")
	}
	fmt.Fprintf(bw, "END NETS\n\nEND DESIGN\n")
	return bw.Flush()
}

// DEFContent is a parsed design plus its die area.
type DEFContent struct {
	Design *netlist.Design
	Die    geom.Rect
}

// ParseDEF reads the dialect WriteDEF emits, resolving masters against
// the given library.
func ParseDEF(r io.Reader, lib *cell.Library) (*DEFContent, error) {
	tk := newTokenizer(r)
	out := &DEFContent{}
	var d *netlist.Design
	for {
		w, ok := tk.next()
		if !ok {
			break
		}
		switch w {
		case "DESIGN":
			if d != nil {
				return nil, tk.errf("second DESIGN")
			}
			name, _ := tk.next()
			tk.expect(";")
			d = netlist.NewDesign(name, lib)
			out.Design = d
		case "DIEAREA":
			var v [4]float64
			vi := 0
			for vi < 4 {
				x, ok := tk.next()
				if !ok {
					return nil, tk.errf("unexpected EOF in DIEAREA")
				}
				if f, err := strconv.ParseFloat(x, 64); err == nil {
					v[vi] = f
					vi++
				}
				if x == ";" {
					break
				}
			}
			if vi == 4 { // the ';' is still to come
				tk.skipStatement()
			}
			out.Die = rect4(v)
		case "COMPONENTS":
			if d == nil {
				return nil, fmt.Errorf("lefdef: COMPONENTS before DESIGN")
			}
			if err := parseComponents(tk, d, lib); err != nil {
				return nil, err
			}
		case "PINS":
			if d == nil {
				return nil, fmt.Errorf("lefdef: PINS before DESIGN")
			}
			if err := parsePins(tk, d); err != nil {
				return nil, err
			}
		case "NETS":
			if d == nil {
				return nil, fmt.Errorf("lefdef: NETS before DESIGN")
			}
			if err := parseNets(tk, d); err != nil {
				return nil, err
			}
		default:
			tk.skipStatement()
		}
	}
	if out.Design == nil {
		return nil, fmt.Errorf("lefdef: no DESIGN in stream")
	}
	return out, nil
}

func parseComponents(tk *tokenizer, d *netlist.Design, lib *cell.Library) error {
	tk.skipStatement() // count ;
	for {
		w, ok := tk.next()
		if !ok {
			return tk.errf("unexpected EOF in COMPONENTS")
		}
		if w == "END" {
			tk.next() // COMPONENTS
			return nil
		}
		if w != "-" {
			continue
		}
		name, _ := tk.next()
		master, _ := tk.next()
		m := lib.Cell(master)
		if m == nil {
			return tk.errf("unknown master %q for %s", master, name)
		}
		if d.Instance(name) != nil {
			return tk.errf("duplicate component %q", name)
		}
		inst := d.AddInstance(name, m)
		// "+ STATUS ( x y ) ORIENT + PROPERTY die N ;"
		for {
			x, ok := tk.next()
			if !ok {
				return tk.errf("unexpected EOF in component %s", name)
			}
			if x == ";" {
				break
			}
			switch x {
			case "PLACED":
				inst.Placed = true
			case "FIXED":
				inst.Placed = true
				inst.Fixed = true
			case "(":
				lx, err := tk.nextFloat()
				if err != nil {
					return err
				}
				ly, err := tk.nextFloat()
				if err != nil {
					return err
				}
				tk.expect(")")
				inst.Loc = geom.Pt(lx, ly)
				// Orientation token follows.
				o, _ := tk.next()
				inst.Orient = parseOrient(o)
			case "die":
				v, err := tk.nextFloat()
				if err != nil {
					return err
				}
				inst.Die = netlist.Die(int(v))
			}
		}
	}
}

func parseOrient(s string) geom.Orient {
	switch s {
	case "S":
		return geom.OrientS
	case "FN":
		return geom.OrientFN
	case "FS":
		return geom.OrientFS
	}
	return geom.OrientN
}

// parsePins consumes the PINS section; each pin must have a DIRECTION
// and a LAYER.
func parsePins(tk *tokenizer, d *netlist.Design) error {
	tk.skipStatement()
	for {
		w, ok := tk.next()
		if !ok {
			return tk.errf("unexpected EOF in PINS")
		}
		if w == "END" {
			tk.next()
			return nil
		}
		if w != "-" {
			continue
		}
		name, _ := tk.next()
		var dir cell.PinDir
		var layer string
		var x, y, extCap, extDelay float64
		half, directed := false, false
		for {
			t, ok := tk.next()
			if !ok {
				return tk.errf("unexpected EOF in pin %s", name)
			}
			if t == ";" {
				break
			}
			switch t {
			case "DIRECTION":
				s, _ := tk.next()
				switch s {
				case "INPUT":
					dir = cell.DirIn
				case "OUTPUT":
					dir = cell.DirOut
				default:
					dir = cell.DirInOut
				}
				directed = true
			case "LAYER":
				var lok bool
				if layer, lok = tk.next(); !lok {
					return tk.errf("unexpected EOF after LAYER in pin %s", name)
				}
				tk.expect("(")
				var err error
				if x, err = tk.nextFloat(); err != nil {
					return err
				}
				if y, err = tk.nextFloat(); err != nil {
					return err
				}
				tk.expect(")")
			case "halfcycle":
				v, err := tk.nextFloat()
				if err != nil {
					return err
				}
				half = v != 0
			case "extcap":
				v, err := tk.nextFloat()
				if err != nil {
					return err
				}
				extCap = v
			case "extdelay":
				v, err := tk.nextFloat()
				if err != nil {
					return err
				}
				extDelay = v
			}
		}
		if !directed || layer == "" {
			return tk.errf("pin %s has no DIRECTION and LAYER", name)
		}
		if d.Port(name) != nil {
			return tk.errf("duplicate pin %q", name)
		}
		p := d.AddPort(name, dir)
		p.Layer = layer
		p.Loc = geom.Pt(x, y)
		p.HalfCycle = half
		p.ExtCap = extCap
		p.ExtDelay = extDelay
	}
}

func parseNets(tk *tokenizer, d *netlist.Design) error {
	tk.skipStatement()
	var refs []netlist.PinRef // one net's pins, reused
	for {
		w, ok := tk.next()
		if !ok {
			return tk.errf("unexpected EOF in NETS")
		}
		if w == "END" {
			tk.next()
			return nil
		}
		if w != "-" {
			continue
		}
		name, _ := tk.next()
		clock := false
		refs = refs[:0]
		for {
			t, ok := tk.next()
			if !ok {
				return tk.errf("unexpected EOF in net %s", name)
			}
			if t == ";" {
				break
			}
			switch t {
			case "USE":
				u, _ := tk.next()
				if u == "CLOCK" {
					clock = true
				}
			case "(":
				a, _ := tk.next()
				if a == "PIN" {
					pn, _ := tk.next()
					p := d.Port(pn)
					if p == nil {
						return tk.errf("net %s references unknown pin %s", name, pn)
					}
					refs = push(refs, netlist.PPin(p))
				} else {
					pin, _ := tk.next()
					inst := d.Instance(a)
					if inst == nil {
						return tk.errf("net %s references unknown instance %s", name, a)
					}
					r, err := netlist.LookupPin(inst, pin)
					if err != nil {
						return tk.errf("net %s: %v", name, err)
					}
					refs = push(refs, r)
				}
				tk.expect(")")
			}
		}
		if len(refs) == 0 {
			continue
		}
		if d.Net(name) != nil {
			return tk.errf("duplicate net %q", name)
		}
		sinks := d.SinkSpan(len(refs) - 1)
		copy(sinks, refs[1:])
		n := d.AddNet(name, refs[0], sinks...)
		n.Clock = clock
	}
}
