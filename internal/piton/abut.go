package piton

import (
	"fmt"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/slab"
)

// Array is a tile array composed flat by abutment, with the tables that
// relate it to its tile, so that a pass over the array finds a copy's
// record by index instead of by formatting and hashing its name.
type Array struct {
	Design *netlist.Design
	Die    geom.Rect
	Nx, Ny int

	// Clock is the one array clock the per-tile clock nets merged into,
	// ClockPort the port that drives it.
	Clock     *netlist.Net
	ClockPort *netlist.Port

	// NetID relates tile nets to array nets: copy c = iy*Nx+ix of tile net
	// n is Design.Nets[NetID[c*len(tile nets)+n.ID]], or has none (-1) —
	// a clock net (merged into Clock), or a net driven by a port that
	// faces a neighbouring copy (stitched from the neighbour's side). Copy
	// c of tile instance i is Design.Instances[c*len(tile instances)+i.ID].
	NetID []int32

	tile     *Tile
	partners map[string]Partner
}

// Net returns copy c's net of tile net n, or nil when it has none.
func (a *Array) Net(c int, n *netlist.Net) *netlist.Net {
	if id := a.NetID[c*len(a.tile.Design.Nets)+n.ID]; id >= 0 {
		return a.Design.Nets[id]
	}
	return nil
}

// FacesNeighbor reports whether tile port p, on copy c, faces another
// copy inside the array (and is therefore stitched, not a port).
func (a *Array) FacesNeighbor(c int, p *netlist.Port) bool {
	_, interior := interiorNeighbor(a.partners, p.Name, c%a.Nx, c/a.Nx, a.Nx, a.Ny)
	return interior
}

// Stitched reports whether tile net n, on copy c, connects to a port that
// faces a neighbouring copy — the one reason a tile net other than a
// clock has no array net of its own. It is read off the tile's port
// groups, not off NetID, so the two can be checked against each other.
func (a *Array) Stitched(c int, n *netlist.Net) bool {
	for i, np := 0, n.NumPins(); i < np; i++ {
		if p := n.PinAt(i).Port; p != nil && a.FacesNeighbor(c, p) {
			return true
		}
	}
	return false
}

// Abut stitches nx×ny copies of a placed tile into one flat design —
// the paper's §V-1 argument made executable: because associated
// output/input pins share their edge coordinate and inter-tile paths
// are half-cycle constrained on each side, tile instances connect by
// abutment (no extra routing) and the composed system closes timing at
// the tile's frequency for arbitrary core counts.
//
// The tile must have been floorplanned and placed within die; every
// copy is translated by multiples of the die size. Facing NoC ports of
// adjacent tiles merge into ordinary nets; ports on the array boundary
// stay ports. All per-tile clock nets merge into one array clock.
func Abut(t *Tile, die geom.Rect, nx, ny int) (*netlist.Design, geom.Rect, error) {
	a, err := AbutArray(t, die, nx, ny)
	if err != nil {
		return nil, geom.Rect{}, err
	}
	return a.Design, a.Die, nil
}

// AbutArray is Abut handing back the tables too. The array is composed
// in bulk (netlist.Compose): copy (ix, iy) is tagged "t<ix>_<iy>_", and
// no name of it is hashed unless someone later looks one up.
func AbutArray(t *Tile, die geom.Rect, nx, ny int) (*Array, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("piton: abut needs nx, ny >= 1")
	}
	src := t.Design
	for _, p := range src.Ports {
		if p.Loc == (geom.Point{}) && p.Name != t.ClockPort {
			return nil, fmt.Errorf("piton: port %s unassigned — floorplan the tile first", p.Name)
		}
	}

	// Copies are laid out back to back in row-major order.
	copies := make([]netlist.Copy, 0, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			copies = append(copies, netlist.Copy{
				Tag:    fmt.Sprintf("t%d_%d_", ix, iy),
				Offset: geom.Pt(die.W()*float64(ix), die.H()*float64(iy)),
			})
		}
	}
	out := netlist.NewDesign(fmt.Sprintf("%s_%dx%d", src.Name, nx, ny), src.Lib)
	b, err := out.Compose(src, copies)
	if err != nil {
		return nil, fmt.Errorf("piton: abut: %w", err)
	}
	a := &Array{
		Design: out, Nx: nx, Ny: ny,
		Die: geom.R(die.Lx, die.Ly,
			die.Lx+die.W()*float64(nx), die.Ly+die.H()*float64(ny)),
		NetID:    make([]int32, len(copies)*len(src.Nets)),
		tile:     t,
		partners: t.Partners(),
	}
	for i := range a.NetID {
		a.NetID[i] = -1
	}
	// The array's size is known up front: every copy adds at most the
	// tile's instances, nets and sink pins (the merged clock net's sinks
	// are collected separately).
	srcSinks, srcClkSinks := 0, 0
	for _, n := range src.Nets {
		if n.Clock {
			srcClkSinks += len(n.Sinks)
		} else {
			srcSinks += len(n.Sinks)
		}
	}
	out.Reserve(len(copies)*len(src.Instances), len(copies)*len(src.Nets)+1, len(copies)*srcSinks)

	portNet := portNets(src)

	a.ClockPort = b.AddPort("clk_i", cell.DirIn)
	a.ClockPort.Layer = "M6"
	a.ClockPort.Loc = geom.Pt(a.Die.Lx, a.Die.Center().Y)
	clkSinks := make([]netlist.PinRef, 0, len(copies)*srcClkSinks)

	for c := range copies {
		for _, inst := range src.Instances {
			b.Instance(c, inst)
		}
	}

	// Stitch nets copy by copy. Each source net becomes one net per
	// copy; nets touching an interior-facing port extend into the
	// neighbour instead of getting a port.
	for c := range copies {
		ix, iy := c%nx, c/nx
		base := c * len(src.Instances)
		mapRef := func(r netlist.PinRef) (netlist.PinRef, bool) {
			if r.Inst != nil {
				return r.SamePinOn(out.Instances[base+r.Inst.ID]), true
			}
			// Port sink/driver.
			p := r.Port
			if pn, interior := interiorNeighbor(a.partners, p.Name, ix, iy, nx, ny); interior {
				// Extend into the neighbour: the partner port's
				// net continues at the partner's sinks.
				pNet := portNet[pn.name]
				if pNet == nil {
					return netlist.PinRef{}, false
				}
				// Replace with the neighbour's first register
				// sink (input ports drive exactly the input
				// FFs).
				for _, s := range pNet.Sinks {
					if s.Inst != nil {
						return s.SamePinOn(out.Instances[(pn.iy*nx+pn.ix)*len(src.Instances)+s.Inst.ID]), true
					}
				}
				return netlist.PinRef{}, false
			}
			// An unmatched tile port becomes (once) a boundary port.
			return netlist.PPin(b.Port(c, p)), true
		}
		for _, n := range src.Nets {
			if n.Clock {
				// Collect clock sinks; net created at the end.
				for _, s := range n.Sinks {
					if s.Inst != nil {
						clkSinks = append(clkSinks, s.SamePinOn(out.Instances[base+s.Inst.ID]))
					}
				}
				continue
			}
			// Input-port-driven nets whose port faces an interior
			// neighbour are handled from the driving side; skip.
			if n.Driver.Port != nil && n.Driver.Port.Name != t.ClockPort && a.FacesNeighbor(c, n.Driver.Port) {
				continue
			}
			drv, ok := mapRef(n.Driver)
			if !ok {
				continue
			}
			// The fanout is known: an exact-size span of the array's
			// sink arena, shortened when a sink has no counterpart.
			span := out.SinkSpan(len(n.Sinks))
			k := 0
			for _, s := range n.Sinks {
				if r, ok := mapRef(s); ok {
					span[k] = r
					k++
				}
			}
			var sinks []netlist.PinRef
			if k > 0 {
				sinks = span[:k:k]
			}
			a.NetID[c*len(src.Nets)+n.ID] = int32(b.Net(c, n, drv, sinks...).ID)
		}
	}

	a.Clock = b.AddNet("clk", netlist.PPin(a.ClockPort), clkSinks...)
	a.Clock.Clock = true
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("piton: abutted design invalid: %w", err)
	}
	return a, nil
}

// ComposeAbstract instantiates nx×ny copies of a hardened tile
// abstract (flows.Harden) and stitches them by abutment — Abut at the
// macro level. Facing NoC pins of adjacent abstract instances connect
// with two-pin nets at coinciding edge coordinates, pins on the array
// boundary become array ports, and one clock net fans out to every
// instance's clock pin. Pin geometry comes from the abstract itself,
// so the tile handle only supplies netlist-level facts (port pairing
// groups, directions, half-cycle constraints) and needs no floorplan.
func ComposeAbstract(t *Tile, abs *cell.Cell, die geom.Rect, nx, ny int) (*netlist.Design, geom.Rect, error) {
	if nx < 1 || ny < 1 {
		return nil, geom.Rect{}, fmt.Errorf("piton: compose needs nx, ny >= 1")
	}
	if abs.Abstract == nil {
		return nil, geom.Rect{}, fmt.Errorf("piton: %s is not a hardened abstract", abs.Name)
	}
	ck := abs.ClockPin()
	if ck == nil {
		return nil, geom.Rect{}, fmt.Errorf("piton: abstract %s has no clock pin", abs.Name)
	}
	src := t.Design
	arrayDie := geom.R(die.Lx, die.Ly,
		die.Lx+die.W()*float64(nx), die.Ly+die.H()*float64(ny))
	lib := src.Lib
	if lib.Cell(abs.Name) == nil {
		lib.Add(abs)
	}
	out := netlist.NewDesign(fmt.Sprintf("%s_hier_%dx%d", src.Name, nx, ny), lib)

	// Every instance adds at most a two-pin net per tile port; names are
	// cut from one arena, a port and its net sharing theirs.
	out.Reserve(nx*ny, nx*ny*len(src.Ports)+1, nx*ny*len(src.Ports))
	var names slab.Names
	link := func(name string, drv, sink netlist.PinRef) {
		span := out.SinkSpan(1)
		span[0] = sink
		out.AddNet(name, drv, span...)
	}

	partnerName := t.Partners()

	clkPort := out.AddPort("clk_i", cell.DirIn)
	clkPort.Layer = "M6"
	clkPort.Loc = geom.Pt(arrayDie.Lx, arrayDie.Center().Y)
	clkSinks := make([]netlist.PinRef, 0, nx*ny)

	insts := make([][]*netlist.Instance, ny)
	for iy := 0; iy < ny; iy++ {
		insts[iy] = make([]*netlist.Instance, nx)
		for ix := 0; ix < nx; ix++ {
			inst := out.AddInstance(fmt.Sprintf("t%d_%d", ix, iy), abs)
			inst.Loc = geom.Pt(die.Lx+die.W()*float64(ix), die.Ly+die.H()*float64(iy))
			inst.Placed = true
			inst.Fixed = true
			insts[iy][ix] = inst
			clkSinks = append(clkSinks, netlist.IPin(inst, ck.Name))
		}
	}

	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			inst := insts[iy][ix]
			off := geom.Pt(die.W()*float64(ix), die.H()*float64(iy))
			tag := fmt.Sprintf("t%d_%d_", ix, iy)
			for _, p := range src.Ports {
				if p.Name == t.ClockPort {
					continue
				}
				ap := abs.Pin(p.Name)
				if ap == nil {
					return nil, geom.Rect{}, fmt.Errorf("piton: abstract %s lost pin %s", abs.Name, p.Name)
				}
				// An interior-facing output is stitched to the neighbour's
				// input, which is therefore skipped on the neighbour's side;
				// a pin on the array boundary becomes an array port.
				pn, interior := interiorNeighbor(partnerName, p.Name, ix, iy, nx, ny)
				if p.Dir == cell.DirInOut || (interior && p.Dir == cell.DirIn) {
					continue
				}
				name := names.Concat(tag, p.Name)
				if interior {
					link(name, netlist.IPin(inst, p.Name), netlist.IPin(insts[pn.iy][pn.ix], pn.name))
					continue
				}
				q := out.AddPort(name, p.Dir)
				q.Layer = ap.Layer
				q.Loc = ap.Offset.Add(off)
				q.HalfCycle = p.HalfCycle
				q.ExtCap = p.ExtCap
				q.ExtDelay = p.ExtDelay
				if p.Dir == cell.DirOut {
					link(name, netlist.IPin(inst, p.Name), netlist.PPin(q))
				} else {
					link(name, netlist.PPin(q), netlist.IPin(inst, p.Name))
				}
			}
		}
	}

	cn := out.AddNet("clk", netlist.PPin(clkPort), clkSinks...)
	cn.Clock = true
	if err := out.Validate(); err != nil {
		return nil, geom.Rect{}, fmt.Errorf("piton: composed design invalid: %w", err)
	}
	return out, arrayDie, nil
}

// Partner is the port a grouped port faces on the adjacent tile, DX, DY
// tiles away.
type Partner struct {
	DX, DY int
	Name   string
}

// Partners maps each grouped port name to the facing port on the
// adjacent tile: out→in of the same pair/bit on the opposite edge. The
// §V-1 abutment rule is that a port and its partner share their
// cross-coordinate.
func (t *Tile) Partners() map[string]Partner {
	type key struct {
		e    Edge
		pair int
	}
	byKey := map[key]PortGroup{}
	for _, g := range t.Groups {
		byKey[key{g.Edge, g.Pair}] = g
	}
	out := map[string]Partner{}
	for _, g := range t.Groups {
		opp, ok := byKey[key{g.Edge.Opposite(), g.Pair}]
		if !ok || len(opp.Names) != len(g.Names) {
			continue
		}
		dx, dy := 0, 0
		switch g.Edge {
		case North:
			dy = 1
		case South:
			dy = -1
		case East:
			dx = 1
		case West:
			dx = -1
		}
		for i, n := range g.Names {
			out[n] = Partner{DX: dx, DY: dy, Name: opp.Names[i]}
		}
	}
	return out
}

type neighborRef struct {
	ix, iy int
	name   string
}

// interiorNeighbor resolves whether a port of copy (ix, iy) faces
// another copy inside the array.
func interiorNeighbor(partners map[string]Partner, port string, ix, iy, nx, ny int) (neighborRef, bool) {
	p, ok := partners[port]
	if !ok {
		return neighborRef{}, false
	}
	jx, jy := ix+p.DX, iy+p.DY
	if jx < 0 || jx >= nx || jy < 0 || jy >= ny {
		return neighborRef{}, false
	}
	return neighborRef{ix: jx, iy: jy, name: p.Name}, true
}

// portNets indexes, by port name, the net driven by (input port) or
// sinking at (output port) each port of the design — the first such
// net in id order.
func portNets(d *netlist.Design) map[string]*netlist.Net {
	idx := make(map[string]*netlist.Net, len(d.Ports))
	note := func(p *netlist.Port, n *netlist.Net) {
		if p != nil && idx[p.Name] == nil {
			idx[p.Name] = n
		}
	}
	for _, n := range d.Nets {
		note(n.Driver.Port, n)
		for _, s := range n.Sinks {
			note(s.Port, n)
		}
	}
	return idx
}
