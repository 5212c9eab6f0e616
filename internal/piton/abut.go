package piton

import (
	"fmt"
	"strings"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
)

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
	if nx < 1 || ny < 1 {
		return nil, geom.Rect{}, fmt.Errorf("piton: abut needs nx, ny >= 1")
	}
	src := t.Design
	for _, p := range src.Ports {
		if p.Loc == (geom.Point{}) && p.Name != t.ClockPort {
			return nil, geom.Rect{}, fmt.Errorf("piton: port %s unassigned — floorplan the tile first", p.Name)
		}
	}

	arrayDie := geom.R(die.Lx, die.Ly,
		die.Lx+die.W()*float64(nx), die.Ly+die.H()*float64(ny))
	out := netlist.NewDesign(fmt.Sprintf("%s_%dx%d", src.Name, nx, ny), src.Lib)
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
	copies := nx * ny
	out.Reserve(copies*len(src.Instances), copies*len(src.Nets)+1, copies*srcSinks)

	// Group lookup: for each grouped (NoC) port, its edge and the
	// pairing name on the neighbouring tile.
	partnerName := buildPartnerNames(t)
	portNet := portNets(src)

	clkPort := out.AddPort("clk_i", cell.DirIn)
	clkPort.Layer = "M6"
	clkPort.Loc = geom.Pt(arrayDie.Lx, arrayDie.Center().Y)
	clkSinks := make([]netlist.PinRef, 0, copies*srcClkSinks)

	// Copies are laid out back to back in row-major order, so copy
	// (ix, iy) of source instance i is out.Instances[copyBase+i.ID].
	copyBase := func(ix, iy int) int { return (iy*nx + ix) * len(src.Instances) }
	var names nameArena

	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			off := geom.Pt(die.W()*float64(ix), die.H()*float64(iy))
			tag := fmt.Sprintf("t%d_%d_", ix, iy)
			for _, inst := range src.Instances {
				c := out.AddInstance(names.concat(tag, inst.Name), inst.Master)
				c.Loc = inst.Loc.Add(off)
				c.Orient = inst.Orient
				c.Fixed = inst.Fixed
				c.Placed = inst.Placed
				c.Die = inst.Die
			}
		}
	}

	// exteriorPort creates (once) a boundary port for an unmatched
	// tile port.
	madePorts := map[string]*netlist.Port{}
	exteriorPort := func(tag string, p *netlist.Port, off geom.Point) *netlist.Port {
		name := tag + p.Name
		if q := madePorts[name]; q != nil {
			return q
		}
		q := out.AddPort(name, p.Dir)
		q.Layer = p.Layer
		q.Loc = p.Loc.Add(off)
		q.HalfCycle = p.HalfCycle
		q.ExtCap = p.ExtCap
		q.ExtDelay = p.ExtDelay
		madePorts[name] = q
		return q
	}

	// Stitch nets copy by copy. Each source net becomes one net per
	// copy; nets touching an interior-facing port extend into the
	// neighbour instead of getting a port.
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			base := copyBase(ix, iy)
			off := geom.Pt(die.W()*float64(ix), die.H()*float64(iy))
			tag := fmt.Sprintf("t%d_%d_", ix, iy)
			mapRef := func(r netlist.PinRef) (netlist.PinRef, bool) {
				if r.Inst != nil {
					return netlist.IPin(out.Instances[base+r.Inst.ID], r.Pin), true
				}
				// Port sink/driver.
				p := r.Port
				if pn, interior := interiorNeighbor(partnerName, p.Name, ix, iy, nx, ny); interior {
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
							return netlist.IPin(out.Instances[copyBase(pn.ix, pn.iy)+s.Inst.ID], s.Pin), true
						}
					}
					return netlist.PinRef{}, false
				}
				return netlist.PPin(exteriorPort(tag, p, off)), true
			}
			for _, n := range src.Nets {
				if n.Clock {
					// Collect clock sinks; net created at the end.
					for _, s := range n.Sinks {
						if s.Inst != nil {
							clkSinks = append(clkSinks, netlist.IPin(out.Instances[base+s.Inst.ID], s.Pin))
						}
					}
					continue
				}
				// Input-port-driven nets whose port faces an interior
				// neighbour are handled from the driving side; skip.
				if n.Driver.Port != nil && n.Driver.Port.Name != t.ClockPort {
					if _, interior := interiorNeighbor(partnerName, n.Driver.Port.Name, ix, iy, nx, ny); interior {
						continue
					}
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
				out.AddNet(names.concat(tag, n.Name), drv, sinks...)
			}
		}
	}

	cn := out.AddNet("clk", netlist.PPin(clkPort), clkSinks...)
	cn.Clock = true
	if err := out.Validate(); err != nil {
		return nil, geom.Rect{}, fmt.Errorf("piton: abutted design invalid: %w", err)
	}
	return out, arrayDie, nil
}

// nameArena cuts instance and net names out of large chunks: a name is
// a substring of the chunk it was written to, so the 14 k names of a
// generated small tile, or the 230 k of its 4×4 array, cost a few dozen
// allocations, not one each. A full chunk is dropped by the arena and
// lives on in the names cut from it — as long as the design that holds
// them.
type nameArena struct{ chunk strings.Builder }

// room starts a new chunk unless the current one has n bytes left, and
// returns the offset the next name starts at.
func (a *nameArena) room(n int) int {
	if a.chunk.Cap()-a.chunk.Len() < n {
		a.chunk.Reset()
		a.chunk.Grow(max(n, 1<<16))
	}
	return a.chunk.Len()
}

// concat returns x + y.
func (a *nameArena) concat(x, y string) string {
	off := a.room(len(x) + len(y))
	a.chunk.WriteString(x)
	a.chunk.WriteString(y)
	return a.chunk.String()[off:]
}

// cut returns string(b).
func (a *nameArena) cut(b []byte) string {
	off := a.room(len(b))
	a.chunk.Write(b)
	return a.chunk.String()[off:]
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

	partnerName := buildPartnerNames(t)

	clkPort := out.AddPort("clk_i", cell.DirIn)
	clkPort.Layer = "M6"
	clkPort.Loc = geom.Pt(arrayDie.Lx, arrayDie.Center().Y)
	var clkSinks []netlist.PinRef

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
				switch p.Dir {
				case cell.DirOut:
					if pn, interior := interiorNeighbor(partnerName, p.Name, ix, iy, nx, ny); interior {
						nb := insts[pn.iy][pn.ix]
						out.AddNet(tag+p.Name, netlist.IPin(inst, p.Name), netlist.IPin(nb, pn.name))
						continue
					}
					q := out.AddPort(tag+p.Name, cell.DirOut)
					q.Layer = ap.Layer
					q.Loc = ap.Offset.Add(off)
					q.HalfCycle = p.HalfCycle
					q.ExtCap = p.ExtCap
					q.ExtDelay = p.ExtDelay
					out.AddNet(tag+p.Name, netlist.IPin(inst, p.Name), netlist.PPin(q))
				case cell.DirIn:
					// Interior-facing inputs are stitched from the
					// driving neighbour's side.
					if _, interior := interiorNeighbor(partnerName, p.Name, ix, iy, nx, ny); interior {
						continue
					}
					q := out.AddPort(tag+p.Name, cell.DirIn)
					q.Layer = ap.Layer
					q.Loc = ap.Offset.Add(off)
					q.HalfCycle = p.HalfCycle
					q.ExtCap = p.ExtCap
					q.ExtDelay = p.ExtDelay
					out.AddNet(tag+p.Name, netlist.PPin(q), netlist.IPin(inst, p.Name))
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

// partner describes the tile-relative neighbour a grouped port faces.
type partner struct {
	dx, dy int
	name   string
}

// buildPartnerNames maps each grouped port name to the facing port on
// the adjacent tile: out→in of the same pair/bit on the opposite edge.
func buildPartnerNames(t *Tile) map[string]partner {
	type key struct {
		e    Edge
		pair int
	}
	byKey := map[key]PortGroup{}
	for _, g := range t.Groups {
		byKey[key{g.Edge, g.Pair}] = g
	}
	out := map[string]partner{}
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
			out[n] = partner{dx: dx, dy: dy, name: opp.Names[i]}
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
func interiorNeighbor(partners map[string]partner, port string, ix, iy, nx, ny int) (neighborRef, bool) {
	p, ok := partners[port]
	if !ok {
		return neighborRef{}, false
	}
	jx, jy := ix+p.dx, iy+p.dy
	if jx < 0 || jx >= nx || jy < 0 || jy >= ny {
		return neighborRef{}, false
	}
	return neighborRef{ix: jx, iy: jy, name: p.name}, true
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
