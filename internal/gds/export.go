package gds

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"macro3d/internal/cell"
	"macro3d/internal/core"
	"macro3d/internal/netlist"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// GDS layer numbering: logic metals M<k> → k, macro-die metals
// M<k>_MD → 10+k, the F2F bonding layer → 50, die outline → 0,
// substrate cells → 60, macro footprints → 61.
const (
	LayerOutline = 0
	LayerCells   = 60
	LayerMacros  = 61
	LayerF2F     = 50
	macroDieBase = 10
)

// LayerNumber maps a stack layer name to its GDS layer.
func LayerNumber(name string) (int16, error) {
	if name == tech.F2FLayerName {
		return LayerF2F, nil
	}
	base := int16(0)
	if strings.HasSuffix(name, tech.MDSuffix) {
		base = macroDieBase
		name = strings.TrimSuffix(name, tech.MDSuffix)
	}
	if !strings.HasPrefix(name, "M") {
		return 0, fmt.Errorf("gds: unknown layer %q", name)
	}
	k, err := strconv.Atoi(name[1:])
	if err != nil {
		return 0, fmt.Errorf("gds: unknown layer %q", name)
	}
	return base + int16(k), nil
}

// ExportDie writes one production die as a GDSII structure: outline,
// the substrate objects belonging to the part, routed wires on the
// part's layers, and the shared F2F bumps.
func ExportDie(w io.Writer, d *netlist.Design, part *core.DieLayout, routes *route.Result, db *route.DB) error {
	g := NewWriter(w, part.Name)
	g.BeginStruct(part.Name)

	die := part.Outline
	g.Boundary(LayerOutline, die.Lx, die.Ly, die.Ux, die.Uy)

	// Substrate objects: the logic die carries all standard cells (and
	// filler-sized macro stand-ins); the macro die the real macros.
	for _, inst := range d.Instances {
		if !inst.Placed {
			continue
		}
		b := inst.Bounds()
		switch {
		case inst.IsMacro() && inst.Die == part.Die:
			g.Boundary(LayerMacros, b.Lx, b.Ly, b.Ux, b.Uy)
		case !inst.IsMacro() && part.Die == netlist.LogicDie &&
			inst.Master.Kind != cell.KindFiller:
			g.Boundary(LayerCells, b.Lx, b.Ly, b.Ux, b.Uy)
		}
	}

	// Wires: every straight segment on a layer belonging to this part.
	wanted := map[int]int16{}
	for _, name := range part.Layers {
		if name == tech.F2FLayerName {
			continue
		}
		li := db.LayerIndex(name)
		if li < 0 {
			continue
		}
		num, err := LayerNumber(name)
		if err != nil {
			return err
		}
		wanted[li] = num
	}
	grid := db.Grid
	for _, r := range routes.Routes {
		if r == nil {
			continue
		}
		for _, s := range r.Segments {
			if s.IsVia() {
				continue
			}
			num, ok := wanted[int(s.A.L)]
			if !ok {
				continue
			}
			a := grid.BinCenter(int(s.A.X), int(s.A.Y))
			b := grid.BinCenter(int(s.B.X), int(s.B.Y))
			width := db.Beol.Layers[s.A.L].Width
			g.Path(num, width, a.X, a.Y, b.X, b.Y)
		}
	}

	// Shared bonding bumps.
	for _, p := range part.Bumps {
		half := 0.25 // 0.5 µm bump
		g.Boundary(LayerF2F, p.X-half, p.Y-half, p.X+half, p.Y+half)
	}

	g.EndStruct()
	return g.Close()
}
