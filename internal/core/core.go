// Package core implements the Macro-3D methodology itself — the
// paper's contribution (§IV). The flow's trick is to let a standard 2D
// engine perform a *true* 3D placement and routing by editing only the
// technology views and macro abstracts:
//
//  1. Combined BEOL: the full two-die metal stack — logic-die metals,
//     the F2F_VIA bonding layer, then the macro-die metals renamed
//     with the "_MD" suffix — handed to P&R and extraction as one
//     stack (tech.Combine).
//  2. Macro editing: every macro assigned to the macro die keeps its
//     pin and obstruction (x, y) geometry but has the layers remapped
//     onto the _MD names, and its substrate footprint shrunk to a
//     filler cell's (commercial tools do not allow zero area) so it
//     consumes no logic-die placement area (MacroDieView).
//  3. Superimposition: the macro-die floorplan and logic-die floorplan
//     overlay into a single 2D floorplan over the combined stack.
//  4. Separation: after sign-off, the single design splits into the
//     two production layouts; the F2F_VIA layer appears in both.
//
// Because the engine sees the physical truth, its P&R and PPA results
// are *directly* valid for the 3D stack — no tier partitioning, via
// planning or incremental rerouting afterwards.
package core

import (
	"fmt"
	"math"
	"strings"

	"macro3d/internal/cell"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// MacroDieView returns the view of master m on the macro die of the
// combined stack: a clone named m.Name+"_MD" whose pin and obstruction
// layers map onto the stack's macro-die layers (BEOL.MacroDieName) at
// unchanged (x, y) geometry, on a w × h substrate footprint. A
// memory-on-logic macro gets the filler cell's footprint, so it consumes
// no logic-die placement area (paper §IV); a standard cell the partition
// moved, or a hardened abstract, keeps its own. This is the paper's
// scripted LEF edit: the engine reads of the view what lefdef.WriteLEF
// writes of it. A layer the macro die lacks is an error, so a stack too
// thin for m fails here, not in the router; so is a master that already
// is a view. m is not modified.
func MacroDieView(m *cell.Cell, combined *tech.BEOL, w, h float64) (*cell.Cell, error) {
	if strings.HasSuffix(m.Name, tech.MDSuffix) {
		return nil, fmt.Errorf("core: %s is already a macro-die view", m.Name)
	}
	v := m.Clone()
	v.Name = m.Name + tech.MDSuffix
	v.Width, v.Height = w, h
	for i := range v.Pins {
		p := &v.Pins[i]
		if p.Layer == "" {
			continue
		}
		name, err := combined.MacroDieName(p.Layer)
		if err != nil {
			return nil, fmt.Errorf("core: view of %s: pin %s on %s: %w", m.Name, p.Name, p.Layer, err)
		}
		p.Layer = name
	}
	for i := range v.Obstructions {
		o := &v.Obstructions[i]
		name, err := combined.MacroDieName(o.Layer)
		if err != nil {
			return nil, fmt.Errorf("core: view of %s: obstruction %d on %s: %w", m.Name, i, o.Layer, err)
		}
		o.Layer = name
	}
	return v, nil
}

// MoLDesign is a design prepared for single-pass 3D P&R.
type MoLDesign struct {
	Design   *netlist.Design
	Combined *tech.BEOL
	FP       *floorplan.Floorplan

	// Layer name sets of the separated production layouts.
	LogicLayers []string
	MacroLayers []string

	EditedMacros int
}

// PrepareMoL performs steps 1–3 of the methodology on a design whose
// macros have already been floorplanned (macro-die macros carry
// Die == MacroDie with fixed locations — floorplan.PlaceMacros with
// StyleMoL). logicBeol/macroBeol are the per-die stacks; die is the 3D
// footprint.
func PrepareMoL(d *netlist.Design, logicBeol, macroBeol *tech.BEOL, f2f tech.F2FSpec,
	die geom.Rect, fillerW, fillerH float64) (*MoLDesign, error) {

	combined, err := tech.Combine(logicBeol, macroBeol, f2f)
	if err != nil {
		return nil, err
	}
	ll, ml, err := tech.Separate(combined)
	if err != nil {
		return nil, err
	}

	md := &MoLDesign{
		Design:      d,
		Combined:    combined,
		LogicLayers: ll,
		MacroLayers: ml,
		FP:          &floorplan.Floorplan{Die: die},
	}

	// Every macro-die macro takes its filler-sized view.
	for _, m := range d.Macros() {
		if m.Die != netlist.MacroDie {
			continue
		}
		if !m.Placed {
			return nil, fmt.Errorf("core: macro %s not floorplanned", m.Name)
		}
		edited, err := MacroDieView(m.Master, combined, fillerW, fillerH)
		if err != nil {
			return nil, fmt.Errorf("core: macro %s: %w", m.Name, err)
		}
		if err := m.SetMaster(edited); err != nil {
			return nil, err
		}
		md.EditedMacros++
	}

	// Superimposed floorplan: logic-die macros still block placement;
	// macro-die macros (now filler-sized) do not. Routing blockages
	// from both dies land in one floorplan because the edited layers
	// are distinct; the edited macros keep their _MD obstructions at
	// the original (pre-shrink) extents.
	floorplan.BuildBlockages(md.FP, d, netlist.LogicDie)
	floorplan.BuildBlockages(md.FP, d, netlist.MacroDie)
	return md, nil
}

// DieLayout is one production layout produced by separation — the
// stand-in for a per-die GDSII stream.
type DieLayout struct {
	Name    string
	Die     netlist.Die
	Outline geom.Rect
	Layers  []string

	StdCells int
	Macros   int

	// Bumps are the F2F bonding via locations (shared by both parts).
	Bumps []geom.Point
}

// Separate performs step 4: splitting the signed-off combined design
// into the two per-die layouts. Both receive the F2F_VIA bump
// locations.
func Separate(md *MoLDesign, routes *route.Result, db *route.DB) (logic, macro *DieLayout, err error) {
	d := md.Design
	logic = &DieLayout{
		Name: d.Name + "_logic_die", Die: netlist.LogicDie,
		Outline: md.FP.Die, Layers: md.LogicLayers,
	}
	macro = &DieLayout{
		Name: d.Name + "_macro_die", Die: netlist.MacroDie,
		Outline: md.FP.Die, Layers: md.MacroLayers,
	}

	// Substrate objects: all placed cells (and filler-sized macro
	// stand-ins) belong to the logic die; the real macros to the macro
	// die.
	for _, inst := range d.Instances {
		if inst.IsMacro() && inst.Die == netlist.MacroDie {
			macro.Macros++
			continue
		}
		if inst.IsMacro() {
			logic.Macros++
			continue
		}
		logic.StdCells++
	}

	// Bump locations from F2F via crossings; both parts carry them.
	f2fIdx := md.Combined.F2FViaIndex()
	if f2fIdx < 0 {
		return nil, nil, fmt.Errorf("core: combined stack lost its F2F via")
	}
	pitch := md.Combined.Vias[f2fIdx].Pitch
	nx, ny := route.BumpLattice(db.Grid, pitch)
	taken := map[[2]int]bool{}
	for _, r := range routes.Routes {
		if r == nil {
			continue
		}
		for _, s := range r.Segments {
			if !s.Spans(f2fIdx) { // a wire, or a via stack that stays on one die
				continue
			}
			if len(taken) == nx*ny {
				return nil, nil, fmt.Errorf("core: %d F2F crossings exceed the %d×%d bump lattice at pitch %g µm",
					routes.F2FBumps, nx, ny, pitch)
			}
			c := db.Grid.BinCenter(int(s.A.X), int(s.A.Y))
			p := bumpSite(c.Sub(db.Grid.Region.LL()), pitch, nx, ny, taken).Add(db.Grid.Region.LL())
			logic.Bumps = append(logic.Bumps, p)
			macro.Bumps = append(macro.Bumps, p)
		}
	}
	return logic, macro, nil
}

// bumpSite takes a free site of the nx×ny bonding lattice at pitch p,
// sites centred at ((i+½)·p, (j+½)·p), for a crossing at c: the free
// site closest to c on the first square ring around c's own site that
// has one. Bumps on distinct sites keep the pitch, whatever the gcell
// of each crossing holds. taken must have a free site.
func bumpSite(c geom.Point, p float64, nx, ny int, taken map[[2]int]bool) geom.Point {
	at := func(i, j int) geom.Point { return geom.Pt((float64(i)+0.5)*p, (float64(j)+0.5)*p) }
	i0 := min(max(int(math.Floor(c.X/p)), 0), nx-1)
	j0 := min(max(int(math.Floor(c.Y/p)), 0), ny-1)
	for r := 0; ; r++ {
		best, bestD := [2]int{-1, -1}, math.Inf(1)
		for j := max(j0-r, 0); j <= min(j0+r, ny-1); j++ {
			for i := max(i0-r, 0); i <= min(i0+r, nx-1); i++ {
				if max(geom.AbsInt(i-i0), geom.AbsInt(j-j0)) != r || taken[[2]int{i, j}] {
					continue
				}
				if d := at(i, j).Dist(c); d < bestD {
					best, bestD = [2]int{i, j}, d
				}
			}
		}
		if best[0] >= 0 {
			taken[best] = true
			return at(best[0], best[1])
		}
	}
}

// DieViews shares the macro-die views of standard-cell masters on one
// combined stack: one view per master, however many instances (or
// snapshot rows) ask for it. A nil Combined is a state before prepare,
// which has no macro die: every request fails.
type DieViews struct {
	Combined *tech.BEOL
	views    map[*cell.Cell]*cell.Cell
}

// MacroDie returns the macro-die view of m at m's own footprint
// (MacroDieView), made on the first request only.
func (v *DieViews) MacroDie(m *cell.Cell) (*cell.Cell, error) {
	if c, ok := v.views[m]; ok {
		return c, nil
	}
	if v.Combined == nil {
		return nil, fmt.Errorf("core: no combined stack for a macro-die view of %s", m.Name)
	}
	c, err := MacroDieView(m, v.Combined, m.Width, m.Height)
	if err != nil {
		return nil, err
	}
	if v.views == nil {
		v.views = map[*cell.Cell]*cell.Cell{}
	}
	v.views[m] = c
	return c, nil
}
