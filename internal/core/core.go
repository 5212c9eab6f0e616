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
//     consumes no logic-die placement area.
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
	"strings"

	"macro3d/internal/cell"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// EditMacroForMacroDie returns the Macro-3D view of a macro master:
// pin layers and obstruction layers renamed with the _MD suffix at
// unchanged (x, y) geometry, and the substrate footprint shrunk to the
// filler-cell size. The original master is not modified.
func EditMacroForMacroDie(m *cell.Cell, fillerW, fillerH float64) (*cell.Cell, error) {
	if m.Kind != cell.KindMacro {
		return nil, fmt.Errorf("core: %s is not a macro", m.Name)
	}
	if strings.HasSuffix(m.Name, "_MD") {
		return nil, fmt.Errorf("core: %s already edited", m.Name)
	}
	e := m.Clone()
	e.Name = m.Name + "_MD"
	for i := range e.Pins {
		if e.Pins[i].Layer != "" && !strings.HasSuffix(e.Pins[i].Layer, tech.MDSuffix) {
			e.Pins[i].Layer += tech.MDSuffix
		}
	}
	for i := range e.Obstructions {
		if !strings.HasSuffix(e.Obstructions[i].Layer, tech.MDSuffix) {
			e.Obstructions[i].Layer += tech.MDSuffix
		}
	}
	// Shrink the substrate footprint only; pins/obstructions keep
	// their absolute offsets (they live in the other die's metal).
	e.Width = fillerW
	e.Height = fillerH
	return e, nil
}

// RemapAbstractForMacroDie rewrites a hardened abstract's layer
// geometry onto the _MD layers of a combined stack, so a block
// hardened on a plain single-die stack (e.g. by the 2D flow) can live
// on the macro die of an F2F stack. Unlike EditMacroForMacroDie the
// mapping is validated layer by layer against the combined stack — an
// abstract hardened with more metals than the macro die offers is an
// error, not a silent rename — and the substrate footprint is kept
// (the abstract *is* the macro-die content, not a logic-die stand-in).
// The original master is not modified.
func RemapAbstractForMacroDie(m *cell.Cell, combined *tech.BEOL) (*cell.Cell, error) {
	if m.Abstract == nil {
		return nil, fmt.Errorf("core: %s is not a hardened abstract", m.Name)
	}
	e := m.Clone()
	if !strings.HasSuffix(e.Name, tech.MDSuffix) {
		e.Name = m.Name + tech.MDSuffix
	}
	for i := range e.Pins {
		if e.Pins[i].Layer == "" {
			continue
		}
		name, err := combined.MacroDieName(e.Pins[i].Layer)
		if err != nil {
			return nil, fmt.Errorf("core: abstract %s pin %s: %w", m.Name, e.Pins[i].Name, err)
		}
		e.Pins[i].Layer = name
	}
	for i := range e.Obstructions {
		name, err := combined.MacroDieName(e.Obstructions[i].Layer)
		if err != nil {
			return nil, fmt.Errorf("core: abstract %s obstruction %d: %w", m.Name, i, err)
		}
		e.Obstructions[i].Layer = name
	}
	return e, nil
}

// onMacroDie checks that every layer the macro-die view e of master m
// (EditMacroForMacroDie) puts a pin or an obstruction on exists in
// combined, as BEOL.MacroDieName does — on e's already renamed layers,
// so a check that passes allocates nothing. An error names m's layer.
func onMacroDie(m, e *cell.Cell, combined *tech.BEOL) error {
	for i := range e.Pins {
		if e.Pins[i].Layer == "" {
			continue
		}
		if _, err := combined.MacroDieName(e.Pins[i].Layer); err != nil {
			return fmt.Errorf("pin %s on %s: %w", m.Pins[i].Name, m.Pins[i].Layer, err)
		}
	}
	for i := range e.Obstructions {
		if _, err := combined.MacroDieName(e.Obstructions[i].Layer); err != nil {
			return fmt.Errorf("obstruction %d on %s: %w", i, m.Obstructions[i].Layer, err)
		}
	}
	return nil
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

	// Edit every macro-die macro, onto layers the macro die has: a
	// stack too thin for a macro fails here, not in the router.
	for _, m := range d.Macros() {
		if m.Die != netlist.MacroDie {
			continue
		}
		if !m.Placed {
			return nil, fmt.Errorf("core: macro %s not floorplanned", m.Name)
		}
		edited, err := EditMacroForMacroDie(m.Master, fillerW, fillerH)
		if err != nil {
			return nil, err
		}
		if err := onMacroDie(m.Master, edited, combined); err != nil {
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

	// WirelengthByLayer holds routed wire per layer present in this
	// die, µm.
	WirelengthByLayer map[string]float64

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
		WirelengthByLayer: map[string]float64{},
	}
	macro = &DieLayout{
		Name: d.Name + "_macro_die", Die: netlist.MacroDie,
		Outline: md.FP.Die, Layers: md.MacroLayers,
		WirelengthByLayer: map[string]float64{},
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

	// Wire geometry per layer.
	for li, l := range md.Combined.Layers {
		wl := routes.WLPerLayer[li]
		if l.MacroDie {
			macro.WirelengthByLayer[l.Name] = wl
		} else {
			logic.WirelengthByLayer[l.Name] = wl
		}
	}

	// Bump locations from F2F via crossings; both parts carry them.
	f2fIdx := md.Combined.F2FViaIndex()
	if f2fIdx < 0 {
		return nil, nil, fmt.Errorf("core: combined stack lost its F2F via")
	}
	seen := map[[2]int16]int{}
	for _, r := range routes.Routes {
		if r == nil {
			continue
		}
		for _, s := range r.Segments {
			if !s.Spans(f2fIdx) { // a wire, or a via stack that stays on one die
				continue
			}
			// Offset repeated bumps in a gcell onto the bump grid.
			key := [2]int16{s.A.X, s.A.Y}
			k := seen[key]
			seen[key] = k + 1
			c := db.Grid.BinCenter(int(s.A.X), int(s.A.Y))
			pitch := md.Combined.Vias[f2fIdx].Pitch
			per := int(db.Grid.DX / pitch)
			if per < 1 {
				per = 1
			}
			off := geom.Pt(float64(k%per)*pitch, float64(k/per)*pitch)
			p := c.Add(off)
			logic.Bumps = append(logic.Bumps, p)
			macro.Bumps = append(macro.Bumps, p)
		}
	}
	return logic, macro, nil
}

// DieViews shares the macro-die views of standard-cell masters: one
// clone per master, however many instances (or snapshot rows) ask for
// it. The zero map is not usable; make one per design.
type DieViews map[*cell.Cell]*cell.Cell

// MacroDie returns the macro-die view of m (CellForDie), cloning it on
// the first request only.
func (v DieViews) MacroDie(m *cell.Cell) *cell.Cell {
	c, ok := v[m]
	if !ok {
		c = CellForDie(m, netlist.MacroDie)
		v[m] = c
	}
	return c
}

// CellForDie returns a view of a standard-cell master for a given die
// of an F2F stack: macro-die copies get _MD pin layers. Used by the
// S2D/C2D baselines after tier partitioning (Macro-3D itself never
// needs this — its standard cells all live in the logic die, which is
// the heterogeneity the flow exploits).
func CellForDie(m *cell.Cell, die netlist.Die) *cell.Cell {
	if die == netlist.LogicDie {
		return m
	}
	e := m.Clone()
	e.Name = m.Name + "_MD"
	for i := range e.Pins {
		if e.Pins[i].Layer != "" && !strings.HasSuffix(e.Pins[i].Layer, tech.MDSuffix) {
			e.Pins[i].Layer += tech.MDSuffix
		}
	}
	for i := range e.Obstructions {
		if !strings.HasSuffix(e.Obstructions[i].Layer, tech.MDSuffix) {
			e.Obstructions[i].Layer += tech.MDSuffix
		}
	}
	return e
}
