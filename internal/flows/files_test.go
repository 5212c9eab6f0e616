package flows

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/floorplan"
	"macro3d/internal/lefdef"
	"macro3d/internal/netlist"
)

// TestMacro3DFromFiles: the paper's claim that the 2D engine needs only
// the files its steps 1–2 edit (PAPER.md §1), as a test. Macro-3D runs
// its stage list through prepare; the combined stack, every master the
// design instantiates (the macro-die views of core.MacroDieView among
// them) and the superimposed design are written as tech LEF, LEF and
// DEF, and read into a fresh State, whose floorplan is rebuilt from the
// read design. The rest of the list then runs on that State, on the same
// runner, and must end in the flow's own PPA row and state digest, bit
// for bit. A stage after prepare that read anything the files do not
// carry — a master field, the MoLDesign, the tile — would part the two.
//
// The inputs the run takes from outside the files: the Config (seed,
// workers, budget, and the macro-die metal count the PPA row's metal area
// counts) and the technology beside the stack (tech.Tech: the corners'
// scale factors, the supply and the row height). The tile's port
// partners, which verify reads, are not needed: like the reference, the
// run is made without Check.
func TestMacro3DFromFiles(t *testing.T) {
	for _, tile := range []harnessTile{tinyTile, smallTile} {
		t.Run(tile.pc.Name, func(t *testing.T) {
			t.Parallel()
			c := cellOf(tile, "macro3d")
			ref := c.run(t, "reference")
			if ref.err != nil {
				t.Fatalf("reference: %v", ref.err)
			}
			f, list := flowTable[slices.IndexFunc(flowTable, func(e flowRow) bool { return e.key == c.key })].start(context.Background(), c.ref)
			i := slices.IndexFunc(list, func(s stage) bool { return s.name == StagePrepare })
			if err := f.exec(list[:i+1]); err != nil {
				t.Fatal(err)
			}
			st, err := throughFiles(f.st)
			if err != nil {
				t.Fatal(err)
			}
			st.Trace = f.trace
			f.st, f.md, f.macroBeol = st, nil, nil
			if err := f.exec(list[i+1:]); err != nil {
				t.Fatal(err)
			}
			f.finish()
			if *f.ppa != ref.ppa {
				t.Errorf("PPA row read from files differs from the flow's:\n got %+v\nwant %+v", *f.ppa, ref.ppa)
			}
			if digest(f.st) != ref.sum {
				t.Error("final state read from files differs from the flow's")
			}
		})
	}
}

// throughFiles writes a prepared state's stack, masters and design as
// LEF/DEF and reads them into a fresh State: the design and die from the
// DEF, the stack from the LEF, and the superimposed floorplan rebuilt
// from the design's macros on both dies, as core.PrepareMoL builds it.
func throughFiles(st *State) (*State, error) {
	lib := cell.NewLibrary(st.Design.Lib.Name)
	for _, c := range st.Design.Lib.Cells() {
		lib.Add(c)
	}
	for _, inst := range st.Design.Instances {
		if lib.Cell(inst.Master.Name) == nil { // a macro-die view
			lib.Add(inst.Master)
		}
	}
	var techLEF, libLEF, def bytes.Buffer
	if err := lefdef.WriteLEF(&techLEF, st.Beol, nil); err != nil {
		return nil, err
	}
	if err := lefdef.WriteLEF(&libLEF, nil, lib); err != nil {
		return nil, err
	}
	if err := lefdef.WriteDEF(&def, st.Design, st.Die); err != nil {
		return nil, err
	}
	tl, err := lefdef.ParseLEF(&techLEF)
	if err != nil {
		return nil, err
	}
	ll, err := lefdef.ParseLEF(&libLEF)
	if err != nil {
		return nil, err
	}
	dd, err := lefdef.ParseDEF(&def, ll.Lib)
	if err != nil {
		return nil, err
	}
	fp := &floorplan.Floorplan{Die: dd.Die}
	floorplan.BuildBlockages(fp, dd.Design, netlist.LogicDie)
	floorplan.BuildBlockages(fp, dd.Design, netlist.MacroDie)
	return &State{Design: dd.Design, Die: dd.Die, FP: fp, Beol: tl.Beol}, nil
}
