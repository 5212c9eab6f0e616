package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"slices"

	"macro3d"
	"macro3d/internal/netlist"
)

// layoutvizOptions is the parsed command line of macro3d layoutviz.
type layoutvizOptions struct {
	fig, array int
	tile       tileFlag
	out        string
	seed       uint64
}

func newLayoutvizFlags(o *layoutvizOptions) *command {
	c := newCommand("macro3d layoutviz")
	c.IntVar(&o.fig, "fig", 4, "paper figure to regenerate: 1, 4, 5, 6 or 7")
	c.tile(&o.tile, "small")
	c.StringVar(&o.out, "o", ".", "output directory for SVG files")
	c.Uint64Var(&o.seed, "seed", 1, "deterministic seed")
	c.array(&o.array, 3, "abstract array size for -fig 7 (N×N)")
	c.check(func() error {
		if !slices.Contains([]int{1, 4, 5, 6, 7}, o.fig) {
			return fmt.Errorf("unknown figure %d (want 1, 4, 5, 6 or 7)", o.fig)
		}
		return nil
	})
	return c
}

// layoutviz is the "macro3d layoutviz" subcommand: it renders the
// paper's figures as SVG files (plus an ASCII preview on stdout):
//
//	-fig 1: 2D vs MoL stack cross sections
//	-fig 4: memory-macro floorplans of the 2D and MoL designs
//	-fig 5: final placed-and-routed 2D layout
//	-fig 6: separated MoL dies with F2F bumps, and each die's GDSII stream
//	-fig 7: hierarchical parent array of hardened-macro abstracts with
//	        their dashed boundaries and per-layer routing obstructions
//	        (logic-die layers blue, _MD macro-die layers red)
//
//	macro3d layoutviz -fig 1|4|5|6|7 [-config tiny|small|large] [-o DIR] [-seed N] [-array N]
func layoutviz(ctx context.Context, o *layoutvizOptions) error {
	config := o.tile.name
	cfg := macro3d.FlowConfig{Piton: o.tile.cfg, Seed: o.seed}
	svg := func(name, svg string) error {
		return writeOutput(filepath.Join(o.out, name), func(w io.Writer) error {
			_, err := io.WriteString(w, svg)
			return err
		})
	}

	switch o.fig {
	case 1:
		if err := svg("fig1_2d_cross.svg", macro3d.CrossSectionSVG(6, 0, false)); err != nil {
			return err
		}
		return svg("fig1_mol_cross.svg", macro3d.CrossSectionSVG(6, 6, true))

	case 4:
		// Macro floorplans only (no cells): 2D periphery ring and the
		// MoL macro die.
		_, st2d, _, err := macro3d.RunFlow(ctx, "2d", cfg)
		if err != nil {
			return err
		}
		if err := svg("fig4_2d_floorplan_"+config+".svg",
			macro3d.LayoutSVG(st2d.Design, st2d.Die, macro3d.VizOptions{
				Title: "2D macro floorplan (" + config + ")", ShowPorts: true,
			})); err != nil {
			return err
		}
		_, st3d, _, err := macro3d.RunFlow(ctx, "macro3d", cfg)
		if err != nil {
			return err
		}
		md := netlist.MacroDie
		return svg("fig4_mol_floorplan_"+config+".svg",
			macro3d.LayoutSVG(st3d.Design, st3d.Die, macro3d.VizOptions{
				Title: "MoL macro-die floorplan (" + config + ")", DieFilter: &md,
			}))

	case 5:
		_, st, _, err := macro3d.RunFlow(ctx, "2d", cfg)
		if err != nil {
			return err
		}
		fmt.Print(macro3d.ASCIIDensity(st.Design, st.Die, 72, nil))
		return svg("fig5_2d_layout_"+config+".svg",
			macro3d.LayoutSVG(st.Design, st.Die, macro3d.VizOptions{
				Title: "final 2D layout (" + config + ")", ShowCells: true, ShowPorts: true,
			}))

	case 6:
		_, st, mol, err := macro3d.RunFlow(ctx, "macro3d", cfg)
		if err != nil {
			return err
		}
		logic, macroD, err := macro3d.SeparateDies(mol, st)
		if err != nil {
			return err
		}
		// GDSII production streams alongside the SVGs.
		for _, part := range []*macro3d.DieLayout{logic, macroD} {
			if err := writeOutput(filepath.Join(o.out, part.Name+".gds"), func(w io.Writer) error { return macro3d.WriteGDS(w, st, part) }); err != nil {
				return err
			}
		}
		ld := netlist.LogicDie
		if err := svg("fig6_mol_logic_die_"+config+".svg",
			macro3d.LayoutSVG(st.Design, st.Die, macro3d.VizOptions{
				Title:     fmt.Sprintf("MoL logic die (%s) — %d bumps", config, len(logic.Bumps)),
				ShowCells: true, DieFilter: &ld, Bumps: logic.Bumps, ShowPorts: true,
			})); err != nil {
			return err
		}
		mdie := netlist.MacroDie
		fmt.Print(macro3d.ASCIIDensity(st.Design, st.Die, 72, &ld))
		return svg("fig6_mol_macro_die_"+config+".svg",
			macro3d.LayoutSVG(st.Design, st.Die, macro3d.VizOptions{
				Title:     fmt.Sprintf("MoL macro die (%s) — %d bumps", config, len(macroD.Bumps)),
				DieFilter: &mdie, Bumps: macroD.Bumps,
			}))
	}

	// Fig. 7: at least a 2×2 array.
	n := max(o.array, 2)
	rep, err := macro3d.RunHierArray(ctx, cfg, macro3d.HardenFlowMacro3D, n, n)
	if err != nil {
		return err
	}
	mdObs := 0
	for _, inst := range rep.Design.Macros() {
		if inst.Master.Abstract != nil {
			mdObs += macroDieObstructions(inst.Master)
		}
	}
	fmt.Print(macro3d.ASCIIDensity(rep.Design, rep.Die, 72, nil))
	return svg(fmt.Sprintf("fig7_hier_array_%s_%dx%d.svg", config, n, n),
		macro3d.LayoutSVG(rep.Design, rep.Die, macro3d.VizOptions{
			Title: fmt.Sprintf("hierarchical %d×%d array of %s (%d _MD obstructions/instance total %d)",
				n, n, rep.Abstract.Name, mdObs/(n*n), mdObs),
			ShowObstructions: true, ShowPorts: true,
		}))
}
