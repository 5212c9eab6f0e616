// Command layoutviz renders the paper's figures as SVG files (plus an
// ASCII preview on stdout):
//
//	-fig 1: 2D vs MoL stack cross sections
//	-fig 4: memory-macro floorplans of the 2D and MoL designs
//	-fig 5: final placed-and-routed 2D layout
//	-fig 6: separated MoL dies with F2F bumps
//	-fig 7: hierarchical parent array of hardened-macro abstracts with
//	        their dashed boundaries and per-layer routing obstructions
//	        (logic-die layers blue, _MD macro-die layers red)
//
// Usage:
//
//	layoutviz -fig 1|4|5|6|7 [-config tiny|small|large] [-o DIR] [-seed N] [-array N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"macro3d"
	"macro3d/internal/netlist"
)

func main() {
	var (
		fig    = flag.Int("fig", 4, "paper figure to regenerate: 1, 4, 5, 6 or 7")
		config = flag.String("config", "small", "tile configuration: tiny, small or large")
		out    = flag.String("o", ".", "output directory for SVG files")
		seed   = flag.Uint64("seed", 1, "deterministic seed")
		array  = flag.Int("array", 3, "abstract array size for -fig 7 (N×N)")
	)
	flag.Parse()
	if err := run(*fig, *config, *out, *seed, *array); err != nil {
		fmt.Fprintln(os.Stderr, "layoutviz:", err)
		os.Exit(1)
	}
}

func run(fig int, config, out string, seed uint64, array int) error {
	var pc macro3d.TileConfig
	switch config {
	case "tiny":
		pc = macro3d.TinyTile()
	case "small":
		pc = macro3d.SmallCache()
	case "large":
		pc = macro3d.LargeCache()
	default:
		return fmt.Errorf("unknown config %q", config)
	}
	cfg := macro3d.FlowConfig{Piton: pc, Seed: seed}
	write := func(name, svg string) error {
		path := filepath.Join(out, name)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}

	switch fig {
	case 1:
		if err := write("fig1_2d_cross.svg", macro3d.CrossSectionSVG(6, 0, false)); err != nil {
			return err
		}
		return write("fig1_mol_cross.svg", macro3d.CrossSectionSVG(6, 6, true))

	case 4:
		// Macro floorplans only (no cells): 2D periphery ring and the
		// MoL macro die.
		_, st2d, _, err := macro3d.RunFlow(context.Background(), "2d", cfg)
		if err != nil {
			return err
		}
		if err := write("fig4_2d_floorplan_"+config+".svg",
			macro3d.LayoutSVG(st2d.Design, st2d.Die, macro3d.VizOptions{
				Title: "2D macro floorplan (" + config + ")", ShowPorts: true,
			})); err != nil {
			return err
		}
		_, st3d, _, err := macro3d.RunFlow(context.Background(), "macro3d", cfg)
		if err != nil {
			return err
		}
		md := netlist.MacroDie
		return write("fig4_mol_floorplan_"+config+".svg",
			macro3d.LayoutSVG(st3d.Design, st3d.Die, macro3d.VizOptions{
				Title: "MoL macro-die floorplan (" + config + ")", DieFilter: &md,
			}))

	case 5:
		_, st, _, err := macro3d.RunFlow(context.Background(), "2d", cfg)
		if err != nil {
			return err
		}
		fmt.Print(macro3d.ASCIIDensity(st.Design, st.Die, 72, nil))
		return write("fig5_2d_layout_"+config+".svg",
			macro3d.LayoutSVG(st.Design, st.Die, macro3d.VizOptions{
				Title: "final 2D layout (" + config + ")", ShowCells: true, ShowPorts: true,
			}))

	case 6:
		_, st, mol, err := macro3d.RunFlow(context.Background(), "macro3d", cfg)
		if err != nil {
			return err
		}
		logic, macroD, err := macro3d.SeparateDies(mol, st)
		if err != nil {
			return err
		}
		// GDSII production streams alongside the SVGs.
		for _, part := range []*macro3d.DieLayout{logic, macroD} {
			path := filepath.Join(out, part.Name+".gds")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := macro3d.WriteGDS(f, st, part); err != nil {
				f.Close()
				return err
			}
			f.Close()
			fmt.Println("wrote", path)
		}
		ld := netlist.LogicDie
		if err := write("fig6_mol_logic_die_"+config+".svg",
			macro3d.LayoutSVG(st.Design, st.Die, macro3d.VizOptions{
				Title:     fmt.Sprintf("MoL logic die (%s) — %d bumps", config, len(logic.Bumps)),
				ShowCells: true, DieFilter: &ld, Bumps: logic.Bumps, ShowPorts: true,
			})); err != nil {
			return err
		}
		mdie := netlist.MacroDie
		fmt.Print(macro3d.ASCIIDensity(st.Design, st.Die, 72, &ld))
		return write("fig6_mol_macro_die_"+config+".svg",
			macro3d.LayoutSVG(st.Design, st.Die, macro3d.VizOptions{
				Title:     fmt.Sprintf("MoL macro die (%s) — %d bumps", config, len(macroD.Bumps)),
				DieFilter: &mdie, Bumps: macroD.Bumps,
			}))

	case 7:
		if array < 2 {
			array = 2
		}
		rep, err := macro3d.RunHierArray(context.Background(), cfg, macro3d.HardenFlowMacro3D, array, array)
		if err != nil {
			return err
		}
		mdObs := 0
		for _, inst := range rep.Design.Macros() {
			if inst.Master.Abstract == nil {
				continue
			}
			for _, ob := range inst.Master.Obstructions {
				if len(ob.Layer) > 3 && ob.Layer[len(ob.Layer)-3:] == "_MD" {
					mdObs++
				}
			}
		}
		fmt.Print(macro3d.ASCIIDensity(rep.Design, rep.Die, 72, nil))
		return write(fmt.Sprintf("fig7_hier_array_%s_%dx%d.svg", config, array, array),
			macro3d.LayoutSVG(rep.Design, rep.Die, macro3d.VizOptions{
				Title: fmt.Sprintf("hierarchical %d×%d array of %s (%d _MD obstructions/instance total %d)",
					array, array, rep.Abstract.Name, mdObs/(array*array), mdObs),
				ShowObstructions: true, ShowPorts: true,
			}))
	}
	return fmt.Errorf("unknown figure %d (want 1, 4, 5, 6 or 7)", fig)
}
