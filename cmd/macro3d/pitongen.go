package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"macro3d"
	"macro3d/internal/geom"
)

// pitongenOptions is the parsed command line of macro3d pitongen.
type pitongenOptions struct {
	tile           tileFlag
	stats          bool
	seed           uint64
	lefOut, defOut string
}

func newPitongenFlags(o *pitongenOptions) *command {
	c := newCommand("macro3d pitongen")
	c.tile(&o.tile, "small")
	c.BoolVar(&o.stats, "stats", true, "print netlist statistics")
	c.Uint64Var(&o.seed, "seed", 0, "override the configuration seed (0 = default)")
	c.StringVar(&o.lefOut, "lef", "", "write the cell library + macros as LEF to this file")
	c.StringVar(&o.defOut, "def", "", "write the (unplaced) netlist as DEF to this file")
	return c
}

// pitongen is the "macro3d pitongen" subcommand: it generates and
// inspects the OpenPiton-like benchmark netlists (paper Fig. 3: the tile
// architecture).
//
//	macro3d pitongen -config small|large [-stats] [-seed N] [-lef FILE] [-def FILE]
func pitongen(_ context.Context, o *pitongenOptions) error {
	cfg := o.tile.cfg
	if o.seed != 0 {
		cfg.Seed = o.seed
	}
	tile, err := macro3d.GenerateTile(cfg)
	if err != nil {
		return err
	}
	d := tile.Design
	if o.lefOut != "" {
		b, err := macro3d.NewBEOL28("logic28", 6)
		if err != nil {
			return err
		}
		if err := writeOutput(o.lefOut, func(w io.Writer) error { return macro3d.WriteLEF(w, b, d.Lib) }); err != nil {
			return err
		}
	}
	if o.defOut != "" {
		if err := writeOutput(o.defOut, func(w io.Writer) error { return macro3d.WriteDEF(w, d, geom.R(0, 0, 1000, 1000)) }); err != nil {
			return err
		}
	}
	if !o.stats {
		return nil
	}
	st := d.ComputeStats()
	fmt.Printf("tile %s (Fig. 3 architecture)\n", cfg.Name)
	fmt.Printf("  caches: L1I %d kB, L1D %d kB, L2 %d kB, L3 %d kB\n",
		cfg.L1I/1024, cfg.L1D/1024, cfg.L2/1024, cfg.L3/1024)
	fmt.Printf("  core: %d pipeline stages × %d bits; %d parallel NoCs × %d-bit flits\n",
		cfg.CoreStages, cfg.CoreWidth, cfg.NoCs, cfg.DataWidth)
	fmt.Printf("  instances: %d (%d std cells, %d macros, %d sequential)\n",
		st.NumInstances, st.NumStdCells, st.NumMacros, st.NumSeq)
	fmt.Printf("  nets: %d, ports: %d (inter-tile ports half-cycle constrained)\n",
		st.NumNets, st.NumPorts)
	fmt.Printf("  area: logic %.3f mm², macros %.3f mm² (%.0f%% of cell area)\n",
		st.StdCellArea/1e6, st.MacroArea/1e6,
		100*st.MacroArea/(st.MacroArea+st.StdCellArea))

	// Bank inventory per cache level.
	banks, bytes := map[string]int{}, map[string]int{}
	for _, m := range d.Macros() {
		level := m.Name[:strings.Index(m.Name, "_")]
		banks[level]++
		bytes[level] += m.Master.Macro.CapacityBytes
	}
	levels := make([]string, 0, len(banks))
	for level := range banks {
		levels = append(levels, level)
	}
	sort.Strings(levels)
	for _, level := range levels {
		fmt.Printf("  %-4s %d bank(s), %d kB total\n", level, banks[level], bytes[level]/1024)
	}
	return nil
}
