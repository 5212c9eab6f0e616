package report

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"macro3d/internal/flows"
	"macro3d/internal/piton"
)

// tableICells is Table I: the four compared flows on one tile.
func tableICells(cfg flows.Config) []Cell {
	return cellsOf(tileOf(cfg), cfg.Seed, "2d", "s2d", "bfs2d", "macro3d")
}

// formatTableI renders Table I in the paper's row layout.
func formatTableI(cols []*flows.PPA) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — max-performance PPA and cost, small-cache tile\n")
	fmt.Fprintf(&b, "%-22s %10s %10s %10s %10s\n", "", "2D", "MoL S2D", "BF S2D", "Macro-3D")
	row := func(name, format string, v func(p *flows.PPA) float64) {
		fmt.Fprintf(&b, "%-22s", name)
		for _, p := range cols {
			fmt.Fprintf(&b, " %10s", cell(p, format, v))
		}
		b.WriteByte('\n')
	}
	row("fclk [MHz]", "%.0f", fclk)
	row("Emean [fJ/cycle]", "%.1f", emean)
	row("Afootprint [mm²]", "%.2f", func(p *flows.PPA) float64 { return p.FootprintMM2 })
	row("F2F bumps", "%.0f", bumps)
	row(overflowRow, "%.0f", overflow)
	return b.String()
}

// tableIICells is Table II: 2D and Macro-3D on the small-cache tile, then
// on the large-cache one.
func tableIICells(cfg flows.Config) []Cell {
	return slices.Concat(cellsOf(piton.SmallCache(), cfg.Seed, "2d", "macro3d"), cellsOf(piton.LargeCache(), cfg.Seed, "2d", "macro3d"))
}

// pairRows renders a table of two (base, variant) column pairs — Tables II
// and III — with the variant's delta after each pair.
func pairRows(b *strings.Builder, cols []*flows.PPA, format string) func(name string, v func(p *flows.PPA) float64, f string) {
	return func(name string, v func(p *flows.PPA) float64, f string) {
		fmt.Fprintf(b, format, name,
			cell(cols[0], f, v), cell(cols[1], f, v), pctCell(cols[1], cols[0], v),
			cell(cols[2], f, v), cell(cols[3], f, v), pctCell(cols[3], cols[2], v))
	}
}

// formatTableII renders Table II with the paper's relative deltas.
func formatTableII(cols []*flows.PPA) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — in-depth comparison of 2D and Macro-3D designs\n")
	fmt.Fprintf(&b, "%-26s %12s %22s %12s %22s\n", "", "Small 2D", "Small Macro-3D", "Large 2D", "Large Macro-3D")
	row := pairRows(&b, cols, "%-26s %12s %12s %9s %12s %12s %9s\n")
	row("fclk [MHz]", fclk, "%.0f")
	row("Emean [fJ/cycle]", emean, "%.1f")
	row("Afootprint [mm²]", func(p *flows.PPA) float64 { return p.FootprintMM2 }, "%.2f")
	row("Alogic-cells [mm²]", func(p *flows.PPA) float64 { return p.LogicCellAreaMM2 }, "%.3f")
	row("Total wirelength [m]", func(p *flows.PPA) float64 { return p.TotalWLm }, "%.2f")
	row("F2F bumps", bumps, "%.0f")
	row("Cpin,total [nF]", func(p *flows.PPA) float64 { return p.CpinNF }, "%.3f")
	row("Cwire,total [nF]", func(p *flows.PPA) float64 { return p.CwireNF }, "%.3f")
	row("Max clk-tree depth", func(p *flows.PPA) float64 { return float64(p.ClkDepth) }, "%.0f")
	row("Crit-path WL [mm]", func(p *flows.PPA) float64 { return p.CritPathWLmm }, "%.2f")
	row(overflowRow, overflow, "%.0f")
	return b.String()
}

// tableIIICells is Table III, the metal-stack ablation: Macro-3D with six
// and with four macro-die metal layers, on both tiles.
func tableIIICells(cfg flows.Config) []Cell {
	var cells []Cell
	for _, pc := range paperTiles() {
		for _, metals := range []int{6, 4} {
			cells = append(cells, Cell{Flow: "macro3d", Tile: pc, Seed: cfg.Seed, MacroDieMetals: metals})
		}
	}
	return cells
}

// formatTableIII renders the ablation table.
func formatTableIII(cols []*flows.PPA) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — impact of removing two macro-die metal layers\n")
	fmt.Fprintf(&b, "%-20s %10s %10s %9s %10s %10s %9s\n", "",
		"S M6–M6", "S M6–M4", "", "L M6–M6", "L M6–M4", "")
	row := pairRows(&b, cols, "%-20s %10s %10s %9s %10s %10s %9s\n")
	row("fclk [MHz]", fclk, "%.0f")
	row("Emean [fJ/cycle]", emean, "%.1f")
	row("Ametal [mm²]", func(p *flows.PPA) float64 { return p.MetalAreaMM2 }, "%.1f")
	row("F2F bumps", bumps, "%.0f")
	row(overflowRow, overflow, "%.0f")
	return b.String()
}

// isoPerf is the §V-A iso-performance power comparison on each tile: 2D,
// then Macro-3D re-implemented at 2D's minimum period — two driver calls,
// because the second list needs the first one's periods.
func isoPerf(ctx context.Context, cfg flows.Config, tiles []piton.Config) (*Result, error) {
	n := len(tiles)
	cells := make([]Cell, 2*n)
	for i, pc := range tiles {
		cells[i] = Cell{Flow: "2d", Tile: pc, Seed: cfg.Seed}
	}
	ps, err := Run(ctx, cfg, cells[:n], false)
	if err == nil {
		for i, p := range ps {
			cells[n+i] = Cell{Flow: "macro3d", Tile: tiles[i], Seed: cfg.Seed, TargetPeriod: p.MinPeriodPs}
		}
		var iso []*flows.PPA
		iso, err = Run(ctx, cfg, cells[n:], false)
		ps = append(ps, iso...)
	}
	return &Result{Cells: cells, PPA: ps, Text: formatIsoPerf(cells, ps)}, err
}

// formatIsoPerf renders isoPerf's list — the 2D cells, then their
// Macro-3D twins — a line per tile that completed.
func formatIsoPerf(cells []Cell, ps []*flows.PPA) string {
	var b strings.Builder
	n := len(cells) / 2
	for i := 0; n+i < len(ps) && ps[i] != nil && ps[n+i] != nil; i++ {
		p2d, p3d := ps[i], ps[n+i]
		delta := 0.0
		if p2d.PowerUW > 0 {
			delta = 100 * (p3d.PowerUW/p2d.PowerUW - 1)
		}
		fmt.Fprintf(&b, "Iso-performance (%s, %.0f MHz): 2D %.1f µW, Macro-3D %.1f µW (%+.1f%%)\n",
			cells[i].Tile.Name, p2d.FclkMHz, p2d.PowerUW, p3d.PowerUW, delta)
	}
	return b.String()
}
