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

// tableIICells is Table II: 2D and Macro-3D on the small-cache tile, then
// on the large-cache one.
func tableIICells(cfg flows.Config) []Cell {
	return slices.Concat(cellsOf(piton.SmallCache(), cfg.Seed, "2d", "macro3d"), cellsOf(piton.LargeCache(), cfg.Seed, "2d", "macro3d"))
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
