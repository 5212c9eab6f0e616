package report

import (
	"context"
	"slices"

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
// because the second list needs the first one's periods — returned as a
// (2D, Macro-3D) pair of cells per tile.
func isoPerf(ctx context.Context, cfg flows.Config, tiles []piton.Config) ([]Cell, []*flows.PPA, error) {
	twoD, iso := make([]Cell, len(tiles)), make([]Cell, len(tiles))
	for i, pc := range tiles {
		twoD[i] = Cell{Flow: "2d", Tile: pc, Seed: cfg.Seed}
	}
	ps, err := Run(ctx, cfg, twoD, false)
	isoPS := make([]*flows.PPA, len(tiles))
	if err == nil {
		for i, p := range ps {
			iso[i] = Cell{Flow: "macro3d", Tile: tiles[i], Seed: cfg.Seed, TargetPeriod: p.MinPeriodPs}
		}
		isoPS, err = Run(ctx, cfg, iso, false)
	}
	var cells []Cell
	var pairs []*flows.PPA
	for i := range tiles {
		cells = append(cells, twoD[i], iso[i])
		pairs = append(pairs, ps[i], isoPS[i])
	}
	return cells, pairs, err
}
