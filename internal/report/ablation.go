package report

import (
	"macro3d/internal/flows"
	"macro3d/internal/piton"
)

// blockageResolutions are the partial-blockage rasterization pitches,
// µm, the blockage sweep runs MoL S2D at.
var blockageResolutions = []float64{15, 30, 50, 80, 120}

// blockageCells tests the S2D failure hypothesis the paper states (§III):
// that the resolution at which partial macro blockages are rasterized
// drives post-partitioning overlaps. The 2D reference comes first, then
// MoL S2D at each resolution; EXPERIMENTS.md has what it shows.
func blockageCells(cfg flows.Config) []Cell {
	tile := tileOf(cfg)
	cells := cellsOf(tile, cfg.Seed, "2d")
	for _, res := range blockageResolutions {
		cells = append(cells, Cell{Flow: "s2d", Tile: tile, Seed: cfg.Seed, BlockageResolution: res})
	}
	return cells
}

// f2fPitches are the F2F bump pitches, µm, the pitch sweep runs
// Macro-3D at.
var f2fPitches = []float64{1, 2, 5, 10, 20}

// pitchCells varies the F2F bump pitch. The paper (§II) argues MoL
// stacking needs pitches near the wire spacing (hybrid bonding, ≤1 µm):
// coarser bump grids throttle inter-die connectivity.
func pitchCells(cfg flows.Config) []Cell {
	var cells []Cell
	for _, pitch := range f2fPitches {
		cells = append(cells, Cell{Flow: "macro3d", Tile: tileOf(cfg), Seed: cfg.Seed, F2FPitch: pitch})
	}
	return cells
}

// heteroPoints explore the heterogeneity the paper's conclusion leaves as
// future work: the macro die in the logic node, in a leakage-optimized
// older node, or in a speed-binned memory node, each labelled as its
// heterotech column is — each point scales the memory macros' access
// time, energy and leakage relative to the logic.
var heteroPoints = []heteroPoint{
	{"same-node", piton.MacroProcess{}},
	{"low-leak (older node)", piton.MacroProcess{ClkQScale: 2.2, EnergyScale: 1.2, LeakageScale: 0.25}},
	{"fast-bin memory node", piton.MacroProcess{ClkQScale: 0.6, EnergyScale: 1.1, LeakageScale: 1.6}},
}

// heteroPoint is a macro-die node of the heterotech experiment: its
// column label and its process.
type heteroPoint struct {
	label   string
	process piton.MacroProcess
}

func (h heteroPoint) String() string { return h.label }

// heteroCells runs Macro-3D with its macro die in each heteroPoints node.
func heteroCells(cfg flows.Config) []Cell {
	var cells []Cell
	for _, h := range heteroPoints {
		tile := tileOf(cfg)
		tile.MacroProcess = h.process
		cells = append(cells, Cell{Flow: "macro3d", Tile: tile, Seed: cfg.Seed})
	}
	return cells
}

// dataWidths are the bus widths, bits, the macro-pin experiment builds
// the tile at; 32 is the small tile's own.
var dataWidths = []int{16, 32, 64}

// macroPinCells tests the reason EXPERIMENTS.md gives for Macro-3D's few
// F2F bumps against the paper's (Table I): a bump serves a macro pin, and
// our macros have tens of pins where foundry SRAMs have hundreds. The
// macros' pins scale with the data width, so Macro-3D runs on the tile at
// each width, and the bumps should follow the pins.
func macroPinCells(cfg flows.Config) []Cell {
	var cells []Cell
	for _, w := range dataWidths {
		tile := tileOf(cfg)
		tile.DataWidth = w
		cells = append(cells, Cell{Flow: "macro3d", Tile: tile, Seed: cfg.Seed})
	}
	return cells
}
