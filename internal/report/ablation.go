package report

import (
	"fmt"
	"strings"

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

// formatBlockageSweep renders the sweep; failed points render as "—".
func formatBlockageSweep(ps []*flows.PPA) string {
	twoD := ps[0]
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — S2D partial-blockage rasterization resolution (small cache)\n")
	fmt.Fprintf(&b, "2D reference: %s MHz\n", cell(twoD, "%.0f", fclk))
	fmt.Fprintf(&b, "%-16s %10s %12s %10s\n", "resolution [µm]", "fclk [MHz]", "vs 2D", "bumps")
	for i, res := range blockageResolutions {
		p := ps[1+i]
		vs := "—"
		if p != nil && twoD != nil && twoD.FclkMHz != 0 {
			vs = fmt.Sprintf("%.1f%%", 100*(p.FclkMHz/twoD.FclkMHz-1))
		}
		fmt.Fprintf(&b, "%-16.0f %10s %12s %10s\n", res, cell(p, "%.0f", fclk), vs, cell(p, "%.0f", bumps))
	}
	return b.String()
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

// formatPitchSweep renders the sweep; failed points render as "—".
func formatPitchSweep(ps []*flows.PPA) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — F2F bump pitch (Macro-3D, small cache)\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %10s\n", "pitch [µm]", "fclk [MHz]", "bumps", "overflow")
	for i, pitch := range f2fPitches {
		fmt.Fprintf(&b, "%-14.1f %10s %10s %10s\n",
			pitch, cell(ps[i], "%.0f", fclk), cell(ps[i], "%.0f", bumps), cell(ps[i], "%.0f", overflow))
	}
	return b.String()
}

// heteroPoints explore the heterogeneity the paper's conclusion leaves as
// future work: the macro die in the logic node, in a leakage-optimized
// older node, or in a speed-binned memory node — each point scales the
// memory macros' access time, energy and leakage relative to the logic.
var heteroPoints = []struct {
	label   string
	process piton.MacroProcess
}{
	{"same-node", piton.MacroProcess{}},
	{"low-leak (older node)", piton.MacroProcess{ClkQScale: 2.2, EnergyScale: 1.2, LeakageScale: 0.25}},
	{"fast-bin memory node", piton.MacroProcess{ClkQScale: 0.6, EnergyScale: 1.1, LeakageScale: 1.6}},
}

// heteroCells runs Macro-3D with its macro die in each heteroPoints node.
func heteroCells(cfg flows.Config) []Cell {
	var cells []Cell
	for _, pt := range heteroPoints {
		tile := tileOf(cfg)
		tile.MacroProcess = pt.process
		cells = append(cells, Cell{Flow: "macro3d", Tile: tile, Seed: cfg.Seed})
	}
	return cells
}

// formatHeteroTech renders the sweep; failed points render as "—".
func formatHeteroTech(ps []*flows.PPA) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — heterogeneous macro-die process (Macro-3D, small cache)\n")
	fmt.Fprintf(&b, "%-24s %10s %14s %12s %12s\n", "macro-die node", "fclk [MHz]", "Emean [fJ/cyc]", "power [µW]", "leak [µW]")
	for i, pt := range heteroPoints {
		p := ps[i]
		fmt.Fprintf(&b, "%-24s %10s %14s %12s %12s\n", pt.label, cell(p, "%.0f", fclk),
			cell(p, "%.1f", emean),
			cell(p, "%.1f", func(p *flows.PPA) float64 { return p.PowerUW }),
			cell(p, "%.1f", func(p *flows.PPA) float64 { return p.LeakageUW }))
	}
	return b.String()
}
