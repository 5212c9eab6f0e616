// Package report runs the paper's experiments end to end — Tables I–III,
// the §V-A iso-performance comparison, the ablation sweeps and the seed
// ensemble behind them — and formats their tables. An experiment is data:
// a list of cells, one flow run each, and a formatter over their PPA in
// cell order. One driver, Run, runs every list; a cancelled or partially
// failed experiment still renders, its missing cells as "—".
package report

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"macro3d/internal/flows"
	"macro3d/internal/par"
	"macro3d/internal/piton"
	"macro3d/internal/tech"
)

// Cell is one flow run of an experiment: the flow (flows.Names), the
// tile, the seed, and the knobs experiments vary, where zero keeps the
// base configuration's value. The driver runs each distinct cell value
// once; the stage cache's root key leaves the knobs out, so it could not
// tell Table III's M6–M6 and M6–M4 cells apart.
type Cell struct {
	Flow               string
	Tile               piton.Config
	Seed               uint64
	MacroDieMetals     int
	BlockageResolution float64 // µm
	F2FPitch           float64 // µm, on the paper's F2F via
	TargetPeriod       float64 // ps; 0 is max performance
}

// String labels the cell in a failure: flow, tile, seed and knobs.
func (c Cell) String() string {
	return fmt.Sprintf("%s/%s seed %d (metals %d, blockage %g µm, pitch %g µm, period %g ps)",
		c.Flow, c.Tile.Name, c.Seed, c.MacroDieMetals, c.BlockageResolution, c.F2FPitch, c.TargetPeriod)
}

// config is base with the cell applied.
func (c Cell) config(base flows.Config) flows.Config {
	cfg := base
	cfg.Piton, cfg.Seed = c.Tile, c.Seed
	cfg.MacroDieMetals = cmp.Or(c.MacroDieMetals, base.MacroDieMetals)
	cfg.BlockageResolution = cmp.Or(c.BlockageResolution, base.BlockageResolution)
	cfg.TargetPeriod = cmp.Or(c.TargetPeriod, base.TargetPeriod)
	if c.F2FPitch != 0 {
		f2f := tech.DefaultF2F()
		f2f.Pitch = c.F2FPitch
		cfg.F2F = &f2f
	}
	return cfg
}

// Run runs cells over base, which carries the hardening knobs and the
// stage cache, each distinct cell once, and returns their PPA in cell
// order: nil for a cell that failed or was not reached. The error joins
// the cell failures, each labelled, in cell order.
//
// Distinct cells run on par.Workers(base.Workers) goroutines, which take
// them in cell order. With more than one in flight every cell runs at
// Workers 1, the serial engines; results are bit-identical either way.
// Under base.Obs the cells run one at a time, so the event stream and
// the timeline keep cell order. Cancellation starts no further cell and
// stops the running ones at their next stage boundary; so does a
// failure, unless keepGoing, and a cell it stops is not reported as
// failed. A cell that completed keeps its PPA either way.
func Run(ctx context.Context, base flows.Config, cells []Cell, keepGoing bool) ([]*flows.PPA, error) {
	first := make(map[Cell]int, len(cells))
	var distinct []int // the first index of each distinct cell
	for i, c := range cells {
		if _, ok := first[c]; !ok {
			first[c] = i
			distinct = append(distinct, i)
		}
	}
	inFlight := min(par.Workers(base.Workers), len(distinct))
	if base.Obs != nil {
		inFlight = 1
	}
	if inFlight > 1 {
		base.Workers = 1
	}
	run, stop := context.WithCancel(ctx)
	defer stop()
	ppa := make([]*flows.PPA, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var team par.Team
	team.Start(inFlight, nil)
	defer team.Close()
	// One chunk a worker; each takes the next cell until none is left.
	team.Chunks("report/cells", inFlight, func(_, _, _ int) {
		for {
			k := int(next.Add(1)) - 1
			if k >= len(distinct) {
				return
			}
			i := distinct[k]
			err := run.Err()
			if err == nil {
				ppa[i], _, _, err = flows.Run(run, cells[i].Flow, cells[i].config(base))
			}
			if err != nil {
				errs[i] = err
				if !keepGoing || run.Err() != nil {
					stop()
					return
				}
			}
		}
	})
	var joined []error
	for i, err := range errs {
		// A cell the driver's own stop reached after another cell failed.
		if err != nil && !(ctx.Err() == nil && errors.Is(err, context.Canceled)) {
			joined = append(joined, fmt.Errorf("%v: %w", cells[i], err))
		}
	}
	for i, c := range cells {
		ppa[i] = ppa[first[c]]
	}
	return ppa, errors.Join(joined...)
}

// Result is one experiment run: its cells, their PPA in cell order (nil
// where a cell failed) and the rendered report. QoR is a complete seed
// ensemble's BENCH_qor.json document.
type Result struct {
	Cells []Cell
	PPA   []*flows.PPA
	Text  string
	QoR   []byte
}

// experiment is a named run over a base configuration.
type experiment struct {
	name string
	run  func(ctx context.Context, cfg flows.Config, keepGoing bool) (*Result, error)
}

// experiments is every experiment RunExperiment knows, in the order
// Names lists them.
var experiments = []experiment{
	{"table1", table(tableICells, formatTableI)},
	{"table2", table(tableIICells, formatTableII)},
	{"table3", table(tableIIICells, formatTableIII)},
	{"isoperf", func(ctx context.Context, cfg flows.Config, _ bool) (*Result, error) {
		return isoPerf(ctx, cfg, paperTiles())
	}},
	{"sweepblockage", table(blockageCells, formatBlockageSweep)},
	{"sweeppitch", table(pitchCells, formatPitchSweep)},
	{"heterotech", table(heteroCells, formatHeteroTech)},
	{"seeds", func(ctx context.Context, cfg flows.Config, keepGoing bool) (*Result, error) {
		return seeds(ctx, cfg, ensembleSeeds, keepGoing)
	}},
}

// table is the common experiment: one cell list, one driver call, one
// formatter over the PPA in cell order.
func table(cells func(cfg flows.Config) []Cell, format func(ps []*flows.PPA) string) func(context.Context, flows.Config, bool) (*Result, error) {
	return func(ctx context.Context, cfg flows.Config, keepGoing bool) (*Result, error) {
		cs := cells(cfg)
		ps, err := Run(ctx, cfg, cs, keepGoing)
		return &Result{Cells: cs, PPA: ps, Text: format(ps)}, err
	}
}

// Names lists the experiments RunExperiment accepts.
func Names() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// RunExperiment runs the named experiment (see Names) over cfg, which
// carries the seed, the hardening knobs and the stage cache; each
// experiment sets the tile and the knobs per cell. Experiments on one
// tile run on cfg's, or on the small-cache tile when cfg names none. The
// Result is nil only for an unknown name.
func RunExperiment(ctx context.Context, cfg flows.Config, name string, keepGoing bool) (*Result, error) {
	i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == name })
	if i < 0 {
		return nil, fmt.Errorf("unknown experiment %q (want %s)", name, strings.Join(Names(), ", "))
	}
	return experiments[i].run(ctx, cfg, keepGoing)
}

// tileOf is the tile of a one-tile experiment: cfg's, or the paper's
// small-cache tile when cfg names none.
func tileOf(cfg flows.Config) piton.Config {
	if cfg.Piton.Name == "" && cfg.Generator == nil {
		return piton.SmallCache()
	}
	return cfg.Piton
}

// paperTiles is the paper's two tile configurations.
func paperTiles() []piton.Config { return []piton.Config{piton.SmallCache(), piton.LargeCache()} }

// cellsOf is one cell per flow on a tile at a seed.
func cellsOf(tile piton.Config, seed uint64, flowNames ...string) []Cell {
	cells := make([]Cell, len(flowNames))
	for i, f := range flowNames {
		cells[i] = Cell{Flow: f, Tile: tile, Seed: seed}
	}
	return cells
}

// overflowRow is the row every table carries beside its PPA: the
// gcell-layers the final routing leaves over capacity, so the reader
// sees which columns do not route clean.
const overflowRow = "Route overflow"

// The PPA fields several tables print.
func overflow(p *flows.PPA) float64 { return float64(p.RouteOverflow) }
func fclk(p *flows.PPA) float64     { return p.FclkMHz }
func bumps(p *flows.PPA) float64    { return float64(p.F2FBumps) }
func emean(p *flows.PPA) float64    { return p.EmeanFJ }

// cell formats one table value, rendering missing columns as "—".
func cell(p *flows.PPA, format string, v func(p *flows.PPA) float64) string {
	if p == nil {
		return "—"
	}
	return fmt.Sprintf(format, v(p))
}

// pctCell is the relative delta between two columns, "—" when one is
// missing or the base is zero.
func pctCell(n, d *flows.PPA, v func(p *flows.PPA) float64) string {
	if n == nil || d == nil || v(d) == 0 {
		return "—"
	}
	return fmt.Sprintf("(%+.1f%%)", 100*(v(n)/v(d)-1))
}
