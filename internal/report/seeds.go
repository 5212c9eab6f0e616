package report

import (
	"context"
	"math"
	"slices"

	"macro3d/internal/flows"
)

// ensembleSeeds is the size of the seeds experiment's ensemble.
const ensembleSeeds = 10

// chain is the paper's fclk ordering, MoL-S2D < BF-S2D < 2D < Macro-3D;
// the ensemble reports each adjacent pair's win rate on every tile.
var chain = []string{"s2d", "bfs2d", "2d", "macro3d"}

// flowLabels name the flows in the ensemble's tables.
var flowLabels = map[string]string{"2d": "2D", "s2d": "MoL S2D", "bfs2d": "BF S2D", "macro3d": "Macro-3D", "c2d": "C2D"}

// seedCells is Table I, C2D on Table I's tile and Table II, at each of n
// seeds from cfg.Seed. Tables I and II share their small-tile 2D and
// Macro-3D cells, so of the nine cells a seed the driver runs seven.
func seedCells(cfg flows.Config, n int) []Cell {
	var cells []Cell
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed += uint64(i)
		cells = slices.Concat(cells, tableICells(c), cellsOf(tileOf(c), c.Seed, "c2d"), tableIICells(c))
	}
	return cells
}

// Series is one flow × tile of the ensemble and a row of BENCH_qor.json:
// each QoR metric at each seed, NaN where that run failed.
type Series struct {
	Flow     string    `json:"flow"`
	Tile     string    `json:"tile"`
	FclkMHz  []float64 `json:"fclk_mhz"`
	WLm      []float64 `json:"wl_m"`
	F2FBumps []float64 `json:"f2f_bumps"`
	Overflow []float64 `json:"overflow"`
}

// ensemble groups the PPA of seedCells(cfg, n) by flow × tile, in the
// order of a seed's cells.
func ensemble(cells []Cell, ps []*flows.PPA, n int) []*Series {
	var out []*Series
	perSeed := len(cells) / n
	for i, c := range cells[:perSeed] {
		if slices.Contains(cells[:i], c) {
			continue
		}
		s := &Series{Flow: c.Flow, Tile: c.Tile.Name}
		for k := 0; k < n; k++ {
			v := [4]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
			if p := ps[k*perSeed+i]; p != nil {
				v = [4]float64{p.FclkMHz, p.TotalWLm, float64(p.F2FBumps), float64(p.RouteOverflow)}
			}
			s.FclkMHz, s.WLm = append(s.FclkMHz, v[0]), append(s.WLm, v[1])
			s.F2FBumps, s.Overflow = append(s.F2FBumps, v[2]), append(s.Overflow, v[3])
		}
		out = append(out, s)
	}
	return out
}

// ran is the series' fclk at the seeds that ran.
func (s *Series) ran() []float64 {
	return slices.DeleteFunc(slices.Clone(s.FclkMHz), math.IsNaN)
}

func geomean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// link is an adjacent pair of the chain on one tile and the number of
// seeds, of those on which both ran, where lo's fclk is below hi's.
type link struct {
	lo, hi   *Series
	won, ran int
}

// links is every chain link the ensemble holds both ends of, in chain
// order.
func links(ss []*Series) []link {
	var out []link
	for r := 1; r < len(chain); r++ {
		for _, lo := range ss {
			j := slices.IndexFunc(ss, func(hi *Series) bool { return hi.Tile == lo.Tile && hi.Flow == chain[r] })
			if lo.Flow != chain[r-1] || j < 0 {
				continue
			}
			l := link{lo: lo, hi: ss[j]}
			for k, f := range lo.FclkMHz {
				if g := l.hi.FclkMHz[k]; !math.IsNaN(f) && !math.IsNaN(g) {
					l.ran++
					if f < g {
						l.won++
					}
				}
			}
			out = append(out, l)
		}
	}
	return out
}

// seeds is the seed ensemble: seedCells in one driver call, summarized
// per flow × tile, and — when every cell ran — BENCH_qor.json's seeds
// and series. It holds no timestamps: a re-run is byte-identical.
func seeds(ctx context.Context, cfg flows.Config, n int, keepGoing bool) (*Result, error) {
	cells := seedCells(cfg, n)
	ps, err := Run(ctx, cfg, cells, keepGoing)
	doc := QoRFile{Cells: ensemble(cells, ps, n)}
	for k := 0; k < n; k++ {
		doc.Seeds = append(doc.Seeds, cfg.Seed+uint64(k))
	}
	res := &Result{Cells: cells, PPA: ps, Text: renderEnsemble(doc.Cells, doc.Seeds)}
	if err != nil {
		return res, err
	}
	res.QoR, err = marshalQoR(doc)
	return res, err
}
