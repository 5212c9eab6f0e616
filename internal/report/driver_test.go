package report

import (
	"context"
	"encoding/json"
	"slices"
	"testing"

	"macro3d/internal/flows"
	"macro3d/internal/piton"
)

// startedFlows runs cells through the driver with an AfterStage hook that
// fails every flow at its first stage, and returns how many flows
// started: the runs the driver made, at the cost of one stage each.
func startedFlows(t *testing.T, cells []Cell) int {
	t.Helper()
	started := 0
	cfg := flows.Config{AfterStage: func(_, _ string, _ *flows.State) {
		started++
		panic("stop after the first stage")
	}}
	ps, err := Run(context.Background(), cfg, cells, true)
	if err == nil || slices.ContainsFunc(ps, func(p *flows.PPA) bool { return p != nil }) {
		t.Fatalf("every flow should fail at its first stage: %v", err)
	}
	return started
}

// TestDriverRunsEachDistinctCellOnce: Table I's cells followed by Table
// II's, in one driver call, start six flows — the small-tile 2D and
// Macro-3D cells the tables share run once — while Table III's four
// cells, which the stage cache's root key would merge in pairs (it leaves
// the macro-die metal count out), start four.
func TestDriverRunsEachDistinctCellOnce(t *testing.T) {
	cfg := flows.Config{Seed: 1}
	if n := startedFlows(t, slices.Concat(tableICells(cfg), tableIICells(cfg))); n != 6 {
		t.Errorf("Tables I and II in one call started %d flows, want 6", n)
	}
	if n := startedFlows(t, tableIIICells(cfg)); n != 4 {
		t.Errorf("Table III started %d flows, want 4", n)
	}
}

// TestTableIShapeAcrossSeeds: the seeds experiment's summary over seeds
// 1–3, the cheap tier of the ensemble. Every link of the paper's ordering
// — MoL-S2D < BF-S2D < 2D < Macro-3D in fclk on the small tile, 2D <
// Macro-3D on the large one — holds at every seed and on the geomean, and
// the QoR document holds a value per seed of each flow × tile.
func TestTableIShapeAcrossSeeds(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("twenty-one small- and large-tile flows")
	}
	const n = 3
	res, err := seeds(context.Background(), flows.Config{Seed: 1}, n, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Text)
	ls := links(ensemble(res.Cells, res.PPA, n))
	if len(ls) != 4 {
		t.Fatalf("%d chain links, want 3 on the small tile and 1 on the large", len(ls))
	}
	for _, l := range ls {
		name := l.lo.Tile + " " + l.lo.Flow + " < " + l.hi.Flow
		if l.won != n || l.ran != n {
			t.Errorf("%s: holds on %d of %d seeds, want all %d", name, l.won, l.ran, n)
		}
		if lo, hi := geomean(l.lo.ran()), geomean(l.hi.ran()); !(lo < hi) {
			t.Errorf("%s: geomean %.1f MHz is not below %.1f MHz", name, lo, hi)
		}
	}
	var doc struct {
		Seeds []uint64
		Cells []series
	}
	if err := json.Unmarshal(res.QoR, &doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.Seeds, []uint64{1, 2, 3}) || len(doc.Cells) != 7 {
		t.Fatalf("QoR document holds seeds %v and %d flow × tile series, want 1–3 and 7", doc.Seeds, len(doc.Cells))
	}
	for _, c := range doc.Cells {
		if len(c.FclkMHz) != n || len(c.WLm) != n || len(c.F2FBumps) != n || len(c.Overflow) != n {
			t.Errorf("%s/%s: not one value per seed of each metric", c.Flow, c.Tile)
		}
	}
	if doc.Cells[0].Flow != "2d" || doc.Cells[0].Tile != piton.SmallCache().Name {
		t.Errorf("first series is %s/%s, want the small tile's 2D", doc.Cells[0].Flow, doc.Cells[0].Tile)
	}
}
