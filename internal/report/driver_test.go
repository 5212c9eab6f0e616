package report

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"macro3d/internal/flows"
	"macro3d/internal/piton"
)

// startedFlows runs cells through the driver with an AfterStage hook that
// fails every flow at its first stage, and returns how many flows
// started: the runs the driver made, at the cost of one stage each.
func startedFlows(t *testing.T, cells []Cell) int {
	t.Helper()
	var started atomic.Int64
	cfg := flows.Config{AfterStage: func(_, _ string, _ *flows.State) {
		started.Add(1)
		panic("stop after the first stage")
	}}
	ps, err := Run(context.Background(), cfg, cells, true)
	if err == nil || slices.ContainsFunc(ps, func(p *flows.PPA) bool { return p != nil }) {
		t.Fatalf("every flow should fail at its first stage: %v", err)
	}
	return int(started.Load())
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

// runAt is one driver call over cells at a worker count, its tables
// rendered — Table I over the first four cells, Tables II and III over
// the next eight when there are — and its error.
func runAt(cfg flows.Config, workers int, cells []Cell, keepGoing bool) ([]*flows.PPA, string) {
	cfg.Workers = workers
	ps, err := Run(context.Background(), cfg, cells, keepGoing)
	out := formatTableI(ps[:4])
	if len(ps) == 12 {
		out += formatTableII(ps[4:8]) + formatTableIII(ps[8:])
	}
	return ps, fmt.Sprint(out, err)
}

// TestDriverIdenticalAtEveryWorkers: Tables I–III, on the tiny tile at
// two seeds, render byte-identically whether the driver runs one cell at
// a time on engines of any width or several cells at once on the serial
// engines, and every PPA field agrees; so does a keep-going Table I whose
// S2D columns fail (they cannot run a custom generator). It stays
// outside the flows determinism harness: it tests table rendering and
// keep-going.
func TestDriverIdenticalAtEveryWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tiny-tile tables at three worker counts")
	}
	tiny := piton.Tiny()
	cells := slices.Concat(cellsOf(tiny, 3, "2d", "s2d", "bfs2d", "macro3d"),
		cellsOf(tiny, 3, "2d", "macro3d"), cellsOf(tiny, 4, "2d", "macro3d"),
		[]Cell{{Flow: "macro3d", Tile: tiny, Seed: 3}, {Flow: "macro3d", Tile: tiny, Seed: 3, MacroDieMetals: 4},
			{Flow: "macro3d", Tile: tiny, Seed: 4}, {Flow: "macro3d", Tile: tiny, Seed: 4, MacroDieMetals: 4}})
	failing := flows.Config{Generator: func() (*piton.Tile, error) { return piton.Generate(tiny) }}
	ref, refText := runAt(flows.Config{}, 1, cells, false)
	_, refFail := runAt(failing, 1, cells[:4], true)
	for _, w := range []int{2, 4} {
		ps, text := runAt(flows.Config{}, w, cells, false)
		if text != refText {
			t.Errorf("workers=%d: tables differ from one cell at a time:\n%s\n%s", w, text, refText)
		}
		for i := range ps {
			if !reflect.DeepEqual(ps[i], ref[i]) {
				t.Errorf("workers=%d: cell %v PPA %+v, one at a time %+v", w, cells[i], ps[i], ref[i])
			}
		}
		if _, text := runAt(failing, w, cells[:4], true); text != refFail {
			t.Errorf("workers=%d: keep-going table differs:\n%s\n%s", w, text, refFail)
		}
	}
}

// TestDriverCancelStartsNoFurtherCell: a cancel while the first cells
// run starts none of the rest — no more flows start than were in
// flight — and the running ones stop at their next stage boundary, so
// every cell is missing and the error is the cancellation.
func TestDriverCancelStartsNoFurtherCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	cfg := flows.Config{Workers: 2, Generator: func() (*piton.Tile, error) {
		started.Add(1)
		cancel()
		return piton.Generate(piton.Tiny())
	}}
	cells := make([]Cell, 6)
	for i := range cells {
		cells[i] = Cell{Flow: "2d", Tile: piton.Tiny(), Seed: uint64(i + 1)}
	}
	ps, err := Run(ctx, cfg, cells, true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := started.Load(); n > 2 {
		t.Errorf("%d flows started with two in flight", n)
	}
	if slices.ContainsFunc(ps, func(p *flows.PPA) bool { return p != nil }) {
		t.Error("a cell completed after the cancel")
	}
}

// TestDriverCancelKeepsCompletedCells: with two cells in flight, a cancel
// as the third cell starts — which it does only once one of the first
// two has completed — keeps the completed cell's PPA, starts no fourth
// cell and reports the cancellation.
func TestDriverCancelKeepsCompletedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs up to three tiny flows")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	cfg := flows.Config{Workers: 2, Generator: func() (*piton.Tile, error) {
		if started.Add(1) == 3 {
			cancel()
		}
		return piton.Generate(piton.Tiny())
	}}
	cells := make([]Cell, 6)
	for i := range cells {
		cells[i] = Cell{Flow: "2d", Tile: piton.Tiny(), Seed: uint64(i + 1)}
	}
	ps, err := Run(ctx, cfg, cells, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := started.Load(); n != 3 {
		t.Errorf("%d flows started, want 3: none after the cancelling one", n)
	}
	completed := 0
	for i, p := range ps {
		switch {
		case p == nil:
		case i >= 2:
			t.Errorf("cell %d completed, but it started at or after the cancel", i)
		case p.FclkMHz <= 0:
			t.Errorf("cell %d kept an empty PPA %+v", i, p)
		default:
			completed++
		}
	}
	if completed == 0 {
		t.Error("the cell completed before the cancel lost its PPA")
	}
}

// TestTableIShapeAcrossSeeds: the seeds experiment's summary over seeds
// 1–3, the cheap tier of the ensemble. Every link of the paper's ordering
// — MoL-S2D < BF-S2D < 2D < Macro-3D in fclk on the small tile, 2D <
// Macro-3D on the large one — holds at every seed and on the geomean, and
// the QoR document holds a value per seed of each flow × tile.
//
// It runs its own flows although seven of them are the determinism
// harness's seed-1 references: it is tier-1's only check of the chain on
// live code over more than one seed. make qor checks the same shape over
// ten seeds, but make check does not run it.
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
