package report

import (
	"context"
	"errors"
	"strings"
	"testing"

	"macro3d/internal/flows"
	"macro3d/internal/piton"
)

// fakePPA builds a synthetic flow result so Format tests need no flow
// runs.
func fakePPA(flow string, fclk float64, bumps int) *flows.PPA {
	return &flows.PPA{
		Flow: flow, Config: "t", FclkMHz: fclk, MinPeriodPs: 1e6 / fclk,
		EmeanFJ: 100 + fclk/10, FootprintMM2: 1.2, LogicCellAreaMM2: 0.3,
		MetalAreaMM2: 7.2, TotalWLm: 2.5, F2FBumps: bumps,
		CpinNF: 0.04, CwireNF: 0.3, ClkDepth: 13, CritPathWLmm: 1.5,
	}
}

func TestTableIFormat(t *testing.T) {
	tab := &TableI{
		TwoD:    fakePPA("2D", 400, 0),
		S2D:     fakePPA("S2D", 220, 5405),
		BFS2D:   fakePPA("BF S2D", 260, 8703),
		Macro3D: fakePPA("Macro-3D", 470, 4740),
	}
	out := tab.Format()
	for _, want := range []string{"Table I", "fclk [MHz]", "400", "220", "260", "470",
		"5405", "8703", "4740", "Afootprint", "Emean"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %q\n%s", want, out)
		}
	}
	// Four data columns per row.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "fclk") && len(strings.Fields(line)) != 6 {
			t.Errorf("fclk row malformed: %q", line)
		}
	}
}

func TestTableIIFormatDeltas(t *testing.T) {
	tab := &TableII{
		Small2D:  fakePPA("2D", 400, 0),
		SmallM3D: fakePPA("Macro-3D", 480, 4740),
		Large2D:  fakePPA("2D", 300, 0),
		LargeM3D: fakePPA("Macro-3D", 390, 1215),
	}
	out := tab.Format()
	if !strings.Contains(out, "(+20.0%)") {
		t.Errorf("small delta missing:\n%s", out)
	}
	if !strings.Contains(out, "(+30.0%)") {
		t.Errorf("large delta missing:\n%s", out)
	}
	for _, row := range []string{"Alogic-cells", "Total wirelength", "Cpin,total",
		"Cwire,total", "Max clk-tree depth", "Crit-path WL"} {
		if !strings.Contains(out, row) {
			t.Errorf("row %q missing", row)
		}
	}
}

func TestTableIIIFormat(t *testing.T) {
	tab := &TableIII{
		SmallM6M6: fakePPA("Macro-3D", 470, 4740),
		SmallM6M4: fakePPA("Macro-3D", 462, 3866),
		LargeM6M6: fakePPA("Macro-3D", 421, 1215),
		LargeM6M4: fakePPA("Macro-3D", 423, 922),
	}
	tab.SmallM6M4.MetalAreaMM2 = 6.0
	out := tab.Format()
	if !strings.Contains(out, "Table III") || !strings.Contains(out, "Ametal") {
		t.Fatalf("structure:\n%s", out)
	}
	if !strings.Contains(out, "(-16.7%)") {
		t.Errorf("metal delta missing:\n%s", out)
	}
	if !strings.Contains(out, "(-1.7%)") { // 462/470
		t.Errorf("fclk delta missing:\n%s", out)
	}
}

// TestTablesCarryRouteOverflow: the overflow row is in all three tables,
// one value per column, so a table cannot compare a clean design with
// one that is not without saying so.
func TestTablesCarryRouteOverflow(t *testing.T) {
	ppa := func(overflow int) *flows.PPA {
		p := fakePPA("x", 400, 10)
		p.RouteOverflow = overflow
		return p
	}
	for name, tc := range map[string]struct {
		out  string
		want []string
	}{
		"Table I": {(&TableI{TwoD: ppa(72), S2D: ppa(3), BFS2D: ppa(16), Macro3D: ppa(0)}).Format(),
			[]string{"72", "3", "16", "0"}},
		"Table II": {(&TableII{Small2D: ppa(72), SmallM3D: ppa(0), Large2D: ppa(84), LargeM3D: ppa(0)}).Format(),
			[]string{"72", "0", "(-100.0%)", "84", "0", "(-100.0%)"}},
		"Table III": {(&TableIII{SmallM6M6: ppa(0), SmallM6M4: ppa(5), LargeM6M6: ppa(0), LargeM6M4: ppa(7)}).Format(),
			[]string{"0", "5", "—", "0", "7", "—"}},
	} {
		var row []string
		for _, line := range strings.Split(tc.out, "\n") {
			if strings.HasPrefix(line, overflowRow) {
				row = strings.Fields(strings.TrimPrefix(line, overflowRow))
			}
		}
		if strings.Join(row, " ") != strings.Join(tc.want, " ") {
			t.Errorf("%s: overflow row %q, want %q\n%s", name, row, tc.want, tc.out)
		}
	}
}

func TestIsoPerfFormat(t *testing.T) {
	r := &IsoPerf{Config: "piton_small", F2DMHz: 390, Power2D: 1000, Power3D: 968, DeltaPct: -3.2}
	out := r.Format()
	for _, want := range []string{"piton_small", "390 MHz", "-3.2%"} {
		if !strings.Contains(out, want) {
			t.Errorf("iso-perf output missing %q: %s", want, out)
		}
	}
}

func TestPctHelper(t *testing.T) {
	if pct(110, 100) != "(+10.0%)" {
		t.Fatalf("pct = %s", pct(110, 100))
	}
	if pct(90, 100) != "(-10.0%)" {
		t.Fatalf("pct = %s", pct(90, 100))
	}
	if pct(1, 0) != "—" {
		t.Fatalf("pct zero-div = %s", pct(1, 0))
	}
}

func TestBlockageSweepFormat(t *testing.T) {
	sw := &BlockageSweep{
		ResolutionsUm: []float64{20, 50},
		TwoD:          fakePPA("2D", 400, 0),
		S2D:           []*flows.PPA{fakePPA("S2D", 200, 5000), fakePPA("S2D", 150, 5200)},
	}
	out := sw.Format()
	if !strings.Contains(out, "-50.0%") || !strings.Contains(out, "-62.5%") {
		t.Fatalf("sweep deltas missing:\n%s", out)
	}
}

func TestPitchSweepFormat(t *testing.T) {
	sw := &PitchSweep{
		PitchesUm: []float64{1, 10},
		M3D:       []*flows.PPA{fakePPA("Macro-3D", 470, 4740), fakePPA("Macro-3D", 430, 900)},
	}
	out := sw.Format()
	if !strings.Contains(out, "4740") || !strings.Contains(out, "900") {
		t.Fatalf("pitch sweep missing bump counts:\n%s", out)
	}
}

func TestNilColumnsFormatAsDash(t *testing.T) {
	partial := &TableI{TwoD: fakePPA("2D", 400, 0)} // other columns missing
	out := partial.Format()
	if !strings.Contains(out, "400") || !strings.Contains(out, "—") {
		t.Fatalf("partial Table I render wrong:\n%s", out)
	}
	if !strings.Contains((&TableII{Small2D: fakePPA("2D", 400, 0)}).Format(), "—") {
		t.Fatal("partial Table II lacks dashes")
	}
	if !strings.Contains((&TableIII{}).Format(), "—") {
		t.Fatal("empty Table III lacks dashes")
	}
	if !strings.Contains((&BlockageSweep{ResolutionsUm: []float64{50}}).Format(), "—") {
		t.Fatal("empty blockage sweep lacks dashes")
	}
	if !strings.Contains((&PitchSweep{PitchesUm: []float64{1}}).Format(), "—") {
		t.Fatal("empty pitch sweep lacks dashes")
	}
	if !strings.Contains((&HeteroTechSweep{Points: []HeteroPoint{{Label: "x"}}}).Format(), "—") {
		t.Fatal("empty hetero sweep lacks dashes")
	}
}

// TestRunTableICancelPreservesColumns is the cancellation acceptance
// check: cancelling during the second column stops the table within
// one stage boundary while the completed first column survives.
func TestRunTableICancelPreservesColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one tiny flow plus a cancelled one")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := flows.Config{Piton: piton.Tiny(), Seed: 3}
	cfg.AfterStage = func(flow, stage string, st *flows.State) {
		if flow != "2D" {
			cancel() // first stage of the second column (MoL S2D)
		}
	}
	tab, err := RunTableIWith(ctx, cfg, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var se *flows.StageError
	if !errors.As(err, &se) || se.Flow != "S2D" {
		t.Fatalf("cancellation not attributed to the running column: %v", err)
	}
	if tab == nil || tab.TwoD == nil {
		t.Fatal("completed 2D column lost on cancellation")
	}
	if tab.BFS2D != nil || tab.Macro3D != nil {
		t.Fatal("columns after the cancellation point should not have run")
	}
	if !strings.Contains(tab.Format(), "—") {
		t.Fatal("partial table does not render missing columns")
	}
}

// TestRunTableIKeepGoing drives the keep-going mode through a config
// only half the columns support: the S2D baselines reject a custom
// Generator, so with keepGoing the 2D and Macro-3D columns must still
// complete and the error must join both S2D failures.
func TestRunTableIKeepGoing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four tiny flows")
	}
	cfg := flows.Config{
		Seed:      3,
		Generator: func() (*piton.Tile, error) { return piton.Generate(piton.Tiny()) },
	}
	tab, err := RunTableIWith(context.Background(), cfg, true)
	if err == nil {
		t.Fatal("S2D columns cannot run a custom generator; expected a joined error")
	}
	if tab.TwoD == nil || tab.Macro3D == nil {
		t.Fatal("keep-going mode lost the healthy columns")
	}
	if tab.S2D != nil || tab.BFS2D != nil {
		t.Fatal("failed columns must stay nil")
	}
	msg := err.Error()
	if !strings.Contains(msg, "MoL S2D") || !strings.Contains(msg, "BF S2D") {
		t.Fatalf("joined error does not name both failed columns: %v", err)
	}
	var se *flows.StageError
	if !errors.As(err, &se) {
		t.Fatalf("column failures are not typed: %v", err)
	}
}
