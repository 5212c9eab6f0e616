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
	out := formatTableI([]*flows.PPA{
		fakePPA("2D", 400, 0),
		fakePPA("S2D", 220, 5405),
		fakePPA("BF S2D", 260, 8703),
		fakePPA("Macro-3D", 470, 4740),
	})
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
	out := formatTableII([]*flows.PPA{
		fakePPA("2D", 400, 0),
		fakePPA("Macro-3D", 480, 4740),
		fakePPA("2D", 300, 0),
		fakePPA("Macro-3D", 390, 1215),
	})
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
	cols := []*flows.PPA{
		fakePPA("Macro-3D", 470, 4740),
		fakePPA("Macro-3D", 462, 3866),
		fakePPA("Macro-3D", 421, 1215),
		fakePPA("Macro-3D", 423, 922),
	}
	cols[1].MetalAreaMM2 = 6.0
	out := formatTableIII(cols)
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
		"Table I": {formatTableI([]*flows.PPA{ppa(72), ppa(3), ppa(16), ppa(0)}),
			[]string{"72", "3", "16", "0"}},
		"Table II": {formatTableII([]*flows.PPA{ppa(72), ppa(0), ppa(84), ppa(0)}),
			[]string{"72", "0", "(-100.0%)", "84", "0", "(-100.0%)"}},
		"Table III": {formatTableIII([]*flows.PPA{ppa(0), ppa(5), ppa(0), ppa(7)}),
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
	p2d, p3d := fakePPA("2D", 390, 0), fakePPA("Macro-3D", 390, 4740)
	p2d.PowerUW, p3d.PowerUW = 1000, 968
	cells := []Cell{{Flow: "2d", Tile: piton.SmallCache()}, {Flow: "macro3d", Tile: piton.SmallCache()}}
	out := formatIsoPerf(cells, []*flows.PPA{p2d, p3d})
	for _, want := range []string{"piton_small", "390 MHz", "-3.2%"} {
		if !strings.Contains(out, want) {
			t.Errorf("iso-perf output missing %q: %s", want, out)
		}
	}
}

func TestPctHelper(t *testing.T) {
	ppa := func(fclk float64) *flows.PPA { return &flows.PPA{FclkMHz: fclk} }
	for _, c := range []struct {
		n, d *flows.PPA
		want string
	}{
		{ppa(110), ppa(100), "(+10.0%)"},
		{ppa(90), ppa(100), "(-10.0%)"},
		{ppa(1), ppa(0), "—"},
		{nil, ppa(100), "—"},
	} {
		if got := pctCell(c.n, c.d, fclk); got != c.want {
			t.Errorf("pctCell = %s, want %s", got, c.want)
		}
	}
}

func TestBlockageSweepFormat(t *testing.T) {
	ps := make([]*flows.PPA, 1+len(blockageResolutions))
	ps[0], ps[1], ps[2] = fakePPA("2D", 400, 0), fakePPA("S2D", 200, 5000), fakePPA("S2D", 150, 5200)
	out := formatBlockageSweep(ps)
	if !strings.Contains(out, "-50.0%") || !strings.Contains(out, "-62.5%") {
		t.Fatalf("sweep deltas missing:\n%s", out)
	}
}

func TestPitchSweepFormat(t *testing.T) {
	ps := make([]*flows.PPA, len(f2fPitches))
	ps[0], ps[3] = fakePPA("Macro-3D", 470, 4740), fakePPA("Macro-3D", 430, 900)
	out := formatPitchSweep(ps)
	if !strings.Contains(out, "4740") || !strings.Contains(out, "900") {
		t.Fatalf("pitch sweep missing bump counts:\n%s", out)
	}
}

func TestNilColumnsFormatAsDash(t *testing.T) {
	out := formatTableI([]*flows.PPA{fakePPA("2D", 400, 0), nil, nil, nil}) // other columns missing
	if !strings.Contains(out, "400") || !strings.Contains(out, "—") {
		t.Fatalf("partial Table I render wrong:\n%s", out)
	}
	if !strings.Contains(formatTableII([]*flows.PPA{fakePPA("2D", 400, 0), nil, nil, nil}), "—") {
		t.Fatal("partial Table II lacks dashes")
	}
	if !strings.Contains(formatTableIII(make([]*flows.PPA, 4)), "—") {
		t.Fatal("empty Table III lacks dashes")
	}
	if !strings.Contains(formatBlockageSweep(make([]*flows.PPA, 1+len(blockageResolutions))), "—") {
		t.Fatal("empty blockage sweep lacks dashes")
	}
	if !strings.Contains(formatPitchSweep(make([]*flows.PPA, len(f2fPitches))), "—") {
		t.Fatal("empty pitch sweep lacks dashes")
	}
	if !strings.Contains(formatHeteroTech(make([]*flows.PPA, len(heteroPoints))), "—") {
		t.Fatal("empty hetero sweep lacks dashes")
	}
}

// TestRunTableICancelPreservesColumns is the cancellation acceptance
// check, one cell at a time: cancelling during Table I's second cell
// stops the table within one stage boundary while the completed first
// cell survives.
func TestRunTableICancelPreservesColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one tiny flow plus a cancelled one")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := flows.Config{Piton: piton.Tiny(), Seed: 3, Workers: 1}
	cfg.AfterStage = func(flow, stage string, st *flows.State) {
		if flow != "2D" {
			cancel() // first stage of the second column (MoL S2D)
		}
	}
	res, err := RunExperiment(ctx, cfg, "table1", false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var se *flows.StageError
	if !errors.As(err, &se) || se.Flow != "S2D" {
		t.Fatalf("cancellation not attributed to the running column: %v", err)
	}
	if res.PPA[0] == nil {
		t.Fatal("completed 2D column lost on cancellation")
	}
	if res.PPA[2] != nil || res.PPA[3] != nil {
		t.Fatal("columns after the cancellation point should not have run")
	}
	if !strings.Contains(res.Text, "—") {
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
	res, err := RunExperiment(context.Background(), cfg, "table1", true)
	if err == nil {
		t.Fatal("S2D columns cannot run a custom generator; expected a joined error")
	}
	if res.PPA[0] == nil || res.PPA[3] == nil {
		t.Fatal("keep-going mode lost the healthy columns")
	}
	if res.PPA[1] != nil || res.PPA[2] != nil {
		t.Fatal("failed columns must stay nil")
	}
	for _, c := range res.Cells[1:3] {
		if !strings.Contains("\n"+err.Error(), "\n"+c.String()+": ") {
			t.Fatalf("joined error does not name failed cell %v: %v", c, err)
		}
	}
	var se *flows.StageError
	if !errors.As(err, &se) {
		t.Fatalf("column failures are not typed: %v", err)
	}
}
