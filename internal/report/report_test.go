package report

import (
	"context"
	"errors"
	"regexp"
	"slices"
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

// renderPPA renders the named one of Tables I–III from its cells' PPA in
// cell order, nil where a cell did not run.
func renderPPA(name string, ps ...*flows.PPA) string {
	return paperTables[name].render(records(make([]Cell, len(ps)), ps))
}

// hasLines fails unless out holds each of lines as a whole line.
func hasLines(t *testing.T, out string, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if !strings.Contains("\n"+out, "\n"+l+"\n") {
			t.Errorf("no line %q in\n%s", l, out)
		}
	}
}

func TestTableIFormat(t *testing.T) {
	hasLines(t, renderPPA("table1", fakePPA("2D", 400, 0), fakePPA("S2D", 220, 5405), fakePPA("BF S2D", 260, 8703), fakePPA("Macro-3D", 470, 4740)),
		"| metric (Δ vs 2D) | 2D | MoL S2D | BF S2D | Macro-3D |",
		"|---|---|---|---|---|",
		"| f_clk [MHz] | 400 | 220 (−45.0 %) | 260 (−35.0 %) | 470 (+17.5 %) |",
		"| paper | 390 | 227 (−41.8 %) | 260 (−33.3 %) | 470 (+20.5 %) |",
		"| E_mean [fJ/cycle] | 140.0 | 122.0 (−12.9 %) | 126.0 (−10.0 %) | 147.0 (+5.0 %) |",
		"| A_footprint [mm²] | 1.20 | 1.20 | 1.20 | 1.20 |",
		"| F2F bumps | 0 | 5405 | 8703 | 4740 |")
}

func TestTableIIFormatDeltas(t *testing.T) {
	hasLines(t, renderPPA("table2", fakePPA("2D", 400, 0), fakePPA("Macro-3D", 480, 4740), fakePPA("2D", 300, 0), fakePPA("Macro-3D", 390, 1215)),
		"| metric (2D→Macro-3D) | small | large |",
		"| f_clk [MHz] | 400→480 (+20.0 %) | 300→390 (+30.0 %) |",
		"| paper | 390→470 (+20.5 %) | 328→421 (+28.2 %) |",
		"| A_logic-cells [mm²] | 0.300→0.300 (+0.0 %) | 0.300→0.300 (+0.0 %) |",
		"| total wirelength [m] | 2.50→2.50 (+0.0 %) | 2.50→2.50 (+0.0 %) |",
		"| F2F bumps | 0→4740 | 0→1215 |",
		"| C_pin,total [nF] | 0.040→0.040 (+0.0 %) | 0.040→0.040 (+0.0 %) |",
		"| C_wire,total [nF] | 0.300→0.300 (+0.0 %) | 0.300→0.300 (+0.0 %) |",
		"| max clk-tree depth | 13→13 (+0.0 %) | 13→13 (+0.0 %) |",
		"| crit-path WL [mm] | 1.50→1.50 (+0.0 %) | 1.50→1.50 (+0.0 %) |")
}

func TestTableIIIFormat(t *testing.T) {
	cols := []*flows.PPA{fakePPA("Macro-3D", 470, 4740), fakePPA("Macro-3D", 462, 3866), fakePPA("Macro-3D", 421, 1215), fakePPA("Macro-3D", 423, 922)}
	cols[1].MetalAreaMM2 = 6.0
	hasLines(t, renderPPA("table3", cols...),
		"| metric (M6–M6→M6–M4) | small | large |",
		"| f_clk [MHz] | 470→462 (−1.7 %) | 421→423 (+0.5 %) |",
		"| A_metal [mm²] | 7.2→6.0 (−16.7 %) | 7.2→7.2 (+0.0 %) |",
		"| paper | −16.7 % | −16.7 % |")
}

// TestTablesCarryRouteOverflow: the overflow row is in all three tables,
// one value per column, so a table cannot compare a clean design with
// one that is not without saying so.
func TestTablesCarryRouteOverflow(t *testing.T) {
	ppa := func(overflow ...int) (ps []*flows.PPA) {
		for _, o := range overflow {
			ps = append(ps, fakePPA("x", 400, 10))
			ps[len(ps)-1].RouteOverflow = o
		}
		return ps
	}
	hasLines(t, renderPPA("table1", ppa(72, 3, 16, 0)...), "| route overflow [gcell-layers] | 72 | 3 | 16 | 0 |")
	hasLines(t, renderPPA("table2", ppa(72, 0, 84, 0)...), "| route overflow [gcell-layers] | 72→0 (−100.0 %) | 84→0 (−100.0 %) |")
	hasLines(t, renderPPA("table3", ppa(0, 5, 0, 7)...), "| route overflow [gcell-layers] | 0→5 | 0→7 |")
}

func TestPctHelper(t *testing.T) {
	c := func(fclk float64) *tableCell { return &tableCell{FclkMHz: fclk} }
	got := []string{fclkRow.change(c(110), c(100)), fclkRow.change(c(90), c(100)),
		fclkRow.change(c(1), c(0)), fclkRow.change(nil, c(100)), fclkRow.change(c(100), nil)}
	if want := []string{" (+10.0 %)", " (−10.0 %)", "", "", ""}; !slices.Equal(got, want) {
		t.Errorf("changes %q, want %q", got, want)
	}
}

func TestBlockageSweepFormat(t *testing.T) {
	hasLines(t, renderPPA("sweepblockage", fakePPA("2D", 400, 0), fakePPA("S2D", 200, 5000), fakePPA("S2D", 150, 5200), nil, nil, nil),
		"| metric (Δ vs 2D) | 2D | MoL S2D 15 µm | MoL S2D 30 µm | MoL S2D 50 µm | MoL S2D 80 µm | MoL S2D 120 µm |",
		"| f_clk [MHz] | 400 | 200 (−50.0 %) | 150 (−62.5 %) | — | — | — |",
		"| F2F bumps | 0 | 5000 | 5200 | — | — | — |")
}

func TestPitchSweepFormat(t *testing.T) {
	hasLines(t, renderPPA("sweeppitch", fakePPA("Macro-3D", 470, 4740), nil, nil, fakePPA("Macro-3D", 430, 900), nil),
		"| metric (Macro-3D; F2F pitch) | 1 µm | 2 µm | 5 µm | 10 µm | 20 µm |",
		"| f_clk [MHz] | 470 | — | — | 430 | — |",
		"| F2F bumps | 4740 | — | — | 900 | — |")
}

// TestIsoPerfFormat: the iso-performance power change sits beside the
// paper's.
func TestIsoPerfFormat(t *testing.T) {
	p2d, p3d := fakePPA("2D", 390, 0), fakePPA("Macro-3D", 390, 4740)
	p2d.PowerUW, p3d.PowerUW = 1000, 968
	hasLines(t, renderPPA("isoperf", p2d, p3d, nil, nil),
		"| metric (2D→Macro-3D at 2D's f_clk) | small | large |",
		"| power [µW] | 1000.0→968.0 (−3.2 %) | —→— |",
		"| paper | −3.2 % | −3.8 % |")
}

// TestRecordedTablesFormat: the other tables beyond Tables I–III, each
// from a few cells with the rest failed ("—"): heterotech's changes
// against the same node, and the bumps per macro pin.
func TestRecordedTablesFormat(t *testing.T) {
	same, slow := fakePPA("Macro-3D", 767, 899), fakePPA("Macro-3D", 514, 899)
	same.LeakageUW, slow.LeakageUW = 80, 68
	pins := fakePPA("Macro-3D", 767, 899)
	pins.MacroPins = 876
	for _, c := range []struct {
		name  string
		ps    []*flows.PPA
		lines []string
	}{
		{"heterotech", []*flows.PPA{same, slow, nil}, []string{
			"| f_clk [MHz] | 767 | 514 (−33.0 %) | — |",
			"| leakage [µW] | 80.0 | 68.0 (−15.0 %) | — |",
		}},
		{"macropins", []*flows.PPA{nil, pins, nil}, []string{
			"| metric (Macro-3D; data width) | 16 bit | 32 bit | 64 bit |",
			"| macro pins | — | 876 | — |",
			"| F2F bumps per macro pin | — | 1.03 | — |",
		}},
	} {
		t.Run(c.name, func(t *testing.T) { hasLines(t, renderPPA(c.name, c.ps...), c.lines...) })
	}
}

// TestNilColumnsFormatAsDash: a table with failed columns renders "—" in
// each of their cells, and only there.
func TestNilColumnsFormatAsDash(t *testing.T) {
	p := fakePPA("2D", 400, 0)
	for name, tc := range map[string]struct {
		ps  []*flows.PPA
		row string // every row of ours
	}{
		"table1": {[]*flows.PPA{p, nil, nil, nil}, `\| [^—|]+ \| — \| — \| — \|`},
		"table2": {[]*flows.PPA{p, nil, p, nil}, `\| [^—|]+→— \| [^—|]+→— \|`},
		"table3": {make([]*flows.PPA, 4), `\| —→— \| —→— \|`},
	} {
		row := regexp.MustCompile(`^\| [^|]+ ` + tc.row + `$`)
		for _, line := range strings.Split(renderPPA(name, tc.ps...), "\n")[2:] {
			if line != "" && !strings.HasPrefix(line, "| paper |") && !row.MatchString(line) {
				t.Errorf("%s: row %q is not %s", name, line, row)
			}
		}
	}
	// Every table, with no cell run, is dashes alone.
	dashes := regexp.MustCompile(`^\| [^|]+ (\| —(→—)? )+\|$`)
	for name, tab := range paperTables {
		for _, line := range strings.Split(renderPPA(name, make([]*flows.PPA, tab.cells())...), "\n")[2:] {
			if line != "" && !strings.HasPrefix(line, "| paper |") && !dashes.MatchString(line) {
				t.Errorf("%s with no cell: row %q is not dashes", name, line)
			}
		}
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
