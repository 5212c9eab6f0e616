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
	c := func(fclk float64) *tableCell { return &tableCell{FclkMHz: fclk} }
	got := []string{fclkRow.change(c(110), c(100)), fclkRow.change(c(90), c(100)),
		fclkRow.change(c(1), c(0)), fclkRow.change(nil, c(100)), fclkRow.change(c(100), nil)}
	if want := []string{" (+10.0 %)", " (−10.0 %)", "", "", ""}; !slices.Equal(got, want) {
		t.Errorf("changes %q, want %q", got, want)
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
