package report

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// ensembleDoc reads the committed BENCH_qor.json.
func ensembleDoc(t *testing.T) []*series {
	t.Helper()
	b, err := os.ReadFile("../../BENCH_qor.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cells []*series `json:"cells"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Cells
}

// span prints a metric's range over the seeds at the tables' precision:
// one value when every seed agrees.
func span(v []float64, verb string) string {
	lo, hi := fmt.Sprintf(verb, slices.Min(v)), fmt.Sprintf(verb, slices.Max(v))
	if lo == hi {
		return lo
	}
	return lo + "–" + hi
}

// ensembleRows is every table row of EXPERIMENTS.md's seed-ensemble
// section, split into cells with emphasis and spaces (the thousands
// separator) dropped.
func ensembleRows(md string) [][]string {
	_, sec, _ := strings.Cut(md, "## Seed ensemble")
	sec, _, _ = strings.Cut(sec, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i, c := range cells {
			cells[i] = strings.ReplaceAll(strings.ReplaceAll(c, "**", ""), " ", "")
		}
		rows = append(rows, cells)
	}
	return rows
}

// ensembleTableErrors checks the seed-ensemble tables of md against the
// ensemble ss, at the precision the tables print: per flow × tile the
// f_clk geomean [min–max] and the min–max of wirelength, bumps and
// overflow, then each chain link's win rate. Every series and link must
// have its row, and every row a series or link.
func ensembleTableErrors(md string, ss []*series) []string {
	want := map[string]string{}
	for _, s := range ss {
		tile := strings.TrimPrefix(s.Tile, "piton_")
		want[strings.ReplaceAll(tile+"|"+flowLabels[s.Flow], " ", "")] = fmt.Sprintf("%.0f[%.0f–%.0f]|%s|%s|%s",
			geomean(s.FclkMHz), slices.Min(s.FclkMHz), slices.Max(s.FclkMHz),
			span(s.WLm, "%.2f"), span(s.F2FBumps, "%.0f"), span(s.Overflow, "%.0f"))
	}
	for _, l := range links(ss) {
		key := strings.TrimPrefix(l.lo.Tile, "piton_") + ":" + flowLabels[l.lo.Flow] + "<" + flowLabels[l.hi.Flow]
		want[strings.ReplaceAll(key, " ", "")] = fmt.Sprintf("%d/%d", l.won, l.ran)
	}
	var errs []string
	seen := map[string]bool{}
	for _, r := range ensembleRows(md) {
		if r[0] == "tile" || r[0] == "link(f_clk)" {
			continue
		}
		// A series row is tile | flow | metrics…, a link row link | rate.
		key, got := r[0], strings.Join(r[1:], "|")
		if len(r) > 2 {
			key, got = r[0]+"|"+r[1], strings.Join(r[2:], "|")
		}
		w, ok := want[key]
		switch {
		case !ok:
			errs = append(errs, fmt.Sprintf("row %q is in no series or link of BENCH_qor.json", key))
		case got != w:
			errs = append(errs, fmt.Sprintf("row %q reads %q, BENCH_qor.json gives %q", key, got, w))
		}
		seen[key] = true
	}
	for key := range want {
		if !seen[key] {
			errs = append(errs, fmt.Sprintf("no row for %q", key))
		}
	}
	slices.Sort(errs)
	return errs
}

// TestExperimentsEnsembleTable holds EXPERIMENTS.md's seed-ensemble tables
// to the committed BENCH_qor.json at their printed precision. It runs no
// flow: `make qor` rewrites the file, and this test says which rows the
// new file left stale. Editing any one cell of either table fails it.
func TestExperimentsEnsembleTable(t *testing.T) {
	b, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	md, ss := string(b), ensembleDoc(t)
	for _, e := range ensembleTableErrors(md, ss) {
		t.Error(e)
	}
	for _, edit := range [][2]string{
		{"| small | C2D | 234 [216–252]", "| small | C2D | 234 [217–252]"},
		{"| 1.45–1.59 |", "| 1.45–1.60 |"},
		{"| 886–909 |", "| 886–908 |"},
		{"| 13–15 |", "| 13–16 |"},
		{"| large: 2D < Macro-3D | 10/10 |", "| large: 2D < Macro-3D | 9/10 |"},
		{"| large | 2D |", "| huge | 2D |"},
	} {
		if !strings.Contains(md, edit[0]) {
			t.Errorf("EXPERIMENTS.md has no %q to edit", edit[0])
			continue
		}
		if errs := ensembleTableErrors(strings.Replace(md, edit[0], edit[1], 1), ss); len(errs) == 0 {
			t.Errorf("editing %q to %q went unnoticed", edit[0], edit[1])
		}
	}
}
