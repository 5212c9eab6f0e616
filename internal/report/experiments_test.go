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

// sectionRows is every table row of the EXPERIMENTS.md section whose
// heading starts with heading, split into cells with emphasis and spaces
// (the thousands separator) dropped.
func sectionRows(md, heading string) [][]string {
	_, sec, _ := strings.Cut(md, "\n## "+heading)
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
	for _, r := range sectionRows(md, "Seed ensemble") {
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
		{"| 0–1 |", "| 0–2 |"},
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

// tablesDoc reads Tables I–III's cells from the committed
// BENCH_qor.json.
func tablesDoc(t *testing.T) map[string][]tableCell {
	t.Helper()
	b, err := os.ReadFile("../../BENCH_qor.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc qorDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Tables
}

// pct is a relative delta as EXPERIMENTS.md prints it, at digits
// decimals with a typographic minus: "+10.8%", "−22.7%".
func pct(v, base float64, digits int) string {
	return strings.Replace(fmt.Sprintf("%+.*f%%", digits, 100*(v/base-1)), "-", "−", 1)
}

// measuredTablesErrors checks the measured columns of EXPERIMENTS.md's
// Tables I–III against the tables' cells at the precision they print:
// Table I's one column of four flows, and Tables II and III's small and
// large columns, each a (base, variant) pair with the variant's delta.
// Every row must be one the check knows, and every known row present.
func measuredTablesErrors(md string, tables map[string][]tableCell) []string {
	f0 := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	one := map[string]func(c []tableCell) string{
		"f_clk[MHz]": func(c []tableCell) string {
			return f0(c[0].FclkMHz) + "/" + f0(c[1].FclkMHz) + "/" + f0(c[2].FclkMHz) + "/" + f0(c[3].FclkMHz)
		},
		"f_clkvs2D": func(c []tableCell) string {
			return "—/" + pct(c[1].FclkMHz, c[0].FclkMHz, 1) + "/" + pct(c[2].FclkMHz, c[0].FclkMHz, 1) + "/" + pct(c[3].FclkMHz, c[0].FclkMHz, 1)
		},
		"E_mean[fJ/cyc]": func(c []tableCell) string {
			s := f0(c[0].EmeanFJ)
			for _, x := range c[1:] {
				s += "/" + f0(x.EmeanFJ) + "(" + pct(x.EmeanFJ, c[0].EmeanFJ, 0) + ")"
			}
			return s
		},
		"A_footprint[mm²]": func(c []tableCell) string {
			return fmt.Sprintf("%.2f/%.2f/%.2f/%.2f", c[0].FootprintMM2, c[1].FootprintMM2, c[2].FootprintMM2, c[3].FootprintMM2)
		},
		"F2Fbumps": func(c []tableCell) string {
			return fmt.Sprintf("%d/%d/%d/%d", c[0].F2FBumps, c[1].F2FBumps, c[2].F2FBumps, c[3].F2FBumps)
		},
		"routeoverflow[gcell-layers]": func(c []tableCell) string {
			return fmt.Sprintf("%d/%d/%d/%d", c[0].Overflow, c[1].Overflow, c[2].Overflow, c[3].Overflow)
		},
	}
	type pairRow = map[string]func(a, b tableCell) string
	delta := func(v func(c tableCell) float64) func(a, b tableCell) string {
		return func(a, b tableCell) string { return pct(v(b), v(a), 1) }
	}
	overflow := func(a, b tableCell) string { return fmt.Sprintf("%d→%d", a.Overflow, b.Overflow) }
	two := pairRow{
		"f_clk": func(a, b tableCell) string {
			return fmt.Sprintf("%.0f→%.0f(%s)", a.FclkMHz, b.FclkMHz, pct(b.FclkMHz, a.FclkMHz, 1))
		},
		"E_mean":        delta(func(c tableCell) float64 { return c.EmeanFJ }),
		"A_footprint":   delta(func(c tableCell) float64 { return c.FootprintMM2 }),
		"A_logic-cells": delta(func(c tableCell) float64 { return c.LogicCellAreaMM2 }),
		"totalwirelength": func(a, b tableCell) string {
			return fmt.Sprintf("%.2f→%.2fm(%s)", a.WLm, b.WLm, pct(b.WLm, a.WLm, 1))
		},
		"F2Fbumps":     func(_, b tableCell) string { return fmt.Sprint(b.F2FBumps) },
		"C_pin,total":  delta(func(c tableCell) float64 { return c.CpinNF }),
		"C_wire,total": delta(func(c tableCell) float64 { return c.CwireNF }),
		"maxclk-treedepth": func(a, b tableCell) string {
			return fmt.Sprintf("%d→%d(%s)", a.ClkDepth, b.ClkDepth, pct(float64(b.ClkDepth), float64(a.ClkDepth), 1))
		},
		"crit-pathWL":                 delta(func(c tableCell) float64 { return c.CritPathWLmm }),
		"routeoverflow[gcell-layers]": overflow,
	}
	three := pairRow{
		"f_clk":                       delta(func(c tableCell) float64 { return c.FclkMHz }),
		"E_mean":                      delta(func(c tableCell) float64 { return c.EmeanFJ }),
		"A_metal":                     delta(func(c tableCell) float64 { return c.MetalAreaMM2 }),
		"F2Fbumps":                    delta(func(c tableCell) float64 { return float64(c.F2FBumps) }),
		"routeoverflow[gcell-layers]": overflow,
	}
	var errs []string
	check := func(table, row, got, want string) {
		if got != want {
			errs = append(errs, fmt.Sprintf("%s row %q reads %q, BENCH_qor.json gives %q", table, row, got, want))
		}
	}
	for _, tb := range []struct {
		name, heading string
		one           map[string]func(c []tableCell) string
		pairs         pairRow
	}{
		{"table1", "Table I —", one, nil},
		{"table2", "Table II —", nil, two},
		{"table3", "Table III —", nil, three},
	} {
		cells := tables[tb.name]
		if len(cells) != 4 {
			errs = append(errs, fmt.Sprintf("BENCH_qor.json holds %d %s cells, want 4", len(cells), tb.name))
			continue
		}
		seen := map[string]bool{}
		for _, r := range sectionRows(md, tb.heading) {
			if strings.HasPrefix(r[0], "metric") {
				continue // the header
			}
			seen[r[0]] = true
			switch {
			case tb.one[r[0]] != nil && len(r) == 3:
				check(tb.name, r[0], r[2], tb.one[r[0]](cells))
			case tb.pairs[r[0]] != nil && len(r) == 5:
				check(tb.name, r[0]+" small", r[2], tb.pairs[r[0]](cells[0], cells[1]))
				check(tb.name, r[0]+" large", r[4], tb.pairs[r[0]](cells[2], cells[3]))
			default:
				errs = append(errs, fmt.Sprintf("%s row %q is no row of the table", tb.name, r[0]))
			}
		}
		for row := range tb.one {
			if !seen[row] {
				errs = append(errs, fmt.Sprintf("%s has no row %q", tb.name, row))
			}
		}
		for row := range tb.pairs {
			if !seen[row] {
				errs = append(errs, fmt.Sprintf("%s has no row %q", tb.name, row))
			}
		}
	}
	slices.Sort(errs)
	return errs
}

// TestExperimentsTablesIToIII holds the measured columns of
// EXPERIMENTS.md's Tables I–III to the cells `make qor` commits in
// BENCH_qor.json, at their printed precision. It runs no flow. Every
// cell is seed 1's and the tables' own: Table I the four compared flows
// on the small tile, Table II 2D and Macro-3D on both tiles, Table III
// Macro-3D with six and four macro-die metals on both. Editing any
// measured cell fails it.
func TestExperimentsTablesIToIII(t *testing.T) {
	b, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	md, tables := string(b), tablesDoc(t)
	want := map[string][]string{
		"table1": {"2d/piton_small/0", "s2d/piton_small/0", "bfs2d/piton_small/0", "macro3d/piton_small/0"},
		"table2": {"2d/piton_small/0", "macro3d/piton_small/0", "2d/piton_large/0", "macro3d/piton_large/0"},
		"table3": {"macro3d/piton_small/6", "macro3d/piton_small/4", "macro3d/piton_large/6", "macro3d/piton_large/4"},
	}
	for name, keys := range want {
		var got []string
		for _, c := range tables[name] {
			got = append(got, fmt.Sprintf("%s/%s/%d", c.Flow, c.Tile, c.MacroDieMetals))
			if c.Seed != 1 {
				t.Errorf("%s holds a seed-%d cell, want seed 1", name, c.Seed)
			}
		}
		if !slices.Equal(got, keys) {
			t.Errorf("%s cells %v, want %v", name, got, keys)
		}
	}
	for _, e := range measuredTablesErrors(md, tables) {
		t.Error(e)
	}
	for _, edit := range [][2]string{
		{"| f_clk [MHz] | 390 / 227 / 260 / **470** | 692 /", "| f_clk [MHz] | 390 / 227 / 260 / **470** | 693 /"},
		{"1.23 / 0.62 / 0.62 / 0.62 |", "1.23 / 0.62 / 0.62 / 0.63 |"},
		{"(**+10.8 %**) |", "(**+10.9 %**) |"},
		{"| −8.1 % |", "| −8.2 % |"},
		{"| 13→12 (−7.7 %) |", "| 13→11 (−7.7 %) |"},
		{"| **−16.7 %** | −16.7 % | **−16.7 %** |", "| **−16.7 %** | −16.7 % | **−16.6 %** |"},
		{"| F2F bumps | −18.4 % | +7.9 % |", "| F2F bumps | −18.4 % | +7.8 % |"},
	} {
		if !strings.Contains(md, edit[0]) {
			t.Errorf("EXPERIMENTS.md has no %q to edit", edit[0])
			continue
		}
		if errs := measuredTablesErrors(strings.Replace(md, edit[0], edit[1], 1), tables); len(errs) == 0 {
			t.Errorf("editing %q to %q went unnoticed", edit[0], edit[1])
		}
	}
}

// TestMergeQoRKeepsOtherParts: an experiment's BENCH_qor.json part
// replaces its own keys and keeps the rest, so the ensemble and each
// table update one file in any order, and merging a part again is a
// fixed point.
func TestMergeQoRKeepsOtherParts(t *testing.T) {
	part := func(doc qorDoc) *Result {
		b, err := marshalQoR(doc)
		if err != nil {
			t.Fatal(err)
		}
		return &Result{QoR: b}
	}
	ens := part(qorDoc{Seeds: []uint64{1, 2}, Cells: []*series{{Flow: "2d", Tile: "piton_small",
		FclkMHz: []float64{692.5, 700}, WLm: []float64{1.25, 1.26}, F2FBumps: []float64{0, 0}, Overflow: []float64{0, 1}}}})
	t1 := part(qorDoc{Tables: map[string][]tableCell{"table1": {{Flow: "2d", Tile: "piton_small", Seed: 1, FclkMHz: 692.5}}}})
	t3 := part(qorDoc{Tables: map[string][]tableCell{"table3": {{Flow: "macro3d", Tile: "piton_large", Seed: 1, MacroDieMetals: 4}}}})
	file, err := ens.MergeQoR(nil)
	if err != nil || !slices.Equal(file, ens.QoR) {
		t.Fatalf("the ensemble into no file: %v\n%s", err, file)
	}
	for _, r := range []*Result{t1, t3, ens, t1} {
		if file, err = r.MergeQoR(file); err != nil {
			t.Fatal(err)
		}
	}
	var doc qorDoc
	if err := json.Unmarshal(file, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Seeds) != 2 || len(doc.Cells) != 1 || len(doc.Tables) != 2 ||
		doc.Tables["table1"][0].FclkMHz != 692.5 || doc.Tables["table3"][0].MacroDieMetals != 4 {
		t.Fatalf("merged file lost a part:\n%s", file)
	}
	again, err := t3.MergeQoR(file)
	if err != nil || !slices.Equal(again, file) {
		t.Fatalf("merging a part again changed the file: %v\n%s", err, again)
	}
	if _, err := t1.MergeQoR([]byte("{")); err == nil {
		t.Fatal("a corrupt file merged")
	}
}
