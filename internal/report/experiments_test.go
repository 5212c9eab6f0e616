package report

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"testing"
)

// holdBlocks fails unless each named block of the committed
// EXPERIMENTS.md is what Render writes from the committed BENCH_qor.json.
// It runs no flow: `make qor` rewrites both files together, and this says
// which block a hand edit, or one file committed without the other, left
// stale.
func holdBlocks(t *testing.T, names ...string) {
	t.Helper()
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	qor, qerr := os.ReadFile("../../BENCH_qor.json")
	rendered, rerr := Render(md, qor)
	if err = cmp.Or(err, qerr, rerr); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		re := regexp.MustCompile(`(?s)<!-- rendered:` + name + ` -->\n.*?<!-- /rendered -->`)
		if got, want := re.Find(md), re.Find(rendered); got == nil || !bytes.Equal(got, want) {
			t.Errorf("EXPERIMENTS.md's %s block reads\n%s\nBENCH_qor.json renders\n%s", name, got, want)
		}
	}
}

// TestExperimentsEnsembleTable holds EXPERIMENTS.md's seed-ensemble
// tables to the committed BENCH_qor.json.
func TestExperimentsEnsembleTable(t *testing.T) {
	holdBlocks(t, "seeds")
}

// TestExperimentsTablesIToIII holds EXPERIMENTS.md's Tables I–III to the
// cells `make qor` commits in BENCH_qor.json. Every cell is seed 1's and
// the tables' own: Table I the four compared flows on the small tile,
// Table II 2D and Macro-3D on both tiles, Table III Macro-3D with six and
// four macro-die metals on both.
func TestExperimentsTablesIToIII(t *testing.T) {
	b, err := os.ReadFile("../../BENCH_qor.json")
	var doc qorDoc
	if err = cmp.Or(err, json.Unmarshal(b, &doc)); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"table1": {"2d/piton_small/0", "s2d/piton_small/0", "bfs2d/piton_small/0", "macro3d/piton_small/0"},
		"table2": {"2d/piton_small/0", "macro3d/piton_small/0", "2d/piton_large/0", "macro3d/piton_large/0"},
		"table3": {"macro3d/piton_small/6", "macro3d/piton_small/4", "macro3d/piton_large/6", "macro3d/piton_large/4"},
	}
	for name, keys := range want {
		var got []string
		for _, c := range doc.Tables[name] {
			got = append(got, fmt.Sprintf("%s/%s/%d", c.Flow, c.Tile, c.MacroDieMetals))
			if c.Seed != 1 {
				t.Errorf("%s holds a seed-%d cell, want seed 1", name, c.Seed)
			}
		}
		if !slices.Equal(got, keys) {
			t.Errorf("%s cells %v, want %v", name, got, keys)
		}
	}
	holdBlocks(t, "table1", "table2", "table3")
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
	t1 := part(qorDoc{Tables: map[string][]*tableCell{"table1": {{Flow: "2d", Tile: "piton_small", Seed: 1, FclkMHz: 692.5}}}})
	t3 := part(qorDoc{Tables: map[string][]*tableCell{"table3": {{Flow: "macro3d", Tile: "piton_large", Seed: 1, MacroDieMetals: 4}}}})
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
