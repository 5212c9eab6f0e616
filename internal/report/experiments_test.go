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

// cellKey names a recorded cell by what BENCH_qor.json keeps of it: flow,
// tile, data width, and each knob it sets.
func cellKey(c *tableCell) string {
	k := fmt.Sprintf("%s/%s/%d", c.Flow, c.Tile, c.DataWidth)
	for _, knob := range []struct {
		name string
		v    float64
	}{{"metals", float64(c.MacroDieMetals)}, {"res", c.BlockageResolution}, {"pitch", c.F2FPitch}} {
		if knob.v != 0 {
			k += fmt.Sprintf("/%s=%g", knob.name, knob.v)
		}
	}
	if c.TargetPeriod != 0 {
		k += "/iso"
	}
	if c.MacroProcess != nil {
		k += fmt.Sprintf("/clkq=%g", c.MacroProcess.ClkQScale)
	}
	return k
}

// TestExperimentsTablesIToIII holds EXPERIMENTS.md's recorded tables —
// Tables I–III, §V-A, the two sweeps, heterotech and the macro-pin
// experiment — to the cells `make qor` commits in BENCH_qor.json. Every
// cell is seed 1's and its experiment's own, told apart by the knobs the
// record keeps: Table I the four compared flows on the small tile, Table
// II 2D and Macro-3D on both tiles, Table III Macro-3D with six and four
// macro-die metals on both, §V-A each tile's 2D and its Macro-3D at 2D's
// period, the sweeps a knob value a cell, and the macro-pin experiment
// Macro-3D at each data width.
func TestExperimentsTablesIToIII(t *testing.T) {
	b, err := os.ReadFile("../../BENCH_qor.json")
	var doc QoRFile
	if err = cmp.Or(err, json.Unmarshal(b, &doc)); err != nil {
		t.Fatal(err)
	}
	const small, large, m3d = "piton_small/32", "piton_large/32", "macro3d/piton_small/32"
	want := map[string][]string{
		"table1":        {"2d/" + small, "s2d/" + small, "bfs2d/" + small, "macro3d/" + small},
		"table2":        {"2d/" + small, "macro3d/" + small, "2d/" + large, "macro3d/" + large},
		"table3":        {m3d + "/metals=6", m3d + "/metals=4", "macro3d/" + large + "/metals=6", "macro3d/" + large + "/metals=4"},
		"isoperf":       {"2d/" + small, m3d + "/iso", "2d/" + large, "macro3d/" + large + "/iso"},
		"sweepblockage": {"2d/" + small, "s2d/" + small + "/res=15", "s2d/" + small + "/res=30", "s2d/" + small + "/res=50", "s2d/" + small + "/res=80", "s2d/" + small + "/res=120"},
		"sweeppitch":    {m3d + "/pitch=1", m3d + "/pitch=2", m3d + "/pitch=5", m3d + "/pitch=10", m3d + "/pitch=20"},
		"heterotech":    {m3d, m3d + "/clkq=2.2", m3d + "/clkq=0.6"},
		"macropins":     {"macro3d/piton_small/16", m3d, "macro3d/piton_small/64"},
	}
	var names []string
	for name, keys := range want {
		names = append(names, name)
		var got []string
		for i, c := range doc.Tables[name] {
			got = append(got, cellKey(c))
			if c.Seed != 1 {
				t.Errorf("%s holds a seed-%d cell, want seed 1", name, c.Seed)
			}
			if c.TargetPeriod != 0 && (i == 0 || c.TargetPeriod != doc.Tables[name][i-1].MinPeriodPs) {
				t.Errorf("%s cell %d targets %g ps, not the 2D cell's minimum period before it", name, i, c.TargetPeriod)
			}
		}
		if !slices.Equal(got, keys) {
			t.Errorf("%s cells %v, want %v", name, got, keys)
		}
	}
	holdBlocks(t, names...)
}

// TestEveryExperimentIsRendered: every experiment RunExperiment knows is
// the seed ensemble or has a paperTables entry, and has its block in
// EXPERIMENTS.md, so none prints numbers the doc cannot hold to
// BENCH_qor.json.
func TestEveryExperimentIsRendered(t *testing.T) {
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		if _, ok := paperTables[name]; !ok && name != "seeds" {
			t.Errorf("experiment %s has no paperTables entry", name)
		}
		if !bytes.Contains(md, []byte("\n<!-- rendered:"+name+" -->\n")) {
			t.Errorf("EXPERIMENTS.md has no rendered block for the experiment %s", name)
		}
	}
}

// TestMergeQoRKeepsOtherParts: an experiment's BENCH_qor.json part
// replaces its own keys and keeps the rest, so the ensemble and each
// table update one file in any order, and merging a part again is a
// fixed point.
func TestMergeQoRKeepsOtherParts(t *testing.T) {
	part := func(doc QoRFile) *Result {
		b, err := marshalQoR(doc)
		if err != nil {
			t.Fatal(err)
		}
		return &Result{QoR: b}
	}
	ens := part(QoRFile{Seeds: []uint64{1, 2}, Cells: []*Series{{Flow: "2d", Tile: "piton_small",
		FclkMHz: []float64{692.5, 700}, WLm: []float64{1.25, 1.26}, F2FBumps: []float64{0, 0}, Overflow: []float64{0, 1}}}})
	t1 := part(QoRFile{Tables: map[string][]*tableCell{"table1": {{Flow: "2d", Tile: "piton_small", Seed: 1, FclkMHz: 692.5}}}})
	t3 := part(QoRFile{Tables: map[string][]*tableCell{"table3": {{Flow: "macro3d", Tile: "piton_large", Seed: 1, MacroDieMetals: 4}}}})
	file, err := ens.MergeQoR(nil)
	if err != nil || !slices.Equal(file, ens.QoR) {
		t.Fatalf("the ensemble into no file: %v\n%s", err, file)
	}
	for _, r := range []*Result{t1, t3, ens, t1} {
		if file, err = r.MergeQoR(file); err != nil {
			t.Fatal(err)
		}
	}
	var doc QoRFile
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
