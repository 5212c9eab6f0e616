package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestJudgePairs holds the verdict to the rule of ten pairs on synthetic
// runs of a lower-is-better metric with a 25 % bound.
func TestJudgePairs(t *testing.T) {
	g := gate{Name: "setup_s", Better: "lower", Bound: 0.25}
	base := []float64{1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98}
	shift := func(d float64, flip ...int) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		for _, i := range flip {
			out[i] = base[i] - d
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		base, chg   []float64
		won, lost   int
		verdict     string
		higherBound bool
	}{
		{"every pair 10 % faster", base, shift(-0.1), 10, 0, "gain", false},
		{"nine pairs faster, one slower", base, shift(-0.1, 3), 9, 1, "gain", false},
		{"eight pairs faster", base, shift(-0.1, 3, 7), 8, 2, "unresolved", false},
		{"every pair slower", base, shift(0.1), 0, 10, "loss", false},
		{"identical runs", base, shift(0), 0, 0, "no change", false},
		{"faster in every pair, inside the base IQR", base, shift(-0.005), 10, 0, "no change", false},
		{"nine pairs faster, too few", base[:9], shift(-0.1)[:9], 9, 0, "unresolved", false},
		{"spread wider than the bound", []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, []float64{2, 1, 2, 1, 2, 1, 2, 1, 2, 1}, 5, 5, "unresolved", false},
		{"higher is better, every pair higher", base, shift(0.1), 10, 0, "gain", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := g
			if tc.higherBound {
				g.Better = "higher"
			}
			v := judgePairs(g, tc.base, tc.chg)
			if v.won != tc.won || v.lost != tc.lost || v.verdict != tc.verdict {
				t.Fatalf("won %d lost %d %q, want won %d lost %d %q (base %+v, new %+v)",
					v.won, v.lost, v.verdict, tc.won, tc.lost, tc.verdict, v.base, v.change)
			}
		})
	}
}

func TestQuartiles(t *testing.T) {
	if q := quartilesOf([]float64{4, 1, 3, 2, 5}); q != (quartiles{2, 3, 4}) {
		t.Fatalf("quartiles of 1..5 = %+v", q)
	}
	if q := quartilesOf([]float64{7}); q != (quartiles{7, 7, 7}) {
		t.Fatalf("quartiles of one run = %+v", q)
	}
}

// TestPairsInput reads side-tagged run lines and refuses unpaired runs,
// unknown sides and failed runs.
func TestPairsInput(t *testing.T) {
	line := func(side string, v float64) string {
		return fmt.Sprintf(`%s {"correct":true,"failed":0,"metrics":{"setup_s":{"value":%g,"unit":"s"}}}`, side, v)
	}
	var in []string
	for i := 0; i < 10; i++ {
		// Alternate which side runs first, as bench-pairs does.
		if i%2 == 0 {
			in = append(in, line("base", 100+float64(i)), line("new", 80+float64(i)))
		} else {
			in = append(in, line("new", 80+float64(i)), line("base", 100+float64(i)))
		}
	}
	base, change, err := readPairs(strings.NewReader(strings.Join(in, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 10 || base[3]["setup_s"] != 103 || change[3]["setup_s"] != 83 {
		t.Fatalf("runs read out of pair: %v / %v", base, change)
	}
	var out strings.Builder
	m := &manifest{EndToEnd: []gate{{Name: "setup_s", Better: "lower", Bound: 0.25}, {Name: "alloc_gb", Better: "lower"}}}
	if losses := comparePairs(&out, m, base, change); losses != 0 || !strings.Contains(out.String(), "10/10  gain") || strings.Contains(out.String(), "alloc_gb") {
		t.Fatalf("losses %d, output:\n%s", losses, out.String())
	}
	for _, bad := range []string{
		strings.Join(in[:19], "\n"),
		line("base", 1) + "\n" + line("old", 1),
		line("base", 1) + "\n" + `new {"correct":false,"failed":1,"metrics":{}}`,
		"",
	} {
		if _, _, err := readPairs(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
