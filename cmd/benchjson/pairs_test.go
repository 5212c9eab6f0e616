package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
		{"faster in every pair, inside the base IQR", base, shift(-0.005), 10, 0, "unresolved", false},
		{"faster in nine pairs, inside the base IQR", base, shift(-0.005, 3), 9, 1, "unresolved", false},
		{"faster in eight pairs, inside the base IQR", base, shift(-0.005, 3, 7), 8, 2, "no change", false},
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

// TestJudgePairsOneWayInsideIQR is ROADMAP item 3's bench.cpu_s reading:
// serial lower in 10/10 pairs by a median 17.5 ms, inside the base's
// 19 ms IQR. The pairs moved together, so the verdict is unresolved, not
// no change.
func TestJudgePairsOneWayInsideIQR(t *testing.T) {
	g := gate{Name: "bench.cpu_s", Unit: "s", Better: "lower"}
	base := []float64{0.259, 0.235, 0.267, 0.248, 0.280, 0.240, 0.255, 0.267, 0.248, 0.270}
	change := make([]float64, len(base))
	for i, v := range base {
		change[i] = v - 0.0175
	}
	v := judgePairs(g, base, change)
	if iqr, gap := v.base.q3-v.base.q1, v.base.med-v.change.med; abs(iqr-0.019) > 1e-12 || abs(gap-0.0175) > 1e-12 {
		t.Fatalf("fixture: base IQR %g, median gap %g; want 0.019 and 0.0175", iqr, gap)
	}
	if v.won != 10 || v.verdict != "unresolved" {
		t.Fatalf("won %d/10, %q; want 10/10, unresolved", v.won, v.verdict)
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

// TestPairsJudgeTraceTimes: on --trace 1 lines the per-layer times are
// judged with no bound — a gain, a loss that fails nothing, no change
// inside the base's spread, the pairs split both ways — while per-layer metrics in other units and
// times every run reads 0 are left out.
func TestPairsJudgeTraceTimes(t *testing.T) {
	line := func(side string, i int, wall, cpu, opt float64) string {
		return fmt.Sprintf(`%s {"correct":true,"failed":0,"metrics":{"bench.wall_s":{"value":%g},"bench.cpu_s":{"value":%g},`+
			`"opt.s":{"value":%g},"cts.s":{"value":0},"route.nets_routed":{"value":%d}}}`, side, wall, cpu, opt, 100+i)
	}
	var in []string
	for i := 0; i < 10; i++ {
		d := 0.001 * float64(i%3)
		// opt.s moves half a millisecond, up in even pairs and down in odd.
		in = append(in, line("base", i, 0.30+d, 0.50+d, 0.100+d), line("new", i, 0.27+d, 0.60+d, 0.1005-0.001*float64(i%2)+d))
	}
	base, change, err := readPairs(strings.NewReader(strings.Join(in, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	m := &manifest{
		EndToEnd: []gate{{Name: "alloc_gb", Better: "lower", Bound: 0.03}},
		PerLayer: []gate{
			{Name: "opt.s", Unit: "s", Better: "lower"},
			{Name: "cts.s", Unit: "s", Better: "lower"},
			{Name: "route.nets_routed", Unit: "count", Better: "lower"},
			{Name: "bench.wall_s", Unit: "s", Better: "lower"},
			{Name: "bench.cpu_s", Unit: "s", Better: "lower"},
		},
	}
	var out strings.Builder
	losses := comparePairs(&out, m, base, change)
	got := out.String()
	for _, want := range []string{
		"bench.wall_s", "10/10  gain (lower better, no bound)",
		"bench.cpu_s", "0/10  loss (lower better, no bound)",
		"opt.s", "no change (lower better, no bound)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q", want)
		}
	}
	if losses != 0 || strings.Contains(got, "cts.s") || strings.Contains(got, "nets_routed") || strings.Contains(got, "alloc_gb") {
		t.Errorf("%d losses, or a metric judged that is not a time both sides run", losses)
	}
	if t.Failed() {
		t.Log(got)
	}
}

// TestPairsLedgerAppend: the verdict table becomes one row of
// BENCH_pairs.json — revisions, workload, pairs, host, and per judged
// metric both sides' median and quartiles, the pairs won and lost and
// the verdict, as comparePairs prints them. A re-run of the same
// revisions, workload and kind replaces its row; a traced run is a row
// of its own; a row without its three names is refused.
func TestPairsLedgerAppend(t *testing.T) {
	line := func(side string, alloc, wall float64) string {
		if wall == 0 {
			return fmt.Sprintf(`%s {"correct":true,"failed":0,"metrics":{"alloc_gb":{"value":%g}}}`, side, alloc)
		}
		return fmt.Sprintf(`%s {"correct":true,"failed":0,"metrics":{"bench.wall_s":{"value":%g}}}`, side, wall)
	}
	runs := func(wall float64) ([]map[string]float64, []map[string]float64) {
		var in []string
		for i := range 10 {
			d := 0.001 * float64(i%4)
			in = append(in, line("base", 0.080+d, wall), line("new", 0.075+d, wall*0.9))
		}
		base, change, err := readPairs(strings.NewReader(strings.Join(in, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		return base, change
	}
	m := &manifest{
		EndToEnd: []gate{{Name: "alloc_gb", Unit: "GB", Better: "lower", Bound: 0.03}},
		PerLayer: []gate{{Name: "bench.wall_s", Unit: "s", Better: "lower"}},
	}
	path := filepath.Join(t.TempDir(), "BENCH_pairs.json")
	add := func(wall float64, args ...string) error {
		base, change := runs(wall)
		row, err := pairsRowFrom(m, base, change, args)
		if err != nil {
			return err
		}
		return appendPairs(path, row)
	}
	for _, wall := range []float64{0, 0, 0.3} {
		if err := add(wall, "array-verify", "aaa", "bbb"); err != nil {
			t.Fatal(err)
		}
	}
	if err := add(0, "array-verify", "aaa"); err == nil {
		t.Fatal("a row without its change revision was accepted")
	}
	// An uncommitted change's row is recorded once and never replaced:
	// the next uncommitted change at the same HEAD has the same name.
	if err := add(0, "array-verify", "aaa", "aaa-dirty"); err != nil {
		t.Fatal(err)
	}
	if err := add(0, "table2", "aaa", "aaa-dirty"); err != nil {
		t.Fatalf("a dirty row of another workload was refused: %v", err)
	}
	if err := add(0, "array-verify", "aaa", "aaa-dirty"); err == nil || !strings.Contains(err.Error(), "not replaced") {
		t.Fatalf("a second dirty row of the same key: err = %v, want a refusal", err)
	}
	var l pairsLedger
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &l)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Rows) != 4 || l.Rows[0].Trace || !l.Rows[1].Trace || l.Rows[2].Change != "aaa-dirty" || l.Rows[3].Workload != "table2" {
		t.Fatalf("want a plain and a traced row, then the two dirty ones, got %+v", l.Rows)
	}
	r := l.Rows[0]
	if r.Workload != "array-verify" || r.Base != "aaa" || r.Change != "bbb" || r.N != 10 || r.Go == "" || r.NProc < 1 || r.GoMaxProcs < 1 {
		t.Fatalf("row header = %+v", r)
	}
	want := pairsMetric{Name: "alloc_gb", Unit: "GB", Better: "lower", Bound: 0.03,
		Base: sideStats{0.081, 0.08025, 0.082}, New: sideStats{0.076, 0.07525, 0.077},
		Won: 10, Pairs: 10, Verdict: "gain"}
	if len(r.Metrics) != 1 || !approxMetric(r.Metrics[0], want) {
		t.Fatalf("metrics = %+v, want %+v", r.Metrics, want)
	}
	if tm := l.Rows[1].Metrics; len(tm) != 1 || tm[0].Name != "bench.wall_s" || tm[0].Bound != 0 || tm[0].Verdict != "gain" {
		t.Fatalf("traced row's metrics = %+v", tm)
	}
}

// approxMetric compares two metric rows, their quartiles to 1e-12.
func approxMetric(a, b pairsMetric) bool {
	near := func(x, y sideStats) bool {
		return abs(x.Median-y.Median) < 1e-12 && abs(x.Q1-y.Q1) < 1e-12 && abs(x.Q3-y.Q3) < 1e-12
	}
	if !near(a.Base, b.Base) || !near(a.New, b.New) {
		return false
	}
	a.Base, a.New = b.Base, b.New
	return a == b
}

func abs(x float64) float64 { return max(x, -x) }

// FuzzReadPairs holds readPairs, the reader of `make bench-pairs`'
// runs.txt, to arbitrary input. It must not panic. When it accepts, every
// line that is not blank is a side, base or new, a space and the JSON
// line of a correct run, and the two sides count the same number of
// such lines, at least one each; any other line is an error.
func FuzzReadPairs(f *testing.F) {
	const run = `{"correct":true,"failed":0,"metrics":{"setup_s":{"value":1,"unit":"s"}}}`
	f.Add("base " + run + "\nnew " + run + "\n") // one pair
	f.Add("new " + run + "\r\n\n  base  " + run) // blank lines, CRLF, extra spaces
	// Each bad line comes with a good pair, and with a partner where it
	// takes a side, so that a reader that let it through would find the
	// counts even.
	pair := "base " + run + "\nnew " + run + "\n"
	f.Add(pair + "old " + run + "\n")                                       // an unknown side
	f.Add(pair + "base\t" + run + "\n")                                     // a tab for the space
	f.Add(pair + "base " + `{"correct":false,"failed":1}` + "\nnew " + run) // a failed run
	f.Add(pair + `base {"metrics":{"x":{"value":"1"}}}` + "\nnew " + run)   // a value not a number
	f.Add(pair + "base " + run)                                             // unpaired
	f.Fuzz(func(t *testing.T, in string) {
		base, change, err := readPairs(strings.NewReader(in))
		if err != nil {
			return
		}
		if len(base) == 0 || len(base) != len(change) {
			t.Fatalf("accepted %d base and %d new runs", len(base), len(change))
		}
		count := map[string]int{}
		for _, line := range strings.Split(in, "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			side, js, _ := strings.Cut(line, " ")
			var l flowLine
			if side != "base" && side != "new" || json.Unmarshal([]byte(js), &l) != nil || !l.Correct || l.Failed != 0 {
				t.Fatalf("accepted the line %q", line)
			}
			count[side]++
		}
		if count["base"] != len(base) || count["new"] != len(change) {
			t.Fatalf("%d base and %d new lines read as %d and %d runs", count["base"], count["new"], len(base), len(change))
		}
	})
}
