package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func ent(runs ...float64) *entry {
	e := &entry{Name: "b", Runs: runs, Metrics: map[string]float64{}}
	e.finalize()
	return e
}

// A single run — the `-count 1` common case — must yield clean zeros
// for the spread statistics, never NaN or Inf.
func TestFinalizeSingleRun(t *testing.T) {
	e := ent(100)
	if e.RunsCount != 1 || e.MeanNsOp != 100 || e.BestNsOp != 100 {
		t.Fatalf("basic stats wrong: %+v", e)
	}
	for _, v := range []float64{e.StddevNs, e.CV, e.ci()} {
		if v != 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("n=1 spread stat not a clean zero: stddev=%v cv=%v ci=%v",
				e.StddevNs, e.CV, e.ci())
		}
	}
}

func TestFinalizeMultiRun(t *testing.T) {
	e := ent(90, 110, 100)
	if e.MeanNsOp != 100 || e.BestNsOp != 90 {
		t.Fatalf("mean/best: %v/%v", e.MeanNsOp, e.BestNsOp)
	}
	if math.Abs(e.StddevNs-10) > 1e-9 {
		t.Fatalf("sample stddev = %v, want 10", e.StddevNs)
	}
	if math.Abs(e.CV-0.1) > 1e-9 {
		t.Fatalf("cv = %v, want 0.1", e.CV)
	}
	if e.ci() <= 0 {
		t.Fatalf("ci = %v, want positive with 3 runs", e.ci())
	}
}

// A zero mean (degenerate input) must leave CV at zero, not NaN.
func TestFinalizeZeroMean(t *testing.T) {
	e := ent(0, 0)
	if e.CV != 0 || math.IsNaN(e.CV) {
		t.Fatalf("zero-mean cv = %v", e.CV)
	}
}

func TestFinalizeEmpty(t *testing.T) {
	e := &entry{Name: "b"}
	e.finalize()
	if e.RunsCount != 0 || e.MeanNsOp != 0 || math.IsNaN(e.MeanNsOp) {
		t.Fatalf("empty entry: %+v", e)
	}
}

// A zero-mean denominator yields no pair at all — the old code put
// ±Inf in the ratio.
func TestPairZeroDenominator(t *testing.T) {
	if p := pair(ent(100), ent(0)); p != nil {
		t.Fatalf("pair against zero mean = %+v, want nil", p)
	}
}

// Two single-run entries with identical means must not be flagged as
// noise: with n=1 there is no spread to overlap, and the documented
// contract is to trust the point estimate. The old overlap test
// degenerated to mean-equality and returned Noise=true here.
func TestPairSingleRunNeverNoise(t *testing.T) {
	p := pair(ent(100), ent(100))
	if p == nil {
		t.Fatal("pair = nil")
	}
	if p.Noise {
		t.Fatal("n=1 pair flagged as noise")
	}
	if p.Ratio != 1 || p.BestRatio != 1 {
		t.Fatalf("ratios: %v / %v", p.Ratio, p.BestRatio)
	}
}

// With real spreads the overlap verdict still fires both ways.
func TestPairNoiseVerdict(t *testing.T) {
	overlapping := pair(ent(95, 105), ent(96, 106))
	if overlapping == nil || !overlapping.Noise {
		t.Fatalf("overlapping CIs not flagged: %+v", overlapping)
	}
	distinct := pair(ent(200, 201), ent(100, 101))
	if distinct == nil || distinct.Noise {
		t.Fatalf("well-separated CIs flagged as noise: %+v", distinct)
	}
	if math.Abs(distinct.Ratio-2.0) > 0.02 {
		t.Fatalf("ratio = %v, want ~2", distinct.Ratio)
	}
}

// TestLedgerAppend: a row is built from one run.sh line per named
// workload, appended to a new or existing ledger, replaces an earlier
// row of the same commit, and a failed or missing workload is an error
// that leaves the file alone.
func TestLedgerAppend(t *testing.T) {
	const line = `{"correct":true,"attempted":18,"failed":0,"metrics":{"alloc_gb":{"value":0.1,"unit":"GB"},"mallocs_m":{"value":%s,"unit":"1e6"}}}` + "\n"
	path := filepath.Join(t.TempDir(), "BENCH_flow.json")
	add := func(commit, mallocs string, workloads ...string) error {
		row, err := ledgerRowFrom(strings.NewReader(strings.Repeat(fmt.Sprintf(line, mallocs), 2)), commit, workloads)
		if err != nil {
			return err
		}
		return appendLedger(path, row)
	}
	read := func() ledger {
		var l ledger
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &l); err != nil {
			t.Fatal(err)
		}
		return l
	}
	if err := add("aaa", "0.8", "table2", "array-verify"); err != nil {
		t.Fatal(err)
	}
	if err := add("bbb", "0.4", "table2", "array-verify"); err != nil {
		t.Fatal(err)
	}
	if err := add("bbb", "0.3", "table2", "array-verify"); err != nil {
		t.Fatal(err)
	}
	l := read()
	if len(l.Rows) != 2 || l.Rows[0].Commit != "aaa" || l.Rows[1].Commit != "bbb" {
		t.Fatalf("rows = %+v", l.Rows)
	}
	if got := l.Rows[1].Workloads["array-verify"]["mallocs_m"]; got != 0.3 {
		t.Fatalf("re-run of a commit did not replace its row: mallocs_m = %v", got)
	}
	if l.Rows[0].Workloads["table2"]["alloc_gb"] != 0.1 || l.Rows[0].Go == "" || l.Rows[0].GoMaxProcs < 1 {
		t.Fatalf("row 0 = %+v", l.Rows[0])
	}
	if err := add("ccc", "0.2", "table2", "array-verify", "missing"); err == nil {
		t.Fatal("a workload without a result line was accepted")
	}
	bad := strings.NewReader(`{"correct":false,"failed":1,"metrics":{"alloc_gb":{"value":1}}}` + "\n")
	if _, err := ledgerRowFrom(bad, "ccc", []string{"table2"}); err == nil {
		t.Fatal("an incorrect run was accepted")
	}
	if len(read().Rows) != 2 {
		t.Fatal("a rejected row changed the ledger")
	}
}

// TestCompareRows: the comparison prints every gated metric of every
// workload of the manifest, counts a deterministic metric as worse only
// beyond its bound and in the direction the manifest says is worse,
// never counts peak RSS or set-up time, takes the row before when one
// name is given, and reports a missing row.
func TestCompareRows(t *testing.T) {
	var m manifest
	if err := json.Unmarshal([]byte(`{
		"workloads": [{"name": "table2"}, {"name": "array-verify"}],
		"end_to_end": [
			{"name": "mallocs_m", "unit": "1e6", "better": "lower", "bound": 0.03},
			{"name": "fclk_mhz", "unit": "MHz", "better": "higher", "bound": 0.02},
			{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
		]}`), &m); err != nil {
		t.Fatal(err)
	}
	row := func(commit string, mallocs, fclk, setup float64) ledgerRow {
		w := map[string]float64{"mallocs_m": mallocs, "fclk_mhz": fclk, "setup_s": setup}
		return ledgerRow{Commit: commit, Workloads: map[string]map[string]float64{"table2": w, "array-verify": w}}
	}
	l := &ledger{Rows: []ledgerRow{
		row("base", 0.100, 700, 0.01),
		row("better", 0.050, 720, 0.10),  // set-up ten times slower: printed, not judged
		row("inside", 0.0514, 707, 0.10), // +2.8 % objects, −1.8 % fclk against "better"
		row("worse", 0.0531, 692, 0.10),  // +3.3 % objects, −2.1 % fclk against "inside"
	}}
	for _, c := range []struct {
		a, b  string
		worse int
	}{
		{"base", "better", 0},
		{"", "better", 0},
		{"better", "inside", 0},
		{"", "worse", 4}, // both metrics, both workloads
		{"worse", "inside", 0},
		{"better", "base", 4},
	} {
		var out strings.Builder
		worse, err := compareRows(&out, l, &m, c.a, c.b)
		if err != nil || worse != c.worse {
			t.Fatalf("compare %q %q: %d worse, %v; want %d\n%s", c.a, c.b, worse, err, c.worse, out.String())
		}
		for _, want := range []string{"table2", "array-verify", "mallocs_m", "fclk_mhz", "setup_s", "not judged on one pair"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("compare %q %q: output lacks %q:\n%s", c.a, c.b, want, out.String())
			}
		}
		if got := strings.Count(out.String(), "WORSE"); got != c.worse {
			t.Fatalf("compare %q %q: %d lines marked WORSE, want %d", c.a, c.b, got, c.worse)
		}
	}
	for _, c := range [][2]string{{"", "base"}, {"nope", "better"}, {"base", "nope"}} {
		if _, err := compareRows(io.Discard, l, &m, c[0], c[1]); err == nil {
			t.Fatalf("compare %q %q: no error for a missing row", c[0], c[1])
		}
	}
}

// TestCompareKernels: two kernel-benchmark summaries compare benchmark
// by benchmark on time/op with pair's noise verdict and on allocs/op;
// only a slower mean outside the noise band or an allocation count up by
// more than max(2, 0.1 %) is a regression — a runtime object more at
// -benchtime 1x is not, twenty more on a thousand are — and a benchmark
// in one file only is named, not judged. The summaries go through JSON,
// as the files do.
func TestCompareKernels(t *testing.T) {
	sum := func(es map[string]*entry) *summary {
		var s summary
		for _, name := range []string{"Kernel", "Wobbly", "Slower", "Leaky", "Jitter", "Gone", "New"} {
			if e := es[name]; e != nil {
				e.Name = "Benchmark" + name
				s.Benchmarks = append(s.Benchmarks, e)
			}
		}
		b, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		var back summary
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		return &back
	}
	allocs := func(e *entry, n float64) *entry {
		e.Metrics = map[string]float64{"allocs/op": n}
		return e
	}
	old := sum(map[string]*entry{
		"Kernel": allocs(ent(1120, 1125, 1118, 1122, 1121), 0),
		"Wobbly": ent(900, 1100, 1000, 950, 1050),
		"Slower": ent(500, 502, 501, 499, 500),
		"Leaky":  allocs(ent(300, 301, 299, 300, 300), 1000),
		"Jitter": allocs(ent(300, 301, 299, 300, 300), 80752),
		"Gone":   ent(10, 11),
	})
	new := sum(map[string]*entry{
		"Kernel": allocs(ent(520, 522, 519, 521, 520), 0),     // ×0.46, clear of the noise
		"Wobbly": ent(950, 1150, 1050, 1000, 1100),            // +5 %, inside it
		"Slower": ent(550, 552, 551, 549, 550),                // +10 %, clear of it
		"Leaky":  allocs(ent(290, 291, 289, 290, 290), 1020),  // faster, 2 % more objects an op
		"Jitter": allocs(ent(300, 301, 299, 300, 300), 80753), // one runtime object more
		"New":    ent(7, 8),
	})
	var out strings.Builder
	if n := compareKernels(&out, old, new); n != 2 {
		t.Fatalf("%d regressions, want 2 (Slower, Leaky):\n%s", n, out.String())
	}
	for name, verdict := range map[string]string{
		"BenchmarkKernel": "faster", "BenchmarkWobbly": "noise", "BenchmarkSlower": "SLOWER",
		"BenchmarkLeaky": "MORE ALLOCS", "BenchmarkJitter": "noise",
		"BenchmarkGone": "only in the old file", "BenchmarkNew": "only in the new file",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			found = found || strings.HasPrefix(line, name+" ") && strings.HasSuffix(line, verdict)
		}
		if !found {
			t.Errorf("no line gives %s the verdict %q:\n%s", name, verdict, out.String())
		}
	}
	out.Reset()
	if n := compareKernels(&out, old, old); n != 0 || strings.Contains(out.String(), "SLOWER") {
		t.Fatalf("a file against itself: %d regressions\n%s", n, out.String())
	}
}

// qorPair is two one-series BENCH_qor.json files over ten seeds whose
// fclk moves from old to new; the other metrics tie.
func qorPair(old, new []float64) (*qorFile, *qorFile) {
	mk := func(fclk []float64) *qorFile {
		f := &qorFile{Cells: []qorSeries{{Flow: "2d", Tile: "piton_small", FclkMHz: fclk,
			WLm: make([]float64, len(fclk)), F2FBumps: make([]float64, len(fclk)), Overflow: make([]float64, len(fclk))}}}
		for i := range fclk {
			f.Seeds = append(f.Seeds, uint64(i+1))
		}
		return f
	}
	return mk(old), mk(new)
}

// TestQoRSignTest: a metric worse on nine seeds of ten fails the
// comparison, five better and five worse pass, and ties count neither
// way — nor in the sign test's p, which is exact and two-sided.
func TestQoRSignTest(t *testing.T) {
	base := []float64{700, 701, 702, 703, 704, 705, 706, 707, 708, 709}
	shift := func(by ...float64) []float64 {
		out := slices.Clone(base)
		for i := range out {
			out[i] += by[i]
		}
		return out
	}
	for _, c := range []struct {
		name                string
		new                 []float64
		better, worse, tied int
		fails               bool
	}{
		{"9/10 worse", shift(-1, -1, -1, -1, -1, -1, -1, -1, -1, 1), 1, 9, 0, true},
		{"5/5", shift(1, -1, 1, -1, 1, -1, 1, -1, 1, -1), 5, 5, 0, false},
		{"9 worse, 1 tied", shift(-1, -1, -1, -1, -1, -1, -1, -1, -1, 0), 0, 9, 1, true},
		{"8 worse, 2 tied", shift(-1, -1, -1, -1, -1, -1, -1, -1, 0, 0), 0, 8, 2, false},
		{"identical", base, 0, 0, 10, false},
	} {
		old, new := qorPair(base, c.new)
		var out strings.Builder
		worse, err := compareQoR(&out, old, new)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("fclk_mhz   better %2d  worse %2d  tied %2d  p %.4f", c.better, c.worse, c.tied, signTest(c.better, c.worse))
		if (worse > 0) != c.fails || !strings.Contains(out.String(), want) {
			t.Errorf("%s: %d worse (fails %v), output\n%s\nwant a line with %q", c.name, worse, c.fails, out.String(), want)
		}
	}
	for _, c := range []struct {
		better, worse int
		p             float64
	}{
		{0, 0, 1}, {5, 5, 1}, {0, 10, 2.0 / 1024}, {1, 9, 2 * 11.0 / 1024}, {0, 8, 2.0 / 256}, {9, 0, 2.0 / 512},
	} {
		if p := signTest(c.better, c.worse); math.Abs(p-c.p) > 1e-15 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.better, c.worse, p, c.p)
		}
	}
	old, new := qorPair(base, base)
	new.Seeds[0] = 11
	if _, err := compareQoR(io.Discard, old, new); err == nil {
		t.Error("files over different seeds compared")
	}
}
