package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"macro3d/internal/report"
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
	if p.Ratio != 1 {
		t.Fatalf("ratio = %v, want 1", p.Ratio)
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

// benchOut is an excerpt of `go test -bench -benchmem -count 2` output
// as `make bench` pipes it: header and trailer lines, a sub-benchmark
// with its GOMAXPROCS suffix, custom metrics and a time in e+ notation.
const benchOut = `goos: linux
goarch: amd64
pkg: macro3d
cpu: Intel(R) Xeon(R) Processor
BenchmarkGenerate/piton_small-2   	       1	  41551286 ns/op	     29251 instances	 8917840 B/op	     281 allocs/op
BenchmarkPlace-2         	       1	 217282797 ns/op	         1.935 HPWL_m	       114.0 iters/op	 4065248 B/op	     162 allocs/op
BenchmarkGenerate/piton_small-2   	       1	  39551286 ns/op	     29251 instances	 8917840 B/op	     283 allocs/op
BenchmarkRouteDesign-2   	       1	 2.09076358e+08 ns/op	         2.093 WL_m	         1.000 overflow	     88887 segs	     65351 via_cuts	 6126304 B/op	     144 allocs/op
--- BENCH: BenchmarkTableII-2
    bench_test.go:42: Benchmark table
PASS
ok  	macro3d	0.798s
`

// TestParseBench: every result line becomes a run of an entry named
// without its GOMAXPROCS suffix, in first-seen order; custom metrics,
// B/op and allocs/op land in Metrics (the last run's value); an e+ time
// parses; and no other line yields an entry.
func TestParseBench(t *testing.T) {
	s, err := parseBench(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range s.Benchmarks {
		names = append(names, e.Name)
	}
	if want := []string{"BenchmarkGenerate/piton_small", "BenchmarkPlace", "BenchmarkRouteDesign"}; !slices.Equal(names, want) {
		t.Fatalf("names = %q, want %q", names, want)
	}
	gen, pl, rt := s.Benchmarks[0], s.Benchmarks[1], s.Benchmarks[2]
	if gen.RunsCount != 2 || gen.MeanNsOp != 40551286 || gen.BestNsOp != 39551286 || gen.StddevNs == 0 {
		t.Errorf("BenchmarkGenerate/piton_small: %+v", gen)
	}
	if gen.Metrics["allocs/op"] != 283 || gen.Metrics["B/op"] != 8917840 || gen.Metrics["instances"] != 29251 {
		t.Errorf("BenchmarkGenerate/piton_small metrics = %v", gen.Metrics)
	}
	if pl.Metrics["iters/op"] != 114 || pl.Metrics["HPWL_m"] != 1.935 || pl.Metrics["allocs/op"] != 162 {
		t.Errorf("BenchmarkPlace metrics = %v", pl.Metrics)
	}
	if rt.Runs[0] != 209076358 || rt.Metrics["segs"] != 88887 || rt.Metrics["via_cuts"] != 65351 || rt.Metrics["overflow"] != 1 {
		t.Errorf("BenchmarkRouteDesign: runs %v, metrics %v", rt.Runs, rt.Metrics)
	}
	for _, e := range s.Benchmarks {
		if _, ok := e.Metrics["ns/op"]; ok {
			t.Errorf("%s: ns/op among the metrics", e.Name)
		}
	}
	if s, err := parseBench(strings.NewReader("PASS\nok  \tmacro3d\t0.1s\n")); err != nil || len(s.Benchmarks) != 0 {
		t.Fatalf("no result lines: %+v, %v", s, err)
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
func qorPair(old, new []float64) (*report.QoRFile, *report.QoRFile) {
	mk := func(fclk []float64) *report.QoRFile {
		f := &report.QoRFile{Cells: []*report.Series{{Flow: "2d", Tile: "piton_small", FclkMHz: fclk,
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
