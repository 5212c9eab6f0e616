package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"macro3d/internal/flows"
)

func TestSumOfMinsTakesFastestExecutionPerStep(t *testing.T) {
	samples := [][]float64{
		{2.0, 1.5, 9.0}, // step 0: disturbed in rep 2
		{4.0, 7.0, 3.5}, // step 1: disturbed in rep 1
	}
	if got := sumOfMins(samples); got != 5.0 {
		t.Errorf("sumOfMins = %v, want 1.5+3.5", got)
	}
	// No single rep was undisturbed: the estimator beats every rep total.
	totals := repTotals(samples)
	if want := []float64{6, 8.5, 12.5}; !reflect.DeepEqual(totals, want) {
		t.Errorf("repTotals = %v, want %v", totals, want)
	}
	if median(totals) != 8.5 || maxOf(totals) != 12.5 {
		t.Errorf("median %v max %v", median(totals), maxOf(totals))
	}
	if got := sumOfMins([][]float64{{1}, nil}); got != 1 {
		t.Errorf("a step with no sample must add nothing, got %v", got)
	}
}

func TestGeomeanSkipsStepsWithoutTheFigure(t *testing.T) {
	if got := geomean([]float64{4, 0, 9}); math.Abs(got-6) > 1e-12 {
		t.Errorf("geomean = %v, want 6", got)
	}
	if geomean(nil) != 0 {
		t.Error("geomean of nothing must be 0")
	}
}

// The acceptance driver takes spreads from Python's
// statistics.quantiles(values, n=4); these are its results.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestWorseByFollowsTheMetricsDirection(t *testing.T) {
	if got := worseBy(10, 11, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10→11: %v, want +0.1", got)
	}
	if got := worseBy(400, 380, "higher"); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("higher-is-better 400→380: %v, want +0.05", got)
	}
	if got := worseBy(400, 420, "higher"); got >= 0 {
		t.Errorf("an improvement must read negative, got %v", got)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "rep", Start: 0, End: 10, Parent: -1},
		{ID: 1, Name: "step", Step: "a", Start: 1, End: 9, Parent: 0},
		{ID: 2, Name: "place", Step: "a", Start: 1, End: 4, Parent: 1},
		{ID: 3, Name: "pseudo-route", Step: "a", Start: 4.5, End: 8, Parent: 1},
	}
	self := selfTimes(spans)
	if want := []float64{2, 1.5, 3, 3.5}; !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	layer := map[string]float64{}
	foldSpans(spans, layer)
	if layer["place.s"] != 3 || layer["route.s"] != 3.5 {
		t.Errorf("stage spans booked wrongly: %v", layer)
	}
	if layer["flows.unattributed_s"] != 1.5 || layer["flows.unattributed_ratio"] != 1.5/8 {
		t.Errorf("unattributed = %v of 8 s step", layer["flows.unattributed_s"])
	}
}

func TestCacheLoadsAreNotBookedOnTheLayerTheyReplace(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "step", Step: "a", Start: 0, End: 2, Parent: -1},
		{ID: 1, Name: cacheLoad + "route", Step: "a", Start: 0, End: 1, Parent: 0},
		{ID: 2, Name: "sta", Step: "a", Start: 1, End: 2, Parent: 0},
	}
	layer := map[string]float64{}
	foldSpans(spans, layer)
	if layer["route.s"] != 0 || layer["sta.s"] != 1 {
		t.Errorf("layer = %v", layer)
	}
}

func TestJudgeFailsStepsThatErrDriftOrBreakTheShape(t *testing.T) {
	ok := func(fclk float64, digest string) *outcome {
		return &outcome{qor: qor{fclk, 1, 1}, digest: digest, ppa: &flows.PPA{}}
	}
	pr := &prepared{
		steps: []step{{name: "2d"}, {name: "macro3d"}},
		check: func(out []*outcome) { macro3dBeats2D(out, 0, 1) },
	}
	ref := make([]*outcome, 2)
	var log bytes.Buffer
	if n := judge(pr, []*outcome{ok(300, "a"), ok(400, "b")}, ref, "rep 0", &log); n != 0 {
		t.Fatalf("clean rep: %d failed\n%s", n, log.String())
	}
	if n := judge(pr, []*outcome{ok(300, "a"), ok(400, "B")}, ref, "rep 1", &log); n != 1 {
		t.Errorf("a result that differs from the first must fail its step, %d failed", n)
	}
	if n := judge(pr, []*outcome{nil, ok(400, "b")}, ref, "rep 2", &log); n != 1 {
		t.Errorf("a step that returned an error must count as failed, %d failed", n)
	}
	if n := judge(pr, []*outcome{ok(300, "a"), ok(math.NaN(), "b")}, ref, "rep 3", &log); n != 1 {
		t.Errorf("a non-finite QoR must fail its step, %d failed", n)
	}
	if n := judge(pr, []*outcome{ok(400, "a"), ok(300, "b")}, make([]*outcome, 2), "rep 0", &log); n != 1 {
		t.Errorf("Macro-3D below 2D must fail the Macro-3D step, %d failed", n)
	}
}

// BENCHMARK.json is the program's own tables, within the limits the
// acceptance driver refuses a file outside of.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file, prog any
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &prog); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, prog) {
		t.Error("BENCHMARK.json differs from `flowbench -manifest`; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("why of %s: %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", d.Name, d.Unit, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

// The smoke run: all four workloads on the tiny tile, untraced and
// traced, through the same code path a real run takes.
func TestSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs flows")
	}
	out := t.TempDir()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: wl.name, seed: 7, seconds: 0.2, trace: trace, size: "tiny", out: out}, os.Stderr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minReps*2 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", wl.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", wl.name, trace, d.Name, v, ok)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, d.Name, v.Value)
				}
			}
			if !trace {
				continue
			}
			get := func(n string) float64 { return res.Metrics[n].Value }
			switch wl.name {
			case "table2":
				if r := get("flows.unattributed_ratio"); r > 0.10 {
					t.Errorf("table2: %.1f%% of the traced steps' wall is in no stage span", 100*r)
				}
				if get("route.parallel_over_serial") <= 0 || get("route.nets_routed") <= 0 || get("opt.iterations") <= 0 {
					t.Errorf("table2: route kernel pair or layer counts missing: %v", res.Metrics)
				}
			case "baselines-j1":
				if get("partition.s") <= 0 {
					t.Error("baselines-j1: no partition time")
				}
			case "table2-warm":
				if get("stash.hit_ratio") != 1 || get("flows.cached_stages") <= 0 || get("stash.puts") <= 0 {
					t.Errorf("table2-warm: hit ratio %v, cached stages %v, puts %v", get("stash.hit_ratio"), get("flows.cached_stages"), get("stash.puts"))
				}
				if get("place.s")+get("route.s")+get("opt.s")+get("extract.s") != 0 {
					t.Error("table2-warm: place, route or signoff was recomputed")
				}
			case "array-verify":
				if get("flows.flat_verify_s") <= 0 || get("piton.abut_s") <= 0 || get("piton.array_instances") <= 0 {
					t.Errorf("array-verify: array layers missing: %v", res.Metrics)
				}
			}
			var spans []span
			raw, err := os.ReadFile(filepath.Join(out, "trace-"+wl.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &spans); err != nil || len(spans) < 3 {
				t.Errorf("%s: trace file: %d spans, %v", wl.name, len(spans), err)
			}
			for _, s := range spans {
				if s.Workload != wl.name || s.End < s.Start || s.Parent >= s.ID {
					t.Errorf("%s: malformed span %+v", wl.name, s)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "scratch-*")); len(left) > 0 {
		t.Errorf("scratch state left behind: %v", left)
	}
}
