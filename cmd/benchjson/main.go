// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON summary on stdout. `make bench` pipes the
// optimizer and design-construction benchmarks through it to produce
// BENCH_opt.json, recorded alongside the repo.
//
// Usage:
//
//	go test -bench 'TableII|Optimize' -count 5 -run '^$' . | benchjson
//	go test -bench StashSweep -run '^$' . | benchjson -o BENCH_stash.json
//
// With -o the summary is written to the file via a same-directory
// temporary and an atomic rename, so a failed run never leaves a
// truncated JSON behind.
//
// With -ledger it instead appends one row of flow-ledger results to
// BENCH_flow.json (see ledger.go); `make bench-flow` does, and then
// compares the row with the one before it (-compare, see compare.go).
// Without -ledger, -compare takes two of its own summaries — kernel
// benchmark files such as BENCH_route.json — and judges the second
// against the first.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// line shape: BenchmarkName-8   3   123456789 ns/op   12 extra/op ...
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.e+]+) ns/op(.*)$`)
var metricRe = regexp.MustCompile(`([0-9.e+-]+) (\S+)`)

type entry struct {
	Name      string             `json:"name"`
	Runs      []float64          `json:"ns_per_op"`
	MeanNsOp  float64            `json:"mean_ns_per_op"`
	BestNsOp  float64            `json:"best_ns_per_op"`
	StddevNs  float64            `json:"stddev_ns_per_op"` // sample stddev; 0 with <2 runs
	CV        float64            `json:"cv"`               // stddev/mean — run-to-run noise level
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	RunsCount int                `json:"runs"`
}

// pairStats qualifies one speedup ratio. Ratio compares the means;
// Noise reports whether the two sides' ~95% confidence intervals
// (mean ± 1.96·stddev/√n) overlap — an overlapping pair means the
// measured difference is not distinguishable from run-to-run variance,
// so the ratio should be read as ~1× regardless of its nominal value.
type pairStats struct {
	Ratio     float64 `json:"ratio"`
	BestRatio float64 `json:"best_ratio"` // best-over-best, noise floor
	Noise     bool    `json:"noise"`
	NumCV     float64 `json:"numerator_cv"`
	DenCV     float64 `json:"denominator_cv"`
}

type summary struct {
	Benchmarks []*entry           `json:"benchmarks"`
	Speedup    map[string]float64 `json:"speedup,omitempty"`

	// SpeedupStats carries, per Speedup key, the confidence view of the
	// same ratio: is it real or inside the noise band?
	SpeedupStats map[string]*pairStats `json:"speedup_stats,omitempty"`

	// Env pins the measurement environment the engine benchmarks
	// report: gomaxprocs, the pinned worker count, the flat array size.
	Env map[string]float64 `json:"env,omitempty"`

	// Parallelism lifts the execution-trace metrics the engine
	// benchmarks report (per-phase worker occupancy, serial fraction,
	// Amdahl ceiling at the pinned worker count, critical-path speedup)
	// to the top level, keyed "<metric>/<variant>", e.g.
	// "route_occupancy/parallel" or "place_cp_speedup/flat_parallel".
	Parallelism map[string]float64 `json:"parallelism,omitempty"`
}

// finalize computes the derived statistics from Runs. Every divisor is
// guarded: a single run leaves StddevNs, CV (and later ci) at zero
// rather than NaN, and a zero mean leaves CV at zero. `go test -bench X
// -count 1` is the common case, so n=1 must produce a clean summary.
func (e *entry) finalize() {
	e.RunsCount = len(e.Runs)
	if e.RunsCount == 0 {
		return
	}
	best := e.Runs[0]
	sum := 0.0
	for _, v := range e.Runs {
		sum += v
		if v < best {
			best = v
		}
	}
	e.MeanNsOp = sum / float64(e.RunsCount)
	e.BestNsOp = best
	if n := e.RunsCount; n >= 2 {
		var ss float64
		for _, v := range e.Runs {
			d := v - e.MeanNsOp
			ss += d * d
		}
		e.StddevNs = math.Sqrt(ss / float64(n-1))
		if e.MeanNsOp > 0 {
			e.CV = e.StddevNs / e.MeanNsOp
		}
	}
}

// ci returns the half-width of the ~95% confidence interval of the
// mean under a normal approximation. Zero with fewer than two runs.
func (e *entry) ci() float64 {
	if e.RunsCount < 2 {
		return 0
	}
	return 1.96 * e.StddevNs / math.Sqrt(float64(e.RunsCount))
}

// pair builds the qualified ratio num.Mean/den.Mean, or nil when the
// denominator mean is not positive (a zero-mean entry would otherwise
// put ±Inf/NaN in the JSON). Noise — the two ~95% confidence intervals
// overlapping — is only meaningful when both sides carry a spread, so
// pairs where either side has fewer than two runs are never flagged:
// with a single run the point estimate is all there is to trust.
func pair(num, den *entry) *pairStats {
	if den.MeanNsOp <= 0 {
		return nil
	}
	p := &pairStats{Ratio: num.MeanNsOp / den.MeanNsOp, NumCV: num.CV, DenCV: den.CV}
	if den.BestNsOp > 0 {
		p.BestRatio = num.BestNsOp / den.BestNsOp
	}
	if num.RunsCount >= 2 && den.RunsCount >= 2 {
		nLo, nHi := num.MeanNsOp-num.ci(), num.MeanNsOp+num.ci()
		dLo, dHi := den.MeanNsOp-den.ci(), den.MeanNsOp+den.ci()
		p.Noise = nLo <= dHi && dLo <= nHi
	}
	return p
}

func main() {
	outPath := flag.String("o", "", "write the JSON summary to this file (atomically) instead of stdout")
	ledgerPath := flag.String("ledger", "", "append a flow-ledger row to this file: stdin carries one bench/run.sh line per workload named as an argument")
	commit := flag.String("commit", "", "with -ledger: the commit the row was measured at")
	compare := flag.Bool("compare", false, "with -ledger: compare the row named last with the row named before it (or the row before it in the file), exit 1 when a deterministic gated metric is worse than its bound; without: compare two summary files old.json new.json, exit 1 on a regression that is not noise")
	manifestPath := flag.String("manifest", "BENCHMARK.json", "with -compare: the benchmark declaration the bounds are read from")
	flag.Parse()
	if *compare && *ledgerPath == "" {
		var old, new summary
		if flag.NArg() != 2 {
			fmt.Fprintf(os.Stderr, "benchjson: -compare without -ledger takes old.json new.json, got %d arguments\n", flag.NArg())
			os.Exit(2)
		}
		err := readJSON(flag.Arg(0), &old)
		if err == nil {
			err = readJSON(flag.Arg(1), &new)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if n := compareKernels(os.Stdout, &old, &new); n > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond noise\n", n)
			os.Exit(1)
		}
		return
	}
	if *compare {
		var l ledger
		var m manifest
		err := readJSON(*ledgerPath, &l)
		if err == nil {
			err = readJSON(*manifestPath, &m)
		}
		rows := flag.Args()
		if err == nil && (len(rows) < 1 || len(rows) > 2) {
			err = fmt.Errorf("-compare takes one or two row names, got %d", len(rows))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		a, b := "", rows[len(rows)-1]
		if len(rows) == 2 {
			a = rows[0]
		}
		worse, err := compareRows(os.Stdout, &l, &m, a, b)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if worse > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d deterministic metric(s) worse than their bound\n", worse)
			os.Exit(1)
		}
		return
	}
	if *ledgerPath != "" {
		row, err := ledgerRowFrom(os.Stdin, *commit, flag.Args())
		if err == nil {
			err = appendLedger(*ledgerPath, row)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	byName := map[string]*entry{}
	var order []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		e := byName[name]
		if e == nil {
			e = &entry{Name: name, Metrics: map[string]float64{}}
			byName[name] = e
			order = append(order, name)
		}
		e.Runs = append(e.Runs, ns)
		for _, mm := range metricRe.FindAllStringSubmatch(m[4], -1) {
			if mm[2] == "ns/op" {
				continue
			}
			if v, err := strconv.ParseFloat(mm[1], 64); err == nil {
				e.Metrics[mm[2]] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	out := &summary{Speedup: map[string]float64{}}
	for _, name := range order {
		e := byName[name]
		e.finalize()
		if len(e.Metrics) == 0 {
			e.Metrics = nil
		}
		out.Benchmarks = append(out.Benchmarks, e)
	}
	// Worker-count ratios (`make bench-route`): the serial reference
	// over the same engine at the pinned worker count. Results are
	// bit-identical on both sides, so >1 is pure scheduling win. Every
	// ratio carries a SpeedupStats twin with the noise verdict.
	out.SpeedupStats = map[string]*pairStats{}
	for _, pr := range [][3]string{
		{"BenchmarkRouteDesign/serial", "BenchmarkRouteDesign/parallel", "route_serial_over_parallel"},
		{"BenchmarkPlace/serial", "BenchmarkPlace/parallel", "place_serial_over_parallel"},
		{"BenchmarkRouteFlat/serial", "BenchmarkRouteFlat/parallel", "flat_route_serial_over_parallel"},
		{"BenchmarkPlaceFlat/serial", "BenchmarkPlaceFlat/parallel", "flat_place_serial_over_parallel"},
	} {
		ser, okS := byName[pr[0]]
		par, okP := byName[pr[1]]
		if okS && okP {
			if p := pair(ser, par); p != nil {
				out.Speedup[pr[2]] = p.Ratio
				out.SpeedupStats[pr[2]] = p
			}
		}
	}
	if len(out.SpeedupStats) == 0 {
		out.SpeedupStats = nil
	}
	// Stage-cache ratio (`make bench-stash`): the same sweep cold
	// (populating the cache) versus warm (restoring every checkpoint).
	cold, okC := byName["BenchmarkStashSweep/cold"]
	if warm, ok := byName["BenchmarkStashSweep/warm"]; ok && okC && warm.MeanNsOp > 0 {
		out.Speedup["stash_cold_over_warm"] = cold.MeanNsOp / warm.MeanNsOp
	}
	// Hierarchical ratio (BenchmarkHardenArray): the same 4×4 tile
	// array re-verified flat versus instantiated from a cached
	// hardened abstract in the parent flow.
	flat, okF := byName["BenchmarkHardenArray/flat"]
	if hier, ok := byName["BenchmarkHardenArray/hier"]; ok && okF && hier.MeanNsOp > 0 {
		out.Speedup["harden_flat_over_hier"] = flat.MeanNsOp / hier.MeanNsOp
	}
	if len(out.Speedup) == 0 {
		out.Speedup = nil
	}
	// Parallelism rollup (`make bench-route`): the traced engines'
	// occupancy / serial-fraction / Amdahl numbers explain the speedup
	// ratios above, so they ride along at the top level.
	out.Parallelism = map[string]float64{}
	out.Env = map[string]float64{}
	for _, vp := range [][2]string{
		{"BenchmarkRouteDesign/serial", "serial"},
		{"BenchmarkRouteDesign/parallel", "parallel"},
		{"BenchmarkPlace/serial", "serial"},
		{"BenchmarkPlace/parallel", "parallel"},
		{"BenchmarkRouteFlat/serial", "flat_serial"},
		{"BenchmarkRouteFlat/parallel", "flat_parallel"},
		{"BenchmarkPlaceFlat/serial", "flat_serial"},
		{"BenchmarkPlaceFlat/parallel", "flat_parallel"},
	} {
		e := byName[vp[0]]
		if e == nil {
			continue
		}
		for k, v := range e.Metrics {
			switch {
			case strings.HasSuffix(k, "_occupancy"), strings.HasSuffix(k, "_serial_frac"),
				strings.HasSuffix(k, "_amdahl_atW"), strings.HasSuffix(k, "_cp_speedup"):
				out.Parallelism[k+"/"+vp[1]] = v
			case k == "gomaxprocs" || k == "array_n":
				out.Env[k] = v
			case k == "workers" && !strings.HasSuffix(vp[0], "/serial"):
				out.Env[k] = v
			}
		}
	}
	if len(out.Parallelism) == 0 {
		out.Parallelism = nil
	}
	if len(out.Env) == 0 {
		out.Env = nil
	}
	if err := write(*outPath, out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// write emits the JSON document to stdout, or — with a path —
// atomically via a sibling temporary file and rename.
func write(path string, out any) error {
	emit := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	if path == "" {
		return emit(os.Stdout)
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = emit(f)
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}
