// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON summary on stdout. `make bench` pipes its
// kernel benchmarks through it to produce BENCH_opt.json, recorded
// alongside the repo.
//
// Usage:
//
//	go test -bench 'TableII|Optimize' -benchmem -count 5 -run '^$' . | benchjson
//	go test -bench . -benchmem -run '^$' ./internal/place | benchjson -o place.json
//
// With -o the summary is written to the file via a same-directory
// temporary and an atomic rename, so a failed run never leaves a
// truncated JSON behind.
//
// Without -pairs, -compare takes two of its own summaries — kernel
// benchmark files such as BENCH_opt.json — and judges the second
// against the first (see compare.go), or two BENCH_qor.json seed
// ensembles, which it holds to a paired-seed sign test (see qor.go).
//
// With -pairs it judges interleaved runs of two builds of the flow
// ledger, ten pairs or more, metric by metric, and with -ledger also
// appends the verdict table as a row to BENCH_pairs.json (see
// pairs.go); `make bench-pairs` runs them. -ledger without -pairs is a
// usage error.
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

// pairStats qualifies one time ratio. Ratio compares the means;
// Noise reports whether the two sides' ~95% confidence intervals
// (mean ± 1.96·stddev/√n) overlap — an overlapping pair means the
// measured difference is not distinguishable from run-to-run variance,
// so the ratio should be read as ~1× regardless of its nominal value.
type pairStats struct {
	Ratio float64
	Noise bool
}

type summary struct {
	Benchmarks []*entry `json:"benchmarks"`
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
	p := &pairStats{Ratio: num.MeanNsOp / den.MeanNsOp}
	if num.RunsCount >= 2 && den.RunsCount >= 2 {
		nLo, nHi := num.MeanNsOp-num.ci(), num.MeanNsOp+num.ci()
		dLo, dHi := den.MeanNsOp-den.ci(), den.MeanNsOp+den.ci()
		p.Noise = nLo <= dHi && dLo <= nHi
	}
	return p
}

func main() {
	outPath := flag.String("o", "", "write the JSON summary to this file (atomically) instead of stdout")
	ledgerPath := flag.String("ledger", "", "with -pairs: append the verdict table as a row to this file, the arguments naming the workload, the base revision and the change revision")
	compare := flag.Bool("compare", false, "compare two summary files old.json new.json, exit 1 on a regression that is not noise, or two BENCH_qor.json files, exit 1 when a metric is worse on nine seeds in ten")
	manifestPath := flag.String("manifest", "BENCHMARK.json", "with -pairs: the benchmark declaration the bounds are read from")
	pairs := flag.Bool("pairs", false, "judge interleaved runs of two builds: stdin carries one bench/run.sh line per run, prefixed by its side, base or new; exit 1 when a gated metric is a loss")
	flag.Parse()
	if *ledgerPath != "" && !*pairs {
		fmt.Fprintln(os.Stderr, "benchjson: -ledger records a verdict table and needs -pairs")
		os.Exit(2)
	}
	if *pairs {
		var m manifest
		err := readJSON(*manifestPath, &m)
		var base, change []map[string]float64
		if err == nil {
			base, change, err = readPairs(os.Stdin)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if *ledgerPath != "" {
			row, err := pairsRowFrom(&m, base, change, flag.Args())
			if err == nil {
				err = appendPairs(*ledgerPath, row)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(2)
			}
		}
		if n := comparePairs(os.Stdout, &m, base, change); n > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d gated metric(s) worse on nine pairs in ten\n", n)
			os.Exit(1)
		}
		return
	}
	if *compare {
		var old, new benchFile
		if flag.NArg() != 2 {
			fmt.Fprintf(os.Stderr, "benchjson: -compare takes old.json new.json, got %d arguments\n", flag.NArg())
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
		if old.Seeds != nil || new.Seeds != nil {
			worse, err := compareQoR(os.Stdout, &old.QoRFile, &new.QoRFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(2)
			}
			if worse > 0 {
				fmt.Fprintf(os.Stderr, "benchjson: %d QoR metric(s) worse on at least nine seeds in ten\n", worse)
				os.Exit(1)
			}
			return
		}
		if n := compareKernels(os.Stdout, &old.summary, &new.summary); n > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond noise\n", n)
			os.Exit(1)
		}
		return
	}
	out, err := parseBench(os.Stdin)
	if err == nil {
		err = write(*outPath, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBench reads `go test -bench` output: one entry per benchmark
// name, in first-seen order, with every run's ns/op and the last run's
// other metrics (B/op, allocs/op, custom units). The GOMAXPROCS suffix
// is dropped from the name and any line that is not a result is
// skipped.
func parseBench(r io.Reader) (*summary, error) {
	byName := map[string]*entry{}
	out := &summary{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		e := byName[m[1]]
		if e == nil {
			e = &entry{Name: m[1], Metrics: map[string]float64{}}
			byName[m[1]] = e
			out.Benchmarks = append(out.Benchmarks, e)
		}
		e.Runs = append(e.Runs, ns)
		for _, mm := range metricRe.FindAllStringSubmatch(m[4], -1) {
			if v, err := strconv.ParseFloat(mm[1], 64); err == nil {
				e.Metrics[mm[2]] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, e := range out.Benchmarks {
		e.finalize()
		if len(e.Metrics) == 0 {
			e.Metrics = nil
		}
	}
	return out, nil
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
