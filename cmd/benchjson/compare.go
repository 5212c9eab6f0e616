package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readJSON decodes the JSON file at path into the value into points at.
func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// `benchjson -compare old.json new.json` reads two kernel-benchmark
// files such as BENCH_opt.json back and prints, per benchmark in both,
// time/op and allocs/op of the new file against the old with pair's
// noise verdict. It exits 1 on a regression that is not noise: a slower
// mean whose ~95 % interval clears the old one's, or more allocations
// an operation than allocSlack allows. `make bench` ends with it
// against the committed file.

// allocSlack is how many more objects an operation may allocate before
// it is a regression: max(2, 0.1 %) of the old count. At -benchtime 1x an
// allocs/op is a single operation's count and carries a handful of the
// runtime's own objects — BenchmarkTableII read 80 752, 80 739 and
// 80 777 in three runs of one binary — while a code change that adds an
// object per net or per instance adds far more.
func allocSlack(old float64) float64 { return max(2, old/1000) }

// compareKernels prints the comparison and returns the number of
// non-noise regressions.
func compareKernels(w io.Writer, old, new *summary) (regressions int) {
	was := map[string]*entry{}
	for _, e := range old.Benchmarks {
		was[e.Name] = e
	}
	for _, e := range new.Benchmarks {
		o := was[e.Name]
		if o == nil {
			fmt.Fprintf(w, "%-44s only in the new file\n", e.Name)
			continue
		}
		delete(was, e.Name)
		p := pair(e, o)
		if p == nil {
			fmt.Fprintf(w, "%-44s no time/op in the old file\n", e.Name)
			continue
		}
		// Allocations are judged where both files report them.
		oa, both := o.Metrics["allocs/op"]
		na, ok := e.Metrics["allocs/op"]
		both = both && ok
		verdict := "faster"
		switch {
		case both && na-oa > allocSlack(oa):
			verdict = "MORE ALLOCS"
			regressions++
		case p.Noise:
			verdict = "noise"
		case p.Ratio > 1:
			verdict = "SLOWER"
			regressions++
		case p.Ratio == 1:
			verdict = "same"
		}
		mem := ""
		if both {
			mem = fmt.Sprintf("  allocs/op %g → %g", oa, na)
		}
		fmt.Fprintf(w, "%-44s %12.4g → %-12.4g ns/op %+7.1f %%  (cv %.1f %% → %.1f %%)%s  %s\n",
			e.Name, o.MeanNsOp, e.MeanNsOp, 100*(p.Ratio-1), 100*o.CV, 100*e.CV, mem, verdict)
	}
	for _, o := range old.Benchmarks {
		if was[o.Name] != nil {
			fmt.Fprintf(w, "%-44s only in the old file\n", o.Name)
		}
	}
	return regressions
}
