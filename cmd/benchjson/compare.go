package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// `benchjson -ledger BENCH_flow.json -compare [rowA] rowB` reads two
// rows of the flow ledger back and prints, per workload, the gated
// end-to-end metrics of rowB against rowA (one name: against the row
// before it) with the bound BENCHMARK.json puts on each. It exits 1 when
// a deterministic metric is worse than its bound — the N = 1 check
// `make bench-flow` ends with. The acceptance driver's verdict rests on
// ten pairs; one pair can only judge what repeats exactly.

// manifest is the part of BENCHMARK.json the comparison reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gate `json:"end_to_end"`
	// PerLayer are the metrics of a traced run (--trace 1): none has a
	// bound.
	PerLayer []gate `json:"per_layer"`
}

// gate is one gated end-to-end metric: which way is better, and the
// fraction of the old value by which the new one may be worse.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// deterministic names the gated metrics one pair of runs can judge:
// the heap counts repeat to 0.001 % and the QoR figures to the last
// digit. Peak RSS and set-up time are printed and never fail a single
// pair.
var deterministic = map[string]bool{
	"alloc_gb": true, "mallocs_m": true, "fclk_mhz": true, "wl_m": true, "emean_fj": true,
}

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

// worseBy is how much worse now is than was, as a fraction of was, in
// the gate's direction; negative when it is better.
func (g gate) worseBy(was, now float64) float64 {
	if was == 0 {
		return 0
	}
	if g.Better == "higher" {
		return (was - now) / was
	}
	return (now - was) / was
}

// compareRows prints the comparison of ledger rows a and b (a empty:
// the row before b) and returns the number of deterministic metrics
// that are worse than their bound.
func compareRows(w io.Writer, l *ledger, m *manifest, a, b string) (worse int, err error) {
	find := func(commit string) int {
		for i := range l.Rows {
			if l.Rows[i].Commit == commit {
				return i
			}
		}
		return -1
	}
	ib := find(b)
	if ib < 0 {
		return 0, fmt.Errorf("no ledger row %q", b)
	}
	ia := ib - 1
	if a != "" {
		ia = find(a)
	}
	if ia < 0 {
		return 0, fmt.Errorf("no ledger row %q to compare %q with", a, b)
	}
	ra, rb := l.Rows[ia], l.Rows[ib]
	fmt.Fprintf(w, "%s → %s\n", ra.Commit, rb.Commit)
	for _, wl := range m.Workloads {
		ma, mb := ra.Workloads[wl.Name], rb.Workloads[wl.Name]
		if ma == nil || mb == nil {
			fmt.Fprintf(w, "%s: not in both rows\n", wl.Name)
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, g := range m.EndToEnd {
			was, now := ma[g.Name], mb[g.Name]
			by := g.worseBy(was, now)
			verdict := "ok"
			switch {
			case !deterministic[g.Name]:
				verdict = "not judged on one pair"
			case by > g.Bound:
				verdict = "WORSE"
				worse++
			case was == now:
				verdict = "same"
			}
			fmt.Fprintf(w, "  %-12s %14.6g → %-14.6g %+8.2f %%  (%s better, bound %g %%)  %s\n",
				g.Name, was, now, 100*(now-was)/nonZero(was), g.Better, 100*g.Bound, verdict)
		}
	}
	return worse, nil
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// `benchjson -compare old.json new.json` (no -ledger) reads two
// kernel-benchmark files such as BENCH_opt.json back and prints, per
// benchmark in both, time/op and allocs/op of the new file against the
// old with pair's noise verdict. It exits 1 on a regression that is not
// noise: a slower mean whose ~95 % interval clears the old one's, or
// more allocations an operation than allocSlack allows. `make bench`
// ends with it against the committed file.

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
