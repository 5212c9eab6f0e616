package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"

	"macro3d/internal/par"
)

// `benchjson -pairs` judges interleaved runs of two builds of the flow
// ledger, `make bench-pairs` style: stdin carries one line per run, the
// side ("base" or "new") then the JSON line bench/run.sh printed, and the
// i-th run of each side make pair i. Per gated end-to-end metric of
// BENCHMARK.json it prints each side's median [Q1–Q3], the pairs the
// change won (ties count for neither side) and a verdict:
//
//	gain       the change won ≥ 9/10 of the pairs and its median is
//	           better by more than the base's interquartile range
//	loss       the same rule the other way
//	no change  the medians lie within the base's IQR, that IQR is no
//	           wider than the metric's bound, and neither side won
//	           ≥ 9/10 of the pairs
//	unresolved anything else: the spread is too wide to tell, or the
//	           pairs moved one way by less than the base's spread
//
// Fewer than ten pairs never make a gain or a loss. It exits 1 on a loss.
//
// Runs of --trace 1 carry the per-layer metrics instead. Their times —
// every per-layer metric in seconds: bench.wall_s, bench.cpu_s and the
// stage times — are judged the same way, but none has a bound, so their
// no change needs only the medians within the base's IQR, and their
// losses are printed without failing.

// manifest is the part of BENCHMARK.json the pairs are judged by.
type manifest struct {
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

// flowLine is the part of a bench/run.sh output line the pairs read.
type flowLine struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// minPairs is the fewest pairs a gain or a loss may rest on.
const minPairs = 10

// readPairs reads the side-tagged run lines into each side's metrics,
// run by run.
func readPairs(in io.Reader) (base, change []map[string]float64, err error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for n := 1; sc.Scan(); n++ {
		side, js, _ := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if side == "" {
			continue
		}
		var l flowLine
		if err := json.Unmarshal([]byte(js), &l); err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", n, err)
		}
		if !l.Correct || l.Failed != 0 {
			return nil, nil, fmt.Errorf("line %d: %s run not correct (correct=%v failed=%d)", n, side, l.Correct, l.Failed)
		}
		m := make(map[string]float64, len(l.Metrics))
		for k, v := range l.Metrics {
			m[k] = v.Value
		}
		switch side {
		case "base":
			base = append(base, m)
		case "new":
			change = append(change, m)
		default:
			return nil, nil, fmt.Errorf("line %d: side %q is neither base nor new", n, side)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(base) == 0 || len(base) != len(change) {
		return nil, nil, fmt.Errorf("%d base and %d new runs: pairs need the same number of each, at least one", len(base), len(change))
	}
	return base, change, nil
}

// quartiles are a sample's first quartile, median and third quartile,
// interpolated between order statistics.
type quartiles struct{ q1, med, q3 float64 }

func quartilesOf(v []float64) quartiles {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return quartiles{at(0.25), at(0.5), at(0.75)}
}

// pairVerdict is one metric's judgement over the pairs.
type pairVerdict struct {
	base, change quartiles
	won, lost    int
	verdict      string
}

// judgePairs applies the rule of the pairs to one metric: base[i] and
// change[i] ran as pair i.
func judgePairs(g gate, base, change []float64) pairVerdict {
	v := pairVerdict{base: quartilesOf(base), change: quartilesOf(change)}
	for i := range base {
		switch by := g.worseBy(base[i], change[i]); {
		case by < 0:
			v.won++
		case by > 0:
			v.lost++
		}
	}
	// gap is how much worse the change's median is, in the metric's unit.
	gap := v.change.med - v.base.med
	if g.Better == "higher" {
		gap = -gap
	}
	iqr := v.base.q3 - v.base.q1
	n := len(base)
	// oneWay: the pairs moved together, which no change cannot be, even
	// when the medians part by less than the base's spread.
	oneWay := 10*max(v.won, v.lost) >= 9*n
	switch {
	case n >= minPairs && 10*v.won >= 9*n && -gap > iqr:
		v.verdict = "gain"
	case n >= minPairs && 10*v.lost >= 9*n && gap > iqr:
		v.verdict = "loss"
	case !oneWay && math.Abs(gap) <= iqr && (g.Bound == 0 || iqr <= g.Bound*math.Abs(v.base.med)):
		v.verdict = "no change"
	default:
		v.verdict = "unresolved"
	}
	return v
}

// judgedMetric is one metric's line of the verdict table: over n pairs,
// gated when it is an end-to-end metric of the manifest.
type judgedMetric struct {
	g     gate
	v     pairVerdict
	n     int
	gated bool
}

// judgeAll judges every gated metric both sides report, then every
// per-layer time (with no bound).
func judgeAll(m *manifest, base, change []map[string]float64) []judgedMetric {
	var out []judgedMetric
	for _, g := range m.EndToEnd {
		if v, n, ok := judgeMetric(g, base, change); ok {
			out = append(out, judgedMetric{g, v, n, true})
		}
	}
	for _, g := range m.PerLayer {
		if g.Unit != "s" {
			continue
		}
		g.Bound = 0
		if v, n, ok := judgeMetric(g, base, change); ok {
			out = append(out, judgedMetric{g, v, n, false})
		}
	}
	return out
}

// comparePairs prints the verdict table and returns the number of
// losses among the gated metrics.
func comparePairs(w io.Writer, m *manifest, base, change []map[string]float64) (losses int) {
	fmt.Fprintf(w, "%d pairs\n", len(base))
	fmt.Fprintf(w, "  %-22s %-36s %-36s %5s  %s\n", "metric", "base median [Q1–Q3]", "new median [Q1–Q3]", "won", "verdict")
	for _, j := range judgeAll(m, base, change) {
		bound := "no bound"
		if j.gated {
			bound = fmt.Sprintf("bound %g %%", 100*j.g.Bound)
			if j.v.verdict == "loss" {
				losses++
			}
		}
		printVerdict(w, j.g, j.v, j.n, bound)
	}
	return losses
}

// judgeMetric judges metric g over the pairs that report it on both
// sides; ok is false when none does, or every run reads 0 (a stage the
// workload does not run).
func judgeMetric(g gate, base, change []map[string]float64) (v pairVerdict, n int, ok bool) {
	var b, c []float64
	nonzero := false
	for i := range base {
		bv, okB := base[i][g.Name]
		cv, okC := change[i][g.Name]
		if okB && okC {
			b, c = append(b, bv), append(c, cv)
			nonzero = nonzero || bv != 0 || cv != 0
		}
	}
	if !nonzero {
		return v, 0, false
	}
	return judgePairs(g, b, c), len(b), true
}

func printVerdict(w io.Writer, g gate, v pairVerdict, n int, bound string) {
	q := func(q quartiles) string { return fmt.Sprintf("%.6g [%.6g–%.6g]", q.med, q.q1, q.q3) }
	fmt.Fprintf(w, "  %-22s %-36s %-36s %2d/%-2d  %s (%s better, %s)\n",
		g.Name, q(v.base), q(v.change), v.won, n, v.verdict, g.Better, bound)
}

// The verdict tables' committed record, BENCH_pairs.json: `make
// bench-pairs` appends its table as one row with
//
//	benchjson -pairs -ledger BENCH_pairs.json <workload> <base rev> <change rev> < runs.txt
//
// — the revisions the two sides were built from, the workload, the
// number of pairs, the host that ran them (go version, nproc,
// GOMAXPROCS; benchjson runs on it right after the runs) and, per judged
// metric, each side's median and quartiles, the pairs the change won and
// lost, and the verdict. A re-run of the same revisions, workload and
// kind of run (traced or not) replaces its row — unless the change is an
// uncommitted tree (`git describe --dirty`: "…-dirty"), which names no
// one tree: a second change at the same HEAD would take the first one's
// row, so a dirty row is never replaced.

type pairsLedger struct {
	Rows []pairsRow `json:"rows"`
}

type pairsRow struct {
	Base     string `json:"base"`
	Change   string `json:"change"`
	Workload string `json:"workload"`
	// Trace marks traced runs (TRACE=1): the times are judged too.
	Trace      bool          `json:"trace"`
	N          int           `json:"n"`
	Go         string        `json:"go"`
	NProc      int           `json:"nproc"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Metrics    []pairsMetric `json:"metrics"`
}

type pairsMetric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"` // 0: none
	Base    sideStats `json:"base"`
	New     sideStats `json:"new"`
	Won     int       `json:"won"`
	Lost    int       `json:"lost"`
	Pairs   int       `json:"pairs"`
	Verdict string    `json:"verdict"`
}

// sideStats is one side's median and interquartile range.
type sideStats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// pairsRowFrom is the verdict table comparePairs prints as a row; args
// name the workload, the base revision and the change revision.
func pairsRowFrom(m *manifest, base, change []map[string]float64, args []string) (pairsRow, error) {
	if len(args) != 3 {
		return pairsRow{}, fmt.Errorf("-pairs -ledger takes the workload, the base revision and the change revision, got %d arguments", len(args))
	}
	row := pairsRow{
		Workload: args[0], Base: args[1], Change: args[2], N: len(base),
		Go: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: par.Workers(0),
	}
	side := func(q quartiles) sideStats { return sideStats{q.med, q.q1, q.q3} }
	for _, j := range judgeAll(m, base, change) {
		row.Trace = row.Trace || !j.gated
		row.Metrics = append(row.Metrics, pairsMetric{
			Name: j.g.Name, Unit: j.g.Unit, Better: j.g.Better, Bound: j.g.Bound,
			Base: side(j.v.base), New: side(j.v.change),
			Won: j.v.won, Lost: j.v.lost, Pairs: j.n, Verdict: j.v.verdict,
		})
	}
	return row, nil
}

// appendPairs adds the row to the file at path (created when absent),
// replacing an earlier row of the same revisions, workload and kind; it
// refuses to replace one whose change is a dirty tree.
func appendPairs(path string, row pairsRow) error {
	var l pairsLedger
	if err := readJSON(path, &l); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	i := slices.IndexFunc(l.Rows, func(r pairsRow) bool {
		return r.Base == row.Base && r.Change == row.Change && r.Workload == row.Workload && r.Trace == row.Trace
	})
	switch {
	case i >= 0 && strings.HasSuffix(row.Change, "-dirty"):
		return fmt.Errorf("%s already holds a row of base %s, change %s, workload %s (trace %v): an uncommitted change names no one tree, so its row is not replaced; remove that row by hand to record this one",
			path, row.Base, row.Change, row.Workload, row.Trace)
	case i >= 0:
		l.Rows[i] = row
	default:
		l.Rows = append(l.Rows, row)
	}
	return write(path, &l)
}
