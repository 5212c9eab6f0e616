package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
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
//	no change  the medians lie within the base's IQR, and that IQR is
//	           no wider than the metric's bound
//	unresolved anything else: the spread is too wide to tell
//
// Fewer than ten pairs never make a gain or a loss. It exits 1 on a loss.

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
	switch {
	case n >= minPairs && 10*v.won >= 9*n && -gap > iqr:
		v.verdict = "gain"
	case n >= minPairs && 10*v.lost >= 9*n && gap > iqr:
		v.verdict = "loss"
	case math.Abs(gap) <= iqr && iqr <= g.Bound*math.Abs(v.base.med):
		v.verdict = "no change"
	default:
		v.verdict = "unresolved"
	}
	return v
}

// comparePairs prints the judgement of every gated metric both sides
// report and returns the number of losses.
func comparePairs(w io.Writer, m *manifest, base, change []map[string]float64) (losses int) {
	fmt.Fprintf(w, "%d pairs\n", len(base))
	fmt.Fprintf(w, "  %-12s %-36s %-36s %5s  %s\n", "metric", "base median [Q1–Q3]", "new median [Q1–Q3]", "won", "verdict")
	for _, g := range m.EndToEnd {
		var b, c []float64
		for i := range base {
			bv, okB := base[i][g.Name]
			cv, okC := change[i][g.Name]
			if okB && okC {
				b, c = append(b, bv), append(c, cv)
			}
		}
		if len(b) == 0 {
			continue
		}
		v := judgePairs(g, b, c)
		if v.verdict == "loss" {
			losses++
		}
		q := func(q quartiles) string { return fmt.Sprintf("%.6g [%.6g–%.6g]", q.med, q.q1, q.q3) }
		fmt.Fprintf(w, "  %-12s %-36s %-36s %2d/%-2d  %s (%s better, bound %g %%)\n",
			g.Name, q(v.base), q(v.change), v.won, len(b), v.verdict, g.Better, 100*g.Bound)
	}
	return losses
}
