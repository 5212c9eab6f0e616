package main

import (
	"fmt"
	"io"
	"math"
	"slices"

	"macro3d/internal/report"
)

// `benchjson -compare old.json new.json` on two BENCH_qor.json files —
// the per-seed QoR of every flow × tile that `macro3d -experiment seeds`
// writes — is a paired-seed sign test: per flow × tile and metric, how
// many seeds got better, worse or tied, and the exact two-sided sign-test
// p over the seeds that moved (ties excluded). It exits 1 when a metric of
// a flow × tile is worse on at least nine seeds in ten, so a change that
// moves placements is read against the seed-to-seed spread rather than
// seed 1's last digit. `make qor` ends with it.

// benchFile is either kind of file -compare reads without -ledger: a
// kernel-benchmark summary or a BENCH_qor.json.
type benchFile struct {
	summary
	report.QoRFile
}

// qorMetrics are the metrics of a series: the name, which way is better,
// and the values per seed.
var qorMetrics = []struct {
	name   string
	higher bool
	values func(s *report.Series) []float64
}{
	{"fclk_mhz", true, func(s *report.Series) []float64 { return s.FclkMHz }},
	{"wl_m", false, func(s *report.Series) []float64 { return s.WLm }},
	{"f2f_bumps", false, func(s *report.Series) []float64 { return s.F2FBumps }},
	{"overflow", false, func(s *report.Series) []float64 { return s.Overflow }},
}

// signTest is the exact two-sided sign-test p of better against worse
// paired seeds: the probability, with each seed equally likely to move
// either way, of a split at least this uneven.
func signTest(better, worse int) float64 {
	n, k := better+worse, min(better, worse)
	tail, c := 0.0, 1.0 // c is n choose i
	for i := 0; i <= k; i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return min(1, 2*tail/math.Pow(2, float64(n)))
}

// compareQoR prints the sign test of every flow × tile and metric in both
// files and returns how many are worse on at least nine seeds in ten.
func compareQoR(w io.Writer, old, new *report.QoRFile) (worse int, err error) {
	if !slices.Equal(old.Seeds, new.Seeds) {
		return 0, fmt.Errorf("the files hold seeds %v and %v: a sign test pairs the same seeds", old.Seeds, new.Seeds)
	}
	n := len(new.Seeds)
	for _, c := range new.Cells {
		j := slices.IndexFunc(old.Cells, func(o *report.Series) bool { return o.Flow == c.Flow && o.Tile == c.Tile })
		if j < 0 {
			fmt.Fprintf(w, "%-12s %-8s only in the new file\n", c.Tile, c.Flow)
			continue
		}
		for _, m := range qorMetrics {
			was, now := m.values(old.Cells[j]), m.values(c)
			if len(was) != n || len(now) != n {
				return worse, fmt.Errorf("%s/%s %s: %d and %d values for %d seeds", c.Tile, c.Flow, m.name, len(was), len(now), n)
			}
			better, lost := 0, 0
			for k := range now {
				switch {
				case now[k] == was[k]:
				case (now[k] > was[k]) == m.higher:
					better++
				default:
					lost++
				}
			}
			verdict := "ok"
			if 10*lost >= 9*n && lost > 0 {
				verdict = "WORSE"
				worse++
			}
			fmt.Fprintf(w, "%-12s %-8s %-10s better %2d  worse %2d  tied %2d  p %.4f  %s\n",
				c.Tile, c.Flow, m.name, better, lost, n-better-lost, signTest(better, lost), verdict)
		}
	}
	return worse, nil
}
