package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// The estimator. A workload is a fixed list of steps, executed rep
// after rep; samples[s][r] is the cost of step s in rep r. The flows
// are deterministic, so every rep of a step does the same work and
// the executions differ only by what the machine added: steal time,
// a neighbour's cache traffic, a GC cycle landing in this step rather
// than the next. That interference is additive and never negative,
// so the fastest execution of a step is the repeatable estimate of
// its undisturbed cost, and a workload's timing metric is the sum of
// those per-step minima. Medians and maxima are reported beside it
// (bench.wall_median_s, bench.wall_max_s) so the spread stays visible.

// sumOfMins is Σ over steps of the fastest of that step's samples.
func sumOfMins(samples [][]float64) float64 {
	total := 0.0
	for _, s := range samples {
		if len(s) == 0 {
			continue
		}
		m := s[0]
		for _, v := range s[1:] {
			m = math.Min(m, v)
		}
		total += m
	}
	return total
}

// repTotals is the per-rep total Σ over steps, for the median and
// maximum a reader compares the estimator against.
func repTotals(samples [][]float64) []float64 {
	reps := 0
	for _, s := range samples {
		if len(s) > reps {
			reps = len(s)
		}
	}
	out := make([]float64, reps)
	for _, s := range samples {
		for r, v := range s {
			out[r] += v
		}
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// geomean of the positive entries; 0 when there are none.
func geomean(v []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range v {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quartiles returns Q1 and Q3 as Python's
// statistics.quantiles(values, n=4) gives them (the "exclusive"
// method), which is what the acceptance driver computes spreads from.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// worseBy is the share of the parent's value by which cur is worse
// (positive) or better (negative) in the metric's direction.
func worseBy(parent, cur float64, better string) float64 {
	if parent == 0 {
		return 0
	}
	d := (cur - parent) / math.Abs(parent)
	if better == "higher" {
		d = -d
	}
	return d
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stopwatch times one interval on the wall clock and the CPU clock.
type stopwatch struct {
	t0   time.Time
	cpu0 float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds()} }

func (s stopwatch) stop() (wall, cpu float64) {
	return time.Since(s.t0).Seconds(), cpuSeconds() - s.cpu0
}
