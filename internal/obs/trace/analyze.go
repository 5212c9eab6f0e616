// Trace analysis: per-phase worker occupancy, serial fraction, the
// critical path through the slice DAG, and the Amdahl speedup ceiling
// those imply, plus a ranked list of serial segments for the
// `macro3d trace-report` bottleneck table.
//
// Definitions (DESIGN.md §14 derives them):
//
//   - A leaf slice is any slice outside the "stage" category: the
//     actual chunks of work on worker/main tracks. Stage slices (the
//     flow-stage track) are containers; the analyzer only charges
//     them for time not covered by any leaf slice — the
//     "(uninstrumented)" serial segments.
//   - Per phase (= leaf category): wall = max end − min start,
//     busy = Σ dur, workers = distinct tracks, main and worker 0 counted
//     as one (a team's chunk 0 runs on the calling goroutine); occupancy =
//     busy / (wall × workers). A sweep over the slice endpoints
//     splits wall into serial time (≤ 1 slice active — this includes
//     idle gaps: one runnable lane is serial by definition) and
//     parallel time.
//   - With serial fraction s = serial/wall and W workers, Amdahl
//     gives the ceiling S(W) = 1/(s + (1−s)/W) and S(∞) = 1/s.
//   - The critical path uses the fork-join structure par records:
//     every traced fan-out is one step, a step cannot finish before
//     its longest chunk, and steps are issued sequentially — so
//     CP = Σ_step max(dur) + Σ (step-0 slices). CP/wall ≈ 1 means
//     the engine is already running at its dependency limit.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// PhaseStats summarizes one phase (leaf slice category).
type PhaseStats struct {
	Phase      string  `json:"phase"`
	WallNS     int64   `json:"wall_ns"`
	BusyNS     int64   `json:"busy_ns"`
	SerialNS   int64   `json:"serial_ns"` // wall with ≤1 slice active
	CritPathNS int64   `json:"critical_path_ns"`
	Workers    int     `json:"workers"` // distinct tracks seen, main as worker 0
	Steps      int     `json:"steps"`   // traced fan-outs
	Slices     int     `json:"slices"`
	Occupancy  float64 `json:"occupancy"`       // busy/(wall*workers)
	SerialFrac float64 `json:"serial_fraction"` // serial/wall
	AmdahlAtW  float64 `json:"amdahl_at_workers"`
	AmdahlInf  float64 `json:"amdahl_ceiling"` // 1/s; +Inf rendered as 0

	// CPSpeedup = wall / critical path: the speedup this phase's
	// dependency structure supports with unlimited workers. Unlike the
	// measured wall-clock ratio it stays meaningful on a host that
	// serializes the workers (GOMAXPROCS=1): the chunks then run
	// back-to-back, wall ≈ busy, and wall/CP reports what the same
	// fork-join structure would deliver given the cores.
	CPSpeedup float64 `json:"cp_speedup"`
}

// SerialSeg is one named serial segment, aggregated over its
// occurrences: step-0 slices, single-chunk fan-outs, and stage time
// not covered by any leaf slice.
type SerialSeg struct {
	Name    string  `json:"name"`
	Phase   string  `json:"phase"`
	TotalNS int64   `json:"total_ns"`
	Count   int     `json:"count"`
	Share   float64 `json:"share"` // of total trace wall
}

// Report is the full analysis result.
type Report struct {
	WallNS int64        `json:"wall_ns"` // whole-trace span
	Phases []PhaseStats `json:"phases"`
	Serial []SerialSeg  `json:"serial_segments"` // ranked by TotalNS desc
}

// Analyze computes the report over every recorded slice. A nil or
// empty tracer yields an empty report.
func Analyze(t *Tracer) *Report {
	rep := &Report{}
	if t == nil {
		return rep
	}
	var leaves []trackSlice
	var stages []Slice
	minStart, maxEnd := int64(0), int64(0)
	first := true
	for _, k := range t.Tracks() {
		for _, sl := range k.Slices() {
			if first || sl.Start < minStart {
				minStart = sl.Start
			}
			if first || sl.End() > maxEnd {
				maxEnd = sl.End()
			}
			first = false
			if sl.Cat == "stage" {
				stages = append(stages, sl)
			} else {
				leaves = append(leaves, trackSlice{k.Name(), sl})
			}
		}
	}
	if first {
		return rep
	}
	rep.WallNS = maxEnd - minStart

	// Group leaves by phase, preserving first-seen order.
	byPhase := map[string][]trackSlice{}
	var phaseOrder []string
	for _, ts := range leaves {
		if _, ok := byPhase[ts.sl.Cat]; !ok {
			phaseOrder = append(phaseOrder, ts.sl.Cat)
		}
		byPhase[ts.sl.Cat] = append(byPhase[ts.sl.Cat], ts)
	}

	segTotal := map[string]*SerialSeg{}
	var segOrder []string
	addSeg := func(phase, name string, dur int64) {
		key := phase + "\x00" + name
		s := segTotal[key]
		if s == nil {
			s = &SerialSeg{Name: name, Phase: phase}
			segTotal[key] = s
			segOrder = append(segOrder, key)
		}
		s.TotalNS += dur
		s.Count++
	}

	for _, phase := range phaseOrder {
		group := byPhase[phase]
		ps := PhaseStats{Phase: phase, Slices: len(group)}
		tracks := map[string]bool{}
		steps := map[int64]*stepAgg{}
		var stepOrder []int64
		lo, hi := group[0].sl.Start, group[0].sl.End()
		for _, ts := range group {
			sl := ts.sl
			track := ts.track
			if track == "main" {
				// A team's chunk 0 runs on the goroutine whose serial
				// spans go on main: the two tracks are one worker.
				track = workerName(0)
			}
			tracks[track] = true
			ps.BusyNS += sl.Dur
			if sl.Start < lo {
				lo = sl.Start
			}
			if sl.End() > hi {
				hi = sl.End()
			}
			if sl.Step == 0 {
				ps.CritPathNS += sl.Dur
				addSeg(phase, sl.Name, sl.Dur)
				continue
			}
			agg := steps[sl.Step]
			if agg == nil {
				agg = &stepAgg{name: sl.Name}
				steps[sl.Step] = agg
				stepOrder = append(stepOrder, sl.Step)
			}
			agg.count++
			if sl.Dur > agg.max {
				agg.max = sl.Dur
			}
		}
		ps.Workers = len(tracks)
		ps.Steps = len(steps)
		ps.WallNS = hi - lo
		for _, id := range stepOrder {
			agg := steps[id]
			ps.CritPathNS += agg.max
			if agg.count == 1 {
				// A fan-out that ran as a single chunk is serial work.
				addSeg(phase, agg.name, agg.max)
			}
		}
		ps.SerialNS = sweepSerial(group)
		if ps.WallNS > 0 {
			ps.Occupancy = float64(ps.BusyNS) / (float64(ps.WallNS) * float64(ps.Workers))
			ps.SerialFrac = float64(ps.SerialNS) / float64(ps.WallNS)
		}
		s := ps.SerialFrac
		if w := float64(ps.Workers); w > 0 {
			ps.AmdahlAtW = 1 / (s + (1-s)/w)
		}
		if s > 0 {
			ps.AmdahlInf = 1 / s
		}
		if ps.CritPathNS > 0 {
			ps.CPSpeedup = float64(ps.WallNS) / float64(ps.CritPathNS)
		}
		rep.Phases = append(rep.Phases, ps)
	}

	// Stage slices: charge only the portion no leaf slice overlaps.
	if len(stages) > 0 {
		union := intervalUnion(leaves)
		for _, sl := range stages {
			uncovered := sl.Dur - overlap(union, sl.Start, sl.End())
			if uncovered > 0 {
				addSeg("stage", sl.Name+" (uninstrumented)", uncovered)
			}
		}
	}

	for _, key := range segOrder {
		s := segTotal[key]
		if rep.WallNS > 0 {
			s.Share = float64(s.TotalNS) / float64(rep.WallNS)
		}
		rep.Serial = append(rep.Serial, *s)
	}
	sort.SliceStable(rep.Serial, func(i, j int) bool {
		return rep.Serial[i].TotalNS > rep.Serial[j].TotalNS
	})
	return rep
}

type stepAgg struct {
	name  string
	max   int64
	count int
}

type trackSlice struct {
	track string
	sl    Slice
}

// sweepSerial measures the time within the group's span during which
// at most one slice is active — the serial time, idle gaps included.
func sweepSerial(group []trackSlice) int64 {
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(group))
	for _, ts := range group {
		edges = append(edges, edge{ts.sl.Start, +1}, edge{ts.sl.End(), -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // close before open
	})
	var serial int64
	active := 0
	prev := edges[0].at
	for _, e := range edges {
		if e.at > prev {
			if active <= 1 {
				serial += e.at - prev
			}
			prev = e.at
		}
		active += e.delta
	}
	return serial
}

// intervalUnion merges all leaf slice intervals into disjoint sorted
// intervals.
func intervalUnion(leaves []trackSlice) [][2]int64 {
	if len(leaves) == 0 {
		return nil
	}
	ivs := make([][2]int64, 0, len(leaves))
	for _, ts := range leaves {
		ivs = append(ivs, [2]int64{ts.sl.Start, ts.sl.End()})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv[0] <= last[1] {
			if iv[1] > last[1] {
				last[1] = iv[1]
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// overlap returns the measure of [lo,hi) covered by the union.
func overlap(union [][2]int64, lo, hi int64) int64 {
	var cov int64
	for _, iv := range union {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			cov += b - a
		}
	}
	return cov
}

// Format renders the report as the trace-report bottleneck table: a
// per-phase summary followed by the top-N serial segments by
// wall-clock share.
func (r *Report) Format(topN int) string {
	var b strings.Builder
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(&b, "trace: wall %.2f ms\n\n", ms(r.WallNS))
	fmt.Fprintf(&b, "%-12s %10s %10s %8s %7s %10s %8s %10s %11s %8s\n",
		"phase", "wall ms", "busy ms", "workers", "steps",
		"occupancy", "serial", "amdahl@W", "amdahl@inf", "cp")
	for _, ps := range r.Phases {
		inf := "inf"
		if ps.AmdahlInf > 0 {
			inf = fmt.Sprintf("%.2fx", ps.AmdahlInf)
		}
		fmt.Fprintf(&b, "%-12s %10.2f %10.2f %8d %7d %9.1f%% %7.1f%% %9.2fx %11s %7.2fx\n",
			ps.Phase, ms(ps.WallNS), ms(ps.BusyNS), ps.Workers, ps.Steps,
			100*ps.Occupancy, 100*ps.SerialFrac, ps.AmdahlAtW, inf, ps.CPSpeedup)
	}
	b.WriteString("\n")
	n := len(r.Serial)
	if topN > 0 && n > topN {
		n = topN
	}
	fmt.Fprintf(&b, "top %d serial segments by wall-clock share:\n", n)
	fmt.Fprintf(&b, "%4s %-40s %-12s %10s %7s %7s\n",
		"#", "segment", "phase", "total ms", "count", "share")
	for i := 0; i < n; i++ {
		s := r.Serial[i]
		fmt.Fprintf(&b, "%4d %-40s %-12s %10.2f %7d %6.1f%%\n",
			i+1, s.Name, s.Phase, ms(s.TotalNS), s.Count, 100*s.Share)
	}
	if n == 0 {
		b.WriteString("  (no serial segments recorded)\n")
	}
	return b.String()
}
