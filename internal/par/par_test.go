package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"macro3d/internal/obs/trace"
)

// team starts a team of `workers` for the test and closes it after.
func team(t testing.TB, workers int, ts *trace.Set) *Team {
	tm := new(Team)
	tm.Start(workers, ts)
	t.Cleanup(tm.Close)
	return tm
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
	for _, n := range []int{1, 2, 7} {
		if got := Workers(n); got != n {
			t.Fatalf("Workers(%d) = %d", n, got)
		}
	}
}

// TestChunksCoversEveryIndexOnce also pins the chunking itself: the
// chunks are the ⌈n/workers⌉ contiguous runs, chunk w starting at
// w·⌈n/workers⌉, whichever goroutine runs the chunk, and Split reports
// exactly the chunks Chunks runs (fewer than the workers for n = 6 on
// four) — the engines' per-chunk state and reduction orders rest on it.
// One team serves every n.
func TestChunksCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 9} {
		tm := team(t, workers, nil)
		for _, n := range []int{0, 1, 2, 5, 6, 17, 100} {
			seen := make([]int32, n)
			w := min(workers, max(n, 1))
			chunk := (n + w - 1) / w
			size, count := tm.Split(n)
			if n > 0 && (size != chunk || count != (n+chunk-1)/chunk) {
				t.Errorf("workers=%d n=%d: Split = %d chunks of %d, want ⌈n/%d⌉ of %d", workers, n, count, size, chunk, chunk)
			}
			var ran atomic.Int32
			tm.Chunks("x", n, func(w, lo, hi int) {
				ran.Add(1)
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("workers=%d n=%d: bad chunk [%d,%d)", workers, n, lo, hi)
				}
				if lo != w*chunk || hi != min(lo+chunk, n) {
					t.Errorf("workers=%d n=%d: worker %d got [%d,%d), want chunk of %d", workers, n, w, lo, hi, chunk)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			if int(ran.Load()) != count {
				t.Errorf("workers=%d n=%d: %d chunks ran, Split said %d", workers, n, ran.Load(), count)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestChunksZeroTeam: the zero Team is the serial path, untraced.
func TestChunksZeroTeam(t *testing.T) {
	var tm Team
	if tm.Size() != 1 {
		t.Fatalf("zero team has %d workers", tm.Size())
	}
	calls := 0
	tm.Chunks("x", 40, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 40 {
			t.Fatalf("zero team got (%d,%d,%d)", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("zero team called fn %d times", calls)
	}
}

func TestChunksWorkerIndexDense(t *testing.T) {
	const workers, n = 4, 100
	var used [workers]int32
	team(t, workers, nil).Chunks("x", n, func(w, lo, hi int) {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d out of range", w)
			return
		}
		atomic.AddInt32(&used[w], 1)
	})
	for w, c := range used {
		if c != 1 {
			t.Fatalf("worker %d ran %d chunks", w, c)
		}
	}
}

func TestChunksSerialInline(t *testing.T) {
	calls := 0
	team(t, 1, nil).Chunks("x", 50, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 50 {
			t.Fatalf("serial path got (%d,%d,%d)", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("serial path called fn %d times", calls)
	}
}

func TestChunksTracedRecordsOneSlicePerChunk(t *testing.T) {
	tr := trace.New()
	tm := team(t, 4, tr.WorkerSet("route", 4))
	const n = 100
	seen := make([]int32, n)
	count := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	}
	tm.Chunks("route/batch", n, count)
	tm.Chunks("route/prep", n, count)
	for i, c := range seen {
		if c != 2 {
			t.Fatalf("index %d visited %d times, want 2", i, c)
		}
	}
	var slices []trace.Slice
	for _, k := range tr.Tracks() {
		slices = append(slices, k.Slices()...)
	}
	if len(slices) != 8 {
		t.Fatalf("got %d slices, want 8 (4 chunks × 2 fan-outs)", len(slices))
	}
	var items int64
	steps := map[int64]int{}
	for _, sl := range slices {
		if sl.Cat != "route" || sl.Step == 0 {
			t.Fatalf("bad slice %+v", sl)
		}
		steps[sl.Step]++
		if len(sl.Args) != 1 || sl.Args[0].Key != "items" {
			t.Fatalf("missing items arg: %+v", sl)
		}
		items += sl.Args[0].Val
	}
	if len(steps) != 2 {
		t.Fatalf("got %d distinct steps, want 2", len(steps))
	}
	if items != 2*n {
		t.Fatalf("items sum %d, want %d", items, 2*n)
	}
}

func TestChunksTracedSerialInline(t *testing.T) {
	tr := trace.New()
	team(t, 1, tr.WorkerSet("place", 1)).Chunks("place/solve", 50, func(w, lo, hi int) {})
	sl := tr.Track("worker 0").Slices()
	if len(sl) != 1 || sl[0].Step == 0 || sl[0].Args[0].Val != 50 {
		t.Fatalf("inline traced run: %+v", sl)
	}
}

// TestSerialTraced: Serial records the caller's work since start as one
// slice on worker 0's track, a fork-join step of its own after the
// Chunks before it, on a team of any size; untraced it records nothing.
func TestSerialTraced(t *testing.T) {
	tr := trace.New()
	tm := team(t, 2, tr.WorkerSet("place", 2))
	tm.Chunks("place/net", 10, func(w, lo, hi int) {})
	t0 := time.Now()
	time.Sleep(time.Millisecond)
	tm.Serial("place/field", t0)
	sl := tr.Track("worker 0").Slices()
	last := sl[len(sl)-1]
	if len(sl) != 2 || last.Name != "place/field" || last.Cat != "place" || last.Step <= sl[0].Step || last.Dur < int64(time.Millisecond) {
		t.Fatalf("worker 0's slices: %+v", sl)
	}
	team(t, 2, nil).Serial("place/field", t0) // untraced: a no-op
}

// TestChunksBusyTimeInline pins the serial accounting contract: an
// inline run (workers == 1) reports its wall time as busy time.
func TestChunksBusyTimeInline(t *testing.T) {
	const d = 20 * time.Millisecond
	busy := team(t, 1, nil).Chunks("x", 10, func(w, lo, hi int) { time.Sleep(d) })
	if busy < d {
		t.Fatalf("inline busy %v, want ≥ %v", busy, d)
	}
	if busy > 50*d {
		t.Fatalf("inline busy %v implausibly large", busy)
	}
}

// TestChunksBusyTimeSums pins the parallel accounting contract: the
// returned duration is the SUM of per-worker busy times, not the wall
// time — four workers sleeping d each report ≥ 4d even though they
// sleep concurrently and the wall clock advances by roughly d. This is
// the numerator of every worker-utilization gauge.
func TestChunksBusyTimeSums(t *testing.T) {
	const workers = 4
	const d = 20 * time.Millisecond
	tm := team(t, workers, nil)
	t0 := time.Now()
	busy := tm.Chunks("x", workers, func(w, lo, hi int) { time.Sleep(d) })
	wall := time.Since(t0)
	if busy < workers*d {
		t.Fatalf("summed busy %v, want ≥ %v", busy, workers*d)
	}
	// Sleeps overlap regardless of CPU count, so summed busy must
	// exceed wall — the signature of per-worker accounting.
	if busy <= wall {
		t.Fatalf("busy %v not above wall %v: accounting looks wall-clock-based", busy, wall)
	}
}

// TestChunksBusyTimeEmpty pins the degenerate case: no items, no busy
// time.
func TestChunksBusyTimeEmpty(t *testing.T) {
	if busy := team(t, 4, nil).Chunks("x", 0, func(w, lo, hi int) { time.Sleep(time.Millisecond) }); busy != 0 {
		t.Fatalf("empty fan-out reported busy %v", busy)
	}
}

// TestChunksTracedBusyTimeMatches pins that tracing does not change the
// accounting: a traced team reports the same summed-busy semantics as
// an untraced one (within the tracing overhead).
func TestChunksTracedBusyTimeMatches(t *testing.T) {
	const workers = 3
	const d = 15 * time.Millisecond
	tr := trace.New()
	busy := team(t, workers, tr.WorkerSet("route", workers)).Chunks("route/batch", workers, func(w, lo, hi int) { time.Sleep(d) })
	if busy < workers*d {
		t.Fatalf("traced summed busy %v, want ≥ %v", busy, workers*d)
	}
}

// TestUtilizationRatioFromBusy ties the accounting to the gauge the
// engines publish: utilization = busy / (workers × wall) lands in a
// plausible (0, 1] band for balanced CPU-free work, and the perfectly
// balanced sleep case approaches 1.
func TestUtilizationRatioFromBusy(t *testing.T) {
	const workers = 4
	const d = 25 * time.Millisecond
	tm := team(t, workers, nil)
	t0 := time.Now()
	busy := tm.Chunks("x", workers, func(w, lo, hi int) { time.Sleep(d) })
	wall := time.Since(t0)
	util := busy.Seconds() / (wall.Seconds() * workers)
	if util <= 0.5 || util > 1.01 {
		t.Fatalf("utilization %0.3f outside (0.5, 1.01]: busy %v wall %v", util, busy, wall)
	}
}

// TestChunksAllocs: a fork-join hands its chunks to the resident
// workers by value, so it allocates nothing at any worker count.
func TestChunksAllocs(t *testing.T) {
	var sink [8]int64
	fn := func(w, lo, hi int) { sink[w] += int64(hi - lo) }
	for _, workers := range []int{1, 2, 4} {
		tm := team(t, workers, nil)
		if a := testing.AllocsPerRun(100, func() { tm.Chunks("x", 1000, fn) }); a != 0 {
			t.Errorf("workers=%d: a fork-join allocates %.0f objects, want 0", workers, a)
		}
	}
}

// TestChunksWorkerPanic: a panic in a chunk on a resident worker does
// not kill the process — it surfaces on the caller with its original
// value once every chunk has finished, the lowest-indexed chunk's when
// several panic, and the team still runs and closes cleanly after it.
func TestChunksWorkerPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	tm := new(Team)
	tm.Start(4, nil)
	var finished atomic.Int32
	catch := func(fn func(w, lo, hi int)) (p any) {
		defer func() { p = recover() }()
		tm.Chunks("x", 4, fn)
		return nil
	}
	p := catch(func(w, lo, hi int) {
		if w == 1 || w == 3 {
			panic(w)
		}
		time.Sleep(5 * time.Millisecond)
		finished.Add(1)
	})
	if p != 1 {
		t.Fatalf("recovered %v, want the panic of worker 1", p)
	}
	if finished.Load() != 2 {
		t.Fatalf("%d chunks had finished at the re-panic, want 2", finished.Load())
	}
	if p := catch(func(w, lo, hi int) {
		if w == 0 {
			panic("caller")
		}
	}); p != "caller" {
		t.Fatalf("recovered %v from the caller's own chunk", p)
	}
	var items atomic.Int32
	tm.Chunks("x", 8, func(w, lo, hi int) { items.Add(int32(hi - lo)) })
	if items.Load() != 8 {
		t.Fatalf("after the panics a fork-join covered %d of 8 items", items.Load())
	}
	tm.Close()
	if got := goroutinesBackTo(base); got > base {
		t.Fatalf("%d goroutines a second after Close, %d before Start", got, base)
	}
}

// goroutinesBackTo polls the goroutine count for up to a second until it
// is back to base, and returns the last count. A closed team's worker has
// signalled its exit a moment before it is gone from the count.
func goroutinesBackTo(base int) int {
	deadline := time.Now().Add(time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= base || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkTeamChunks is one fork-join over a trivial body at two
// workers: the hand-off and the join alone, 0 allocs/op.
func BenchmarkTeamChunks(b *testing.B) {
	var sink [2]int64
	fn := func(w, lo, hi int) { sink[w] += int64(hi - lo) }
	tm := team(b, 2, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Chunks("x", 1024, fn)
	}
}
