// Package par holds the small deterministic fan-out primitives shared
// by the parallel routing and placement engines: worker-count
// resolution and a Team — resident worker goroutines that run
// contiguous index chunks, with aggregate busy-time accounting feeding
// the worker-utilization gauges.
//
// Determinism is the caller's contract: workers must write only to
// disjoint state (distinct slice elements, per-worker scratch), and
// any floating-point reduction must be replayed in a fixed order after
// the barrier — never summed per-chunk. Every engine built on this
// package keeps a pure serial reference path (workers == 1) that the
// equivalence tests compare against bit-for-bit.
package par

import (
	"runtime"
	"sync"
	"time"

	"macro3d/internal/obs/trace"
)

// Workers resolves a requested worker count: n <= 0 selects
// GOMAXPROCS (use every available CPU), anything else is returned
// unchanged. 1 means the serial reference path.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Team is the fan-out of one engine run: Start launches workers−1
// resident goroutines, every Chunks call hands them its chunks by
// value and runs the first one on the caller, and Close stops them. A
// fork-join therefore allocates nothing, at any worker count.
//
// The zero Team (or one started with one worker) is the serial
// reference path with tracing off: Chunks runs fn inline. A Team is
// driven by one goroutine at a time.
type Team struct {
	workers int
	ts      *trace.Set
	jobs    chan job
	done    chan result
	exited  sync.WaitGroup
}

// job is one chunk [lo, hi) of fork-join `name`, for worker index w.
type job struct {
	name   string
	fn     func(w, lo, hi int)
	w      int
	lo, hi int
}

// result is a finished chunk: its busy time, or the value its fn
// panicked with.
type result struct {
	w        int
	busy     time.Duration
	panicked bool
	val      any
}

// Start readies the team for `workers` workers (at least one) and, when
// ts (an engine's obs.Span.Workers) is non-nil, traces every chunk on
// worker w's track of ts. Call it once, and Close when the run ends.
func (t *Team) Start(workers int, ts *trace.Set) {
	t.workers, t.ts = max(workers, 1), ts
	if t.workers == 1 {
		return
	}
	t.jobs = make(chan job, t.workers-1)
	t.done = make(chan result, t.workers-1)
	t.exited.Add(t.workers - 1)
	for range t.workers - 1 {
		go t.work()
	}
}

// Close stops the resident goroutines and waits for them to exit. The
// team then runs serially; Close on a serial team is a no-op.
func (t *Team) Close() {
	if t.jobs != nil {
		close(t.jobs)
		t.exited.Wait()
		t.jobs, t.done = nil, nil
	}
	t.workers = 1
}

// Size is the team's worker count, the bound of every worker index w.
func (t *Team) Size() int { return max(t.workers, 1) }

func (t *Team) work() {
	defer t.exited.Done()
	for j := range t.jobs {
		t.done <- t.run(j)
	}
}

// Chunks splits [0, n) into at most Size() contiguous chunks of
// ⌈n/workers⌉ and runs fn(w, lo, hi) on each concurrently, the first on
// the calling goroutine. The worker index is dense in [0, Size()) so
// callers can address per-worker scratch. With one worker or n <= 1 fn
// runs inline as fn(0, 0, n).
//
// With tracing on, each chunk records one slice named `name` on worker
// w's track, all stamped with a fresh fork-join step id, with the chunk
// size attached; tracing wraps fn without reordering or altering it.
//
// A chunk that panics does not take the process down from a worker
// goroutine: once every chunk has finished, Chunks re-panics on the
// caller with the value of the lowest-indexed chunk that panicked.
//
// The returned duration is the summed busy time across workers
// (inline runs report their wall time), for utilization metrics.
func (t *Team) Chunks(name string, n int, fn func(w, lo, hi int)) time.Duration {
	t.ts.NextStep()
	if n <= 0 {
		return 0
	}
	w := min(t.Size(), n)
	chunk := (n + w - 1) / w
	if chunk == n {
		return t.exec(job{name, fn, 0, 0, n})
	}
	sent := 0
	for lo := chunk; lo < n; lo += chunk {
		sent++
		t.jobs <- job{name, fn, sent, lo, min(lo+chunk, n)}
	}
	// A woken worker waits in this P's run-next slot, where it would sit
	// until chunk 0 is done unless an idle P steals it; yielding runs it
	// now and the caller resumes on whichever P picks it up first.
	runtime.Gosched()
	first := t.run(job{name, fn, 0, 0, chunk})
	busy := first.busy
	for range sent {
		r := <-t.done
		busy += r.busy
		if r.panicked && (!first.panicked || r.w < first.w) {
			first = r
		}
	}
	if first.panicked {
		panic(first.val)
	}
	return busy
}

// run executes j, recovering a panic into the result.
func (t *Team) run(j job) (r result) {
	r.w = j.w
	defer func() {
		if p := recover(); p != nil {
			r.panicked, r.val = true, p
		}
	}()
	r.busy = t.exec(j)
	return r
}

// exec executes j, traced when the team traces, and returns its wall
// time.
func (t *Team) exec(j job) time.Duration {
	t0 := time.Now()
	j.fn(j.w, j.lo, j.hi)
	t1 := time.Now()
	if t.ts != nil {
		t.ts.Add(j.w, j.name, t0, t1, trace.N("items", int64(j.hi-j.lo)))
	}
	return t1.Sub(t0)
}
