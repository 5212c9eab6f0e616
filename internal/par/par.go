// Package par is the program's one parallel mechanism, shared by the
// placer, extraction and the experiment driver: worker-count resolution
// (the only reader of GOMAXPROCS) and a Team — resident worker goroutines
// that run contiguous index chunks, with aggregate busy-time accounting
// feeding the worker-utilization gauges.
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
// resident goroutines, every Chunks call hands them its chunk indices and
// runs the first chunk on the caller, and Close stops them. A fork-join
// therefore allocates nothing, at any worker count, and a team costs
// three objects.
//
// The zero Team (or one started with one worker) is the serial
// reference path with tracing off: Chunks runs fn inline. A Team is
// driven by one goroutine at a time.
type Team struct {
	workers int
	ts      *trace.Set
	jobs    chan int           // the chunk index a worker runs next
	done    chan time.Duration // a finished chunk's busy time
	exited  sync.WaitGroup

	// The fork-join in progress: Chunks sets it before it hands out the
	// first chunk index, and the workers read it after they receive one.
	name     string
	fn       func(w, lo, hi int)
	n, chunk int

	// The lowest-indexed chunk of the fork-join that panicked, if any.
	mu       sync.Mutex
	panicked bool
	panicW   int
	panicVal any
}

// Start readies the team for `workers` workers (at least one) and, when
// ts (an engine's obs.Span.Workers) is non-nil, traces every chunk on
// worker w's track of ts. Call it once, and Close when the run ends.
func (t *Team) Start(workers int, ts *trace.Set) {
	t.workers, t.ts = max(workers, 1), ts
	if t.workers == 1 {
		return
	}
	t.jobs = make(chan int, t.workers-1)
	t.done = make(chan time.Duration, t.workers-1)
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
	for w := range t.jobs {
		t.done <- t.run(w)
	}
}

// Split is how Chunks divides [0, n): count contiguous chunks of size
// items, chunk w being [w·size, min((w+1)·size, n)). count is at most
// Size() but can be less (n = 6 on four workers is three chunks of two),
// so a caller preparing per-chunk state sizes it by count.
func (t *Team) Split(n int) (size, count int) {
	if n <= 0 {
		return 0, 0
	}
	w := min(t.Size(), n)
	size = (n + w - 1) / w
	return size, (n + size - 1) / size
}

// Chunks runs fn(w, lo, hi) on each chunk of Split(n) concurrently, the
// first on the calling goroutine. The chunk index w is dense in
// [0, count) so callers can address per-chunk scratch. With one worker
// or n <= 1 fn runs inline as fn(0, 0, n).
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
	chunk, count := t.Split(n)
	if count == 1 {
		return t.exec(name, fn, 0, 0, n)
	}
	t.name, t.fn, t.n, t.chunk = name, fn, n, chunk
	sent := count - 1
	for w := 1; w <= sent; w++ {
		t.jobs <- w
	}
	// A woken worker waits in this P's run-next slot, where it would sit
	// until chunk 0 is done unless an idle P steals it; yielding runs it
	// now and the caller resumes on whichever P picks it up first.
	runtime.Gosched()
	busy := t.run(0)
	for range sent {
		busy += <-t.done
	}
	t.fn = nil
	if t.panicked {
		v := t.panicVal
		t.panicked, t.panicVal = false, nil
		panic(v)
	}
	return busy
}

// run executes chunk w of the fork-join in progress and returns its busy
// time, recording a panic instead of propagating it.
func (t *Team) run(w int) (busy time.Duration) {
	defer func() {
		if p := recover(); p != nil {
			t.mu.Lock()
			if !t.panicked || w < t.panicW {
				t.panicked, t.panicW, t.panicVal = true, w, p
			}
			t.mu.Unlock()
		}
	}()
	lo := w * t.chunk
	return t.exec(t.name, t.fn, w, lo, min(lo+t.chunk, t.n))
}

// exec runs fn on chunk w, [lo, hi), traced when the team traces, and
// returns its wall time.
func (t *Team) exec(name string, fn func(w, lo, hi int), w, lo, hi int) time.Duration {
	t0 := time.Now()
	fn(w, lo, hi)
	t1 := time.Now()
	if t.ts != nil {
		t.ts.Add(w, name, t0, t1, trace.N("items", int64(hi-lo)))
	}
	return t1.Sub(t0)
}
