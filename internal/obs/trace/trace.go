// Package trace is the execution timeline: a flat record of task-level
// slices — one per stage, engine phase and fork-join chunk —
// on named tracks, so wall-clock can be attributed to individual
// workers and serial segments. It is a sink of internal/obs: attached
// with obs.Recorder.SetTimeline, every ended span below a flow root
// records its slice here, and par.Team records its chunks on the
// worker tracks of the Set a span hands out (obs.Span.Workers).
//
// The contract mirrors the obs nil-safe rule: every method on a nil
// *Tracer, nil *Track or nil *Set is a no-op. Hot paths pay exactly one
// pointer comparison when tracing is disabled, and recording a slice
// never changes engine behaviour, so the byte-identical-PPA guarantee
// of the observability layer extends to the tracer.
//
// Determinism: slices are kept in per-track append-only buffers and
// merged at flush in track-registration order, then append order —
// never timestamp order. Two identical runs therefore produce traces
// that differ only in the recorded times, which is what the
// golden-file test normalizes away.
package trace

import (
	"sync"
	"time"
)

// Arg is one small typed attribute attached to a slice (chunk size, net
// count, stash hits, …). Keeping attributes as an ordered list rather
// than a map keeps the flush byte-deterministic.
type Arg struct {
	Key string
	Val int64
}

// N is shorthand for constructing an Arg.
func N(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// Slice is one recorded interval on a track. Start and Dur are
// nanoseconds relative to the tracer epoch. Step groups the slices of
// one fork-join fan-out (a par.Team.Chunks call): all chunks of
// the same call share a step id, and the analyzer's critical path
// takes the per-step maximum. Step 0 marks serial work recorded
// outside any fan-out.
type Slice struct {
	Name  string
	Cat   string // phase: "route", "place", "stage", "cache"
	Start int64  // ns since epoch
	Dur   int64  // ns
	Step  int64  // fork-join step id; 0 = serial
	Args  []Arg
}

// End returns the slice end time in ns since the epoch.
func (s *Slice) End() int64 { return s.Start + s.Dur }

// Track is one named timeline — a worker, the orchestrating
// goroutine or the flow-stage row. Each track is fed by one goroutine
// at a time, so its slices never overlap except by nesting (an engine
// phase inside its container span on "main"), which is what makes the
// Chrome rendering one row per worker.
type Track struct {
	tr     *Tracer
	name   string
	mu     sync.Mutex
	slices []Slice
}

// Name returns the track's display name.
func (k *Track) Name() string {
	if k == nil {
		return ""
	}
	return k.name
}

// Tracer owns the epoch, the track registry and the fork-join step
// counter. Construct with New; a nil Tracer is the disabled tracer.
type Tracer struct {
	epoch time.Time

	mu     sync.Mutex
	byName map[string]*Track
	order  []*Track
	step   int64
}

// New returns an enabled tracer whose epoch is now.
func New() *Tracer { return NewAt(time.Now()) }

// NewAt returns a tracer with an explicit epoch. Tests use it
// together with Track.Add to build byte-deterministic traces.
func NewAt(epoch time.Time) *Tracer {
	return &Tracer{epoch: epoch, byName: map[string]*Track{}}
}

// Track returns the named track, creating it on first use. Track
// creation order is the flush order, and engine execution order is
// deterministic, so flush order is too.
func (t *Tracer) Track(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	k := t.byName[name]
	if k == nil {
		k = &Track{tr: t, name: name}
		t.byName[name] = k
		t.order = append(t.order, k)
	}
	t.mu.Unlock()
	return k
}

// NextStep reserves a fresh fork-join step id. par's traced fan-outs
// call it once per Chunks/Items invocation; all chunk slices of that
// invocation carry the id. Fan-outs are issued sequentially from one
// orchestrating goroutine per engine, so the ids are deterministic.
func (t *Tracer) NextStep() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.step++
	s := t.step
	t.mu.Unlock()
	return s
}

// Tracks returns the registered tracks in creation order.
func (t *Tracer) Tracks() []*Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]*Track(nil), t.order...)
	t.mu.Unlock()
	return out
}

// Add records a completed serial slice (step 0). An ended obs span
// records itself with it, and tests use it with NewAt for
// byte-deterministic traces.
func (k *Track) Add(cat, name string, start, end time.Time, args ...Arg) {
	k.add(cat, name, start, end, 0, args)
}

func (k *Track) add(cat, name string, start, end time.Time, step int64, args []Arg) {
	if k != nil {
		k.addSlice(Slice{Name: name, Cat: cat, Start: start.Sub(k.tr.epoch).Nanoseconds(),
			Dur: end.Sub(start).Nanoseconds(), Step: step, Args: args})
	}
}

// addSlice appends a fully-formed slice (importer path).
func (k *Track) addSlice(sl Slice) {
	if k == nil {
		return
	}
	k.mu.Lock()
	k.slices = append(k.slices, sl)
	k.mu.Unlock()
}

// Slices returns a copy of the track's buffer in append order.
func (k *Track) Slices() []Slice {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	out := append([]Slice(nil), k.slices...)
	k.mu.Unlock()
	return out
}

// Set is the per-worker track fan used by par's traced fan-outs: one
// track per dense worker id, all slices of one call stamped with one
// step id. Worker tracks are shared across Sets of the same tracer
// ("worker 0" is the same row whether routing or placing is on it),
// so the Chrome view stays one row per worker.
type Set struct {
	tr     *Tracer
	cat    string
	tracks []*Track
	step   int64
}

// WorkerSet returns a Set over `workers` dense worker-id tracks for
// the given phase (category). Returns nil on a nil tracer, which is
// the signal par's traced variants use to skip all recording.
func (t *Tracer) WorkerSet(cat string, workers int) *Set {
	if t == nil {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	s := &Set{tr: t, cat: cat, tracks: make([]*Track, workers)}
	for w := 0; w < workers; w++ {
		s.tracks[w] = t.Track(workerName(w))
	}
	return s
}

func workerName(w int) string {
	// Tiny itoa to keep the hot path allocation-free-ish; worker
	// counts are small.
	if w < 10 {
		return "worker " + string(rune('0'+w))
	}
	buf := [8]byte{}
	i := len(buf)
	for w > 0 {
		i--
		buf[i] = byte('0' + w%10)
		w /= 10
	}
	return "worker " + string(buf[i:])
}

// NextStep advances the set to a fresh fork-join step. Called once
// per traced fan-out, before the workers start.
func (s *Set) NextStep() {
	if s == nil {
		return
	}
	s.step = s.tr.NextStep()
}

// Add records a completed chunk on worker w's track, stamped with the
// current step id. Out-of-range worker ids clamp to the last track
// rather than panic — the tracer must never take an engine down.
func (s *Set) Add(w int, name string, start, end time.Time, args ...Arg) {
	if s == nil {
		return
	}
	s.tracks[min(max(w, 0), len(s.tracks)-1)].add(s.cat, name, start, end, s.step, args)
}
