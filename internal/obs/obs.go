// Package obs is the flow-wide observability layer: hierarchical
// spans (flow → stage → phase, e.g. "macro3d/route/rip-up-iter"),
// typed per-run metrics (counters and gauges), two span sinks (a JSONL
// event stream, the execution timeline of internal/obs/trace), and one
// metric rendering (Prometheus text format), which internal/obs/obshttp
// serves over HTTP alongside expvar and net/http/pprof.
//
// The package depends only on the standard library and its trace
// package, and is safe to thread through every engine: all entry points are
// nil-safe, so a nil *Recorder (the default) records nothing, emits
// nothing, registers nothing, and never perturbs the instrumented
// computation — flows produce byte-identical results with
// observability disabled, a contract the flows package verifies by
// test.
//
// Naming convention for metrics: subsystem_name_unit, e.g.
// route_overflow_gcells, place_legalize_displacement_mean_um,
// sta_dirty_frontier_nodes_total, ddb_txn_commits_total. Monotonic
// counts end in _total; gauges end in their unit.
package obs

import (
	"io"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"macro3d/internal/obs/trace"
)

// Recorder is the per-run observability hub. One Recorder serves an
// entire process run (possibly many flows): its Registry aggregates
// metrics across flows, and every span and event it emits shares one
// monotonic clock, so a multi-flow sweep produces a single coherent
// JSONL trace. A nil Recorder is the valid disabled state.
type Recorder struct {
	start    time.Time
	reg      *Registry
	nextID   atomic.Int64
	timeline atomic.Pointer[trace.Tracer]

	mu       sync.Mutex
	sink     *Sink
	closeErr error // result of the Close that detached the sink
}

// New returns an enabled Recorder with an empty registry and its
// monotonic clock started.
func New() *Recorder {
	return &Recorder{start: time.Now(), reg: newRegistry()}
}

// Registry returns the metric registry; nil when the Recorder is nil
// (the returned nil Registry is itself safe to use).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// SetSink directs the JSONL event stream to w (typically the -events
// file). Safe to leave unset: spans and metrics still work, only the
// event trail is dropped.
func (r *Recorder) SetSink(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = newSink(w)
	r.closeErr = nil
	r.mu.Unlock()
}

// SetTimeline attaches tl as the recorder's second sink, as SetSink
// attaches the first: every span below a root then records its slice on
// tl when it ends (Span.record). nil detaches it.
func (r *Recorder) SetTimeline(tl *trace.Tracer) {
	if r != nil {
		r.timeline.Store(tl)
	}
}

// Close emits a final sample of every registered metric, flushes the
// sink and detaches it. Idempotent and safe to call twice (a teardown
// path may double-close): later calls return the first call's result,
// and events emitted after Close are dropped.
// Spans and metrics stay usable, and SetSink re-arms the event stream.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	detached := r.sink == nil
	r.mu.Unlock()
	if !detached {
		r.Sample()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink == nil {
		return r.closeErr
	}
	r.closeErr = r.sink.Flush()
	r.sink = nil
	return r.closeErr
}

// Emit writes one generic event line (e.g. a fault-injection tag) to
// the sink.
func (r *Recorder) Emit(ev string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.emit(event{Ev: ev, Attrs: attrMap(attrs)})
}

// Sample writes the current value of every registered metric to the
// sink as one "sample" event per metric, interleaved with the span
// stream under the same monotonic clock. The flow runner calls it at
// stage boundaries.
func (r *Recorder) Sample() {
	if r == nil {
		return
	}
	for _, m := range r.reg.Snapshot() {
		r.emit(event{Ev: "sample", Metric: m.Name, Value: jsonFloat(m.Value)})
	}
}

// emit stamps the event with the monotonic clock and writes it. The
// stamp is taken under the sink lock so timestamps are non-decreasing
// in file order even with concurrent emitters.
func (r *Recorder) emit(ev event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink == nil {
		return
	}
	ev.T = time.Since(r.start).Nanoseconds()
	r.sink.write(ev)
}

// Attr is one span or event attribute.
type Attr struct {
	Key   string
	Value any
}

// KV builds an Attr.
func KV(key string, value any) Attr { return Attr{Key: key, Value: value} }

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		// Non-finite float attributes would poison the JSON sink with a
		// sticky marshal error; spell them out instead.
		if f, ok := a.Value.(float64); ok {
			m[a.Key] = jsonFloat(f)
			continue
		}
		m[a.Key] = a.Value
	}
	return m
}

// Span is one timed node of the hierarchical trace, backed by a live
// Recorder: it measures wall time and the heap-allocation delta and
// emits its open and close events. A disabled Recorder hands out no
// spans — StartSpan on a nil Recorder returns nil — and a nil *Span is
// valid everywhere (Child returns nil, End is a no-op), so engines
// instrumented with an optional span need no guards.
type Span struct {
	rec    *Recorder
	id     int64
	parent int64
	name   string
	root   int // length of the root span's name, the prefix of name
	start  time.Time
	alloc0 uint64
	opened atomic.Bool // a child was opened under it

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// StartSpan opens a root span; nil on a nil Recorder.
func (r *Recorder) StartSpan(name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	return r.open(name, 0, len(name), attrs)
}

// Child opens a sub-span whose name extends the parent's slash path
// ("macro3d" → "macro3d/route" → "macro3d/route/rip-up-iter").
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	s.opened.Store(true)
	return s.rec.open(s.name+"/"+name, s.id, s.root, attrs)
}

func (r *Recorder) open(name string, parent int64, root int, attrs []Attr) *Span {
	sp := &Span{rec: r, id: r.nextID.Add(1), parent: parent, name: name, root: root, start: time.Now(), attrs: attrs, alloc0: heapAllocs()}
	r.emit(event{Ev: "span_open", Span: name, ID: sp.id, Parent: parent})
	return sp
}

// SetAttr attaches an attribute to the span (goroutine-safe; last
// write of a key wins at emission).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End closes the span, fixing its duration and emitting the
// span_close event with the process-wide heap-allocation delta
// (coarse attribution: concurrent allocators are not separated).
// Idempotent. With a timeline attached, a span below its root also
// records its slice (record).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	now := time.Now()
	if tl := s.rec.timeline.Load(); tl != nil && len(s.name) > s.root {
		s.record(tl, now)
	}
	attrs := attrMap(s.attrs)
	s.mu.Unlock()
	s.rec.emit(event{
		Ev: "span_close", Span: s.name, ID: s.id, Parent: s.parent,
		DurNS: now.Sub(s.start).Nanoseconds(), AllocBytes: heapAllocs() - s.alloc0, Attrs: attrs,
	})
}

// record puts the span's interval on tl, named by its path below the
// root ("macro3d/route/pass" → "route/pass"), int attributes as args.
// A stage (a root's child) goes on "stages" as category
// "stage", or "cache" with a "cache" attribute (a restored checkpoint).
// An engine phase goes on "main" as "stage" if it opened children (the
// analyzer charges a container only for what they leave uncovered),
// else as its stage, like its engine's worker chunks. s.mu is held.
func (s *Span) record(tl *trace.Tracer, end time.Time) {
	path := s.name[s.root+1:]
	track, cat := "main", "stage"
	if !strings.Contains(path, "/") {
		track = "stages"
	} else if !s.opened.Load() {
		cat = s.stage()
	}
	var args []trace.Arg
	for _, a := range s.attrs {
		if v, ok := a.Value.(int); ok {
			args = append(args, trace.N(a.Key, int64(v)))
		} else if a.Key == "cache" && track == "stages" {
			cat = "cache"
		}
	}
	tl.Track(track).Add(cat, path, s.start, end, args...)
}

// stage is the flow stage the span belongs to, "" for a root.
func (s *Span) stage() string {
	stage, _, _ := strings.Cut(s.name[min(s.root+1, len(s.name)):], "/")
	return stage
}

// Workers returns the timeline's worker tracks for an engine run's
// par.Team to record its n workers' chunks on, as category s.stage();
// nil (untraced) when the span is nil or no timeline is attached.
func (s *Span) Workers(n int) *trace.Set {
	if s == nil {
		return nil
	}
	return s.rec.timeline.Load().WorkerSet(s.stage(), n)
}

// Reg returns the backing Recorder's registry; nil (and still safe to
// use) when the span is nil. Engines hoist sp.Reg().Counter(...)
// handles out of their hot loops.
func (s *Span) Reg() *Registry {
	if s == nil {
		return nil
	}
	return s.rec.reg
}

// heapAllocs reads the cumulative heap allocation counter via
// runtime/metrics (cheap; no stop-the-world).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}
