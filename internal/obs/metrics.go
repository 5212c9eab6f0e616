package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is the per-run metric namespace: get-or-create typed
// metrics by name. All methods are safe for concurrent use and valid
// on a nil receiver (returning nil metrics, whose operations no-op) —
// the disabled-observability fast path is a pointer check.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]any
	ordered []string
}

func newRegistry() *Registry {
	return &Registry{byName: map[string]any{}}
}

// Counter returns the registered counter, creating it on first use.
// Registering one name as two different metric kinds panics: that is
// a programming error, not a runtime condition.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered as counter (was %T)", name, m))
		}
		return c
	}
	c := &Counter{help: help}
	r.byName[name] = c
	r.ordered = append(r.ordered, name)
	return c
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered as gauge (was %T)", name, m))
		}
		return g
	}
	g := &Gauge{help: help}
	r.byName[name] = g
	r.ordered = append(r.ordered, name)
	return g
}

// DefBuckets is the default histogram bucketing: roughly logarithmic,
// wide enough for counts (dirty-frontier sizes) and microsecond-to-
// second durations alike.
var DefBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Histogram returns the registered histogram, creating it on first
// use with the given bucket upper bounds (DefBuckets when none are
// given). Bounds must be sorted ascending; the +Inf bucket is
// implicit.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered as histogram (was %T)", name, m))
		}
		return h
	}
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	h := &Histogram{help: help, bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	r.byName[name] = h
	r.ordered = append(r.ordered, name)
	return h
}

// Counter is a monotonically increasing count. Nil-safe and
// goroutine-safe.
type Counter struct {
	help string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float value. Nil-safe and goroutine-safe.
type Gauge struct {
	help string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Nil-safe and
// goroutine-safe; Observe is lock-free.
type Histogram struct {
	help    string
	bounds  []float64       // upper bounds, ascending; +Inf implicit
	buckets []atomic.Uint64 // len(bounds)+1, non-cumulative
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	LE    float64 `json:"le"` // +Inf on the last bucket
	Count uint64  `json:"count"`
}

// Metric is the point-in-time snapshot of one registered metric.
type Metric struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"` // "counter", "gauge", "histogram"
	Help    string   `json:"help,omitempty"`
	Value   float64  `json:"value"`             // counter/gauge current value
	Count   uint64   `json:"count,omitempty"`   // histogram observations
	Sum     float64  `json:"sum,omitempty"`     // histogram sum
	Buckets []Bucket `json:"buckets,omitempty"` // cumulative
}

// Snapshot returns every registered metric's current state, sorted by
// name (deterministic export order). Nil-safe: a nil registry
// snapshots empty.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.ordered...)
	metrics := make([]any, len(names))
	for i, n := range names {
		metrics[i] = r.byName[n]
	}
	r.mu.Unlock()

	out := make([]Metric, 0, len(names))
	for i, n := range names {
		switch m := metrics[i].(type) {
		case *Counter:
			out = append(out, Metric{Name: n, Kind: "counter", Help: m.help, Value: float64(m.Value())})
		case *Gauge:
			out = append(out, Metric{Name: n, Kind: "gauge", Help: m.help, Value: m.Value()})
		case *Histogram:
			s := Metric{Name: n, Kind: "histogram", Help: m.help}
			var cum uint64
			for bi := range m.buckets {
				cum += m.buckets[bi].Load()
				le := math.Inf(1)
				if bi < len(m.bounds) {
					le = m.bounds[bi]
				}
				s.Buckets = append(s.Buckets, Bucket{LE: le, Count: cum})
			}
			s.Count = m.count.Load()
			s.Sum = math.Float64frombits(m.sumBits.Load())
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
