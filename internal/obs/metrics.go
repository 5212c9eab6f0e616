package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is the per-run metric namespace: get-or-create counters and
// gauges by name. All methods are safe for concurrent use and valid
// on a nil receiver (returning nil metrics, whose operations no-op) —
// the disabled-observability fast path is a pointer check.
type Registry struct {
	mu     sync.Mutex
	byName map[string]any // *Counter or *Gauge
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
		return mustBe[Counter](name, m)
	}
	c := &Counter{help: help}
	r.byName[name] = c
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
		return mustBe[Gauge](name, m)
	}
	g := &Gauge{help: help}
	r.byName[name] = g
	return g
}

// mustBe returns the registered metric m as an *M, panicking when name
// was registered as the other kind.
func mustBe[M Counter | Gauge](name string, m any) *M {
	typed, ok := m.(*M)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q re-registered as %T (was %T)", name, typed, m))
	}
	return typed
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

// Metric is the point-in-time snapshot of one registered metric.
type Metric struct {
	Name  string
	Kind  string // "counter" or "gauge"
	Help  string
	Value float64
}

// Snapshot returns every registered metric's current state, sorted by
// name (deterministic export order). Nil-safe: a nil registry
// snapshots empty.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Metric, 0, len(r.byName))
	for n, m := range r.byName {
		switch m := m.(type) {
		case *Counter:
			out = append(out, Metric{Name: n, Kind: "counter", Help: m.help, Value: float64(m.Value())})
		case *Gauge:
			out = append(out, Metric{Name: n, Kind: "gauge", Help: m.help, Value: m.Value()})
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
