package flows

import (
	"fmt"
	"sync"
	"sync/atomic"

	"macro3d/internal/piton"
)

// The package's two memo tables — the one exception to DESIGN.md §17's
// "no package-level mutable state". Each holds the result of a pure
// function of a small key, written once per key and read-only after
// that: tiles, one template tile per piton.Config, which runs only ever
// receive copies of, and whose name index every copy shares;
// fingerprints, the technology hash rootKey chains from, per logic-metal
// count, which runs only read.
var (
	tiles = memo[piton.Config, *piton.Tile]{build: func(cfg piton.Config) (*piton.Tile, error) {
		t, err := piton.Generate(cfg)
		if err != nil {
			return nil, err
		}
		// Stored as a copy: no slab slack, no generator scratch — half the
		// bytes of the tile Generate returns. Sealed, it builds its name
		// index once, here, and is read only from then on: the copies runs
		// edit look their template's names up in that index and hash only
		// the names their edits add.
		c := t.Clone()
		c.Design.Seal()
		return c, nil
	}}
	fingerprints = memo[int, []byte]{build: buildTechFingerprint}
)

// newTile returns a copy of the tile cfg generates, for one run to own.
// The template is built on the first request for cfg in the process;
// every request, the first included, gets an exact-size copy of it that
// shares the template's name index.
func newTile(cfg piton.Config) (*piton.Tile, error) {
	t, err := tiles.get(cfg)
	if err != nil {
		return nil, err
	}
	return t.Clone(), nil
}

// memoCap bounds a memo's entries. A process meets a handful of keys (a
// Table I run: two tile configurations), and a key that never equals
// itself — a NaN TargetLogicArea — would otherwise add an entry per
// lookup, forever.
const memoCap = 4

// memo caches build(k) for the memoCap most recently used keys. It is
// safe for concurrent use: the table is edited under a lock, and each
// entry is built once, outside it, by whichever caller asks first while
// the others wait for that build.
type memo[K comparable, V any] struct {
	build func(K) (V, error)

	mu      sync.Mutex
	entries []*memoEntry[K, V] // least recently used first
	builds  atomic.Int64       // build calls so far
}

type memoEntry[K comparable, V any] struct {
	key  K
	once sync.Once
	v    V
	err  error
}

// get returns build(k), building it if k has no entry.
func (m *memo[K, V]) get(k K) (V, error) {
	m.mu.Lock()
	var e *memoEntry[K, V]
	for i, x := range m.entries {
		if x.key == k {
			e = x
			m.entries = append(append(m.entries[:i], m.entries[i+1:]...), e)
			break
		}
	}
	if e == nil {
		if len(m.entries) == memoCap {
			m.entries = append(m.entries[:0], m.entries[1:]...)
		}
		e = &memoEntry[K, V]{key: k}
		m.entries = append(m.entries, e)
	}
	m.mu.Unlock()
	e.once.Do(func() {
		m.builds.Add(1)
		// Should build panic, the panic reaches the first caller and the
		// entry keeps this error for the rest.
		e.err = fmt.Errorf("flows: building %v panicked", k)
		e.v, e.err = m.build(k)
	})
	return e.v, e.err
}
