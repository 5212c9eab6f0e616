// Package stash is a content-addressed, on-disk stage cache for flow
// checkpoint/resume. A snapshot of a completed stage's state is stored
// under a key that hashes everything the state depends on (technology,
// flow kind, configuration, and the upstream stage's key — see Key),
// so a later run whose inputs match up to some stage loads the
// snapshot and skips straight past it. Sweeps and tables that revisit
// the same configuration hit automatically.
//
// Snapshots are framed with a magic string, the codec version and a
// SHA-256 payload checksum, and written atomically (temp file in the
// cache directory + rename), so a crash mid-write never leaves a
// readable-but-wrong entry. A truncated or bit-flipped file fails the
// frame check, is evicted, and reads as a miss — corruption costs a
// recompute, never a wrong resume.
package stash

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Version is the snapshot codec version. It participates in every
// cache key, so bumping it — on any change to the snapshot format or
// to flow semantics the snapshots capture — invalidates the whole
// cache without needing to delete files. Version 2: routing results as
// 5-byte nodes behind a count header, sign-off snapshots with their
// sink total up front (flows/checkpoint.go). Version 3: same format,
// but the electrostatic placer became the only global placer, so a
// configuration that used to mean the quadratic placer's results now
// means different ones — a version-2 cache must miss, never alias.
// Version 4: same format again; the placer's wirelength kernel takes its
// exponentials once per point instead of per pin, so placements differ
// in their last bits and -cache-verify against a version-3 cache would
// fail bit for bit. Version 5: same format; the sign-off snapshot's
// timing report carries the hold check, which it used to write as zeros
// (hold sign-off moved inside the sign-off region). Version 6: same
// format; routing contract — every route, ECO reroutes included, treats
// a macro obstruction as a wall, so a version-5 route, sign-off or
// harden snapshot may hold wires through SRAMs and must miss. Version
// 7: same format; a wall's pin access counts as capacity, not overflow,
// so negotiation reroutes other victims and a version-6 route, sign-off
// or harden snapshot of a flow with pin access must miss. Version 8:
// same wire format; a via stack is one segment however many cuts it
// holds, so a version-7 route holds per-cut segments a fresh run no
// longer writes, and its snapshots must miss.
const Version = 8

// fileMagic opens every snapshot file.
const fileMagic = "M3DSNAP1"

// headerSize is magic + u32 version + u64 payload length + sha256.
const headerSize = len(fileMagic) + 4 + 8 + sha256.Size

// Stats is a point-in-time summary of one Store handle's traffic.
// Counters are per-handle (in-memory), not persisted with the cache.
type Stats struct {
	Hits, Misses uint64
	Puts         uint64
	Evictions    uint64 // corrupt, verify-failed or LRU-displaced entries removed
	Errors       uint64 // I/O failures (reads and writes)
	BytesRead    uint64 // payload bytes served from hits
	BytesWritten uint64 // payload bytes stored by puts
	DupPuts      uint64 // puts that found the entry already stored and skipped the write
	CapSkips     uint64 // puts refused because the payload alone exceeds the byte cap
}

// Store is a cache directory. All methods are safe for concurrent use,
// including concurrent use of the same key: same-key Puts serialize on
// a per-key lock (first writer wins, later writers skip), and evicting
// an entry never corrupts a concurrent read of it. A Store opened with
// OpenLimited additionally keeps the directory under a byte cap with
// LRU eviction.
type Store struct {
	dir string

	hits, misses, puts, evictions, errs atomic.Uint64
	bytesRead, bytesWritten             atomic.Uint64
	dupPuts, capSkips                   atomic.Uint64

	// Per-key write locks (see keyLock) and the LRU index of a
	// byte-capped store (nil maps/list when unlimited; see lru.go).
	locks    sync.Map
	maxBytes int64
	lmu      sync.Mutex
	ll       *list.List
	idx      map[Key]*list.Element
	total    int64
}

// Open opens (creating if needed) a cache directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stash: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file a key is stored under.
func (s *Store) Path(k Key) string {
	return filepath.Join(s.dir, k.String()+".snap")
}

// Get returns the payload stored under k. A missing entry returns
// (nil, false); a corrupt entry (bad magic, wrong version, truncation,
// checksum mismatch) is evicted and also returns (nil, false).
func (s *Store) Get(k Key) ([]byte, bool) {
	b, err := os.ReadFile(s.Path(k))
	if err != nil {
		if !os.IsNotExist(err) {
			s.errs.Add(1)
		}
		s.misses.Add(1)
		return nil, false
	}
	payload, err := unframe(b)
	if err != nil {
		s.Evict(k)
		s.misses.Add(1)
		return nil, false
	}
	s.used(k)
	s.hits.Add(1)
	s.bytesRead.Add(uint64(len(payload)))
	return payload, true
}

// Touch records a hit on k without reading it, for a caller that needs
// to know only that the entry is there: its recency is refreshed as a
// Get's is, and no bytes are read. It reports false, counting nothing,
// when there is no entry. The entry is not checked; a corrupt one is
// found by the next Get.
func (s *Store) Touch(k Key) bool {
	if !s.used(k) {
		return false
	}
	s.hits.Add(1)
	return true
}

// used makes k the most recently used entry, in the index and on disk:
// its modification time is its last use, which OpenLimited ranks by in a
// later process. It reports false when the file is not there; a failure
// to set the time otherwise leaves the entry as it was.
func (s *Store) used(k Key) bool {
	now := time.Now()
	if err := os.Chtimes(s.Path(k), now, now); errors.Is(err, fs.ErrNotExist) {
		return false
	}
	s.markUsed(k)
	return true
}

// Put stores payload under k, atomically: the frame is written to a
// temporary file in the cache directory and renamed into place, so a
// crash or full disk mid-write leaves no entry at all. Concurrent Puts
// of the same key serialize; the losers find the entry present and
// return without writing (the store is content-addressed — same key,
// same content). Put does not read what is there: a corrupt entry is
// healed by the next Get, which evicts it, not by a Put over it. On a
// byte-capped store the write may displace the
// least-recently-used entries, and a payload that alone exceeds the
// cap is not stored at all.
func (s *Store) Put(k Key, payload []byte) error {
	mu := s.keyLock(k)
	mu.Lock()
	defer mu.Unlock()
	if s.exists(k) {
		s.dupPuts.Add(1)
		s.markUsed(k)
		return nil
	}
	frameSize := int64(headerSize + len(payload))
	if s.maxBytes > 0 && frameSize > s.maxBytes {
		s.capSkips.Add(1)
		return nil
	}
	f, err := os.CreateTemp(s.dir, ".put-*.tmp")
	if err != nil {
		s.errs.Add(1)
		return fmt.Errorf("stash: put %s: %w", k, err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		s.errs.Add(1)
		return fmt.Errorf("stash: put %s: %w", k, err)
	}
	if _, err := f.Write(frameHeader(payload)); err != nil {
		return fail(err)
	}
	if _, err := f.Write(payload); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, s.Path(k)); err != nil {
		os.Remove(tmp)
		s.errs.Add(1)
		return fmt.Errorf("stash: put %s: %w", k, err)
	}
	s.admit(k, frameSize)
	s.puts.Add(1)
	s.bytesWritten.Add(uint64(len(payload)))
	return nil
}

// Evict removes the entry stored under k, if any. It takes the key's
// write lock, so an eviction never interleaves with a Put of the same
// key (the corrupt-entry path cannot delete a just-rewritten snapshot
// mid-commit).
func (s *Store) Evict(k Key) {
	mu := s.keyLock(k)
	mu.Lock()
	defer mu.Unlock()
	s.forget(k)
	if err := os.Remove(s.Path(k)); err == nil {
		s.evictions.Add(1)
	} else if !os.IsNotExist(err) {
		s.errs.Add(1)
	}
}

// Stats returns this handle's traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		Evictions:    s.evictions.Load(),
		Errors:       s.errs.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		DupPuts:      s.dupPuts.Load(),
		CapSkips:     s.capSkips.Load(),
	}
}

// frameHeader returns what precedes a payload in its snapshot file:
// magic, version, length and checksum.
func frameHeader(payload []byte) []byte {
	out := make([]byte, 0, headerSize)
	out = append(out, fileMagic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	return append(out, sum[:]...)
}

// unframe validates a snapshot file and returns its payload.
func unframe(b []byte) ([]byte, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("stash: snapshot truncated (%d bytes)", len(b))
	}
	if !bytes.Equal(b[:len(fileMagic)], []byte(fileMagic)) {
		return nil, fmt.Errorf("stash: bad snapshot magic")
	}
	b = b[len(fileMagic):]
	if v := binary.LittleEndian.Uint32(b); v != Version {
		return nil, fmt.Errorf("stash: snapshot version %d, want %d", v, Version)
	}
	n := binary.LittleEndian.Uint64(b[4:])
	b = b[12:]
	var sum [sha256.Size]byte
	copy(sum[:], b)
	payload := b[sha256.Size:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("stash: snapshot payload is %d bytes, header says %d", len(payload), n)
	}
	if got := sha256.Sum256(payload); got != sum {
		return nil, fmt.Errorf("stash: snapshot checksum mismatch")
	}
	return payload, nil
}
