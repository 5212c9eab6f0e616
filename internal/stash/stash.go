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
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
// so a Store is a *shared* artifact store — flows running at once over
// one directory — and, through the CLI's -cache-max-bytes, a bounded
// one:
//
//   - Single-writer-per-key: concurrent Puts of the same key serialize
//     on a per-key lock, and the second writer finds the entry already
//     present and skips the write entirely (same key ⇒ same content in
//     a content-addressed store, so first-wins is sound and saves the
//     duplicate I/O). Evict takes the same lock, so a Put can never
//     interleave with an eviction of its own key.
//
//   - Byte cap, least recently used first: an entry's modification time
//     is its last use (Get and Put, a duplicate Put included, set it to
//     now), and a Store opened with OpenLimited scans the directory
//     after each Put, and once at open, removing the entries
//     with the oldest times until the snapshots fit the cap. The files
//     are the only record of size and recency, so handles over one
//     directory, in one process or in several, see each other's writes
//     and uses. Readers are never harmed by eviction: Get opens the file
//     before any concurrent Remove could run, and POSIX keeps an
//     unlinked-but-open file readable, so a hit always returns a
//     complete, checksum-verified payload — eviction can only turn a
//     would-be hit into a miss.
type Store struct {
	dir string

	hits, misses, puts, evictions, errs atomic.Uint64
	bytesRead, bytesWritten             atomic.Uint64
	dupPuts, capSkips                   atomic.Uint64

	// Per-key write locks (see keyLock), and the byte cap (0 when
	// unlimited) with the lock its trims serialize on (see trim).
	locks    sync.Map
	maxBytes int64
	trimMu   sync.Mutex
}

// Open opens (creating if needed) a cache directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stash: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// OpenLimited opens a cache directory with a byte cap: the total size
// of all snapshot frames is kept at or below maxBytes by evicting the
// least-recently-used entries, and a directory that already exceeds the
// cap is trimmed at once. maxBytes <= 0 means unlimited (identical to
// Open).
func OpenLimited(dir string, maxBytes int64) (*Store, error) {
	s, err := Open(dir)
	if err != nil {
		return nil, err
	}
	s.maxBytes = maxBytes
	if err := s.trim(""); err != nil {
		return nil, err
	}
	return s, nil
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

// used makes k the most recently used entry: its modification time is
// its last use, which a capped store's trims rank by, in this process
// or a later one. The time is set to now, not left to the write: the
// kernel's write time is coarse, so an entry written within one clock
// tick of another could tie with it. It reports false when the file is
// not there; a failure to set the time otherwise leaves the entry as it
// was.
func (s *Store) used(k Key) bool {
	now := time.Now()
	return !errors.Is(os.Chtimes(s.Path(k), now, now), fs.ErrNotExist)
}

// Put stores payload under k, atomically: the frame is written to a
// temporary file in the cache directory and renamed into place, so a
// crash or full disk mid-write leaves no entry at all. Concurrent Puts
// of the same key serialize; the losers find the entry present and
// return without writing (the store is content-addressed — same key,
// same content), but a duplicate Put is a use of the entry, as a Get
// is. Put does not read what is there: a corrupt entry is healed by the
// next Get, which evicts it, not by a Put over it. On a byte-capped
// store the write may displace the least-recently-used entries, and a
// payload that alone exceeds the cap is not stored at all.
func (s *Store) Put(k Key, payload []byte) error {
	mu := s.keyLock(k)
	mu.Lock()
	defer mu.Unlock()
	if s.used(k) {
		s.dupPuts.Add(1)
		return nil
	}
	if s.maxBytes > 0 && int64(headerSize+len(payload)) > s.maxBytes {
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
	s.used(k) // the write's own time is too coarse to rank by
	s.puts.Add(1)
	s.bytesWritten.Add(uint64(len(payload)))
	if err := s.trim(filepath.Base(s.Path(k))); err != nil {
		s.errs.Add(1)
	}
	return nil
}

// trim removes snapshots, oldest modification time first, until the
// directory's fit the cap, sparing the file named keep (the entry just
// written; "" spares none). Trims serialize, so no two pick the same
// victim.
func (s *Store) trim(keep string) error {
	if s.maxBytes <= 0 {
		return nil
	}
	s.trimMu.Lock()
	defer s.trimMu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("stash: trim %s: %w", s.dir, err)
	}
	type snap struct {
		name string
		size int64
		used time.Time
	}
	var snaps []snap
	var total int64
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".snap") {
			continue
		}
		info, err := ent.Info()
		if err != nil { // removed since the scan
			continue
		}
		snaps = append(snaps, snap{ent.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= s.maxBytes {
		return nil
	}
	slices.SortFunc(snaps, func(a, b snap) int {
		return cmp.Or(a.used.Compare(b.used), strings.Compare(a.name, b.name))
	})
	for _, sn := range snaps {
		if total <= s.maxBytes {
			break
		}
		if sn.name == keep {
			continue
		}
		total -= sn.size
		s.remove(filepath.Join(s.dir, sn.name))
	}
	return nil
}

// keyLock returns the per-key write lock, creating it on first use.
// Locks are never removed — the key space of one run is small (one
// lock per distinct checkpoint), so the map stays bounded.
func (s *Store) keyLock(k Key) *sync.Mutex {
	if mu, ok := s.locks.Load(k); ok {
		return mu.(*sync.Mutex)
	}
	mu, _ := s.locks.LoadOrStore(k, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// Evict removes the entry stored under k, if any. It takes the key's
// write lock, so an eviction never interleaves with a Put of the same
// key (the corrupt-entry path cannot delete a just-rewritten snapshot
// mid-commit).
func (s *Store) Evict(k Key) {
	mu := s.keyLock(k)
	mu.Lock()
	defer mu.Unlock()
	s.remove(s.Path(k))
}

// remove deletes a snapshot file, counting an eviction, or an error if
// it was there and stays. It is safe against concurrent readers: an
// already-opened file stays readable until closed (POSIX), and a reader
// that has not opened it yet simply misses.
func (s *Store) remove(path string) {
	if err := os.Remove(path); err == nil {
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
