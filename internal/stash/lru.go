package stash

import (
	"container/list"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// This file makes a Store safe and bounded as a *shared* artifact
// store — flows running at once in one process over one Store, and the
// CLI's -cache-max-bytes:
//
//   - Single-writer-per-key: concurrent Puts of the same key serialize
//     on a per-key lock, and the second writer finds the entry already
//     present and skips the write entirely (same key ⇒ same content in
//     a content-addressed store, so first-wins is sound and saves the
//     duplicate I/O). Evict takes the same lock, so a Put can never
//     interleave with an eviction of its own key.
//
//   - Byte-capped LRU: a Store opened with OpenLimited tracks every
//     entry in recency order and evicts the least-recently-used entries
//     whenever the total exceeds the cap. Readers are never harmed by
//     eviction: Get opens the file before any concurrent Remove could
//     run, and POSIX keeps an unlinked-but-open file readable, so a hit
//     always returns a complete, checksum-verified payload — eviction
//     can only turn a would-be hit into a miss.

// lruEntry is one tracked snapshot: its key and on-disk frame size.
type lruEntry struct {
	key  Key
	size int64
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

// exists reports whether an entry is present. Tracked stores answer
// from the index (authoritative within the owning process); untracked
// stores ask the filesystem.
func (s *Store) exists(k Key) bool {
	if s.maxBytes > 0 {
		s.lmu.Lock()
		_, ok := s.idx[k]
		s.lmu.Unlock()
		return ok
	}
	_, err := os.Stat(s.Path(k))
	return err == nil
}

// OpenLimited opens a cache directory with a byte cap: the total size
// of all snapshot frames is kept at or below maxBytes by evicting the
// least-recently-used entries. Pre-existing snapshots are indexed by
// modification time — their last use, which a hit (Get, Touch) writes —
// oldest least recent, and trimmed immediately if the directory already
// exceeds the cap. maxBytes <= 0 means unlimited
// (identical to Open).
func OpenLimited(dir string, maxBytes int64) (*Store, error) {
	s, err := Open(dir)
	if err != nil {
		return nil, err
	}
	if maxBytes <= 0 {
		return s, nil
	}
	s.maxBytes = maxBytes
	s.ll = list.New()
	s.idx = make(map[Key]*list.Element)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("stash: open %s: %w", dir, err)
	}
	type onDisk struct {
		e     lruEntry
		mtime int64
	}
	var found []onDisk
	for _, ent := range entries {
		stem, ok := strings.CutSuffix(ent.Name(), ".snap")
		if !ok {
			continue
		}
		raw, err := hex.DecodeString(stem)
		if err != nil || len(raw) != len(Key{}) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		var k Key
		copy(k[:], raw)
		found = append(found, onDisk{lruEntry{key: k, size: info.Size()}, info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	s.lmu.Lock()
	for _, f := range found { // oldest pushed first ends up at the back
		s.idx[f.e.key] = s.ll.PushFront(&lruEntry{key: f.e.key, size: f.e.size})
		s.total += f.e.size
	}
	s.evictOverflowLocked(nil)
	s.lmu.Unlock()
	return s, nil
}

// Usage returns the tracked total of on-disk frame bytes and the cap.
// Both are zero for an unlimited store.
func (s *Store) Usage() (total, max int64) {
	if s.maxBytes <= 0 {
		return 0, 0
	}
	s.lmu.Lock()
	defer s.lmu.Unlock()
	return s.total, s.maxBytes
}

// markUsed marks k most-recently-used in the index.
func (s *Store) markUsed(k Key) {
	if s.maxBytes <= 0 {
		return
	}
	s.lmu.Lock()
	if el, ok := s.idx[k]; ok {
		s.ll.MoveToFront(el)
	}
	s.lmu.Unlock()
}

// admit records a freshly stored entry and evicts overflow. The entry
// being admitted is never chosen as an eviction victim.
func (s *Store) admit(k Key, size int64) {
	if s.maxBytes <= 0 {
		return
	}
	s.lmu.Lock()
	if el, ok := s.idx[k]; ok {
		e := el.Value.(*lruEntry)
		s.total += size - e.size
		e.size = size
		s.ll.MoveToFront(el)
	} else {
		s.idx[k] = s.ll.PushFront(&lruEntry{key: k, size: size})
		s.total += size
	}
	s.evictOverflowLocked(&k)
	s.lmu.Unlock()
}

// forget drops k from the index (entry removed from disk elsewhere).
func (s *Store) forget(k Key) {
	if s.maxBytes <= 0 {
		return
	}
	s.lmu.Lock()
	if el, ok := s.idx[k]; ok {
		s.total -= el.Value.(*lruEntry).size
		s.ll.Remove(el)
		delete(s.idx, k)
	}
	s.lmu.Unlock()
}

// evictOverflowLocked removes least-recently-used entries until the
// total fits the cap, sparing keep (the entry just admitted). Called
// with lmu held.
func (s *Store) evictOverflowLocked(keep *Key) {
	for s.total > s.maxBytes {
		el := s.ll.Back()
		if el == nil {
			return
		}
		e := el.Value.(*lruEntry)
		if keep != nil && e.key == *keep {
			if s.ll.Len() == 1 {
				return
			}
			s.ll.MoveToFront(el)
			continue
		}
		s.ll.Remove(el)
		delete(s.idx, e.key)
		s.total -= e.size
		// Removing the path is safe against concurrent readers: an
		// already-opened file stays readable until closed (POSIX), and
		// a reader that has not opened yet simply misses.
		if err := os.Remove(filepath.Join(s.dir, e.key.String()+".snap")); err == nil || os.IsNotExist(err) {
			s.evictions.Add(1)
		} else {
			s.errs.Add(1)
		}
	}
}
