package stash

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func lruKey(i int) Key { return NewKey([]byte(fmt.Sprintf("key-%d", i))) }

// timeAt gives entry i a distinct, monotonic mtime.
func timeAt(i int) time.Time { return time.Unix(int64(1_700_000_000+10*i), 0) }

// frameBytes is the on-disk size of a payload's frame.
func frameBytes(payloadLen int) int64 { return int64(headerSize + payloadLen) }

// TestPutSameKeyConcurrent hammers one key with concurrent Puts and
// Gets. Under -race this is the regression test for the shared-store
// write race: same-key Puts must serialize, every Get must return
// either a miss or the complete payload, and exactly one writer wins.
func TestPutSameKeyConcurrent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := lruKey(0)
	payload := bytes.Repeat([]byte("macro3d"), 1000)

	const writers, readers, rounds = 8, 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := s.Put(k, payload); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if got, ok := s.Get(k); ok && !bytes.Equal(got, payload) {
					t.Errorf("Get returned corrupt payload (%d bytes)", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()

	st := s.Stats()
	if st.Puts != 1 {
		t.Errorf("Puts = %d, want exactly 1 (first writer wins)", st.Puts)
	}
	if want := uint64(writers*rounds - 1); st.DupPuts != want {
		t.Errorf("DupPuts = %d, want %d", st.DupPuts, want)
	}
	if got, ok := s.Get(k); !ok || !bytes.Equal(got, payload) {
		t.Fatal("final Get lost the payload")
	}
}

// TestDupPutSkipsWrite asserts the content-addressed first-wins
// contract: the second Put of a key is a recorded no-op.
func TestDupPutSkipsWrite(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := lruKey(1)
	if err := s.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Puts != 1 || st.DupPuts != 1 {
		t.Errorf("Puts=%d DupPuts=%d, want 1/1", st.Puts, st.DupPuts)
	}
}

// TestLRUEviction fills a byte-capped store past its budget and
// asserts the oldest entry is displaced while the directory stays
// under the cap.
func TestLRUEviction(t *testing.T) {
	const payloadLen = 100
	cap := 3 * frameBytes(payloadLen)
	dir := t.TempDir()
	s, err := OpenLimited(dir, cap)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, payloadLen) }
	for i := 0; i < 4; i++ {
		if err := s.Put(lruKey(i), payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(lruKey(0)); ok {
		t.Error("oldest entry survived eviction")
	}
	for i := 1; i < 4; i++ {
		if got, ok := s.Get(lruKey(i)); !ok || !bytes.Equal(got, payload(i)) {
			t.Errorf("entry %d lost or corrupt after eviction", i)
		}
	}
	assertDirUnder(t, dir, cap)
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
}

// TestLRURecency asserts Get refreshes recency: touching the oldest
// entry redirects eviction to the second-oldest.
func TestLRURecency(t *testing.T) {
	const payloadLen = 100
	s, err := OpenLimited(t.TempDir(), 3*frameBytes(payloadLen))
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte("x"), payloadLen)
	for i := 0; i < 3; i++ {
		if err := s.Put(lruKey(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(lruKey(0)); !ok { // key 0 becomes most recent
		t.Fatal("warm entry missing")
	}
	if err := s.Put(lruKey(3), p); err != nil { // displaces key 1, not key 0
		t.Fatal(err)
	}
	if _, ok := s.Get(lruKey(0)); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := s.Get(lruKey(1)); ok {
		t.Error("least recently used entry survived")
	}
}

// TestRecencyAcrossOpens: an entry's last use survives the process that
// made it. A is written before B; a second open uses A (by Get or a
// duplicate Put); a third open capped at one entry keeps A and
// evicts B.
func TestRecencyAcrossOpens(t *testing.T) {
	const payloadLen = 100
	for _, use := range []struct {
		name string
		fn   func(*Store, Key) bool
	}{
		{"Get", func(s *Store, k Key) bool { _, ok := s.Get(k); return ok }},
		{"Put", func(s *Store, k Key) bool {
			return s.Put(k, bytes.Repeat([]byte{0}, payloadLen)) == nil && s.Stats().DupPuts == 1
		}},
	} {
		t.Run(use.name, func(t *testing.T) {
			dir := t.TempDir()
			a, b := lruKey(0), lruKey(1)
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range []Key{a, b} {
				if err := s.Put(k, bytes.Repeat([]byte{byte(i)}, payloadLen)); err != nil {
					t.Fatal(err)
				}
				if err := os.Chtimes(s.Path(k), timeAt(i), timeAt(i)); err != nil {
					t.Fatal(err)
				}
			}
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !use.fn(s2, a) {
				t.Fatal("A is not there")
			}
			s3, err := OpenLimited(dir, frameBytes(payloadLen))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(s3.Path(a)); err != nil {
				t.Errorf("the entry the last run used was evicted: %v", err)
			}
			if _, err := os.Stat(s3.Path(b)); err == nil {
				t.Error("the entry the last run did not use survived")
			}
		})
	}
}

// TestCappedHandlesShareDirectory: two capped handles over one
// directory keep it under their cap together. Each one's trim reads the
// directory, so a Put through one handle counts what the other wrote.
func TestCappedHandlesShareDirectory(t *testing.T) {
	const payloadLen = 100
	dir := t.TempDir()
	cap := 2 * frameBytes(payloadLen)
	var hs [2]*Store
	for i := range hs {
		s, err := OpenLimited(dir, cap)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = s
	}
	for i := 0; i < 3; i++ {
		if err := hs[i%2].Put(lruKey(i), bytes.Repeat([]byte{byte(i)}, payloadLen)); err != nil {
			t.Fatal(err)
		}
		assertDirUnder(t, dir, cap)
	}
}

// TestOpenLimitedTrimsExisting re-opens an over-budget directory with a
// cap and asserts it is trimmed down, oldest first, on open.
func TestOpenLimitedTrimsExisting(t *testing.T) {
	const payloadLen = 200
	dir := t.TempDir()
	s, err := Open(dir) // unlimited: overfill
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(lruKey(i), bytes.Repeat([]byte{byte(i)}, payloadLen)); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so the scan's oldest-first order is stable.
		mt := os.Chtimes(s.Path(lruKey(i)), timeAt(i), timeAt(i))
		if mt != nil {
			t.Fatal(mt)
		}
	}
	cap := 2 * frameBytes(payloadLen)
	s2, err := OpenLimited(dir, cap)
	if err != nil {
		t.Fatal(err)
	}
	assertDirUnder(t, dir, cap)
	// The newest two survive, the oldest three are gone.
	for i := 0; i < 3; i++ {
		if _, ok := s2.Get(lruKey(i)); ok {
			t.Errorf("old entry %d survived the open-time trim", i)
		}
	}
	for i := 3; i < 5; i++ {
		if _, ok := s2.Get(lruKey(i)); !ok {
			t.Errorf("new entry %d lost in the open-time trim", i)
		}
	}
}

// TestOversizePayloadSkipped asserts a payload that alone exceeds the
// cap is refused outright — never stored-then-evicted, so the
// directory never overshoots its budget even transiently.
func TestOversizePayloadSkipped(t *testing.T) {
	dir := t.TempDir()
	cap := frameBytes(10)
	s, err := OpenLimited(dir, cap)
	if err != nil {
		t.Fatal(err)
	}
	k := lruKey(0)
	if err := s.Put(k, bytes.Repeat([]byte("z"), 1000)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Error("oversize payload was stored")
	}
	if st := s.Stats(); st.CapSkips != 1 || st.Puts != 0 {
		t.Errorf("CapSkips=%d Puts=%d, want 1/0", st.CapSkips, st.Puts)
	}
	assertDirUnder(t, dir, cap)
}

// TestGetDuringEviction floods a tiny capped store from many writers
// while readers hammer every key: eviction may turn hits into misses
// but must never surface a torn or wrong payload, and the directory
// must stay under the cap throughout. Run with -race.
func TestGetDuringEviction(t *testing.T) {
	const payloadLen = 64
	const keys = 16
	dir := t.TempDir()
	cap := 4 * frameBytes(payloadLen)
	s, err := OpenLimited(dir, cap)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, payloadLen)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				k := (w + i) % keys
				if err := s.Put(lruKey(k), payload(k)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (r + i) % keys
				if got, ok := s.Get(lruKey(k)); ok && !bytes.Equal(got, payload(k)) {
					t.Errorf("key %d: corrupt payload under eviction pressure", k)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	assertDirUnder(t, dir, cap)
}

// TestCorruptionUnderContention bit-flips snapshots while readers and
// writers run: a corrupted entry must read as a miss (never as wrong
// bytes), be evicted, and accept a clean re-Put.
func TestCorruptionUnderContention(t *testing.T) {
	const keys = 8
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('A' + i)}, 256)
	}
	for i := 0; i < keys; i++ {
		if err := s.Put(lruKey(i), payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	// Corruptor: flip the last byte of each snapshot, twice over.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 2; round++ {
			for i := 0; i < keys; i++ {
				p := s.Path(lruKey(i))
				b, err := os.ReadFile(p)
				if err != nil || len(b) == 0 {
					continue // already evicted — fine
				}
				b[len(b)-1] ^= 0x55
				_ = os.WriteFile(p, b, 0o644)
			}
		}
	}()
	// Readers: any successful Get must be byte-perfect.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := (r + i) % keys
				if got, ok := s.Get(lruKey(k)); ok && !bytes.Equal(got, payload(k)) {
					t.Errorf("key %d: corrupt bytes served as a hit", k)
					return
				}
			}
		}(r)
	}
	// Writers: repopulate what the corruptor destroys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			k := i % keys
			if err := s.Put(lruKey(k), payload(k)); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Settle: every key must be restorable to a clean hit. The corruptor's
	// last write may have landed after the last reader, and Put over an
	// existing file is a no-op, so a Get first evicts what is corrupt.
	for i := 0; i < keys; i++ {
		s.Get(lruKey(i))
		if err := s.Put(lruKey(i), payload(i)); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(lruKey(i)); !ok || !bytes.Equal(got, payload(i)) {
			t.Errorf("key %d not restorable after corruption", i)
		}
	}
}

// assertDirUnder sums the *.snap files and fails if they exceed cap.
func assertDirUnder(t *testing.T, dir string, cap int64) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			continue
		}
		total += info.Size()
	}
	if total > cap {
		t.Errorf("on-disk snapshots total %d bytes, cap is %d", total, cap)
	}
}
