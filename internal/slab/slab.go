// Package slab is the record store behind the design containers
// (netlist.Design, route.Result, extract.Design): a chunked,
// append-only arena that hands out records and exact-size spans instead
// of one heap object each.
//
// The invariant everything else leans on: a chunk is never reallocated.
// Growth appends a new chunk, so a pointer or span handed out stays
// valid — and keeps pointing at the same memory — for as long as its
// holder keeps it. A chunk is collected only once nothing points into it
// any more, so a record that changes one at a time under a long-lived
// owner (an ECO route, an incremental NetRC) is not replaced by a new
// one but rewritten where it lies, keeping its spans while they fit
// (Fit); what it outgrows is abandoned inside the chunk.
package slab

// minChunk is the size of the first chunk of a slab that was not
// Reserve'd; chunks then grow geometrically (each as large as
// everything before it), so a tiny design does not reserve a paper tile
// and a large one allocates O(log n) chunks.
const minChunk = 64

// Slab is an arena of T. The zero value is empty and ready to use. It
// is not safe for concurrent use; concurrent builders keep one each.
type Slab[T any] struct {
	chunks [][]T // every chunk at full length; filled in order
	ci     int   // chunk being filled
	used   int   // records handed out of chunks[ci]
	total  int   // Σ len(chunks)
}

// free returns the number of records available without allocating,
// counting only whole contiguous runs: the rest of the current chunk
// and every chunk after it.
func (s *Slab[T]) free() int {
	n := 0
	for i := s.ci; i < len(s.chunks); i++ {
		n += len(s.chunks[i])
	}
	return n - s.used
}

// Reserve makes room for n more single records without further
// allocation: at most one chunk is added, sized to what is missing.
func (s *Slab[T]) Reserve(n int) {
	if missing := n - s.free(); missing > 0 {
		s.addChunk(missing)
	}
}

// ReserveSpans makes room for spans totalling n more records without
// further allocation. A span never straddles chunks and the tail it
// skips is not revisited, so scattered free records (what Reserve
// counts) do not add up: only one contiguous run of n does. At most one
// chunk of exactly n is added; on an empty slab that is what Reserve
// does too.
func (s *Slab[T]) ReserveSpans(n int) {
	used := s.used
	for i := s.ci; i < len(s.chunks); i++ {
		if len(s.chunks[i])-used >= n {
			return
		}
		used = 0
	}
	s.addChunk(n)
}

func (s *Slab[T]) addChunk(n int) {
	s.chunks = append(s.chunks, make([]T, n))
	s.total += n
}

// Alloc returns a pointer to the next record, zero-valued.
func (s *Slab[T]) Alloc() *T {
	return &s.Span(1)[0]
}

// Span returns the next n records as one contiguous slice with
// len == cap == n, so an append by the holder copies out instead of
// running into a neighbour. A span does not straddle chunks: when the
// current chunk cannot hold it the remainder of that chunk is skipped.
func (s *Slab[T]) Span(n int) []T {
	if n == 0 {
		return nil
	}
	for s.ci < len(s.chunks) && len(s.chunks[s.ci])-s.used < n {
		s.ci++
		s.used = 0
	}
	if s.ci == len(s.chunks) {
		s.addChunk(max(n, minChunk, s.total))
	}
	out := s.chunks[s.ci][s.used : s.used+n : s.used+n]
	s.used += n
	return out
}

// Fit returns have resliced to n records when its span holds that many
// (cap(have) ≥ n), and a new span of n when it does not — how a record
// that is rewritten in place keeps its span until it outgrows it. The
// old span is then abandoned where it lies.
func (s *Slab[T]) Fit(have []T, n int) []T {
	if n <= cap(have) {
		return have[:n]
	}
	return s.Span(n)
}

// Release takes back the last n records handed out by Alloc, newest
// first, zeroing them so that they hold nothing alive and the next
// Alloc finds them zero-valued again. It costs O(n), not O(slab). Only
// a slab filled purely by Alloc may be rewound: Span skips chunk tails
// that Release would miscount.
func (s *Slab[T]) Release(n int) {
	for n > 0 {
		if s.used == 0 {
			if s.ci == 0 {
				panic("slab: Release of more records than were allocated")
			}
			s.ci--
			s.used = len(s.chunks[s.ci])
			continue
		}
		k := min(n, s.used)
		clear(s.chunks[s.ci][s.used-k : s.used])
		s.used -= k
		n -= k
	}
}
