package slab

import "testing"

type rec struct {
	id int
	p  *int
}

// TestAllocNeverMoves: records keep their address and contents while the
// slab grows through many chunks, and chunk sizes grow geometrically.
func TestAllocNeverMoves(t *testing.T) {
	var s Slab[rec]
	const n = 5000
	ptrs := make([]*rec, n)
	for i := range ptrs {
		ptrs[i] = s.Alloc()
		if *ptrs[i] != (rec{}) {
			t.Fatalf("record %d not zero on allocation", i)
		}
		ptrs[i].id = i
	}
	seen := map[*rec]bool{}
	for i, p := range ptrs {
		if p.id != i || seen[p] {
			t.Fatalf("record %d moved or aliased (id %d)", i, p.id)
		}
		seen[p] = true
	}
	if len(s.chunks) > 10 {
		t.Fatalf("%d records took %d chunks; growth is not geometric", n, len(s.chunks))
	}
	if len(s.chunks[0]) != minChunk {
		t.Fatalf("first chunk holds %d records, want %d", len(s.chunks[0]), minChunk)
	}
}

// TestReserveIsOneChunk: Reserve adds at most one chunk, sized to what
// is missing, and the reserved records then come without allocation.
func TestReserveIsOneChunk(t *testing.T) {
	var s Slab[rec]
	s.Alloc()
	s.Reserve(1000)
	if len(s.chunks) != 2 || s.free() != 1000 {
		t.Fatalf("after Reserve(1000): %d chunks, %d free", len(s.chunks), s.free())
	}
	s.Reserve(500) // already there
	if len(s.chunks) != 2 {
		t.Fatal("a satisfied Reserve allocated")
	}
	if a := testing.AllocsPerRun(1, func() {
		for i := 0; i < 400; i++ {
			s.Alloc()
		}
	}); a != 0 {
		t.Fatalf("reserved Alloc allocates %.0f objects", a)
	}
}

// TestReserveSpansIsContiguous: on a part-filled slab whose free
// records are scattered over chunk tails, ReserveSpans still makes spans
// summing to n come without allocation, where Reserve — which counts the
// tails no span will use — falls short and Span then doubles the slab.
func TestReserveSpansIsContiguous(t *testing.T) {
	var s Slab[int]
	s.Span(40) // 24 of the first chunk's 64 left
	s.ReserveSpans(1000)
	if len(s.chunks) != 2 || len(s.chunks[1]) != 1000 {
		t.Fatalf("after ReserveSpans(1000): %d chunks, last %d", len(s.chunks), len(s.chunks[len(s.chunks)-1]))
	}
	s.ReserveSpans(1000) // already there
	if len(s.chunks) != 2 {
		t.Fatal("a satisfied ReserveSpans allocated")
	}
	if a := testing.AllocsPerRun(1, func() {
		for i := 0; i < 20; i++ { // AllocsPerRun calls this twice
			s.Span(25) // never fits the first chunk's tail
		}
	}); a != 0 {
		t.Fatalf("reserved Span allocates %.0f objects", a)
	}
	var fresh Slab[int]
	fresh.ReserveSpans(10)
	if len(fresh.chunks) != 1 || len(fresh.chunks[0]) != 10 {
		t.Fatal("ReserveSpans on an empty slab is not one exact chunk")
	}
}

// TestSpanExactAndContiguous: spans have len == cap, do not overlap,
// and never straddle a chunk; oversized spans get their own chunk.
func TestSpanExactAndContiguous(t *testing.T) {
	var s Slab[int]
	a := s.Span(40)
	b := s.Span(40) // does not fit the first 64-chunk's remainder
	c := s.Span(1000)
	if s.Span(0) != nil {
		t.Fatal("empty span is not nil")
	}
	for _, sp := range [][]int{a, b, c} {
		if len(sp) != cap(sp) {
			t.Fatalf("span len %d cap %d", len(sp), cap(sp))
		}
		for i := range sp {
			sp[i]++
		}
	}
	for _, sp := range [][]int{a, b, c} {
		for i, v := range sp {
			if v != 1 {
				t.Fatalf("span element %d written %d times: spans overlap", i, v)
			}
		}
	}
	a = append(a, 7)
	if b[0] != 1 {
		t.Fatal("appending to a span wrote into its neighbour")
	}
}

// TestReleaseRewindsAndZeroes: Release walks back across chunk
// boundaries, zeroes what it frees, and the next Allocs hand out the
// same records again, in the same order.
func TestReleaseRewindsAndZeroes(t *testing.T) {
	var s Slab[rec]
	x := 1
	ptrs := make([]*rec, 200) // 64 + 64 + 128: three chunks
	for i := range ptrs {
		ptrs[i] = s.Alloc()
		*ptrs[i] = rec{id: i + 1, p: &x}
	}
	s.Release(150) // back into the first chunk
	for i, p := range ptrs {
		if zero := *p == (rec{}); zero != (i >= 50) {
			t.Fatalf("record %d zeroed=%v after releasing the last 150", i, zero)
		}
	}
	for i := 50; i < 200; i++ {
		if p := s.Alloc(); p != ptrs[i] {
			t.Fatalf("re-allocation %d did not reuse the released record", i)
		}
	}
	if len(s.chunks) != 3 {
		t.Fatalf("rewind and refill changed the chunk count to %d", len(s.chunks))
	}
	s.Release(200)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing more than was allocated did not panic")
		}
	}()
	s.Release(1)
}

// TestFit: a span that holds n records is resliced in place, whatever
// its current length; one that does not is replaced by a fresh span of
// exactly n and left as it was.
func TestFit(t *testing.T) {
	var s Slab[int]
	a := s.Span(4)
	a[0], a[3] = 7, 9
	if got := s.Fit(a[:1], 4); &got[0] != &a[0] || len(got) != 4 || got[3] != 9 {
		t.Fatalf("Fit within the span moved or cut it: %v", got)
	}
	if got := s.Fit(a, 2); &got[0] != &a[0] || len(got) != 2 || cap(got) != 4 {
		t.Fatalf("Fit to a shorter length: len %d cap %d", len(got), cap(got))
	}
	b := s.Fit(a, 5)
	if len(b) != 5 || cap(b) != 5 || &b[0] == &a[0] || a[0] != 7 {
		t.Fatalf("Fit past the span: len %d cap %d", len(b), cap(b))
	}
	if got := s.Fit(nil, 0); got != nil {
		t.Fatalf("Fit(nil, 0) = %v", got)
	}
}
