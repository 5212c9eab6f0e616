package slab

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestNamesKeepsNames: names cut before a chunk filled up stay
// intact after the arena moved on to the next chunk.
func TestNamesKeepsNames(t *testing.T) {
	var a Names
	const n = 20000 // ≈ 400 kB of names: several 64 kB chunks
	got := make([]string, n)
	for i := range got {
		got[i] = a.Concat("t3_1_", fmt.Sprintf("u_core_c2_%d", i))
	}
	for i, s := range got {
		if want := fmt.Sprintf("t3_1_u_core_c2_%d", i); s != want {
			t.Fatalf("name %d = %q, want %q", i, s, want)
		}
	}
	if big := strings.Repeat("x", 1<<17); a.Concat("t_", big) != "t_"+big {
		t.Fatal("a name larger than a chunk was cut short")
	}

	// The []byte entry point, from a scratch buffer that is overwritten
	// for the next name as the generator's is.
	var buf []byte
	for i := range got {
		buf = fmt.Appendf(buf[:0], "u_core_c2_%d", i)
		got[i] = a.Cut(buf)
	}
	for i, s := range got {
		if want := fmt.Sprintf("u_core_c2_%d", i); s != want {
			t.Fatalf("cut name %d = %q, want %q", i, s, want)
		}
	}
	if big := bytes.Repeat([]byte("y"), 1<<17); a.Cut(big) != string(big) {
		t.Fatal("a cut name larger than a chunk was cut short")
	}
	if a.Cut(nil) != "" {
		t.Fatal("an empty name is not empty")
	}
}

// TestNamesFirstDoubles: an arena with First starts with a chunk of
// that size and doubles from there to the default chunk, so a handful
// of names costs a small chunk, not 64 kB.
func TestNamesFirstDoubles(t *testing.T) {
	a := Names{First: 1 << 10}
	if a.chunk.Cap() != 0 {
		t.Fatal("an arena that has cut nothing holds a chunk")
	}
	var caps []int
	got := make([]string, 10000)
	for i := range got {
		got[i] = a.Concat("optbuf_", fmt.Sprint(i))
		if c := a.chunk.Cap(); len(caps) == 0 || c != caps[len(caps)-1] {
			caps = append(caps, c)
		}
	}
	for i, s := range got {
		if want := fmt.Sprint("optbuf_", i); s != want {
			t.Fatalf("name %d = %q, want %q", i, s, want)
		}
	}
	if caps[0] != 1<<10 {
		t.Fatalf("first chunk %d bytes, want %d", caps[0], 1<<10)
	}
	for i := 1; i < len(caps); i++ {
		if want := min(2*caps[i-1], namesChunk); caps[i] != want {
			t.Fatalf("chunk sizes %v: chunk %d is not the double of the last, capped at %d", caps, i, namesChunk)
		}
	}
	if caps[len(caps)-1] != namesChunk {
		t.Fatalf("chunk sizes %v never reach %d", caps, namesChunk)
	}
}
