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
