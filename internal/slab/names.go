package slab

import "strings"

// Names cuts instance and net names out of large chunks: a name is a
// substring of the chunk it was written to, so the 14 k names of a
// generated small tile, or the 230 k of its 4×4 array, cost a few dozen
// allocations, not one each. A full chunk is dropped by the arena and
// lives on in the names cut from it — as long as the design that holds
// them. The zero value is ready to use; like a Slab it is not safe for
// concurrent use.
type Names struct {
	chunk strings.Builder
	// First, when positive, is the size of the first chunk, and each
	// later one doubles the last up to namesChunk: for an owner that
	// cuts a few names or none, where the zero value's first 64 KB
	// would outweigh them.
	First int
}

// namesChunk is the size of every chunk of a Names without First.
const namesChunk = 1 << 16

// room starts a new chunk unless the current one has n bytes left, and
// returns the offset the next name starts at.
func (a *Names) room(n int) int {
	if a.chunk.Cap()-a.chunk.Len() < n {
		size := namesChunk
		if a.First > 0 {
			size = min(max(a.First, 2*a.chunk.Cap()), namesChunk)
		}
		a.chunk.Reset()
		a.chunk.Grow(max(n, size))
	}
	return a.chunk.Len()
}

// Concat returns x + y.
func (a *Names) Concat(x, y string) string {
	off := a.room(len(x) + len(y))
	a.chunk.WriteString(x)
	a.chunk.WriteString(y)
	return a.chunk.String()[off:]
}

// Cut returns string(b).
func (a *Names) Cut(b []byte) string {
	off := a.room(len(b))
	a.chunk.Write(b)
	return a.chunk.String()[off:]
}
