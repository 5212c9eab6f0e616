package slab

import "strings"

// Names cuts instance and net names out of large chunks: a name is a
// substring of the chunk it was written to, so the 14 k names of a
// generated small tile, or the 230 k of its 4×4 array, cost a few dozen
// allocations, not one each. A full chunk is dropped by the arena and
// lives on in the names cut from it — as long as the design that holds
// them. The zero value is ready to use; like a Slab it is not safe for
// concurrent use.
type Names struct{ chunk strings.Builder }

// room starts a new chunk unless the current one has n bytes left, and
// returns the offset the next name starts at.
func (a *Names) room(n int) int {
	if a.chunk.Cap()-a.chunk.Len() < n {
		a.chunk.Reset()
		a.chunk.Grow(max(n, 1<<16))
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
