package route

import (
	"testing"

	"macro3d/internal/geom"
	"macro3d/internal/tech"
)

// BenchmarkMazeRoute is the windowed A* kernel (`make bench`, with
// allocations): 64 two-pin searches between seeded random pins, a third
// each at 4, 12 and 30 gcells' span, on a 6-layer 80×80-gcell grid under
// seeded random usage up to past capacity. The DB has never negotiated,
// as no flat tile array's does, so every congestion cost takes the
// history-free branch. Each search runs in the DB's scratch and appends
// into one reused segment slice: 0 allocs/op at steady state.
func BenchmarkMazeRoute(b *testing.B) {
	beol, err := tech.NewBEOL28("logic", 6)
	if err != nil {
		b.Fatal(err)
	}
	db := NewDB(geom.R(0, 0, 800, 800), beol, nil, Options{GCellPitch: 10})
	rng := geom.NewRNG(11)
	for i := range db.usage {
		db.usage[i] = int32(rng.Intn(int(db.cap[i]) + 2))
	}
	pairs := make([][2]Node, 64)
	for i := range pairs {
		x, y := rng.Intn(db.Grid.NX), rng.Intn(db.Grid.NY)
		span := []int{4, 12, 30}[i%3]
		pairs[i] = [2]Node{
			At(x, y, rng.Intn(2)),
			At(geom.ClampInt(x+rng.Intn(2*span+1)-span, 0, db.Grid.NX-1),
				geom.ClampInt(y+rng.Intn(2*span+1)-span, 0, db.Grid.NY-1), rng.Intn(2)),
		}
	}
	s := db.scratch()
	var dst []Seg
	search := func() {
		for _, p := range pairs {
			if dst, err = db.mazeRouteScratch(s, p[0], p[1], dst[:0]); err != nil {
				b.Fatal(err)
			}
		}
	}
	search() // sizes the scratch and the segment slice
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search()
	}
}
