package route

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"macro3d/internal/geom"
	"macro3d/internal/tech"
)

// walkRunCost is runCost node by node, through Seg.Walk: the sum the
// stride must reproduce bit for bit.
func (db *DB) walkRunCost(from, to, a, b Node) float64 {
	cost := 0.0
	Seg{from, to}.Walk(func(n Node) {
		if db.blocked(n, a, b) {
			cost = math.Inf(1)
		}
		cost += 1 + db.congestionCost(db.idx(n))
	})
	return cost
}

// walkAddSegs is addSegs with its wires walked by Seg.Walk.
func (db *DB) walkAddSegs(segs []Seg, o Origin, delta int32) {
	stamp, bins := db.stamping(), db.Grid.Bins()
	for _, s := range segs {
		s = o.at(s)
		if s.IsVia() {
			if db.isF2F(s) {
				col := db.Grid.Index(int(s.A.X), int(s.A.Y))
				was := db.f2fUse[col]
				db.f2fUse[col] = was + delta
				if stamp {
					db.stampF2F(col, was, was+delta)
				}
			}
			continue
		}
		s.Walk(func(n Node) {
			col := db.Grid.Index(int(n.X), int(n.Y))
			i := int(n.L)*bins + col
			was := db.usage[i]
			db.usage[i] = was + delta
			if stamp {
				db.stampUse(i, col, was, was+delta)
			}
		})
	}
}

// strideDB is a congested grid over the combined F2F stack with random
// zero-capacity walls: a fifth of the gcell-layers of every layer but
// the top one hold no track.
func strideDB(t *testing.T, rng *geom.RNG) *DB {
	t.Helper()
	logic, _ := tech.NewBEOL28("logic", 6)
	macro, _ := tech.NewBEOL28("macro", 4)
	comb, err := tech.Combine(logic, macro, tech.DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(geom.R(0, 0, 230, 170), comb, nil, Options{GCellPitch: 10})
	congest(db, rng)
	top := (comb.NumLayers() - 1) * db.Grid.Bins()
	for i := range db.cap[:top] {
		if rng.Intn(5) == 0 {
			db.cap[i] = 0
		}
	}
	return db
}

// randomRun is a straight run on layer l in one of the four directions,
// of length 0 to the grid's width.
func randomRun(db *DB, rng *geom.RNG, l int) (from, to Node) {
	from = At(rng.Intn(db.Grid.NX), rng.Intn(db.Grid.NY), l)
	to = from
	k := rng.Intn(db.Grid.NX)
	switch rng.Intn(5) {
	case 0:
		to.X = int16(min(int(from.X)+k, db.Grid.NX-1))
	case 1:
		to.X = int16(max(int(from.X)-k, 0))
	case 2:
		to.Y = int16(min(int(from.Y)+k, db.Grid.NY-1))
	case 3:
		to.Y = int16(max(int(from.Y)-k, 0))
	} // case 4: length 0
	return from, to
}

// TestRunCostMatchesWalk: the stride through a run adds what a walk of
// its nodes adds, in the same order. On seeded grids with usage,
// history, bump use and zero-capacity walls, runCost equals the Walk sum
// bit for bit — +Inf through a wall — for runs in all four directions
// and of length 0, with the pins on the run (a walled column a pin
// stands in is open), beside it, or anywhere. addSegs, given random
// shapes of wires, via stacks and F2F crossings at random origins, adds
// and removes, leaves usage, bump use and the settled-column stamps
// equal to the Walk-based reference's.
func TestRunCostMatchesWalk(t *testing.T) {
	walled, pinned, zero := 0, 0, 0
	for seed := uint64(1); seed <= 4; seed++ {
		rng := geom.NewRNG(seed)
		db := strideDB(t, rng)
		nl := db.Beol.NumLayers()
		for c := 0; c < 4000; c++ {
			from, to := randomRun(db, rng, rng.Intn(nl))
			pin := func() Node {
				switch rng.Intn(3) {
				case 0: // on the run
					n := from
					if from.X != to.X {
						n.X = int16(rng.Intn(db.Grid.NX))
					} else if from.Y != to.Y {
						n.Y = int16(rng.Intn(db.Grid.NY))
					}
					n.L = int8(rng.Intn(nl))
					return n
				case 1: // an end
					return to
				}
				return At(rng.Intn(db.Grid.NX), rng.Intn(db.Grid.NY), rng.Intn(nl))
			}
			a, b := pin(), pin()
			got, want := db.runCost(from, to, a, b), db.walkRunCost(from, to, a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d run %v→%v pins %v %v: runCost %v, walk %v", seed, from, to, a, b, got, want)
			}
			if from == to {
				zero++
			}
			Seg{from, to}.Walk(func(n Node) {
				if db.cap[db.idx(n)] <= 0 {
					if db.blocked(n, a, b) {
						walled++
					} else {
						pinned++
					}
				}
			})
		}

		ref := copyDB(db)
		db.startStamps(1, 1)
		ref.startStamps(1, 1)
		for c := 0; c < 400; c++ {
			var segs []Seg
			l := rng.Intn(nl)
			for k := rng.Intn(5); k >= 0; k-- {
				if rng.Intn(3) == 0 {
					n := At(rng.Intn(db.Grid.NX), rng.Intn(db.Grid.NY), l)
					l = rng.Intn(nl)
					segs = append(segs, Seg{n, At(int(n.X), int(n.Y), l)})
					continue
				}
				from, to := randomRun(db, rng, l)
				segs = append(segs, Seg{from, to})
			}
			// Shift the shape back by an origin it is placed at.
			o := Origin{DX: int16(rng.Intn(3)), DY: int16(rng.Intn(3)), Placed: true}
			for k := range segs {
				segs[k] = Origin{DX: -o.DX, DY: -o.DY}.at(segs[k])
			}
			delta := int32(1 - 2*rng.Intn(2))
			db.addSegs(segs, o, delta)
			ref.walkAddSegs(segs, o, delta)
			when := fmt.Sprintf("seed %d case %d (%d segments, delta %d)", seed, c, len(segs), delta)
			if !slices.Equal(db.usage, ref.usage) || !slices.Equal(db.f2fUse, ref.f2fUse) {
				t.Fatalf("%s: usage differs from the walk's", when)
			}
			if !slices.Equal(db.st.col, ref.st.col) {
				t.Fatalf("%s: column stamps differ from the walk's", when)
			}
			// A new epoch, so that a stamp in the wrong column shows.
			db.st.epoch++
			ref.st.epoch++
		}
		if db.st.col == nil {
			t.Fatalf("seed %d: no shape stamped a column", seed)
		}
	}
	if walled == 0 || pinned == 0 || zero == 0 {
		t.Fatalf("%d walled gcells crossed, %d opened by a pin, %d runs of length 0: the cases must cover each", walled, pinned, zero)
	}
}
