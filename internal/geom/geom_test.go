package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(3, -1)
	if got := p.Add(q); got != Pt(4, 1) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Manhattan(q); !almostEq(got, 5) {
		t.Errorf("Manhattan = %v", got)
	}
	if got := p.Dist(Pt(4, 6)); !almostEq(got, 5) {
		t.Errorf("Dist = %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := R(0, 0, 10, 4)
	if r.W() != 10 || r.H() != 4 || r.Area() != 40 {
		t.Fatalf("W/H/Area wrong: %v %v %v", r.W(), r.H(), r.Area())
	}
	if r.Empty() {
		t.Fatal("non-empty rect reported empty")
	}
	if (Rect{5, 5, 5, 9}).Area() != 0 {
		t.Fatal("degenerate rect has area")
	}
	if c := r.Center(); c != Pt(5, 2) {
		t.Fatalf("Center = %v", c)
	}
	if !r.Contains(Pt(0, 0)) || r.Contains(Pt(10, 2)) {
		t.Fatal("half-open containment wrong")
	}
	if !r.ContainsRect(R(1, 1, 9, 3)) || r.ContainsRect(R(1, 1, 11, 3)) {
		t.Fatal("ContainsRect wrong")
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	if !a.Intersects(b) {
		t.Fatal("should intersect")
	}
	got := a.Intersect(b)
	if got != R(5, 5, 10, 10) {
		t.Fatalf("Intersect = %v", got)
	}
	if u := a.Union(b); u != R(0, 0, 15, 15) {
		t.Fatalf("Union = %v", u)
	}
	c := R(20, 20, 30, 30)
	if a.Intersects(c) {
		t.Fatal("disjoint rects intersect")
	}
	if !a.Intersect(c).Empty() {
		t.Fatal("disjoint intersection not empty")
	}
	// Union with empty operand returns the other operand.
	if u := (Rect{}).Union(a); u != a {
		t.Fatalf("Union with empty = %v", u)
	}
}

func TestRectTransforms(t *testing.T) {
	r := R(1, 1, 3, 5)
	if got := r.Expand(1); got != R(0, 0, 4, 6) {
		t.Fatalf("Expand = %v", got)
	}
	if got := r.Translate(Pt(2, -1)); got != R(3, 0, 5, 4) {
		t.Fatalf("Translate = %v", got)
	}
	if got := r.Scale(2); got != R(2, 2, 6, 10) {
		t.Fatalf("Scale = %v", got)
	}
	if got := r.ClampPoint(Pt(-5, 10)); got != Pt(1, 5) {
		t.Fatalf("ClampPoint = %v", got)
	}
}

func TestHPWL(t *testing.T) {
	pts := []Point{{0, 0}, {4, 0}, {2, 3}}
	if got := HPWL(pts); !almostEq(got, 7) {
		t.Fatalf("HPWL = %v", got)
	}
	if HPWL(pts[:1]) != 0 {
		t.Fatal("single-pin net has nonzero HPWL")
	}
	if HPWL(nil) != 0 {
		t.Fatal("empty net has nonzero HPWL")
	}
}

func TestHPWLProperties(t *testing.T) {
	// HPWL is translation invariant and never exceeds total pairwise
	// Manhattan spans; it is also >= Manhattan distance of any pair /
	// (since bbox covers both points).
	f := func(xs [6]float64, dx, dy float64) bool {
		pts := make([]Point, 3)
		for i := range pts {
			pts[i] = Pt(math.Mod(xs[2*i], 1000), math.Mod(xs[2*i+1], 1000))
		}
		h := HPWL(pts)
		moved := make([]Point, len(pts))
		for i, p := range pts {
			moved[i] = p.Add(Pt(math.Mod(dx, 500), math.Mod(dy, 500)))
		}
		if !almostEq(HPWL(moved), h) {
			return false
		}
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if pts[i].Manhattan(pts[j]) > h+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSnapAndClamp(t *testing.T) {
	if got := Snap(1.26, 0.5); !almostEq(got, 1.5) {
		t.Fatalf("Snap = %v", got)
	}
	if got := SnapUp(1.01, 0.5); !almostEq(got, 1.5) {
		t.Fatalf("SnapUp = %v", got)
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp wrong")
	}
	if ClampInt(5, 0, 3) != 3 || ClampInt(-1, 0, 3) != 0 {
		t.Fatal("ClampInt wrong")
	}
}

func TestOrientApply(t *testing.T) {
	w, h := 4.0, 2.0
	p := Pt(1, 0.5)
	cases := []struct {
		o    Orient
		want Point
	}{
		{OrientN, Pt(1, 0.5)},
		{OrientS, Pt(3, 1.5)},
		{OrientFN, Pt(3, 0.5)},
		{OrientFS, Pt(1, 1.5)},
	}
	for _, c := range cases {
		if got := c.o.Apply(p, w, h); got != c.want {
			t.Errorf("%v.Apply = %v, want %v", c.o, got, c.want)
		}
	}
	// Applying any orientation keeps the point inside the cell box.
	f := func(px, py float64, o uint8) bool {
		p := Pt(math.Mod(math.Abs(px), w), math.Mod(math.Abs(py), h))
		q := Orient(o%4).Apply(p, w, h)
		return q.X >= 0 && q.X <= w && q.Y >= 0 && q.Y <= h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrientString(t *testing.T) {
	if OrientN.String() != "N" || OrientFS.String() != "FS" {
		t.Fatal("orient names wrong")
	}
}

func TestBoundingBox(t *testing.T) {
	if !BoundingBox(nil).Empty() {
		t.Fatal("empty bbox not empty")
	}
	bb := BoundingBox([]Point{{1, 2}, {-1, 5}, {3, 0}})
	if bb != R(-1, 0, 3, 5) {
		t.Fatalf("bbox = %v", bb)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %v", v)
		}
		if v := r.Range(5, 6); v < 5 || v >= 6 {
			t.Fatalf("Range out of range: %v", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(1)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	va := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Norm mean = %v", mean)
	}
	if math.Abs(va-1) > 0.1 {
		t.Fatalf("Norm variance = %v", va)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGShuffleIsPermutation(t *testing.T) {
	r := NewRNG(9)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestGridBasics(t *testing.T) {
	g := NewGrid(R(0, 0, 100, 50), 10)
	if g.NX != 10 || g.NY != 5 {
		t.Fatalf("grid dims %dx%d", g.NX, g.NY)
	}
	if g.Bins() != 50 {
		t.Fatalf("Bins = %d", g.Bins())
	}
	ix, iy := g.Locate(Pt(15, 45))
	if ix != 1 || iy != 4 {
		t.Fatalf("Locate = %d,%d", ix, iy)
	}
	// Clamping outside.
	ix, iy = g.Locate(Pt(-5, 500))
	if ix != 0 || iy != 4 {
		t.Fatalf("Locate clamp = %d,%d", ix, iy)
	}
	if r := g.BinRect(0, 0); r != R(0, 0, 10, 10) {
		t.Fatalf("BinRect = %v", r)
	}
	if c := g.BinCenter(1, 1); c != Pt(15, 15) {
		t.Fatalf("BinCenter = %v", c)
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g := NewGrid(R(0, 0, 70, 30), 7)
	for i := 0; i < g.Bins(); i++ {
		ix, iy := g.Coords(i)
		if g.Index(ix, iy) != i {
			t.Fatalf("index round trip failed at %d", i)
		}
	}
}

func TestGridCoverRange(t *testing.T) {
	g := NewGrid(R(0, 0, 100, 100), 10)
	x0, y0, x1, y1, ok := g.CoverRange(R(5, 5, 25, 15))
	if !ok || x0 != 0 || y0 != 0 || x1 != 2 || y1 != 1 {
		t.Fatalf("CoverRange = %d,%d..%d,%d ok=%v", x0, y0, x1, y1, ok)
	}
	// Exact boundary should not spill into next bin.
	_, _, x1, y1, _ = g.CoverRange(R(0, 0, 10, 10))
	if x1 != 0 || y1 != 0 {
		t.Fatalf("boundary spill: %d,%d", x1, y1)
	}
	if _, _, _, _, ok := g.CoverRange(R(200, 200, 300, 300)); ok {
		t.Fatal("off-grid rect reported covered")
	}
}

func TestGridPitchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero pitch did not panic")
		}
	}()
	NewGrid(R(0, 0, 1, 1), 0)
}

func TestGridBinRectTiling(t *testing.T) {
	// Property: bin rectangles tile the region exactly — disjoint and
	// covering.
	f := func(w, h uint8, p uint8) bool {
		W := 10 + float64(w%200)
		H := 10 + float64(h%200)
		pitch := 3 + float64(p%20)
		g := NewGrid(R(0, 0, W, H), pitch)
		var area float64
		for i := 0; i < g.Bins(); i++ {
			ix, iy := g.Coords(i)
			area += g.BinRect(ix, iy).Area()
		}
		return math.Abs(area-W*H) < 1e-6*W*H
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGridLocateConsistentWithBinRect(t *testing.T) {
	// Property: every point locates to the bin whose rect contains it.
	g := NewGrid(R(0, 0, 120, 90), 11)
	rng := NewRNG(3)
	for i := 0; i < 500; i++ {
		p := Pt(rng.Range(0, 120), rng.Range(0, 90))
		ix, iy := g.Locate(p)
		if !g.BinRect(ix, iy).Contains(p) {
			t.Fatalf("point %v located to bin %d,%d not containing it", p, ix, iy)
		}
	}
}

func TestRectUnionCommutativeAssociative(t *testing.T) {
	f := func(a, b, c [4]float64) bool {
		mk := func(v [4]float64) Rect {
			x0, y0 := math.Mod(v[0], 100), math.Mod(v[1], 100)
			return R(x0, y0, x0+1+math.Abs(math.Mod(v[2], 50)), y0+1+math.Abs(math.Mod(v[3], 50)))
		}
		ra, rb, rc := mk(a), mk(b), mk(c)
		if ra.Union(rb) != rb.Union(ra) {
			return false
		}
		return ra.Union(rb).Union(rc) == ra.Union(rb.Union(rc))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectInsideBoth(t *testing.T) {
	f := func(a, b [4]float64) bool {
		mk := func(v [4]float64) Rect {
			x0, y0 := math.Mod(v[0], 100), math.Mod(v[1], 100)
			return R(x0, y0, x0+1+math.Abs(math.Mod(v[2], 50)), y0+1+math.Abs(math.Mod(v[3], 50)))
		}
		ra, rb := mk(a), mk(b)
		iv := ra.Intersect(rb)
		if iv.Empty() {
			return true
		}
		return ra.ContainsRect(iv) && rb.ContainsRect(iv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGRangeDegenerate(t *testing.T) {
	r := NewRNG(4)
	if v := r.Range(5, 5); v != 5 {
		t.Fatalf("degenerate range = %v", v)
	}
}

func TestSnapIdempotent(t *testing.T) {
	f := func(v float64, s uint8) bool {
		step := 0.1 + float64(s%20)/10
		x := Snap(math.Mod(v, 1e6), step)
		return math.Abs(Snap(x, step)-x) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
