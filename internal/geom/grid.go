package geom

import "fmt"

// Grid maps a rectangular region onto NX×NY equal bins. It is the
// shared indexing scheme for placement density bins and routing gcells.
type Grid struct {
	Region Rect
	NX, NY int
	DX, DY float64
}

// NewGrid tiles region with bins of approximately the given pitch.
// The bin counts are at least 1; the exact bin size divides the region
// evenly so the grid tiles the region with no remainder strip.
func NewGrid(region Rect, pitch float64) Grid {
	if pitch <= 0 {
		panic("geom: grid pitch must be positive")
	}
	nx := int(region.W()/pitch + 0.5)
	ny := int(region.H()/pitch + 0.5)
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	return Grid{
		Region: region,
		NX:     nx, NY: ny,
		DX: region.W() / float64(nx),
		DY: region.H() / float64(ny),
	}
}

// Bins returns the total bin count NX*NY.
func (g Grid) Bins() int { return g.NX * g.NY }

// Index converts bin coordinates to a flat index.
func (g Grid) Index(ix, iy int) int { return iy*g.NX + ix }

// Coords converts a flat index back to bin coordinates.
func (g Grid) Coords(i int) (ix, iy int) { return i % g.NX, i / g.NX }

// Locate returns the bin containing p, clamped to the grid.
func (g Grid) Locate(p Point) (ix, iy int) {
	ix = ClampInt(int((p.X-g.Region.Lx)/g.DX), 0, g.NX-1)
	iy = ClampInt(int((p.Y-g.Region.Ly)/g.DY), 0, g.NY-1)
	return
}

// BinRect returns the rectangle of bin (ix, iy).
func (g Grid) BinRect(ix, iy int) Rect {
	lx := g.Region.Lx + float64(ix)*g.DX
	ly := g.Region.Ly + float64(iy)*g.DY
	return Rect{lx, ly, lx + g.DX, ly + g.DY}
}

// BinCenter returns the centre of bin (ix, iy).
func (g Grid) BinCenter(ix, iy int) Point {
	return g.BinRect(ix, iy).Center()
}

// CoverRange returns the inclusive bin index ranges overlapped by r,
// clamped to the grid. ok is false when r misses the grid entirely.
func (g Grid) CoverRange(r Rect) (x0, y0, x1, y1 int, ok bool) {
	rr := r.Intersect(g.Region)
	if rr.Empty() {
		return 0, 0, 0, 0, false
	}
	x0 = ClampInt(int((rr.Lx-g.Region.Lx)/g.DX), 0, g.NX-1)
	y0 = ClampInt(int((rr.Ly-g.Region.Ly)/g.DY), 0, g.NY-1)
	// Subtract a hair so an exact upper boundary does not spill into
	// the next bin.
	x1 = ClampInt(int((rr.Ux-g.Region.Lx)/g.DX-1e-9), 0, g.NX-1)
	y1 = ClampInt(int((rr.Uy-g.Region.Ly)/g.DY-1e-9), 0, g.NY-1)
	return x0, y0, x1, y1, true
}

func (g Grid) String() string {
	return fmt.Sprintf("grid %dx%d over %v", g.NX, g.NY, g.Region)
}
