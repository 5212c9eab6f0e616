// Package geom provides the geometric primitives shared by every stage
// of the physical-design flow: points, rectangles, intervals and
// orientation handling. All coordinates are in micrometres (µm).
package geom

import (
	"fmt"
	"math"
)

// Point is a location in µm.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q component-wise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q component-wise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns the point scaled by s in both axes.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Manhattan returns the L1 (rectilinear) distance to q. Wirelength in a
// Manhattan routing fabric is measured with this metric.
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

func (p Point) String() string { return fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle [Lx,Ux) × [Ly,Uy) in µm.
// A Rect with Ux <= Lx or Uy <= Ly is considered empty.
type Rect struct {
	Lx, Ly, Ux, Uy float64
}

// R is shorthand for a Rect from its four bounds.
func R(lx, ly, ux, uy float64) Rect { return Rect{lx, ly, ux, uy} }

// RectWH builds a rectangle from its lower-left corner and a size.
func RectWH(ll Point, w, h float64) Rect {
	return Rect{ll.X, ll.Y, ll.X + w, ll.Y + h}
}

// W returns the width of the rectangle (0 if empty).
func (r Rect) W() float64 {
	if r.Ux <= r.Lx {
		return 0
	}
	return r.Ux - r.Lx
}

// H returns the height of the rectangle (0 if empty).
func (r Rect) H() float64 {
	if r.Uy <= r.Ly {
		return 0
	}
	return r.Uy - r.Ly
}

// Area returns the area in µm².
func (r Rect) Area() float64 { return r.W() * r.H() }

// Empty reports whether the rectangle has no interior.
func (r Rect) Empty() bool { return r.Ux <= r.Lx || r.Uy <= r.Ly }

// Center returns the centre point.
func (r Rect) Center() Point { return Point{(r.Lx + r.Ux) / 2, (r.Ly + r.Uy) / 2} }

// LL returns the lower-left corner.
func (r Rect) LL() Point { return Point{r.Lx, r.Ly} }

// Contains reports whether p lies inside the half-open rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lx && p.X < r.Ux && p.Y >= r.Ly && p.Y < r.Uy
}

// ContainsRect reports whether q lies fully inside r (closed bounds).
func (r Rect) ContainsRect(q Rect) bool {
	return q.Lx >= r.Lx && q.Ux <= r.Ux && q.Ly >= r.Ly && q.Uy <= r.Uy
}

// Intersects reports whether r and q share interior area.
func (r Rect) Intersects(q Rect) bool {
	return r.Lx < q.Ux && q.Lx < r.Ux && r.Ly < q.Uy && q.Ly < r.Uy
}

// Intersect returns the overlapping region of r and q (possibly empty).
func (r Rect) Intersect(q Rect) Rect {
	return Rect{
		math.Max(r.Lx, q.Lx), math.Max(r.Ly, q.Ly),
		math.Min(r.Ux, q.Ux), math.Min(r.Uy, q.Uy),
	}
}

// Union returns the bounding box of r and q. Empty operands are
// ignored, so Union can fold a slice starting from the zero Rect only
// when callers treat the zero Rect as empty.
func (r Rect) Union(q Rect) Rect {
	if r.Empty() {
		return q
	}
	if q.Empty() {
		return r
	}
	return Rect{
		math.Min(r.Lx, q.Lx), math.Min(r.Ly, q.Ly),
		math.Max(r.Ux, q.Ux), math.Max(r.Uy, q.Uy),
	}
}

// Expand grows the rectangle by d on every side (shrinks for d < 0).
func (r Rect) Expand(d float64) Rect {
	return Rect{r.Lx - d, r.Ly - d, r.Ux + d, r.Uy + d}
}

// Translate shifts the rectangle by the vector p.
func (r Rect) Translate(p Point) Rect {
	return Rect{r.Lx + p.X, r.Ly + p.Y, r.Ux + p.X, r.Uy + p.Y}
}

// Scale scales all four bounds about the origin.
func (r Rect) Scale(s float64) Rect {
	return Rect{r.Lx * s, r.Ly * s, r.Ux * s, r.Uy * s}
}

// ClampPoint returns the point inside r closest to p.
func (r Rect) ClampPoint(p Point) Point {
	return Point{Clamp(p.X, r.Lx, r.Ux), Clamp(p.Y, r.Ly, r.Uy)}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%.3f,%.3f %.3f,%.3f]", r.Lx, r.Ly, r.Ux, r.Uy)
}

// BoundingBox returns the bounding box of a set of points. It returns
// an empty Rect when pts is empty.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	bb := Rect{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		bb.Lx = math.Min(bb.Lx, p.X)
		bb.Ly = math.Min(bb.Ly, p.Y)
		bb.Ux = math.Max(bb.Ux, p.X)
		bb.Uy = math.Max(bb.Uy, p.Y)
	}
	return bb
}

// HPWL returns the half-perimeter wirelength of a set of pin locations,
// the standard net-length estimate used by placers.
func HPWL(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	bb := BoundingBox(pts)
	// The bounding box of points is degenerate (Ux==Lx allowed), so use
	// the raw differences rather than W/H which treat that as empty.
	return (bb.Ux - bb.Lx) + (bb.Uy - bb.Ly)
}

// Clamp limits v to the range [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampInt limits v to the range [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// AbsInt returns |v|. The one integer-abs helper shared by the
// geometry consumers (route, place) so the packages stop growing
// private shims.
func AbsInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Snap rounds v to the nearest multiple of step (step > 0).
func Snap(v, step float64) float64 {
	return math.Round(v/step) * step
}

// SnapUp rounds v up to a multiple of step.
func SnapUp(v, step float64) float64 {
	return math.Ceil(v/step) * step
}

// Orient is a placement orientation for instances (subset of the DEF
// orientations; flows here only distinguish rotation by 0/180 and
// mirroring used for row flipping).
type Orient uint8

// Supported orientations.
const (
	OrientN  Orient = iota // North: no transform
	OrientS                // South: rotated 180°
	OrientFN               // Flipped North: mirrored about the y axis
	OrientFS               // Flipped South: mirrored about the x axis
)

func (o Orient) String() string {
	switch o {
	case OrientN:
		return "N"
	case OrientS:
		return "S"
	case OrientFN:
		return "FN"
	case OrientFS:
		return "FS"
	}
	return fmt.Sprintf("Orient(%d)", uint8(o))
}

// Apply maps a point given in the local cell frame (cell of size w×h,
// origin at the lower-left) into the oriented frame.
func (o Orient) Apply(p Point, w, h float64) Point {
	switch o {
	case OrientS:
		return Point{w - p.X, h - p.Y}
	case OrientFN:
		return Point{w - p.X, p.Y}
	case OrientFS:
		return Point{p.X, h - p.Y}
	default:
		return p
	}
}
