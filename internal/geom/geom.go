// Package geom provides the two-dimensional geometric primitives used by
// the R-tree: points and axis-aligned rectangles (MBRs).
//
// The data space follows the paper's convention: coordinates are float64
// and workloads are generated in the unit square, although nothing in this
// package assumes unit bounds. Rectangles are closed intervals on both
// axes; a degenerate rectangle (zero width and/or height) is valid and is
// how point data is stored in leaf entries.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in 2-D space.
type Point struct {
	X, Y float64
}

// Rect is an axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
// The zero value is the degenerate rectangle at the origin.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{p.X, p.Y, p.X, p.Y}
}

// NewRect returns the rectangle spanning the two corner points in any
// order.
func NewRect(x1, y1, x2, y2 float64) Rect {
	return Rect{min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)}
}

// Valid reports whether r has MinX <= MaxX and MinY <= MaxY and no NaNs.
func (r Rect) Valid() bool {
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY // NaN comparisons are false
}

// IsPoint reports whether r is the degenerate rectangle of one point, the
// only shape a leaf entry stores. NaN coordinates make it false.
func (r Rect) IsPoint() bool {
	return r.MinX == r.MaxX && r.MinY == r.MaxY
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Width returns the extent of r along the x axis.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent of r along the y axis.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r. Degenerate rectangles have area zero.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns half the perimeter of r (the R*-tree "margin" measure).
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// ContainsPoint reports whether p lies within r (boundary inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely within r (boundary
// inclusive).
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point
// (touching boundaries count as intersecting, as in Guttman's R-tree).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: min(r.MinX, s.MinX),
		MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX),
		MaxY: max(r.MaxY, s.MaxY),
	}
}

// Intersection returns the overlap of r and s. If they do not intersect
// the second result is false and the rectangle is the zero value.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		MinX: max(r.MinX, s.MinX),
		MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX),
		MaxY: min(r.MaxY, s.MaxY),
	}, true
}

// OverlapArea returns the area of the intersection of r and s, or zero if
// they are disjoint.
func (r Rect) OverlapArea(s Rect) float64 {
	w := min(r.MaxX, s.MaxX) - max(r.MinX, s.MinX)
	if w <= 0 {
		return 0
	}
	h := min(r.MaxY, s.MaxY) - max(r.MinY, s.MinY)
	if h <= 0 {
		return 0
	}
	return w * h
}

// Enlargement returns the increase in area needed for r to cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// Expand returns r grown by eps in every direction (the LBU / Kwon-style
// uniform enlargement). A negative eps shrinks the rectangle; callers must
// ensure the result remains valid.
func (r Rect) Expand(eps float64) Rect {
	return Rect{r.MinX - eps, r.MinY - eps, r.MaxX + eps, r.MaxY + eps}
}

// Equal reports exact equality of all four coordinates.
func (r Rect) Equal(s Rect) bool { return r == s }

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// DistSq returns the squared Euclidean distance between two points.
func DistSq(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// MinDistPoint returns the minimum distance from p to any point of r
// (zero when p is inside r). Used by nearest-neighbour search.
func (r Rect) MinDistPoint(p Point) float64 {
	dx := axisDist(p.X, r.MinX, r.MaxX)
	dy := axisDist(p.Y, r.MinY, r.MaxY)
	return math.Hypot(dx, dy)
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6g,%.6g)", p.X, p.Y)
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.6g,%.6g | %.6g,%.6g]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// WorldRect is a rectangle large enough to contain any workload this
// library generates; used as the clip bound when no parent constraint
// applies.
var WorldRect = Rect{-math.MaxFloat64 / 4, -math.MaxFloat64 / 4, math.MaxFloat64 / 4, math.MaxFloat64 / 4}

// ClampCell quantizes a coordinate in the unit interval onto an n-cell
// grid, clamping everything outside [0, 1) onto the boundary cells.
// Used by every grid-routing layer (DGL granules, shard partitioning),
// which must clamp identically for "the cell of a point inside a
// window is among the cells covering that window" to hold.
//
// The clamping happens BEFORE the int conversion: converting a huge
// float (beyond ~9.2e18) to int yields minInt64, which would route
// far-out coordinates to cell 0 and make covering ranges empty or of
// negative size. NaN (for which v > 0 is false) routes to cell 0.
func ClampCell(v float64, n int) int {
	if !(v > 0) {
		return 0
	}
	if v >= 1 {
		return n - 1
	}
	c := int(v * float64(n))
	if c >= n { // v just below 1 can still round up
		return n - 1
	}
	return c
}
