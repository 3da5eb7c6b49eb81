// Package geo provides the planar geometry primitives used by the spatial
// index and the kSP ranking function: points, axis-aligned rectangles, and
// Euclidean distance computations.
//
// The paper measures spatial distance S(q, p) as the Euclidean distance
// between coordinate pairs (Section 2), so no geodesic math is needed.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane. For geographic data X is longitude-like
// and Y is latitude-like, but the package is agnostic.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// DistSq returns the squared Euclidean distance between p and q. It is
// cheaper than Dist and sufficient for comparisons.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Finite reports whether both coordinates are finite: a distance to a
// point with a NaN or infinite coordinate orders nothing.
func (p Point) Finite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%g, %g)", p.X, p.Y)
}

// Rect is an axis-aligned rectangle (minimum bounding rectangle). A Rect is
// valid when MinX <= MaxX and MinY <= MaxY. The zero Rect is not valid;
// build one with RectFromPoint or EmptyRect and Expand.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns the identity element for Union: a rectangle that
// contains nothing and unions with any rectangle to yield that rectangle.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool {
	return r.MinX > r.MaxX || r.MinY > r.MaxY
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// ExpandPoint returns the smallest rectangle containing r and p.
func (r Rect) ExpandPoint(p Point) Rect {
	return r.Union(RectFromPoint(p))
}

// Area returns the area of r; degenerate rectangles have zero area.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) * (r.MaxY - r.MinY)
}

// Margin returns half the perimeter of r.
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) + (r.MaxY - r.MinY)
}

// Enlargement returns the area increase needed for r to contain s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// ContainsPoint reports whether p lies inside or on the boundary of r.
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// MinDist returns the minimum Euclidean distance from p to any point of r
// (zero if p is inside r). This is the classic MINDIST lower bound used by
// best-first nearest-neighbour search on R-trees.
func (r Rect) MinDist(p Point) float64 {
	return math.Sqrt(r.MinDistSq(p))
}

// MinDistSq returns the squared MinDist; cheaper, order-preserving.
func (r Rect) MinDistSq(p Point) float64 {
	var dx, dy float64
	switch {
	case p.X < r.MinX:
		dx = r.MinX - p.X
	case p.X > r.MaxX:
		dx = p.X - r.MaxX
	}
	switch {
	case p.Y < r.MinY:
		dy = r.MinY - p.Y
	case p.Y > r.MaxY:
		dy = p.Y - r.MaxY
	}
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}
