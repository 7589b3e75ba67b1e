// Package geom provides the small amount of planar geometry the legalizer
// needs: points, closed-open intervals, and axis-aligned rectangles.
//
// All coordinates are float64 in database units. Rectangles and intervals
// are half-open: [Lo, Hi) on each axis, so two shapes that merely touch do
// not overlap. This matches the placement convention where a cell occupying
// sites [10, 20) and a neighbor at [20, 30) abut legally.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Interval is a half-open interval [Lo, Hi).
type Interval struct {
	Lo, Hi float64
}

// Len returns the length of the interval, or 0 if it is empty or inverted.
func (iv Interval) Len() float64 {
	if iv.Hi <= iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Contains reports whether x lies in [Lo, Hi).
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x < iv.Hi }

// ContainsInterval reports whether o lies entirely within iv.
// An empty o is contained in everything.
func (iv Interval) ContainsInterval(o Interval) bool {
	if o.Empty() {
		return true
	}
	return o.Lo >= iv.Lo && o.Hi <= iv.Hi
}

// Overlaps reports whether the two half-open intervals share any points.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Lo < o.Hi && o.Lo < iv.Hi && !iv.Empty() && !o.Empty()
}

// Clamp returns x restricted to [Lo, Hi].
func (iv Interval) Clamp(x float64) float64 {
	if x < iv.Lo {
		return iv.Lo
	}
	if x > iv.Hi {
		return iv.Hi
	}
	return x
}

func (iv Interval) String() string { return fmt.Sprintf("[%g, %g)", iv.Lo, iv.Hi) }

// Rect is an axis-aligned rectangle, half-open on both axes:
// [Lo.X, Hi.X) x [Lo.Y, Hi.Y).
type Rect struct {
	Lo, Hi Point
}

// NewRect builds a rectangle from a bottom-left corner and a size.
func NewRect(x, y, w, h float64) Rect {
	return Rect{Point{x, y}, Point{x + w, y + h}}
}

// W returns the width of the rectangle (0 if inverted).
func (r Rect) W() float64 {
	if r.Hi.X <= r.Lo.X {
		return 0
	}
	return r.Hi.X - r.Lo.X
}

// H returns the height of the rectangle (0 if inverted).
func (r Rect) H() float64 {
	if r.Hi.Y <= r.Lo.Y {
		return 0
	}
	return r.Hi.Y - r.Lo.Y
}

// Area returns W*H.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Empty reports whether the rectangle encloses no area.
func (r Rect) Empty() bool { return r.Hi.X <= r.Lo.X || r.Hi.Y <= r.Lo.Y }

// XSpan returns the horizontal extent as an interval.
func (r Rect) XSpan() Interval { return Interval{r.Lo.X, r.Hi.X} }

// YSpan returns the vertical extent as an interval.
func (r Rect) YSpan() Interval { return Interval{r.Lo.Y, r.Hi.Y} }

// ContainsRect reports whether o lies entirely within r.
func (r Rect) ContainsRect(o Rect) bool {
	if o.Empty() {
		return true
	}
	return r.XSpan().ContainsInterval(o.XSpan()) && r.YSpan().ContainsInterval(o.YSpan())
}

// Overlaps reports whether the two rectangles share interior area.
func (r Rect) Overlaps(o Rect) bool {
	return r.XSpan().Overlaps(o.XSpan()) && r.YSpan().Overlaps(o.YSpan())
}

// Intersect returns the common area of two rectangles (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	return Rect{
		Point{math.Max(r.Lo.X, o.Lo.X), math.Max(r.Lo.Y, o.Lo.Y)},
		Point{math.Min(r.Hi.X, o.Hi.X), math.Min(r.Hi.Y, o.Hi.Y)},
	}
}

// Center returns the centroid.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g %gx%g]", r.Lo.X, r.Lo.Y, r.W(), r.H())
}
