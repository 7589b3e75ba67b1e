package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDistances(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if got := p.Dist(q); got != 5 {
		t.Errorf("Dist = %g, want 5", got)
	}
	if got := p.DistSq(q); got != 25 {
		t.Errorf("DistSq = %g, want 25", got)
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{2, 5}
	if iv.Len() != 3 {
		t.Errorf("Len = %g, want 3", iv.Len())
	}
	if iv.Empty() {
		t.Error("non-empty interval reported empty")
	}
	if !iv.Contains(2) {
		t.Error("Lo endpoint should be contained (half-open)")
	}
	if iv.Contains(5) {
		t.Error("Hi endpoint should not be contained (half-open)")
	}
	empty := Interval{5, 5}
	if !empty.Empty() || empty.Len() != 0 {
		t.Error("degenerate interval should be empty with zero length")
	}
	inverted := Interval{7, 3}
	if !inverted.Empty() || inverted.Len() != 0 {
		t.Error("inverted interval should be empty with zero length")
	}
}

func TestIntervalOverlaps(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{Interval{0, 2}, Interval{1, 3}, true},
		{Interval{0, 2}, Interval{2, 4}, false}, // touching is not overlap
		{Interval{0, 2}, Interval{3, 4}, false},
		{Interval{0, 4}, Interval{1, 2}, true}, // containment
		{Interval{0, 0}, Interval{0, 1}, false},
		{Interval{0, 1}, Interval{1, 1}, false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestIntervalContainsInterval(t *testing.T) {
	a := Interval{0, 10}
	if !a.ContainsInterval(Interval{2, 5}) {
		t.Error("should contain inner interval")
	}
	if !a.ContainsInterval(Interval{0, 10}) {
		t.Error("should contain itself")
	}
	if a.ContainsInterval(Interval{-1, 5}) {
		t.Error("should not contain interval extending left")
	}
	if !a.ContainsInterval(Interval{5, 5}) {
		t.Error("empty interval should be contained everywhere")
	}
}

func TestIntervalClamp(t *testing.T) {
	iv := Interval{2, 5}
	for _, c := range []struct{ in, want float64 }{{1, 2}, {3, 3}, {7, 5}, {2, 2}, {5, 5}} {
		if got := iv.Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(1, 2, 3, 4)
	if r.W() != 3 || r.H() != 4 {
		t.Errorf("size = %gx%g, want 3x4", r.W(), r.H())
	}
	if r.Area() != 12 {
		t.Errorf("Area = %g, want 12", r.Area())
	}
	if r.Empty() {
		t.Error("non-empty rect reported empty")
	}
	if got := r.Center(); got != (Point{2.5, 4}) {
		t.Errorf("Center = %v, want (2.5,4)", got)
	}
}

func TestRectOverlapAndIntersect(t *testing.T) {
	a := NewRect(0, 0, 4, 4)
	b := NewRect(2, 2, 4, 4)
	if !a.Overlaps(b) {
		t.Error("expected overlap")
	}
	inter := a.Intersect(b)
	if inter.W() != 2 || inter.H() != 2 {
		t.Errorf("intersection = %v, want 2x2", inter)
	}
	if got := inter.Area(); got != 4 {
		t.Errorf("intersection area = %g, want 4", got)
	}
	// Abutting rectangles must not overlap.
	c := NewRect(4, 0, 2, 4)
	if a.Overlaps(c) {
		t.Error("abutting rectangles must not overlap")
	}
	if got := a.Intersect(c).Area(); got != 0 {
		t.Errorf("intersection area of abutting = %g, want 0", got)
	}
}

func TestRectContainsRect(t *testing.T) {
	outer := NewRect(0, 0, 10, 10)
	if !outer.ContainsRect(NewRect(1, 1, 2, 2)) {
		t.Error("inner rect should be contained")
	}
	if !outer.ContainsRect(outer) {
		t.Error("rect should contain itself")
	}
	if outer.ContainsRect(NewRect(9, 9, 2, 2)) {
		t.Error("rect extending beyond should not be contained")
	}
	if !outer.ContainsRect(Rect{}) {
		t.Error("empty rect should be contained")
	}
}

// Property: Overlaps is equivalent to a positive-length intersection, taken
// as the width of the intersection of the unit-height strips over a and b.
func TestOverlapMatchesIntersection(t *testing.T) {
	f := func(a0, a1, b0, b1 float64) bool {
		a := Interval{math.Min(a0, a1), math.Max(a0, a1)}
		b := Interval{math.Min(b0, b1), math.Max(b0, b1)}
		sa := Rect{Point{a.Lo, 0}, Point{a.Hi, 1}}
		sb := Rect{Point{b.Lo, 0}, Point{b.Hi, 1}}
		return a.Overlaps(b) == (sa.Intersect(sb).W() > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: rectangle overlap area, the area of the intersection, is
// symmetric and bounded by both areas.
func TestOverlapAreaProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64, aw, ah, bw, bh uint8) bool {
		a := NewRect(ax, ay, float64(aw%32), float64(ah%32))
		b := NewRect(bx, by, float64(bw%32), float64(bh%32))
		oa := a.Intersect(b).Area()
		ob := b.Intersect(a).Area()
		if oa != ob {
			return false
		}
		return oa >= 0 && oa <= a.Area()+1e-9 && oa <= b.Area()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
