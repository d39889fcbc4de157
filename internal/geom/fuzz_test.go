package geom

import (
	"math"
	"testing"
)

// FuzzGeomIntersect cross-checks the rectangle algebra: for any two
// rectangles built from fuzzed corners, the predicates and constructors
// must agree with each other (Intersects ⇔ Intersection ⇔ OverlapArea,
// containment implies intersection, unions contain their arguments,
// intersections are contained in theirs, MinDistPoint is zero exactly
// on containment).
func FuzzGeomIntersect(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 2.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0) // degenerate point rect
	f.Add(0.1, 0.2, 0.4, 0.3, 0.4, 0.3, 0.9, 0.9) // touching corners
	f.Add(-1.0, -1.0, -0.5, -0.5, 0.5, 0.5, 1.0, 1.0)
	f.Add(0.25, 0.25, 0.75, 0.75, 0.4, 0.4, 0.6, 0.6) // nested
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3, x4, y4 float64) {
		for _, v := range []float64{x1, y1, x2, y2, x3, y3, x4, y4} {
			// Non-finite and near-overflow coordinates have no defined
			// rectangle algebra (midpoints and areas overflow); the tree
			// never produces them.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				t.Skip()
			}
		}
		r := NewRect(x1, y1, x2, y2)
		s := NewRect(x3, y3, x4, y4)
		if !r.Valid() || !s.Valid() {
			t.Fatalf("NewRect produced invalid rect: %v %v", r, s)
		}

		if r.Intersects(s) != s.Intersects(r) {
			t.Fatalf("Intersects not symmetric: %v vs %v", r, s)
		}
		inter, ok := r.Intersection(s)
		if ok != r.Intersects(s) {
			t.Fatalf("Intersection ok=%v disagrees with Intersects=%v for %v %v", ok, r.Intersects(s), r, s)
		}
		if ok {
			if !inter.Valid() {
				t.Fatalf("invalid intersection %v of %v %v", inter, r, s)
			}
			if !r.ContainsRect(inter) || !s.ContainsRect(inter) {
				t.Fatalf("intersection %v not contained in both %v %v", inter, r, s)
			}
			if got, want := r.OverlapArea(s), inter.Area(); got != want {
				t.Fatalf("OverlapArea %g != Intersection area %g for %v %v", got, want, r, s)
			}
			c := inter.Center()
			if !r.ContainsPoint(c) || !s.ContainsPoint(c) {
				t.Fatalf("intersection center %v outside %v or %v", c, r, s)
			}
		} else {
			if r.OverlapArea(s) != 0 {
				t.Fatalf("disjoint rects %v %v have overlap area %g", r, s, r.OverlapArea(s))
			}
		}
		if r.ContainsRect(s) && !r.Intersects(s) {
			t.Fatalf("%v contains %v but does not intersect it", r, s)
		}

		u := r.Union(s)
		if !u.ContainsRect(r) || !u.ContainsRect(s) {
			t.Fatalf("union %v does not contain %v and %v", u, r, s)
		}
		if u.Area() < r.Area() || u.Area() < s.Area() {
			t.Fatalf("union area %g below argument areas %g %g", u.Area(), r.Area(), s.Area())
		}

		p := Point{X: x3, Y: y3}
		d := r.MinDistPoint(p)
		if r.ContainsPoint(p) != (d == 0) {
			t.Fatalf("MinDistPoint(%v, %v) = %g disagrees with containment %v", r, p, d, r.ContainsPoint(p))
		}
	})
}

// refMin and refMax are math.Min and math.Max, the functions the rectangle
// algebra was written with before it used the builtin min and max, with
// the language's NaN rule: a NaN argument makes the result NaN even beside
// the infinity that math.Min (−Inf) and math.Max (+Inf) return there. That
// pair of arguments is the only one where the builtins and the math
// functions differ in value; the index refuses NaN coordinates, so no
// rectangle of a tree holds one.
func refMin(x, y float64) float64 {
	if x != x || y != y {
		return math.NaN()
	}
	return math.Min(x, y)
}

func refMax(x, y float64) float64 {
	if x != x || y != y {
		return math.NaN()
	}
	return math.Max(x, y)
}

// The reference kernels: each as it was written on math.Min and math.Max.

func refNewRect(x1, y1, x2, y2 float64) Rect {
	return Rect{refMin(x1, x2), refMin(y1, y2), refMax(x1, x2), refMax(y1, y2)}
}

func refUnion(r, s Rect) Rect {
	return Rect{refMin(r.MinX, s.MinX), refMin(r.MinY, s.MinY), refMax(r.MaxX, s.MaxX), refMax(r.MaxY, s.MaxY)}
}

func refIntersection(r, s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{refMax(r.MinX, s.MinX), refMax(r.MinY, s.MinY), refMin(r.MaxX, s.MaxX), refMin(r.MaxY, s.MaxY)}, true
}

func refOverlapArea(r, s Rect) float64 {
	w := refMin(r.MaxX, s.MaxX) - refMax(r.MinX, s.MinX)
	if w <= 0 {
		return 0
	}
	h := refMin(r.MaxY, s.MaxY) - refMax(r.MinY, s.MinY)
	if h <= 0 {
		return 0
	}
	return w * h
}

func refEnlargement(r, s Rect) float64 {
	return refUnion(r, s).Area() - r.Area()
}

func refExtendToward(leaf Rect, p Point, eps float64, parent Rect) Rect {
	out := leaf
	if p.X > leaf.MaxX {
		out.MaxX = refMin(refMin(leaf.MaxX+eps, p.X), parent.MaxX)
	} else if p.X < leaf.MinX {
		out.MinX = refMax(refMax(leaf.MinX-eps, p.X), parent.MinX)
	}
	if p.Y > leaf.MaxY {
		out.MaxY = refMin(refMin(leaf.MaxY+eps, p.Y), parent.MaxY)
	} else if p.Y < leaf.MinY {
		out.MinY = refMax(refMax(leaf.MinY-eps, p.Y), parent.MinY)
	}
	return out
}

// sameFloat reports whether a and b have the same bits, or are both NaN:
// neither the language nor package math fixes which NaN a min or max
// returns.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameRect(a, b Rect) bool {
	return sameFloat(a.MinX, b.MinX) && sameFloat(a.MinY, b.MinY) && sameFloat(a.MaxX, b.MaxX) && sameFloat(a.MaxY, b.MaxY)
}

// FuzzGeomKernels holds the rectangle kernels to their reference bit for
// bit on every input, the ones FuzzGeomIntersect skips included: NaN,
// ±0, ±Inf and ±MaxFloat64 coordinates, and rectangles whose sides are
// inverted. The two rectangles are taken as given, not normalized.
func FuzzGeomKernels(f *testing.F) {
	inf, nan, big := math.Inf(1), math.NaN(), math.MaxFloat64
	negZero := math.Copysign(0, -1)
	f.Add(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 2.0, 1.5, 1.5, 0.25)
	f.Add(negZero, negZero, 0.0, 0.0, 0.0, 0.0, negZero, negZero, negZero, 0.0, 0.0)
	f.Add(0.0, negZero, negZero, 0.0, negZero, 0.0, 0.0, negZero, 0.0, negZero, negZero)
	f.Add(-inf, -inf, inf, inf, 0.0, 0.0, 1.0, 1.0, inf, -inf, 1.0)
	f.Add(-inf, nan, nan, inf, nan, -inf, inf, nan, nan, 0.5, 0.1)
	f.Add(nan, nan, nan, nan, 0.0, 0.0, 1.0, 1.0, 2.0, -1.0, nan)
	f.Add(-big, -big, big, big, big, big, -big, -big, big, -big, big)
	f.Add(-big, 0.0, big, 1.0, -inf, 0.5, inf, 0.5, -big, 2.0, inf)
	f.Add(1.0, 1.0, 0.0, 0.0, 0.5, 0.5, 0.75, 0.75, 0.6, 0.6, 0.1)
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3, x4, y4, px, py, eps float64) {
		r := Rect{x1, y1, x2, y2}
		s := Rect{x3, y3, x4, y4}
		p := Point{px, py}
		if got, want := NewRect(x1, y1, x2, y2), refNewRect(x1, y1, x2, y2); !sameRect(got, want) {
			t.Fatalf("NewRect(%v, %v, %v, %v) = %v, reference %v", x1, y1, x2, y2, got, want)
		}
		if got, want := r.Union(s), refUnion(r, s); !sameRect(got, want) {
			t.Fatalf("%v.Union(%v) = %v, reference %v", r, s, got, want)
		}
		got, ok := r.Intersection(s)
		want, wantOK := refIntersection(r, s)
		if ok != wantOK || !sameRect(got, want) {
			t.Fatalf("%v.Intersection(%v) = %v, %v, reference %v, %v", r, s, got, ok, want, wantOK)
		}
		if got, want := r.OverlapArea(s), refOverlapArea(r, s); !sameFloat(got, want) {
			t.Fatalf("%v.OverlapArea(%v) = %v, reference %v", r, s, got, want)
		}
		if got, want := r.Enlargement(s), refEnlargement(r, s); !sameFloat(got, want) {
			t.Fatalf("%v.Enlargement(%v) = %v, reference %v", r, s, got, want)
		}
		if got, want := ExtendToward(r, p, eps, s), refExtendToward(r, p, eps, s); !sameRect(got, want) {
			t.Fatalf("ExtendToward(%v, %v, %v, %v) = %v, reference %v", r, p, eps, s, got, want)
		}
	})
}
