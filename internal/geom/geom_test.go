package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectFromPoint(t *testing.T) {
	p := Point{3, -4}
	r := RectFromPoint(p)
	if r.MinX != 3 || r.MaxX != 3 || r.MinY != -4 || r.MaxY != -4 {
		t.Fatalf("RectFromPoint(%v) = %v", p, r)
	}
	if r.Area() != 0 {
		t.Fatalf("point rect area = %v, want 0", r.Area())
	}
	if !r.ContainsPoint(p) {
		t.Fatalf("point rect does not contain its point")
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	want := Rect{1, 2, 5, 7}
	if r != want {
		t.Fatalf("NewRect = %v, want %v", r, want)
	}
	if !r.Valid() {
		t.Fatalf("normalized rect reported invalid")
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		r    Rect
		want bool
	}{
		{Rect{0, 0, 1, 1}, true},
		{Rect{0, 0, 0, 0}, true},
		{Rect{1, 0, 0, 1}, false},
		{Rect{0, 1, 1, 0}, false},
		{Rect{math.NaN(), 0, 1, 1}, false},
	}
	for _, c := range cases {
		if got := c.r.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestAreaMarginCenter(t *testing.T) {
	r := Rect{1, 2, 4, 6}
	if got := r.Area(); got != 12 {
		t.Errorf("Area = %v, want 12", got)
	}
	if got := r.Margin(); got != 7 {
		t.Errorf("Margin = %v, want 7", got)
	}
	if got := r.Center(); got != (Point{2.5, 4}) {
		t.Errorf("Center = %v, want (2.5,4)", got)
	}
}

func TestContainment(t *testing.T) {
	outer := Rect{0, 0, 10, 10}
	inner := Rect{2, 2, 5, 5}
	if !outer.ContainsRect(inner) {
		t.Errorf("outer should contain inner")
	}
	if inner.ContainsRect(outer) {
		t.Errorf("inner should not contain outer")
	}
	if !outer.ContainsRect(outer) {
		t.Errorf("containment must be reflexive")
	}
	// Boundary inclusive.
	if !outer.ContainsPoint(Point{10, 10}) {
		t.Errorf("boundary point should be contained")
	}
	if outer.ContainsPoint(Point{10.000001, 10}) {
		t.Errorf("exterior point should not be contained")
	}
}

func TestIntersects(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{1, 1, 3, 3}, true},
		{Rect{2, 2, 3, 3}, true}, // touching corner counts
		{Rect{3, 3, 4, 4}, false},
		{Rect{0, 2, 2, 4}, true}, // touching edge counts
		{Rect{-1, -1, -0.1, -0.1}, false},
		{a, true},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("Intersects(%v,%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("Intersects must be symmetric for %v", c.b)
		}
	}
}

func TestUnionIntersection(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 4}
	u := a.Union(b)
	if u != (Rect{0, 0, 3, 4}) {
		t.Fatalf("Union = %v", u)
	}
	i, ok := a.Intersection(b)
	if !ok || i != (Rect{1, 1, 2, 2}) {
		t.Fatalf("Intersection = %v, %v", i, ok)
	}
	if _, ok := a.Intersection(Rect{5, 5, 6, 6}); ok {
		t.Fatalf("disjoint rects reported intersecting")
	}
}

func TestOverlapArea(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	if got := a.OverlapArea(Rect{1, 1, 3, 3}); got != 1 {
		t.Errorf("OverlapArea = %v, want 1", got)
	}
	if got := a.OverlapArea(Rect{2, 0, 3, 2}); got != 0 {
		t.Errorf("touching overlap area = %v, want 0", got)
	}
	if got := a.OverlapArea(Rect{9, 9, 10, 10}); got != 0 {
		t.Errorf("disjoint overlap area = %v, want 0", got)
	}
}

func TestEnlargement(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	if got := a.Enlargement(Rect{1, 1, 1.5, 1.5}); got != 0 {
		t.Errorf("enlargement for contained rect = %v, want 0", got)
	}
}

func TestExpandAndClip(t *testing.T) {
	r := Rect{1, 1, 2, 2}
	e := r.Expand(0.5)
	if e != (Rect{0.5, 0.5, 2.5, 2.5}) {
		t.Fatalf("Expand = %v", e)
	}
}

func TestDist(t *testing.T) {
	if got := Dist(Point{0, 0}, Point{3, 4}); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := DistSq(Point{1, 1}, Point{4, 5}); got != 25 {
		t.Errorf("DistSq = %v, want 25", got)
	}
}

func TestMinDistPoint(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{1, 1}, 0},
		{Point{3, 1}, 1},
		{Point{1, -2}, 2},
		{Point{5, 6}, 5},
	}
	for _, c := range cases {
		if got := r.MinDistPoint(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MinDistPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestExtendTowardDirections(t *testing.T) {
	parent := Rect{0, 0, 10, 10}
	leaf := Rect{4, 4, 6, 6}
	eps := 1.0

	// Moving NE: only MaxX / MaxY may grow.
	got := ExtendToward(leaf, Point{6.5, 6.5}, eps, parent)
	if got != (Rect{4, 4, 6.5, 6.5}) {
		t.Errorf("NE extend = %v", got)
	}
	// Only enough to bound: target closer than eps.
	got = ExtendToward(leaf, Point{6.2, 5}, eps, parent)
	if got != (Rect{4, 4, 6.2, 6}) {
		t.Errorf("E extend = %v", got)
	}
	// Movement beyond eps: capped at eps, may fail to cover.
	got = ExtendToward(leaf, Point{9, 5}, eps, parent)
	if got != (Rect{4, 4, 7, 6}) {
		t.Errorf("capped extend = %v", got)
	}
	if got.ContainsPoint(Point{9, 5}) {
		t.Errorf("capped extension should not cover far target")
	}
	// Clipped by the parent MBR.
	leafEdge := Rect{8, 8, 9.8, 9.8}
	got = ExtendToward(leafEdge, Point{10.5, 9}, eps, parent)
	if got.MaxX != 10 {
		t.Errorf("parent clip: MaxX = %v, want 10", got.MaxX)
	}
	// Moving SW grows Min sides only.
	got = ExtendToward(leaf, Point{3.5, 3.2}, eps, parent)
	if got != (Rect{3.5, 3.2, 6, 6}) {
		t.Errorf("SW extend = %v", got)
	}
	// Point already inside: unchanged.
	got = ExtendToward(leaf, Point{5, 5}, eps, parent)
	if got != leaf {
		t.Errorf("interior point changed rect: %v", got)
	}
}

func TestExpandWithin(t *testing.T) {
	parent := Rect{0, 0, 10, 10}
	leaf := Rect{4, 4, 6, 6}
	got, ok := ExpandWithin(leaf, 1, parent)
	if !ok || got != (Rect{3, 3, 7, 7}) {
		t.Fatalf("ExpandWithin = %v, %v", got, ok)
	}
	// Too close to the parent boundary: refused, leaf unchanged.
	edge := Rect{0.5, 4, 6, 6}
	got, ok = ExpandWithin(edge, 1, parent)
	if ok || got != edge {
		t.Fatalf("ExpandWithin near edge = %v, %v; want refusal", got, ok)
	}
}

// randRect produces a valid rectangle from four random floats.
func randRect(r *rand.Rand) Rect {
	return NewRect(r.Float64()*10-5, r.Float64()*10-5, r.Float64()*10-5, r.Float64()*10-5)
}

func TestQuickUnionContainsBoth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randRect(rng), randRect(rng)
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionCommutativeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randRect(rng), randRect(rng)
		return a.Union(b) == b.Union(a) && a.Union(a) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectionSymmetricAndContained(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randRect(rng), randRect(rng)
		i1, ok1 := a.Intersection(b)
		i2, ok2 := b.Intersection(a)
		if ok1 != ok2 || i1 != i2 {
			return false
		}
		if !ok1 {
			return !a.Intersects(b)
		}
		return a.ContainsRect(i1) && b.ContainsRect(i1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOverlapAreaMatchesIntersection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randRect(rng), randRect(rng)
		i, ok := a.Intersection(b)
		want := 0.0
		if ok {
			want = i.Area()
		}
		return math.Abs(a.OverlapArea(b)-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEnlargementNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randRect(rng), randRect(rng)
		return a.Enlargement(b) >= 0 && a.Union(b).Area() >= a.Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExtendTowardInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parent := NewRect(-10, -10, 10, 10)
		leaf := randRect(rng) // randRect spans [-5, 5]², inside parent
		p := Point{rng.Float64()*24 - 12, rng.Float64()*24 - 12}
		eps := rng.Float64() * 2
		out := ExtendToward(leaf, p, eps, parent)
		if !out.Valid() {
			return false
		}
		// Never shrinks, never escapes parent, each side grows <= eps.
		if !out.ContainsRect(leaf) {
			return false
		}
		if !parent.ContainsRect(out) {
			return false
		}
		const tol = 1e-9
		return leaf.MinX-out.MinX <= eps+tol &&
			leaf.MinY-out.MinY <= eps+tol &&
			out.MaxX-leaf.MaxX <= eps+tol &&
			out.MaxY-leaf.MaxY <= eps+tol
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExtendTowardCoversNearbyPoints(t *testing.T) {
	// If the point is within eps of the leaf on each axis and inside the
	// parent, the extension must cover it.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parent := NewRect(-10, -10, 10, 10)
		leaf := NewRect(-2, -2, 2, 2)
		eps := 0.5
		p := Point{rng.Float64()*(4+2*eps) - 2 - eps, rng.Float64()*(4+2*eps) - 2 - eps}
		out := ExtendToward(leaf, p, eps, parent)
		return out.ContainsPoint(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormats(t *testing.T) {
	if s := (Point{1, 2}).String(); s == "" {
		t.Fatal("empty point string")
	}
	if s := (Rect{1, 2, 3, 4}).String(); s == "" {
		t.Fatal("empty rect string")
	}
}
