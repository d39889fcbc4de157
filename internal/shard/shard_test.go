package shard

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"burtree/internal/geom"
	"burtree/internal/hilbert"
)

func routersForTest(t *testing.T, n int, sample []geom.Point) map[string]*Router {
	t.Helper()
	hu, err := NewHilbertUniform(n)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := NewHilbertBalanced(n, sample)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Router{"hilbert-uniform": hu, "hilbert-balanced": hb}
}

func samplePoints(n int, seed int64, skewed bool) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		x, y := rng.Float64(), rng.Float64()
		if skewed {
			x, y = x*x*x, y*y*y
		}
		pts[i] = geom.Point{X: x, Y: y}
	}
	return pts
}

// Every point must route to exactly one shard, and that shard must be
// among ShardsFor of any window containing the point (the scatter-read
// correctness invariant).
func TestRouterCoverage(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		for name, r := range routersForTest(t, n, samplePoints(500, 7, true)) {
			if r.NumShards() != n {
				t.Fatalf("%s: NumShards = %d, want %d", name, r.NumShards(), n)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 2000; i++ {
				// Include positions outside the unit square: objects drift.
				p := geom.Point{X: rng.Float64()*1.6 - 0.3, Y: rng.Float64()*1.6 - 0.3}
				s := r.ShardOf(p)
				if s < 0 || s >= n {
					t.Fatalf("%s n=%d: ShardOf(%v) = %d out of range", name, n, p, s)
				}
				w := rng.Float64() * 0.2
				q := geom.Rect{MinX: p.X - w, MinY: p.Y - w, MaxX: p.X + w, MaxY: p.Y + w}
				if !containsInt(r.ShardsFor(q), s) {
					t.Fatalf("%s n=%d: shard %d of point %v not in ShardsFor(%v) = %v",
						name, n, s, p, q, r.ShardsFor(q))
				}
				// Region must bound the owning shard's responsibility: the
				// point's distance to the region must be zero (it is inside).
				if d := r.Region(s).MinDistPoint(p); d > 0 {
					t.Fatalf("%s n=%d: point %v outside owning region %v (dist %g)",
						name, n, p, r.Region(s), d)
				}
			}
		}
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Extreme coordinates — far beyond the float→int conversion range —
// must still route and scatter consistently: no panic, no empty
// covering set for a window that contains an owned point.
func TestRouterExtremeCoordinates(t *testing.T) {
	pts := []geom.Point{
		{X: 1e20, Y: 0.5},
		{X: -1e20, Y: -1e20},
		{X: 1e300, Y: 1e300},
		{X: 0.95, Y: 0.5},
	}
	for _, n := range []int{2, 4, 8} {
		for name, r := range routersForTest(t, n, samplePoints(200, 1, false)) {
			for _, p := range pts {
				s := r.ShardOf(p)
				if s < 0 || s >= n {
					t.Fatalf("%s n=%d: ShardOf(%v) = %d", name, n, p, s)
				}
				q := geom.Rect{MinX: p.X - 0.5, MinY: p.Y - 0.5, MaxX: p.X + 1e20, MaxY: p.Y + 1e20}
				if !containsInt(r.ShardsFor(q), s) {
					t.Fatalf("%s n=%d: shard %d of %v not in ShardsFor(%v)", name, n, s, p, q)
				}
			}
			// The classic overflow repro: a window reaching past the int64
			// conversion range must not panic or come back empty.
			got := r.ShardsFor(geom.Rect{MinX: 0.8, MinY: 0, MaxX: 1e20, MaxY: 1})
			if len(got) == 0 {
				t.Fatalf("%s n=%d: huge window scatters to no shards", name, n)
			}
		}
	}
}

// A whole-space window must scatter to every shard.
func TestShardsForWholeSpace(t *testing.T) {
	for name, r := range routersForTest(t, 8, samplePoints(300, 3, false)) {
		got := r.ShardsFor(geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2})
		if len(got) != 8 {
			t.Fatalf("%s: whole-space query hits %d of 8 shards: %v", name, len(got), got)
		}
	}
}

// The balanced Hilbert split must distribute a skewed sample far more
// evenly than equal-length ranges do.
func TestHilbertBalancedSkew(t *testing.T) {
	const n = 8
	pts := samplePoints(8000, 11, true)
	r, err := NewHilbertBalanced(n, pts)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	for _, p := range pts {
		counts[r.ShardOf(p)]++
	}
	want := len(pts) / n
	for s, c := range counts {
		if c < want/4 || c > want*4 {
			t.Fatalf("balanced hilbert: shard %d holds %d of %d (want ≈%d): %v", s, c, len(pts), want, counts)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for name, r := range routersForTest(t, 6, samplePoints(1000, 5, true)) {
		r2, err := FromSpec(r.Spec())
		if err != nil {
			t.Fatalf("%s: FromSpec: %v", name, err)
		}
		if !slices.Equal(r2.Bounds(), r.Bounds()) {
			t.Fatalf("%s: bounds %v became %v across the round trip", name, r.Bounds(), r2.Bounds())
		}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 500; i++ {
			p := geom.Point{X: rng.Float64()*1.4 - 0.2, Y: rng.Float64()*1.4 - 0.2}
			if r.ShardOf(p) != r2.ShardOf(p) {
				t.Fatalf("%s: ShardOf(%v) differs after round trip: %d vs %d",
					name, p, r.ShardOf(p), r2.ShardOf(p))
			}
		}
	}
}

func TestFromSpecRejectsCorrupt(t *testing.T) {
	cases := []Spec{
		{Shards: 0},
		{Shards: MaxShards + 1},
		{Shards: 4, GridX: 2, GridY: 2}, // the retired grid scheme
		{Shards: 2, GridX: 2, GridY: 1, Bounds: []uint64{512}}, // grid fields beside valid bounds
		{Shards: 4, Bounds: []uint64{1, 2}},                    // wrong arity
		{Shards: 3, Bounds: []uint64{5, 5}},                    // not increasing
		{Shards: 3, Bounds: []uint64{0, 7}},                    // zero boundary
		{Shards: 2, Bounds: []uint64{1 << 62}},                 // beyond curve
	}
	for i, c := range cases {
		if _, err := FromSpec(c); err == nil {
			t.Fatalf("case %d (%+v): expected error", i, c)
		}
	}
	// A one-cell grid is the one-range router: snapshots of one-stack
	// indexes carry it.
	r, err := FromSpec(Spec{Shards: 1, GridX: 1, GridY: 1})
	if err != nil {
		t.Fatalf("one-cell grid spec: %v", err)
	}
	if r.NumShards() != 1 || r.Region(0) != geom.WorldRect {
		t.Fatalf("one-cell grid spec: %d shards, region %v", r.NumShards(), r.Region(0))
	}
}

// With the grid scheme retired, the uniform Hilbert cut takes its place
// at open. For 2 and 4 shards its ranges cover exactly the cells the
// grid's most-square factorization tiled, numbered differently; for 8
// they are equal rectangles too, the upper four the 4×2 grid's upper
// row, but the lower four lie across (1/2 × 1/4) where the grid's stood
// upright (1/4 × 1/2).
func TestUniformRegionsMatchGrid(t *testing.T) {
	for _, tc := range []struct{ n, cols, rows int }{{2, 2, 1}, {4, 2, 2}, {8, 4, 2}} {
		r, err := NewHilbertUniform(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		var grid []geom.Rect
		for cy := 0; cy < tc.rows; cy++ {
			for cx := 0; cx < tc.cols; cx++ {
				grid = append(grid, extendAtBoundary(geom.Rect{
					MinX: float64(cx) / float64(tc.cols), MinY: float64(cy) / float64(tc.rows),
					MaxX: float64(cx+1) / float64(tc.cols), MaxY: float64(cy+1) / float64(tc.rows),
				}))
			}
		}
		matched := 0
		for i := 0; i < tc.n; i++ {
			// Every range is a rectangle of 1/n of the square.
			reg, _ := r.Region(i).Intersection(geom.Rect{MaxX: 1, MaxY: 1})
			if got := reg.Area(); math.Abs(got-1/float64(tc.n)) > 1e-12 {
				t.Fatalf("n=%d: region %d %v covers %g of the square, want 1/%d", tc.n, i, reg, got, tc.n)
			}
			if j := slices.Index(grid, r.Region(i)); j >= 0 {
				grid = slices.Delete(grid, j, j+1)
				matched++
			}
		}
		if want := map[int]int{2: 2, 4: 4, 8: 4}[tc.n]; matched != want {
			t.Fatalf("n=%d: %d regions are cells of the %dx%d grid, want %d", tc.n, matched, tc.cols, tc.rows, want)
		}
	}
}

// A one-range router answers without computing a curve position; its
// answers must be the general Hilbert computation's, on any input.
func TestOneRangeFastPaths(t *testing.T) {
	ones := map[string]*Router{}
	for name, r := range routersForTest(t, 1, samplePoints(100, 2, true)) {
		ones[name] = r
	}
	spec, err := FromSpec(Spec{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ones["spec"] = spec
	nan := math.NaN()
	rng := rand.New(rand.NewSource(4))
	var pts []geom.Point
	var windows []geom.Rect
	for i := 0; i < 500; i++ {
		p := geom.Point{X: rng.Float64()*3 - 1, Y: rng.Float64()*3 - 1}
		pts = append(pts, p)
		w, h := rng.Float64()*2-0.5, rng.Float64()*2-0.5 // negative: inverted
		windows = append(windows, geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X + w, MaxY: p.Y + h})
	}
	pts = append(pts, geom.Point{X: nan, Y: 0.5}, geom.Point{X: nan, Y: nan}, geom.Point{X: 1e300, Y: -1e300})
	windows = append(windows, geom.Rect{MinX: nan, MinY: 0, MaxX: 1, MaxY: 1}, geom.Rect{MinX: 0, MinY: 0, MaxX: nan, MaxY: nan},
		geom.Rect{MinX: -1e300, MinY: -1e300, MaxX: 1e300, MaxY: 1e300}, geom.WorldRect)
	for name, r := range ones {
		if got := r.Region(0); got != generalRegions(r)[0] || got != geom.WorldRect {
			t.Fatalf("%s: region %v, general %v", name, got, generalRegions(r)[0])
		}
		for _, p := range pts {
			if got, want := r.ShardOf(p), r.shardOfKey(CellKey(p)); got != want {
				t.Fatalf("%s: ShardOf(%v) = %d, general %d", name, p, got, want)
			}
		}
		for _, q := range windows {
			want := generalShardsFor(r, q)
			if got := r.ShardsFor(q); !slices.Equal(got, want) {
				t.Fatalf("%s: ShardsFor(%v) = %v, general %v", name, q, got, want)
			}
			if got := r.AppendShardsFor(nil, q); !slices.Equal(got, want) {
				t.Fatalf("%s: AppendShardsFor(%v) = %v, general %v", name, q, got, want)
			}
		}
	}
}

// generalShardsFor is ShardsFor computed cell by cell, with no shortcut
// for one range.
func generalShardsFor(r *Router, q geom.Rect) []int {
	var out []int
	if !q.Valid() {
		return out
	}
	for cy := geom.ClampCell(q.MinY, hilbertSide); cy <= geom.ClampCell(q.MaxY, hilbertSide); cy++ {
		for cx := geom.ClampCell(q.MinX, hilbertSide); cx <= geom.ClampCell(q.MaxX, hilbertSide); cx++ {
			s := r.shardOfKey(hilbert.D(uint32(cx), uint32(cy), hilbertOrder))
			if !slices.Contains(out, s) {
				out = append(out, s)
			}
		}
	}
	slices.Sort(out)
	return out
}

// generalRegions is Region computed as the union of each shard's cells,
// with no shortcut for one range.
func generalRegions(r *Router) []geom.Rect {
	regions := make([]geom.Rect, r.n)
	have := make([]bool, r.n)
	for cy := 0; cy < hilbertSide; cy++ {
		for cx := 0; cx < hilbertSide; cx++ {
			s := r.shardOfKey(hilbert.D(uint32(cx), uint32(cy), hilbertOrder))
			rect := extendAtBoundary(geom.Rect{
				MinX: float64(cx) / hilbertSide, MinY: float64(cy) / hilbertSide,
				MaxX: float64(cx+1) / hilbertSide, MaxY: float64(cy+1) / hilbertSide,
			})
			if have[s] {
				rect = regions[s].Union(rect)
			}
			regions[s], have[s] = rect, true
		}
	}
	return regions
}
