// Package shard partitions the 2-D data space into N disjoint regions so
// a sharded index can run one self-contained tree — with its own buffer
// pool, hash index and lock manager — per region.
//
// Two schemes are provided:
//
//   - Grid: the unit square is tiled into a gx×gy grid of equal cells,
//     one shard per cell. Cheap to route, ideal for uniform data.
//   - HilbertRange: a fine 2^k × 2^k cell grid is linearized along a
//     Hilbert curve and split into N contiguous curve ranges. When built
//     from a data sample the ranges are balanced by object count, which
//     adapts the partition to skewed distributions while keeping each
//     shard spatially compact (Hilbert ranges are clustered).
//
// Every point maps to exactly one shard. Points outside the unit square
// are clamped onto the boundary cells, so boundary shards own the
// overflow space; Region reports each shard's responsibility rectangle
// with boundary sides extended accordingly, which is what makes
// MinDist-based pruning of nearest-neighbour scatter safe.
package shard

import (
	"fmt"
	"slices"
	"sort"

	"burtree/internal/geom"
	"burtree/internal/hilbert"
)

// Scheme selects the partitioning algorithm.
type Scheme int

const (
	// Grid tiles the unit square into equal rectangular cells.
	Grid Scheme = iota
	// HilbertRange splits a Hilbert linearization of the space into
	// contiguous, optionally data-balanced ranges.
	HilbertRange
)

func (s Scheme) String() string {
	switch s {
	case Grid:
		return "grid"
	case HilbertRange:
		return "hilbert"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// hilbertOrder is the resolution of the Hilbert partition: the space is
// cut into 2^hilbertOrder cells per axis (32×32 = 1024 cells), which
// bounds routing cost while leaving plenty of granularity for balanced
// splits at realistic shard counts.
const hilbertOrder = 5

// hilbertSide is the cell-grid side length of the Hilbert partition.
const hilbertSide = 1 << hilbertOrder

// MaxShards bounds the shard count; beyond this the per-shard fixed
// costs (buffer pool, hash directory, lock table) dominate.
const MaxShards = 256

// NumCells is the number of Hilbert cells the load tracker and the
// balanced-bounds builders histogram over (one per cell of the routing
// grid).
const NumCells = hilbertSide * hilbertSide

// Router maps points and rectangles to shards.
type Router struct {
	scheme Scheme
	n      int

	// Grid scheme.
	gx, gy int

	// HilbertRange scheme: sorted curve positions (cell granularity);
	// shard(i) owns curve range [bounds[i-1], bounds[i]), with bounds[-1]
	// = 0 and bounds[n-1] = +inf implied. len(bounds) == n-1.
	bounds []uint64

	regions []geom.Rect // cached per-shard responsibility rectangles
}

// NewGrid builds an n-shard grid router. n is factored into the most
// square gx×gy decomposition available (a prime n degrades to stripes).
func NewGrid(n int) (*Router, error) {
	if err := checkShards(n); err != nil {
		return nil, err
	}
	gx := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			gx = d
		}
	}
	r := &Router{scheme: Grid, n: n, gx: n / gx, gy: gx}
	r.buildRegions()
	return r, nil
}

// NewHilbertUniform builds an n-shard Hilbert-range router with ranges
// of equal curve length (the choice when no data sample is available).
func NewHilbertUniform(n int) (*Router, error) {
	if err := checkShards(n); err != nil {
		return nil, err
	}
	total := uint64(hilbertSide) * uint64(hilbertSide)
	bounds := make([]uint64, n-1)
	for i := range bounds {
		bounds[i] = uint64(i+1) * total / uint64(n)
	}
	r := &Router{scheme: HilbertRange, n: n, bounds: bounds}
	r.buildRegions()
	return r, nil
}

// NewHilbertBalanced builds an n-shard Hilbert-range router whose range
// boundaries are quantiles of the sample's curve positions, so each
// shard starts with roughly len(sample)/n objects even on skewed data.
// An empty sample falls back to uniform ranges.
func NewHilbertBalanced(n int, sample []geom.Point) (*Router, error) {
	if len(sample) == 0 {
		return NewHilbertUniform(n)
	}
	if err := checkShards(n); err != nil {
		return nil, err
	}
	keys := make([]uint64, len(sample))
	for i, p := range sample {
		cx, cy := cellOf(p, hilbertSide)
		keys[i] = hilbert.D(uint32(cx), uint32(cy), hilbertOrder)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	total := uint64(hilbertSide) * uint64(hilbertSide)
	bounds := make([]uint64, n-1)
	prev := uint64(0)
	for i := range bounds {
		b := keys[(i+1)*len(keys)/n]
		// Boundaries must be strictly increasing to keep every shard's
		// range non-empty; degenerate quantiles (heavy ties) fall back to
		// the next free curve position.
		if b <= prev {
			b = prev + 1
		}
		if max := total - uint64(n-1-i); b > max {
			b = max
		}
		bounds[i] = b
		prev = b
	}
	r := &Router{scheme: HilbertRange, n: n, bounds: bounds}
	r.buildRegions()
	return r, nil
}

// NewHilbertBounds builds an n-shard Hilbert-range router from explicit
// curve boundaries (len(bounds) == n-1, strictly increasing within
// (0, NumCells)). This is how the rebalancer installs nudged boundaries;
// validation matches FromSpec so a bad nudge fails loudly.
func NewHilbertBounds(bounds []uint64) (*Router, error) {
	return FromSpec(Spec{Scheme: HilbertRange, Shards: len(bounds) + 1, Bounds: bounds})
}

// LoadQuantileBounds computes n-shard Hilbert boundaries as load
// quantiles over a per-cell histogram (indexed by curve position,
// len == NumCells): each shard's range receives ≈ 1/n of the observed
// load. Every cell is smoothed by +1 so unobserved space still spreads
// across shards instead of collapsing into one range; ties fall back to
// the next free curve position, exactly like NewHilbertBalanced.
func LoadQuantileBounds(n int, cellLoad []uint64) ([]uint64, error) {
	if err := checkShards(n); err != nil {
		return nil, err
	}
	if len(cellLoad) != NumCells {
		return nil, fmt.Errorf("shard: cell histogram has %d cells, want %d", len(cellLoad), NumCells)
	}
	total := uint64(0)
	for _, c := range cellLoad {
		total += c + 1
	}
	bounds := make([]uint64, n-1)
	acc := uint64(0)
	next := 0 // next boundary to place
	for cell := 0; cell < NumCells && next < len(bounds); cell++ {
		before := acc
		acc += cellLoad[cell] + 1
		// Place every boundary whose load quantile this cell crosses —
		// before the cell when the pre-cell cumulative is closer to the
		// target, which isolates a cell heavy enough to cross several
		// quantiles on its own into a minimal range instead of gluing the
		// whole cold prefix to it.
		for next < len(bounds) && acc >= uint64(next+1)*total/uint64(n) {
			target := uint64(next+1) * total / uint64(n)
			b := uint64(cell + 1)
			if target-before < acc-target {
				b = uint64(cell)
			}
			bounds[next] = b
			next++
		}
	}
	// Enforce strict monotonicity within (0, NumCells): heavy
	// concentration can put several quantiles in one cell.
	prev := uint64(0)
	for i := range bounds {
		b := bounds[i]
		if b <= prev {
			b = prev + 1
		}
		if max := uint64(NumCells) - uint64(n-1-i); b > max {
			b = max
		}
		bounds[i] = b
		prev = b
	}
	// Snap each cut to the load valley nearest its quantile position: a
	// boundary flanked by hot cells sits inside a cluster, and objects
	// orbiting there cross shards on every other move. Minimizing the
	// load adjacent to the cut keeps clusters whole on one side at the
	// cost of at most snapWindow cells of balance. Ties (uniform load)
	// keep the exact quantile position.
	prev = 0
	for i := range bounds {
		lo, hi := bounds[i], bounds[i]
		if lo > snapWindow && lo-snapWindow > prev {
			lo = bounds[i] - snapWindow
		} else {
			lo = prev + 1
		}
		if max := uint64(NumCells) - uint64(n-1-i); hi+snapWindow <= max {
			hi = bounds[i] + snapWindow
		} else {
			hi = max
		}
		start := bounds[i]
		if start < lo {
			start = lo
		} else if start > hi {
			start = hi
		}
		best, bestScore := start, cellLoad[start-1]+cellLoad[start]
		for b := lo; b <= hi; b++ {
			score := cellLoad[b-1] + cellLoad[b]
			if score < bestScore || (score == bestScore && absDiff(b, bounds[i]) < absDiff(best, bounds[i])) {
				best, bestScore = b, score
			}
		}
		bounds[i] = best
		prev = best
	}
	return bounds, nil
}

// snapWindow is how far (in Hilbert cells) a quantile cut may move to
// settle in a load valley.
const snapWindow = 8

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func checkShards(n int) error {
	if n < 1 || n > MaxShards {
		return fmt.Errorf("shard: shard count %d outside [1, %d]", n, MaxShards)
	}
	return nil
}

// Scheme returns the partitioning scheme.
func (r *Router) Scheme() Scheme { return r.scheme }

// NumShards returns the shard count.
func (r *Router) NumShards() int { return r.n }

// cellOf clamps p into the unit square and returns its cell coordinates
// on a side×side grid. Clamping is monotone, which is what guarantees
// that a point inside a window always routes to a shard covering that
// window (see ShardsFor).
func cellOf(p geom.Point, side int) (int, int) {
	return geom.ClampCell(p.X, side), geom.ClampCell(p.Y, side)
}

// CellKey returns p's Hilbert curve position at routing-cell granularity
// (in [0, NumCells)). It is scheme-independent: load histograms are kept
// in curve space even while a grid router is installed, so a grid
// partition can upgrade to load-balanced Hilbert ranges without
// re-observing the workload.
func CellKey(p geom.Point) uint64 {
	cx, cy := cellOf(p, hilbertSide)
	return hilbert.D(uint32(cx), uint32(cy), hilbertOrder)
}

// Bounds returns a copy of the Hilbert range boundaries (nil for a grid
// router).
func (r *Router) Bounds() []uint64 {
	if r.bounds == nil {
		return nil
	}
	return append([]uint64(nil), r.bounds...)
}

// ShardOf returns the shard owning p.
func (r *Router) ShardOf(p geom.Point) int {
	switch r.scheme {
	case Grid:
		cx := geom.ClampCell(p.X, r.gx)
		cy := geom.ClampCell(p.Y, r.gy)
		return cy*r.gx + cx
	default:
		cx, cy := cellOf(p, hilbertSide)
		return r.shardOfKey(hilbert.D(uint32(cx), uint32(cy), hilbertOrder))
	}
}

// shardOfKey locates a curve position in the boundary list.
func (r *Router) shardOfKey(h uint64) int {
	return sort.Search(len(r.bounds), func(i int) bool { return r.bounds[i] > h })
}

// onlyShard is ShardsFor's answer on a one-shard router, shared by every
// call: callers only read the list.
var onlyShard = []int{0}

// ShardsFor returns the sorted, deduplicated list of shards whose region
// intersects q; callers must not modify it. Every object inside q is
// owned by one of them: object routing clamps positions exactly the way
// the query window is clamped here, and clamping is monotone.
func (r *Router) ShardsFor(q geom.Rect) []int {
	if r.n == 1 && q.Valid() {
		return onlyShard
	}
	return r.AppendShardsFor(nil, q)
}

// AppendShardsFor appends ShardsFor's list to dst and returns the result,
// so a caller with room for it allocates nothing.
func (r *Router) AppendShardsFor(dst []int, q geom.Rect) []int {
	// An inverted (or NaN) window contains no points; the single-tree
	// search answers it with an empty result, so the scatter must too —
	// and must not compute a negative covering-range size.
	if !q.Valid() {
		return dst
	}
	if r.n == 1 {
		return append(dst, 0)
	}
	switch r.scheme {
	case Grid:
		x0 := geom.ClampCell(q.MinX, r.gx)
		x1 := geom.ClampCell(q.MaxX, r.gx)
		y0 := geom.ClampCell(q.MinY, r.gy)
		y1 := geom.ClampCell(q.MaxY, r.gy)
		dst = slices.Grow(dst, (x1-x0+1)*(y1-y0+1))
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				dst = append(dst, cy*r.gx+cx)
			}
		}
		return dst
	default:
		x0 := geom.ClampCell(q.MinX, hilbertSide)
		x1 := geom.ClampCell(q.MaxX, hilbertSide)
		y0 := geom.ClampCell(q.MinY, hilbertSide)
		y1 := geom.ClampCell(q.MaxY, hilbertSide)
		var seen [MaxShards / 64]uint64
		start := len(dst)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				s := r.shardOfKey(hilbert.D(uint32(cx), uint32(cy), hilbertOrder))
				if seen[s/64]&(1<<(s%64)) == 0 {
					seen[s/64] |= 1 << (s % 64)
					dst = append(dst, s)
				}
			}
		}
		slices.Sort(dst[start:])
		return dst
	}
}

// Region returns shard i's responsibility rectangle: the bounding box of
// its cells, with any side that touches the unit-square boundary pushed
// out to the world bound (boundary cells own the clamped overflow space,
// so objects that drift outside the square still satisfy
// Region.MinDistPoint ≤ their true distance — the invariant
// nearest-neighbour pruning relies on).
func (r *Router) Region(i int) geom.Rect { return r.regions[i] }

func (r *Router) buildRegions() {
	r.regions = make([]geom.Rect, r.n)
	switch r.scheme {
	case Grid:
		for cy := 0; cy < r.gy; cy++ {
			for cx := 0; cx < r.gx; cx++ {
				rect := geom.Rect{
					MinX: float64(cx) / float64(r.gx),
					MinY: float64(cy) / float64(r.gy),
					MaxX: float64(cx+1) / float64(r.gx),
					MaxY: float64(cy+1) / float64(r.gy),
				}
				r.regions[cy*r.gx+cx] = extendAtBoundary(rect)
			}
		}
	default:
		have := make([]bool, r.n)
		for cy := 0; cy < hilbertSide; cy++ {
			for cx := 0; cx < hilbertSide; cx++ {
				s := r.shardOfKey(hilbert.D(uint32(cx), uint32(cy), hilbertOrder))
				rect := geom.Rect{
					MinX: float64(cx) / hilbertSide,
					MinY: float64(cy) / hilbertSide,
					MaxX: float64(cx+1) / hilbertSide,
					MaxY: float64(cy+1) / hilbertSide,
				}
				rect = extendAtBoundary(rect)
				if !have[s] {
					have[s] = true
					r.regions[s] = rect
				} else {
					r.regions[s] = r.regions[s].Union(rect)
				}
			}
		}
	}
}

// extendAtBoundary pushes sides lying on the unit-square boundary out to
// the world bound.
func extendAtBoundary(rect geom.Rect) geom.Rect {
	if rect.MinX <= 0 {
		rect.MinX = geom.WorldRect.MinX
	}
	if rect.MinY <= 0 {
		rect.MinY = geom.WorldRect.MinY
	}
	if rect.MaxX >= 1 {
		rect.MaxX = geom.WorldRect.MaxX
	}
	if rect.MaxY >= 1 {
		rect.MaxY = geom.WorldRect.MaxY
	}
	return rect
}

// Spec is the serializable form of a Router (the sharded-snapshot
// manifest embeds it).
type Spec struct {
	Scheme Scheme
	Shards int
	GridX  int
	GridY  int
	Bounds []uint64
}

// Spec returns the router's serializable description.
func (r *Router) Spec() Spec {
	return Spec{
		Scheme: r.scheme,
		Shards: r.n,
		GridX:  r.gx,
		GridY:  r.gy,
		Bounds: append([]uint64(nil), r.bounds...),
	}
}

// FromSpec reconstructs a router, validating the description so corrupt
// snapshots fail with an error rather than a panic.
func FromSpec(s Spec) (*Router, error) {
	if err := checkShards(s.Shards); err != nil {
		return nil, err
	}
	switch s.Scheme {
	case Grid:
		if s.GridX < 1 || s.GridY < 1 || s.GridX*s.GridY != s.Shards {
			return nil, fmt.Errorf("shard: grid %dx%d does not cover %d shards", s.GridX, s.GridY, s.Shards)
		}
		r := &Router{scheme: Grid, n: s.Shards, gx: s.GridX, gy: s.GridY}
		r.buildRegions()
		return r, nil
	case HilbertRange:
		if len(s.Bounds) != s.Shards-1 {
			return nil, fmt.Errorf("shard: %d Hilbert boundaries for %d shards", len(s.Bounds), s.Shards)
		}
		total := uint64(hilbertSide) * uint64(hilbertSide)
		prev := uint64(0)
		for i, b := range s.Bounds {
			if b <= prev || b >= total {
				return nil, fmt.Errorf("shard: Hilbert boundary %d (%d) not strictly increasing within (0, %d)", i, b, total)
			}
			prev = b
		}
		r := &Router{scheme: HilbertRange, n: s.Shards, bounds: append([]uint64(nil), s.Bounds...)}
		r.buildRegions()
		return r, nil
	default:
		return nil, fmt.Errorf("shard: unknown scheme %d", int(s.Scheme))
	}
}
