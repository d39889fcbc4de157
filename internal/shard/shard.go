// Package shard partitions the 2-D data space into N disjoint regions so
// a sharded index can run one self-contained tree — with its own buffer
// pool and lock manager — per region.
//
// A fine 2^k × 2^k cell grid is linearized along a Hilbert curve and
// split into N contiguous curve ranges, one shard per range. Uniform
// ranges (equal curve length) serve an index that has seen no data yet;
// ranges cut from a data sample are balanced by object count, which
// adapts the partition to skewed distributions while keeping each shard
// spatially compact (Hilbert ranges are clustered). A one-range router
// answers every point with shard 0 without computing a curve position.
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

// hilbertOrder is the resolution of the Hilbert partition: the space is
// cut into 2^hilbertOrder cells per axis (32×32 = 1024 cells), which
// bounds routing cost while leaving plenty of granularity for balanced
// splits at realistic shard counts.
const hilbertOrder = 5

// hilbertSide is the cell-grid side length of the Hilbert partition.
const hilbertSide = 1 << hilbertOrder

// MaxShards bounds the shard count; beyond this the per-shard fixed
// costs (buffer pool, lock table) dominate.
const MaxShards = 256

// NumCells is the number of Hilbert cells of the routing grid: curve
// positions, and so boundaries, lie in [0, NumCells).
const NumCells = hilbertSide * hilbertSide

// Router maps points and rectangles to shards.
type Router struct {
	n int

	// Sorted curve positions (cell granularity): shard(i) owns curve
	// range [bounds[i-1], bounds[i]), with bounds[-1] = 0 and
	// bounds[n-1] = +inf implied. len(bounds) == n-1.
	bounds []uint64

	regions []geom.Rect // cached per-shard responsibility rectangles
}

// NewHilbertUniform builds an n-shard Hilbert-range router with ranges
// of equal curve length (the choice when no data sample is available).
func NewHilbertUniform(n int) (*Router, error) {
	if err := checkShards(n); err != nil {
		return nil, err
	}
	bounds := make([]uint64, n-1)
	for i := range bounds {
		bounds[i] = uint64(i+1) * NumCells / uint64(n)
	}
	r := &Router{n: n, bounds: bounds}
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
		keys[i] = cellKey(p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
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
		if max := uint64(NumCells) - uint64(n-1-i); b > max {
			b = max
		}
		bounds[i] = b
		prev = b
	}
	r := &Router{n: n, bounds: bounds}
	r.buildRegions()
	return r, nil
}

func checkShards(n int) error {
	if n < 1 || n > MaxShards {
		return fmt.Errorf("shard: shard count %d outside [1, %d]", n, MaxShards)
	}
	return nil
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return r.n }

// cellOf clamps p into the unit square and returns its cell coordinates
// on a side×side grid. Clamping is monotone, which is what guarantees
// that a point inside a window always routes to a shard covering that
// window (see ShardsFor).
func cellOf(p geom.Point, side int) (int, int) {
	return geom.ClampCell(p.X, side), geom.ClampCell(p.Y, side)
}

// cellKey returns p's Hilbert curve position at routing-cell granularity
// (in [0, NumCells)): the key the boundaries cut.
func cellKey(p geom.Point) uint64 {
	cx, cy := cellOf(p, hilbertSide)
	return hilbert.D(uint32(cx), uint32(cy), hilbertOrder)
}

// CellKey is cellKey, exported only while the benchmark's record_batch
// micro-benchmark builds its CellCounts with it; a benchmark change deletes
// it.
func CellKey(p geom.Point) uint64 { return cellKey(p) }

// Bounds returns a copy of the Hilbert range boundaries (empty for one
// shard).
func (r *Router) Bounds() []uint64 { return slices.Clone(r.bounds) }

// ShardOf returns the shard owning p. One range owns every point.
func (r *Router) ShardOf(p geom.Point) int {
	if r.n == 1 {
		return 0
	}
	return r.shardOfKey(cellKey(p))
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

// Region returns shard i's responsibility rectangle: the bounding box of
// its cells, with any side that touches the unit-square boundary pushed
// out to the world bound (boundary cells own the clamped overflow space,
// so objects that drift outside the square still satisfy
// Region.MinDistPoint ≤ their true distance — the invariant
// nearest-neighbour pruning relies on).
func (r *Router) Region(i int) geom.Rect { return r.regions[i] }

func (r *Router) buildRegions() {
	if r.n == 1 {
		r.regions = []geom.Rect{geom.WorldRect}
		return
	}
	r.regions = make([]geom.Rect, r.n)
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

// Spec is the serializable form of a Router (the snapshot embeds it).
type Spec struct {
	Shards int
	Bounds []uint64
	// GridX and GridY are read only from snapshots written while a grid
	// partition existed; FromSpec refuses a grid of more than one cell.
	// A one-cell grid is the one-range router, so those snapshots load.
	GridX, GridY int
}

// Spec returns the router's serializable description.
func (r *Router) Spec() Spec { return Spec{Shards: r.n, Bounds: r.Bounds()} }

// FromSpec reconstructs a router, validating the description so corrupt
// snapshots fail with an error rather than a panic.
func FromSpec(s Spec) (*Router, error) {
	if err := checkShards(s.Shards); err != nil {
		return nil, err
	}
	if max(s.GridX, s.GridY) > 1 {
		return nil, fmt.Errorf("shard: a %dx%d grid partition: the grid scheme is retired, only Hilbert ranges load", s.GridX, s.GridY)
	}
	if len(s.Bounds) != s.Shards-1 {
		return nil, fmt.Errorf("shard: %d Hilbert boundaries for %d shards", len(s.Bounds), s.Shards)
	}
	prev := uint64(0)
	for i, b := range s.Bounds {
		if b <= prev || b >= NumCells {
			return nil, fmt.Errorf("shard: Hilbert boundary %d (%d) not strictly increasing within (0, %d)", i, b, NumCells)
		}
		prev = b
	}
	r := &Router{n: s.Shards, bounds: slices.Clone(s.Bounds)}
	r.buildRegions()
	return r, nil
}
