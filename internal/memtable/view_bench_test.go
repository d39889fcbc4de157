package memtable

import (
	"fmt"
	"math/rand"
	"testing"

	"burtree/internal/geom"
)

// BenchmarkViewDepth is the read cost of the tier against its depth: one
// view — a window of side 0.05, or the 10 nearest of a point — plus the
// 250 mask lookups of the tree candidates a read of that size checks, at
// 1 k, 4 k, 16 k and 64 k buffered deltas over objects spread on the
// unit square. The candidates are drawn from 256 k tree-resident ids,
// of which the buffered ones are a share that grows with the depth.
// It uses the exported API alone, so the same file runs on earlier
// versions of the package.
func BenchmarkViewDepth(b *testing.B) {
	const universe, masks, side, k = 1 << 18, 250, 0.05, 10
	for _, depth := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		rng := rand.New(rand.NewSource(1))
		tb := New(Config{MaxObjects: 1 << 20})
		for _, id := range rng.Perm(universe)[:depth] {
			tb.Update(uint64(id), geom.Point{X: rng.Float64(), Y: rng.Float64()}, geom.Point{X: rng.Float64(), Y: rng.Float64()})
		}
		type query struct {
			p          geom.Point
			candidates [masks]uint64
		}
		queries := make([]query, 1024)
		for i := range queries {
			queries[i].p = geom.Point{X: rng.Float64() * (1 - side), Y: rng.Float64() * (1 - side)}
			for j := range queries[i].candidates {
				queries[i].candidates[j] = uint64(rng.Intn(universe))
			}
		}
		var buf [64]Hit
		b.Run(fmt.Sprintf("depth=%d/window", depth), func(b *testing.B) {
			masked := 0
			for i := 0; i < b.N; i++ {
				q := &queries[i%len(queries)]
				view, _ := tb.ViewWindow(geom.NewRect(q.p.X, q.p.Y, q.p.X+side, q.p.Y+side), buf[:0])
				for _, id := range q.candidates {
					if view.Masks(id) {
						masked++
					}
				}
			}
			b.ReportMetric(float64(masked)/float64(b.N), "masked/op")
		})
		b.Run(fmt.Sprintf("depth=%d/nearest", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := &queries[i%len(queries)]
				view, _ := tb.ViewNearest(q.p, k, buf[:0])
				for _, id := range q.candidates {
					view.Masks(id)
				}
			}
		})
	}
}
