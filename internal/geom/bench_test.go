package geom

import (
	"math/rand"
	"testing"
)

var rectSink Rect

// BenchmarkUnion is one Union, the kernel under every MBR the tree
// computes: each call folds one of 64 random rectangles into a running
// bound, as EntriesMBR folds a node's entries.
func BenchmarkUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rects := make([]Rect, 64)
	for i := range rects {
		x, y := rng.Float64(), rng.Float64()
		rects[i] = NewRect(x, y, x+0.01*rng.Float64(), y+0.01*rng.Float64())
	}
	u := rects[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u = u.Union(rects[i&63])
	}
	rectSink = u
}
