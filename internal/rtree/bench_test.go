package rtree

import (
	"math/rand"
	"testing"

	"burtree/internal/geom"
	"burtree/internal/pagestore"
)

var indexSink int

// BenchmarkChooseSubtree is one descent step: the least-enlargement scan
// over an internal node of 24 entries (full at the default 1 KiB page) for a
// random point.
func BenchmarkChooseSubtree(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := &Node{Level: 1, Entries: make([]Entry, 24)}
	for i := range n.Entries {
		x, y := rng.Float64(), rng.Float64()
		n.Entries[i] = Entry{Rect: geom.NewRect(x, y, x+0.2*rng.Float64(), y+0.2*rng.Float64()), Child: pagestore.PageID(i + 1)}
	}
	pts := make([]geom.Rect, 64)
	for i := range pts {
		pts[i] = geom.RectFromPoint(geom.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink += chooseSubtree(n, pts[i&63])
	}
}

// BenchmarkEncodeNode writes one node into a default-size page: a leaf
// and an internal node, each two-thirds full, the fill a tree settles at
// under updates.
func BenchmarkEncodeNode(b *testing.B) {
	for _, c := range []struct {
		name  string
		level int
	}{{"leaf", 0}, {"internal", 1}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			count := MaxEntriesFor(pagestore.DefaultPageSize, false, c.level) * 2 / 3
			n := &Node{Level: c.level, Entries: make([]Entry, count)}
			for i := range n.Entries {
				p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
				n.Entries[i] = Entry{Rect: geom.RectFromPoint(p), Child: pagestore.PageID(i + 1), OID: OID(i)}
				if c.level > 0 {
					n.Entries[i].Rect = geom.NewRect(p.X, p.Y, p.X+0.01, p.Y+0.01)
				}
			}
			n.Self = n.EntriesMBR()
			buf := make([]byte, pagestore.DefaultPageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := encodeNode(n, buf, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
