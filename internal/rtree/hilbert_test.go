package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"burtree/internal/geom"
)

func TestHilbertValueBasics(t *testing.T) {
	// The four corners of the first-order curve visit in the canonical
	// order; at full resolution the origin cell maps to distance 0.
	if hilbertValue(0, 0) != 0 {
		t.Fatalf("h(0,0) = %d", hilbertValue(0, 0))
	}
	// Distinct cells map to distinct distances (bijection spot check).
	seen := map[uint64]bool{}
	for x := uint32(0); x < 16; x++ {
		for y := uint32(0); y < 16; y++ {
			v := hilbertValue(x<<12, y<<12)
			if seen[v] {
				t.Fatalf("collision at (%d,%d)", x, y)
			}
			seen[v] = true
		}
	}
}

func TestHilbertLocality(t *testing.T) {
	// Adjacent cells on the curve must be adjacent in space (the curve's
	// defining property): walk consecutive curve positions via sorting.
	rng := rand.New(rand.NewSource(1))
	type pt struct {
		x, y uint32
		h    uint64
	}
	var pts []pt
	for i := 0; i < 2000; i++ {
		x, y := uint32(rng.Intn(1<<hilbertBits)), uint32(rng.Intn(1<<hilbertBits))
		pts = append(pts, pt{x, y, hilbertValue(x, y)})
	}
	// Spearman-style check: points close on the curve should be close in
	// space on average. Compare mean spatial distance of curve-adjacent
	// pairs against random pairs.
	bySpace := func(a, b pt) float64 {
		dx := float64(a.x) - float64(b.x)
		dy := float64(a.y) - float64(b.y)
		return dx*dx + dy*dy
	}
	sortByH := append([]pt(nil), pts...)
	for i := 1; i < len(sortByH); i++ {
		for j := i; j > 0 && sortByH[j].h < sortByH[j-1].h; j-- {
			sortByH[j], sortByH[j-1] = sortByH[j-1], sortByH[j]
		}
	}
	var curveAdj, randomPair float64
	for i := 1; i < len(sortByH); i++ {
		curveAdj += bySpace(sortByH[i], sortByH[i-1])
	}
	for i := 0; i < len(pts)-1; i++ {
		randomPair += bySpace(pts[rng.Intn(len(pts))], pts[rng.Intn(len(pts))])
	}
	if curveAdj >= randomPair/4 {
		t.Fatalf("curve locality weak: adjacent %g vs random %g", curveAdj, randomPair)
	}
}

func TestBulkLoadHilbertBasic(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	rng := rand.New(rand.NewSource(2))
	items, o := bulkItems(rng, 2500)
	if err := tr.BulkLoadHilbert(items, 0.66); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 2500 {
		t.Fatalf("size = %d", tr.Size())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, tr, o, 25, rng)
}

func TestBulkLoadHilbertSmallAndErrors(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 30} {
		tr := newTestTree(t, 512, 0, Config{})
		rng := rand.New(rand.NewSource(int64(n)))
		items, o := bulkItems(rng, n)
		if err := tr.BulkLoadHilbert(items, 0.7); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n > 0 {
			checkAgainstOracle(t, tr, o, 8, rng)
		}
	}
	tr := newTestTree(t, 512, 0, Config{})
	if err := tr.BulkLoadHilbert([]Item{{OID: 1, Rect: geom.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}}}, 0.7); err == nil {
		t.Fatal("invalid rect accepted")
	}
	p := geom.RectFromPoint(geom.Point{X: 0.5, Y: 0.5})
	if err := tr.BulkLoadHilbert([]Item{{OID: 1, Rect: p}}, 1.5); err == nil {
		t.Fatal("bad fill accepted")
	}
	if err := tr.Insert(9, geom.RectFromPoint(geom.Point{X: 0.1, Y: 0.1})); err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoadHilbert([]Item{{OID: 1, Rect: p}}, 0.7); err == nil {
		t.Fatal("non-empty tree accepted")
	}
}

func TestBulkLoadHilbertVsSTRQuality(t *testing.T) {
	// On skewed data Hilbert packing should not be worse than STR on
	// query I/O by any meaningful margin (and is often better).
	rng := rand.New(rand.NewSource(3))
	var items []Item
	for i := 0; i < 4000; i++ {
		u, v := rng.Float64(), rng.Float64()
		items = append(items, Item{OID: OID(i), Rect: geom.RectFromPoint(geom.Point{X: u * u * u, Y: v * v * v})})
	}
	measure := func(load func(*Tree) error) float64 {
		tr := newTestTree(t, 512, 0, Config{})
		if err := load(tr); err != nil {
			t.Fatal(err)
		}
		io := tr.IO()
		base := io.Snapshot()
		q := rand.New(rand.NewSource(4))
		const queries = 300
		for i := 0; i < queries; i++ {
			x, y := q.Float64()*0.5, q.Float64()*0.5
			if err := tr.Search(geom.Rect{MinX: x, MinY: y, MaxX: x + 0.05, MaxY: y + 0.05},
				func(OID, geom.Rect) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
		return float64(io.Snapshot().Sub(base).Reads) / queries
	}
	str := measure(func(tr *Tree) error { return tr.BulkLoad(append([]Item(nil), items...), 0.66) })
	hil := measure(func(tr *Tree) error { return tr.BulkLoadHilbert(append([]Item(nil), items...), 0.66) })
	if hil > str*1.35 {
		t.Fatalf("hilbert query reads %.2f much worse than STR %.2f", hil, str)
	}
}

func TestQuickHilbertBulkLoadValid(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		n := int(size%2000) + 1
		rng := rand.New(rand.NewSource(seed))
		tr := newTestTree(t, 512, 0, Config{})
		items, _ := bulkItems(rng, n)
		if err := tr.BulkLoadHilbert(items, 0.7); err != nil {
			return false
		}
		return tr.CheckInvariants() == nil && tr.Size() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
