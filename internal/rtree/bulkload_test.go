package rtree

import (
	"math/rand"
	"testing"

	"burtree/internal/geom"
)

func bulkItems(rng *rand.Rand, n int) ([]Item, oracle) {
	items := make([]Item, n)
	o := oracle{}
	for i := range items {
		r := geom.RectFromPoint(uniformPoint(rng))
		items[i] = Item{OID: OID(i), Rect: r}
		o[OID(i)] = r
	}
	return items, o
}

func TestBulkLoadBasic(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	rng := rand.New(rand.NewSource(1))
	items, o := bulkItems(rng, 2000)
	if err := tr.BulkLoad(items, 0.66); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 2000 {
		t.Fatalf("size = %d", tr.Size())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, tr, o, 30, rng)
}

func TestBulkLoadUtilization(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	rng := rand.New(rand.NewSource(2))
	items, _ := bulkItems(rng, 3000)
	if err := tr.BulkLoad(items, 0.66); err != nil {
		t.Fatal(err)
	}
	s, err := tr.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	leaf := s.Levels[0]
	if leaf.AvgFill < 0.55 || leaf.AvgFill > 0.75 {
		t.Fatalf("leaf fill = %v, want ~0.66", leaf.AvgFill)
	}
}

func TestBulkLoadSmall(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 11, 12, 13, 25} {
		tr := newTestTree(t, 512, 0, Config{})
		rng := rand.New(rand.NewSource(int64(n)))
		items, o := bulkItems(rng, n)
		if err := tr.BulkLoad(items, 0.7); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Size() != n {
			t.Fatalf("n=%d: size=%d", n, tr.Size())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n > 0 {
			checkAgainstOracle(t, tr, o, 10, rng)
		}
	}
}

func TestBulkLoadParentPointers(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{ParentPointers: true})
	rng := rand.New(rand.NewSource(3))
	items, o := bulkItems(rng, 1500)
	if err := tr.BulkLoad(items, 0.66); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, tr, o, 20, rng)
}

func TestBulkLoadThenUpdates(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{ReinsertFraction: 0.3})
	rng := rand.New(rand.NewSource(4))
	items, o := bulkItems(rng, 1500)
	if err := tr.BulkLoad(items, 0.66); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 1000; step++ {
		oid := OID(rng.Intn(1500))
		old := o[oid]
		p := old.Center()
		np := geom.Point{X: p.X + (rng.Float64()-0.5)*0.06, Y: p.Y + (rng.Float64()-0.5)*0.06}
		nr := geom.RectFromPoint(np)
		if err := tr.Update(oid, old, nr); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		o[oid] = nr
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, tr, o, 25, rng)
}

func TestBulkLoadErrors(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	if err := tr.BulkLoad([]Item{{OID: 1, Rect: geom.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}}}, 0.7); err == nil {
		t.Fatal("invalid rect accepted")
	}
	tr2 := newTestTree(t, 512, 0, Config{})
	p := geom.RectFromPoint(geom.Point{X: 0.5, Y: 0.5})
	if err := tr2.BulkLoad([]Item{{OID: 1, Rect: p}}, 0); err == nil {
		t.Fatal("zero fill factor accepted")
	}
	if err := tr2.BulkLoad([]Item{{OID: 1, Rect: p}}, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := tr2.BulkLoad([]Item{{OID: 2, Rect: p}}, 0.7); err == nil {
		t.Fatal("bulk load on non-empty tree accepted")
	}
}
