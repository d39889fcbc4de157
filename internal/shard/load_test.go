package shard

import (
	"sync"
	"testing"

	"burtree/internal/geom"
)

func TestCellKeyRange(t *testing.T) {
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 0.5, Y: 0.5},
		{X: -3, Y: 2}, {X: 0.999, Y: 0.001},
	}
	for _, p := range pts {
		k := CellKey(p)
		if k >= NumCells {
			t.Fatalf("CellKey(%v) = %d out of range", p, k)
		}
	}
	// CellKey must agree with Hilbert routing: the shard owning p is the
	// shard owning p's cell key.
	r, err := NewHilbertUniform(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if got, want := r.shardOfKey(CellKey(p)), r.ShardOf(p); got != want {
			t.Fatalf("CellKey routing mismatch at %v: %d vs %d", p, got, want)
		}
	}
}

func TestBoundsAccessor(t *testing.T) {
	one, _ := NewHilbertUniform(1)
	if len(one.Bounds()) != 0 {
		t.Fatal("one-range router reports bounds")
	}
	h, _ := NewHilbertUniform(4)
	b := h.Bounds()
	if len(b) != 3 {
		t.Fatalf("bounds len = %d", len(b))
	}
	b[0] = 9999 // mutation must not leak into the router
	if h.Bounds()[0] == 9999 {
		t.Fatal("Bounds returned internal slice")
	}
}

// TestLoadTrackerRecordBatch: the benchmark's record_batch micro-benchmark charges
// a write through RecordBatch, which counts the cells' operations as the
// shard's updates and nothing else; a write with no operations in the
// shard (its movers departed) counts none.
func TestLoadTrackerRecordBatch(t *testing.T) {
	tr := NewLoadTracker(2)
	tr.RecordBatch(0, 7, []CellCount{{Cell: 3, N: 6}, {Cell: 4, N: 4}})
	if got := tr.UpdateCount(0); got != 10 {
		t.Fatalf("UpdateCount = %d, want 10", got)
	}
	tr.RecordBatch(1, 3, nil)
	tr.RecordBatch(1, 3, []CellCount{{Cell: 9}})
	if got := tr.UpdateCount(1); got != 0 {
		t.Fatalf("departure-only ops = %d", got)
	}
	if q0, q1 := tr.QueryCount(0), tr.QueryCount(1); q0 != 0 || q1 != 0 {
		t.Fatalf("writes counted reads: %d / %d", q0, q1)
	}
}

func TestLoadTrackerConcurrent(t *testing.T) {
	tr := NewLoadTracker(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if i%2 == 0 {
					tr.RecordUpdates(w%4, 1)
				} else {
					tr.RecordBatch(w%4, uint64(i%3), []CellCount{{Cell: uint64(i % NumCells), N: 1}})
				}
				tr.RecordQuery(w % 4)
			}
		}(w)
	}
	wg.Wait()
	var tot uint64
	for s := 0; s < 4; s++ {
		tot += tr.UpdateCount(s) + tr.QueryCount(s)
	}
	if tot != 16000 {
		t.Fatalf("total recorded ops = %d, want 16000", tot)
	}
}
