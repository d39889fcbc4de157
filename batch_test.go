package burtree

import "testing"

// TestUpdateBatchErrors pins UpdateBatch's error surface: a batch with an
// unknown id fails whole, an empty batch is no work, and repeated moves of
// one object coalesce to the last. The option matrix (fuzz_test.go)
// holds batches to the model on every front-end.
func TestUpdateBatchErrors(t *testing.T) {
	x, err := Open(Options{Strategy: GeneralizedBottomUp})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := x.Insert(i, Point{X: float64(i) / 10, Y: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	// Unknown id fails the whole batch before anything is applied.
	before, _ := x.Location(3)
	res, err := x.UpdateBatch([]Change{
		{ID: 3, To: Point{X: 0.9, Y: 0.9}},
		{ID: 999, To: Point{X: 0.1, Y: 0.1}},
	})
	if err == nil {
		t.Fatal("batch with unknown id succeeded")
	}
	if res.Applied != 0 {
		t.Fatalf("applied %d changes despite validation failure", res.Applied)
	}
	if after, _ := x.Location(3); after != before {
		t.Fatalf("object 3 moved to %v despite failed batch", after)
	}
	// Empty batches are fine.
	if res, err := x.UpdateBatch(nil); err != nil || res.Applied != 0 {
		t.Fatalf("empty batch: %+v, %v", res, err)
	}
	// Coalescing keeps only the final position.
	res, err = x.UpdateBatch([]Change{
		{ID: 5, To: Point{X: 0.2, Y: 0.2}},
		{ID: 5, To: Point{X: 0.3, Y: 0.3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Coalesced != 1 {
		t.Fatalf("coalescing result %+v", res)
	}
	if p, _ := x.Location(5); p != (Point{X: 0.3, Y: 0.3}) {
		t.Fatalf("object 5 at %v", p)
	}
}
