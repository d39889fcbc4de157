package burtree_test

import (
	"fmt"
	"log"

	"burtree"
)

// The basic lifecycle: open an index with the generalized bottom-up
// strategy, insert, move, query.
func Example() {
	idx, err := burtree.Open(burtree.Options{Strategy: burtree.GeneralizedBottomUp})
	if err != nil {
		log.Fatal(err)
	}
	if err := idx.Insert(7, burtree.Point{X: 0.30, Y: 0.60}); err != nil {
		log.Fatal(err)
	}
	if err := idx.Update(7, burtree.Point{X: 0.31, Y: 0.61}); err != nil {
		log.Fatal(err)
	}
	ids, err := idx.Search(burtree.NewRect(0.3, 0.6, 0.4, 0.7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ids)
	// Output: [7]
}

// Update-heavy feeds (fleets, sensor swarms) should buffer reports and
// apply them through UpdateBatch: repeated moves of the same object are
// coalesced to the final position, and the surviving changes are
// grouped by target leaf so each group costs one leaf read and write
// instead of one per object.
func Example_batchUpdate() {
	idx, err := burtree.Open(burtree.Options{Strategy: burtree.GeneralizedBottomUp})
	if err != nil {
		log.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		idx.Insert(i, burtree.Point{X: float64(i) / 100, Y: 0.5})
	}
	res, err := idx.UpdateBatch([]burtree.Change{
		{ID: 10, To: burtree.Point{X: 0.101, Y: 0.501}},
		{ID: 20, To: burtree.Point{X: 0.201, Y: 0.501}},
		{ID: 10, To: burtree.Point{X: 0.102, Y: 0.502}}, // supersedes the first move
	})
	if err != nil {
		log.Fatal(err)
	}
	p, _ := idx.Location(10)
	fmt.Printf("applied=%d coalesced=%d object 10 at (%.3f, %.3f)\n",
		res.Applied, res.Coalesced, p.X, p.Y)
	// Output: applied=2 coalesced=1 object 10 at (0.102, 0.502)
}

// Nearest-neighbour queries use the standard best-first traversal.
func ExampleIndex_Nearest() {
	idx, err := burtree.Open(burtree.Options{Strategy: burtree.TopDown})
	if err != nil {
		log.Fatal(err)
	}
	idx.Insert(1, burtree.Point{X: 0.1, Y: 0.1})
	idx.Insert(2, burtree.Point{X: 0.2, Y: 0.2})
	idx.Insert(3, burtree.Point{X: 0.9, Y: 0.9})
	nb, err := idx.Nearest(burtree.Point{X: 0.15, Y: 0.15}, 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range nb {
		fmt.Println(n.ID)
	}
	// Output:
	// 1
	// 2
}

// Stats expose the paper's disk-access accounting and the breakdown of
// how bottom-up updates were resolved.
func ExampleIndex_Stats() {
	idx, err := burtree.Open(burtree.Options{Strategy: burtree.GeneralizedBottomUp})
	if err != nil {
		log.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		idx.Insert(i, burtree.Point{X: float64(i) / 100, Y: 0.5})
	}
	idx.ResetStats()
	// A tiny move resolves inside the leaf: the in-memory id map names
	// the leaf, then one leaf read and one leaf write.
	if err := idx.Update(50, burtree.Point{X: 0.501, Y: 0.5}); err != nil {
		log.Fatal(err)
	}
	st := idx.Stats()
	fmt.Printf("reads=%d writes=%d inLeaf=%d\n", st.DiskReads, st.DiskWrites, st.Outcomes.InLeaf)
	// Output: reads=1 writes=1 inLeaf=1
}
