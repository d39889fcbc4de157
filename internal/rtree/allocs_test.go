package rtree

import (
	"math/rand"
	"testing"

	"burtree/internal/geom"
)

// raceEnabled is set under the race detector (race_test.go), which makes
// sync.Pool drop a quarter of what it is handed: an allocation count is
// then a matter of chance.
var raceEnabled bool

// freeCounter is a listener that counts freed nodes and keeps nothing.
type freeCounter struct{ frees int }

func (c *freeCounter) NodeWritten(PageID, int, geom.Rect, []PageID, int) {}
func (c *freeCounter) NodeFreed(PageID, int)                             { c.frees++ }
func (c *freeCounter) RootChanged(PageID, int)                           {}
func (c *freeCounter) DataPlaced(OID, PageID)                            {}
func (c *freeCounter) DataRemoved(OID)                                   {}

// TestOverflowPathAllocatesNothing: once warm, the overflow path
// allocates nothing. A cohort of objects crowded into one corner is
// inserted — leaves overflow, the first overflow of a level per insertion
// is treated by forced reinsertion and a second one by a split — and
// deleted again, which leaves nodes underfull, so they are condensed and
// their orphans reinserted. Every step runs on the scratch of a pooled
// insertion op.
func TestOverflowPathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are a matter of chance under the race detector")
	}
	tr := newTestTree(t, 512, 0, Config{ReinsertFraction: 0.3})
	freed := &freeCounter{}
	tr.SetListener(freed)
	rng := rand.New(rand.NewSource(9))
	const base = 300
	for i := 0; i < base; i++ {
		if err := tr.Insert(OID(i), geom.RectFromPoint(uniformPoint(rng))); err != nil {
			t.Fatal(err)
		}
	}
	cohort := make([]geom.Rect, 200)
	for i := range cohort {
		cohort[i] = geom.RectFromPoint(geom.Point{X: 0.2 * rng.Float64(), Y: 0.2 * rng.Float64()})
	}
	cycle := func() {
		for i, r := range cohort {
			if err := tr.Insert(OID(base+i), r); err != nil {
				t.Fatal(err)
			}
		}
		for i, r := range cohort {
			if err := tr.Delete(OID(base+i), r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up: the store's pages and the op's buffers grow to what a
	// cycle needs.
	for i := 0; i < 3; i++ {
		cycle()
	}
	before, frees := tr.IO().Snapshot(), freed.frees
	allocs := testing.AllocsPerRun(5, cycle)
	after := tr.IO().Snapshot()
	if after.Reinserts == before.Reinserts || after.Splits == before.Splits || freed.frees == frees {
		t.Fatalf("the cycles reinserted %d entries, split %d nodes and condensed %d: the overflow path went unexercised",
			after.Reinserts-before.Reinserts, after.Splits-before.Splits, freed.frees-frees)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per cycle of %d inserts and deletes; want 0", allocs, 2*len(cohort))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
