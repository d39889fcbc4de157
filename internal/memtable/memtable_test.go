package memtable

import (
	"errors"
	"slices"
	"testing"

	"burtree/internal/geom"
)

func pt(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }

// TestEntryTransitions walks the delta state machine for a single
// object through every documented transition.
func TestEntryTransitions(t *testing.T) {
	tb := New(Config{MaxObjects: 100})

	// Fresh insert: not in tree.
	tb.Insert(1, pt(1, 1))
	e, ok := tb.Get(1)
	if !ok || e.InTree || e.Tombstone || e.Pos != pt(1, 1) {
		t.Fatalf("after insert: %+v ok=%v", e, ok)
	}

	// Update of a buffered live entry rewrites Pos only.
	tb.Update(1, pt(2, 2), pt(1, 1))
	e, _ = tb.Get(1)
	if e.InTree || e.Pos != pt(2, 2) {
		t.Fatalf("after update: %+v", e)
	}

	// Delete of a never-in-tree entry cancels outright.
	tb.Delete(1, pt(2, 2))
	if _, ok := tb.Get(1); ok {
		t.Fatal("delete of pending insert should cancel the entry")
	}

	// Update of a tree-resident object (no buffered delta): cur is
	// authoritative.
	tb.Update(7, pt(5, 5), pt(4, 4))
	e, _ = tb.Get(7)
	if !e.InTree || e.Base != pt(4, 4) || e.Pos != pt(5, 5) {
		t.Fatalf("update of tree object: %+v", e)
	}

	// Delete of that entry leaves a tombstone at the original base.
	tb.Delete(7, pt(5, 5))
	e, _ = tb.Get(7)
	if !e.Tombstone || !e.InTree || e.Base != pt(4, 4) {
		t.Fatalf("tombstone: %+v", e)
	}

	// Re-insert over a pending tombstone: the tree-resident copy is
	// revived as a move.
	tb.Insert(7, pt(6, 6))
	e, _ = tb.Get(7)
	if e.Tombstone || !e.InTree || e.Base != pt(4, 4) || e.Pos != pt(6, 6) {
		t.Fatalf("revive: %+v", e)
	}
}

// TestDrainLifecycle checks BeginDrain/EndDrain bookkeeping and the
// two-generation overlay.
func TestDrainLifecycle(t *testing.T) {
	tb := New(Config{MaxObjects: 100})
	tb.Insert(3, pt(3, 3))
	tb.Update(1, pt(1, 1), pt(0, 0))
	tb.Delete(2, pt(2, 2))

	entries := tb.BeginDrain()
	if len(entries) != 3 {
		t.Fatalf("drain entries = %d, want 3", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].ID >= entries[i].ID {
			t.Fatalf("entries not sorted by id: %+v", entries)
		}
	}
	// A second BeginDrain while one is in flight returns nil.
	if tb.BeginDrain() != nil {
		t.Fatal("nested BeginDrain should return nil")
	}
	// Draining entries stay visible.
	if e, ok := tb.Get(2); !ok || !e.Tombstone {
		t.Fatalf("draining tombstone invisible: %+v ok=%v", e, ok)
	}
	if n := tb.Stats().Entries; n != 3 {
		t.Fatalf("Entries=%d during drain, want 3", n)
	}

	// A write landing mid-drain goes to the new mutable generation and
	// shadows the draining entry; its base comes from the draining
	// entry's post-merge state.
	tb.Update(1, pt(9, 9), pt(1, 1))
	e, _ := tb.Get(1)
	if !e.InTree || e.Base != pt(1, 1) || e.Pos != pt(9, 9) {
		t.Fatalf("mid-drain update: %+v", e)
	}
	snap := tb.Snapshot()
	if snap[1].Pos != pt(9, 9) {
		t.Fatalf("snapshot should prefer mutable generation: %+v", snap[1])
	}
	if len(snap) != 3 {
		t.Fatalf("snapshot size = %d, want 3", len(snap))
	}

	// Insert over a draining tombstone: the tree copy is still
	// condemned post-merge, so the new entry is a fresh insert.
	tb.Insert(2, pt(8, 8))
	e, _ = tb.Get(2)
	if e.InTree || e.Tombstone {
		t.Fatalf("insert over draining tombstone: %+v", e)
	}
	// And deleting it again cancels; the draining tombstone already
	// condemns the tree copy.
	tb.Delete(2, pt(8, 8))
	if e, _ := tb.Get(2); !e.Tombstone {
		t.Fatalf("draining tombstone should show through: %+v", e)
	}

	tb.EndDrain()
	st := tb.Stats()
	if st.Merges != 1 || st.Merged != 3 {
		t.Fatalf("stats after drain: %+v", st)
	}
	// Only id 1 survives in the new mutable generation: id 2's
	// insert+delete cancelled, id 3 drained.
	if n := tb.Stats().Entries; n != 1 {
		t.Fatalf("Entries=%d after drain, want 1", n)
	}
}

// TestNeedsMerge: the size threshold is the only trigger, and the mutable
// generation alone counts toward it: promoting it to draining resets the
// count. The writes' own answers agree with NeedsMerge.
func TestNeedsMerge(t *testing.T) {
	tb := New(Config{MaxObjects: 2})
	if tb.NeedsMerge() {
		t.Fatal("empty table should not need a merge")
	}
	if tb.Insert(1, pt(1, 1)) || tb.NeedsMerge() {
		t.Fatal("below size threshold")
	}
	if !tb.Insert(2, pt(2, 2)) || !tb.NeedsMerge() {
		t.Fatal("size threshold tripped")
	}
	tb.BeginDrain()
	if tb.Insert(3, pt(3, 3)) || tb.NeedsMerge() {
		t.Fatal("the draining generation counted toward the threshold")
	}
}

func TestFailIsSticky(t *testing.T) {
	tb := New(Config{MaxObjects: 1})
	tb.Insert(1, pt(1, 1))
	entries := tb.BeginDrain()
	if len(entries) != 1 {
		t.Fatalf("drain = %v", entries)
	}
	sentinel := errors.New("apply failed")
	tb.Fail(sentinel)
	tb.Fail(errors.New("later")) // first error wins
	if !errors.Is(tb.Err(), sentinel) {
		t.Fatalf("Err = %v", tb.Err())
	}
	// The draining generation is retained for reads...
	if _, ok := tb.Get(1); !ok {
		t.Fatal("failed drain should keep entries visible")
	}
	// ...and all further merging stops.
	tb.Insert(2, pt(2, 2))
	if tb.NeedsMerge() {
		t.Fatal("NeedsMerge after Fail")
	}
	if tb.BeginDrain() != nil {
		t.Fatal("BeginDrain after Fail")
	}
}

func TestSnapshotEmpty(t *testing.T) {
	tb := New(Config{MaxObjects: 4})
	if tb.Snapshot() != nil {
		t.Fatal("empty table should snapshot to nil")
	}
	tb.Insert(1, pt(1, 1))
	tb.Delete(1, pt(1, 1))
	if tb.Snapshot() != nil {
		t.Fatal("cancelled delta should leave table empty")
	}
}

// TestViewFixesTheOverlay drives a view through the interleavings its
// consistency argument names: what the view reports is what the tier held
// when it was taken, and what it masks is every id it could have
// reported or withheld then — whatever absorbs and drains follow.
func TestViewFixesTheOverlay(t *testing.T) {
	all := geom.NewRect(0, 0, 10, 10)
	for _, tc := range []struct {
		name          string
		before, after func(tb *Table)
		hits          []Hit
		masked, clear []uint64
	}{{
		name:   "entry born after the view is unmasked",
		before: func(tb *Table) { tb.Update(1, pt(1, 1), pt(0, 0)) },
		after:  func(tb *Table) { tb.Update(2, pt(2, 2), pt(0, 0)); tb.Delete(3, pt(3, 3)) },
		hits:   []Hit{{ID: 1, Pos: pt(1, 1)}},
		masked: []uint64{1},
		clear:  []uint64{2, 3},
	}, {
		name:   "entry updated after the view stays masked, reported where it was",
		before: func(tb *Table) { tb.Update(1, pt(1, 1), pt(0, 0)) },
		after:  func(tb *Table) { tb.Update(1, pt(5, 5), pt(1, 1)) },
		hits:   []Hit{{ID: 1, Pos: pt(1, 1)}},
		masked: []uint64{1},
	}, {
		name:   "entry tombstoned after the view stays masked, reported where it was",
		before: func(tb *Table) { tb.Update(1, pt(1, 1), pt(0, 0)) },
		after:  func(tb *Table) { tb.Delete(1, pt(1, 1)) },
		hits:   []Hit{{ID: 1, Pos: pt(1, 1)}},
		masked: []uint64{1},
	}, {
		name:   "tombstone revived after the view stays masked and withheld",
		before: func(tb *Table) { tb.Delete(1, pt(1, 1)) },
		after:  func(tb *Table) { tb.Insert(1, pt(4, 4)) },
		masked: []uint64{1},
	}, {
		name: "mutable wins over draining",
		before: func(tb *Table) {
			tb.Update(1, pt(1, 1), pt(0, 0))
			tb.Update(2, pt(2, 2), pt(0, 0))
			tb.Delete(3, pt(3, 3))
			tb.BeginDrain()
			tb.Update(1, pt(6, 6), pt(1, 1))
			tb.Insert(3, pt(7, 7)) // over the draining tombstone
		},
		after:  func(tb *Table) {},
		hits:   []Hit{{ID: 1, Pos: pt(6, 6)}, {ID: 2, Pos: pt(2, 2)}, {ID: 3, Pos: pt(7, 7)}},
		masked: []uint64{1, 2, 3},
	}, {
		name:   "a drain begun and ended after the view",
		before: func(tb *Table) { tb.Update(1, pt(1, 1), pt(0, 0)) },
		after: func(tb *Table) {
			tb.BeginDrain()
			tb.Update(2, pt(2, 2), pt(0, 0))
			tb.EndDrain()
			tb.BeginDrain() // and the next generation after it
			tb.EndDrain()
		},
		hits:   []Hit{{ID: 1, Pos: pt(1, 1)}},
		masked: []uint64{1},
		clear:  []uint64{2},
	}, {
		name:   "a drain in flight at the view, ended after it",
		before: func(tb *Table) { tb.Update(1, pt(1, 1), pt(0, 0)); tb.BeginDrain(); tb.Update(2, pt(2, 2), pt(0, 0)) },
		after:  func(tb *Table) { tb.EndDrain(); tb.Update(1, pt(8, 8), pt(1, 1)) },
		hits:   []Hit{{ID: 1, Pos: pt(1, 1)}, {ID: 2, Pos: pt(2, 2)}},
		masked: []uint64{1, 2},
	}, {
		name:   "delete of a never-in-tree delta",
		before: func(tb *Table) { tb.Insert(1, pt(1, 1)); tb.Update(2, pt(2, 2), pt(0, 0)) },
		after:  func(tb *Table) { tb.Delete(1, pt(1, 1)) },
		hits:   []Hit{{ID: 1, Pos: pt(1, 1)}, {ID: 2, Pos: pt(2, 2)}},
		masked: []uint64{2},
		clear:  []uint64{1}, // the tree never held it: nothing to mask
	}, {
		name:   "never-in-tree delta cancelled and re-created after the view",
		before: func(tb *Table) { tb.Insert(1, pt(1, 1)) },
		after:  func(tb *Table) { tb.Delete(1, pt(1, 1)); tb.Insert(1, pt(9, 9)) },
		hits:   []Hit{{ID: 1, Pos: pt(1, 1)}},
		// Reported once already: the copy a merge puts in the tree mid-scan
		// must not be reported again.
		masked: []uint64{1},
	}, {
		name:   "mutable generation empty at the view",
		before: func(tb *Table) { tb.Update(1, pt(1, 1), pt(0, 0)); tb.BeginDrain() },
		after:  func(tb *Table) { tb.Update(2, pt(2, 2), pt(0, 0)) },
		hits:   []Hit{{ID: 1, Pos: pt(1, 1)}},
		masked: []uint64{1},
		clear:  []uint64{2},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			tb := New(Config{MaxObjects: 100})
			tc.before(tb)
			view, hits := tb.ViewWindow(all, nil)
			_, near := tb.ViewNearest(pt(0, 0), 100, nil)
			tc.after(tb)
			if view.Empty() {
				t.Fatal("view of a non-empty tier is empty")
			}
			slices.SortFunc(hits, compareHits) // window hits come unordered, all at Dist 0
			if !slices.Equal(hits, tc.hits) {
				t.Errorf("window reports %+v, want %+v", hits, tc.hits)
			}
			for i := range near {
				near[i].Dist = 0
			}
			slices.SortFunc(near, compareHits)
			if !slices.Equal(near, tc.hits) {
				t.Errorf("nearest reports %+v, want %+v", near, tc.hits)
			}
			for _, id := range tc.masked {
				if !view.Masks(id) {
					t.Errorf("id %d is not masked", id)
				}
			}
			for _, id := range tc.clear {
				if view.Masks(id) {
					t.Errorf("id %d is masked", id)
				}
			}
		})
	}
}

// TestViewOfEmptyTier: with nothing buffered the view is empty and stays
// so, and a window or a tombstone keeps entries out of what is reported
// but not out of what is masked.
func TestViewOfEmptyTier(t *testing.T) {
	tb := New(Config{MaxObjects: 100})
	view, hits := tb.ViewWindow(geom.NewRect(0, 0, 10, 10), nil)
	tb.Update(1, pt(1, 1), pt(0, 0))
	if !view.Empty() || len(hits) != 0 || view.Masks(1) {
		t.Fatalf("view of an empty tier: empty=%v hits=%v masks(1)=%v", view.Empty(), hits, view.Masks(1))
	}
	tb.Delete(2, pt(2, 2))
	view, hits = tb.ViewWindow(geom.NewRect(5, 5, 10, 10), nil)
	if len(hits) != 0 || !view.Masks(1) || !view.Masks(2) {
		t.Fatalf("outside the window: hits=%v masks(1)=%v masks(2)=%v", hits, view.Masks(1), view.Masks(2))
	}
	// Asked for no neighbours, the view still masks and reports none.
	for _, k := range []int{0, -1} {
		view, hits = tb.ViewNearest(pt(1, 1), k, nil)
		if len(hits) != 0 || !view.Masks(1) {
			t.Fatalf("k=%d: hits=%v masks(1)=%v", k, hits, view.Masks(1))
		}
	}
}

// TestViewNearestOrder checks the bounded k-selection: the k nearest live
// entries across both generations, ascending by (distance, id), equal
// distances included.
func TestViewNearestOrder(t *testing.T) {
	tb := New(Config{MaxObjects: 100})
	// Ids 1-4 on a ring of radius 5 around the origin, 5 and 6 beyond it.
	for id, p := range map[uint64]geom.Point{4: pt(3, 4), 2: pt(-3, 4), 1: pt(4, -3), 3: pt(-4, -3), 5: pt(6, 0), 6: pt(0, 7)} {
		tb.Update(id, p, pt(0, 0))
	}
	tb.BeginDrain()
	tb.Update(7, pt(1, 0), pt(0, 0))
	tb.Delete(2, pt(-3, 4))          // tombstone shadows the draining entry
	tb.Update(5, pt(0, 2), pt(6, 0)) // moved nearer since
	want := []Hit{{7, pt(1, 0), 1}, {5, pt(0, 2), 2}, {1, pt(4, -3), 5}, {3, pt(-4, -3), 5}, {4, pt(3, 4), 5}, {6, pt(0, 7), 7}}
	for _, k := range []int{1, 3, 4, 6, 50} {
		_, got := tb.ViewNearest(pt(0, 0), k, nil)
		if !slices.Equal(got, want[:min(k, len(want))]) {
			t.Errorf("k=%d: %+v, want %+v", k, got, want[:min(k, len(want))])
		}
	}
}
