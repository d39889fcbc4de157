package burtree

import (
	"testing"

	"burtree/internal/core"
	"burtree/internal/rtree"
)

// TestOneRecordAcrossTieredShards drives the one state in which an object
// sits in two trees: on a tiered ShardedIndex a cross-shard move is a
// tombstone in the source stack's tier and an insert in the destination's,
// and each stack merges its own tier down. The merge-downs are called
// directly, in both orders, so the overlap is made on purpose, not left
// to the background mergers; CheckInvariants — which checks that every
// record naming a stack names a leaf of it holding the id, and that a copy
// whose record names another stack is masked by its own stack's tier —
// runs after every step. The last case restructures the source tree
// around the stale copy before deleting it: a view that recorded the
// copy's new leaf would take the record from the live copy, and the
// object would be left with no placement at all.
func TestOneRecordAcrossTieredShards(t *testing.T) {
	const objects = 2000
	const mover = objects // above every other id: its tombstone drains last
	pa, pa2, pb := Point{X: 0.1, Y: 0.1}, Point{X: 0.15, Y: 0.12}, Point{X: 0.9, Y: 0.9}

	type env struct {
		x    *ShardedIndex
		a, b int // the mover's source and destination stacks
	}
	check := func(t *testing.T, e env, step string, at Point) {
		t.Helper()
		if err := e.x.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if p, ok := e.x.Location(mover); !ok || p != at {
			t.Fatalf("%s: Location = %v, %v, want %v", step, p, ok, at)
		}
		ids, err := e.x.Search(NewRect(at.X, at.Y, at.X, at.Y))
		if err != nil || len(ids) != 1 || ids[0] != mover {
			t.Fatalf("%s: a search at %v finds %v, %v", step, at, ids, err)
		}
	}
	drain := func(t *testing.T, e env, s int) {
		t.Helper()
		if err := e.x.shards[s].drainMemtable(); err != nil {
			t.Fatal(err)
		}
	}
	move := func(t *testing.T, e env, to Point) {
		t.Helper()
		if err := e.x.Update(mover, to); err != nil {
			t.Fatal(err)
		}
	}
	// setup opens a 4-shard tiered GBU index whose tier never trips its
	// threshold, bulk-loads it so that every tree is two levels high, and
	// merges the mover down into its source stack.
	setup := func(t *testing.T) env {
		x, err := OpenSharded(Options{Strategy: GeneralizedBottomUp, BufferPages: 256, ExpectedObjects: objects + 1,
			Memtable: Memtable{Enabled: true, MaxObjects: 1 << 20}}, ShardOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := x.Close(); err != nil {
				t.Error(err)
			}
		})
		ids, pts := randomPoints(objects, 51)
		if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
			t.Fatal(err)
		}
		e := env{x: x, a: x.router.ShardOf(pa), b: x.router.ShardOf(pb)}
		if e.a == e.b || x.router.ShardOf(pa2) != e.a {
			t.Fatalf("setup: %v and %v route to stack %d and %v to %d", pa, pa2, e.a, pb, e.b)
		}
		if err := x.Insert(mover, pa); err != nil {
			t.Fatal(err)
		}
		drain(t, e, e.a)
		check(t, e, "inserted", pa)
		return e
	}
	misses := func(e env) uint64 { return e.x.misses.Load() }

	t.Run("DestinationFirst", func(t *testing.T) {
		e := setup(t)
		move(t, e, pb)
		check(t, e, "moved", pb)
		drain(t, e, e.b)
		check(t, e, "destination drained: two copies", pb)
		drain(t, e, e.a)
		check(t, e, "source drained", pb)
		if misses(e) == 0 {
			t.Fatal("the source's delete found the stale copy through the table; it should have missed and gone by position")
		}
	})
	t.Run("SourceFirst", func(t *testing.T) {
		e := setup(t)
		move(t, e, pb)
		drain(t, e, e.a)
		check(t, e, "source drained: no tree copy", pb)
		drain(t, e, e.b)
		check(t, e, "destination drained", pb)
		if n := misses(e); n != 0 {
			t.Fatalf("%d lookups missed with no object in two trees", n)
		}
	})
	for _, sourceFirst := range []bool{false, true} {
		name := "MovedBack/DestinationFirst"
		if sourceFirst {
			name = "MovedBack/SourceFirst"
		}
		t.Run(name, func(t *testing.T) {
			e := setup(t)
			move(t, e, pb)
			drain(t, e, e.b)
			check(t, e, "destination drained: two copies", pb)
			// Back to the source while both copies exist: the source's tier
			// now moves its stale copy, the destination's deletes the other.
			move(t, e, pa2)
			check(t, e, "moved back", pa2)
			order := []int{e.a, e.b}
			if sourceFirst {
				order = []int{e.b, e.a}
			}
			drain(t, e, order[0])
			check(t, e, "one drained", pa2)
			drain(t, e, order[1])
			check(t, e, "both drained", pa2)
		})
	}
	t.Run("StaleCopyRestructured", func(t *testing.T) {
		e := setup(t)
		move(t, e, pb)
		drain(t, e, e.b)
		// Delete every other object of the source leaf that holds the
		// stale copy. Their tombstones drain first (lower ids), so the
		// leaf underflows and the copy is re-inserted elsewhere in the
		// source tree before its own tombstone deletes it.
		var leafmates []uint64
		e.x.shards[e.a].tree.View(func(u core.Updater) {
			byLeaf := map[rtree.PageID][]uint64{}
			var at rtree.PageID
			err := core.ForEachLeafEntry(u.Tree(), func(leaf rtree.PageID, en rtree.Entry) error {
				byLeaf[leaf] = append(byLeaf[leaf], en.OID)
				if en.OID == mover {
					at = leaf
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
			if u.Tree().Height() < 2 {
				t.Errorf("source tree has height %d; the case needs a leaf below the root", u.Tree().Height())
			}
			for _, id := range byLeaf[at] {
				if id != mover {
					leafmates = append(leafmates, id)
				}
			}
		})
		if t.Failed() || len(leafmates) == 0 {
			t.Fatalf("no leaf mates of the stale copy: %v", leafmates)
		}
		for _, id := range leafmates {
			if err := e.x.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		check(t, e, "leaf mates deleted", pb)
		drain(t, e, e.a)
		check(t, e, "source drained", pb)
		if got, want := e.x.Len(), objects+1-len(leafmates); got != want {
			t.Fatalf("Len %d, want %d", got, want)
		}
	})
}
