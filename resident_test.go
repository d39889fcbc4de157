package burtree

import (
	"bytes"
	"math/rand"
	"testing"

	"burtree/internal/core"
	"burtree/internal/rtree"
)

// nodeCounts counts the internal nodes and the leaves of every stack's
// tree. Its walk reads every node, so it warms the pools.
func nodeCounts(t *testing.T, x *index) (internal, leaves int) {
	t.Helper()
	for _, s := range x.shards {
		var ts rtree.Stats
		var err error
		s.tree.View(func(u core.Updater) { ts, err = u.Tree().ComputeStats() })
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range ts.Levels {
			if l.Level == 0 {
				leaves += l.Nodes
			} else {
				internal += l.Nodes
			}
		}
	}
	return internal, leaves
}

// TestResidentPagesAreTheInternalNodes: Stats.ResidentPages counts the
// internal nodes — all of them, since every node an index writes passes
// through its pool — after a bulk load and after a run of splits, while
// BufferPages bounds the leaves alone.
func TestResidentPagesAreTheInternalNodes(t *testing.T) {
	x, err := Open(Options{Strategy: GeneralizedBottomUp, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	ids, pts := randomPoints(4000, 3)
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		st := x.Stats() // before the walk, which would warm the pool
		internal, leaves := nodeCounts(t, x.index)
		if st.Height < 3 || internal == 0 {
			t.Fatalf("%s: height %d with %d internal nodes; the test wants a directory of two levels", when, st.Height, internal)
		}
		if st.ResidentPages != internal {
			t.Fatalf("%s: ResidentPages = %d, the tree has %d internal nodes", when, st.ResidentPages, internal)
		}
		if cached := x.shards[0].pool.Len() - st.ResidentPages; cached > 4 {
			t.Fatalf("%s: %d leaves cached beyond BufferPages 4 (%d leaves)", when, cached, leaves)
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("after the bulk load")

	before := x.Stats().Splits
	rng := rand.New(rand.NewSource(4))
	for i := uint64(0); i < 3000; i++ {
		if err := x.Insert(1_000_000+i, Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		if err := x.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if x.Stats().Splits == before {
		t.Fatal("the inserts split no node")
	}
	check("after the splits")
}

// TestRestoredStacksKeepInternalPagesResident: a stack a snapshot,
// a log recovery or a failed bulk load rebuilt gets the same pool as an
// opened one. Once warm, it reads no internal page from disk: with one leaf
// frame per stack, a whole-space search reads each leaf at most once and
// nothing else, where a pure LRU pool would miss every node it visits.
func TestRestoredStacksKeepInternalPagesResident(t *testing.T) {
	ids, pts := randomPoints(4000, 5)
	opts := Options{Strategy: GeneralizedBottomUp, BufferPages: 1}
	rows := []struct {
		name  string
		build func(t *testing.T) (x *index, close func() error)
	}{
		{"Index after Load", func(t *testing.T) (*index, func() error) {
			src, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.BulkInsert(ids, pts, PackSTR); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := src.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			x, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			return x.index, x.Close
		}},
		{"Index after Recover", func(t *testing.T) (*index, func() error) {
			dopts := opts
			dopts.Durability = Durability{Mode: DurabilityBatch, Dir: t.TempDir()}
			src, err := Open(dopts)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.BulkInsert(ids, pts, PackSTR); err != nil {
				t.Fatal(err)
			}
			if err := src.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ { // replayed from the log
				if err := src.Update(ids[i], Point{X: pts[i].X + 0.001, Y: pts[i].Y}); err != nil {
					t.Fatal(err)
				}
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			x, err := Recover(dopts)
			if err != nil {
				t.Fatal(err)
			}
			return x.index, x.Close
		}},
		{"ShardedIndex after a failed BulkInsert", func(t *testing.T) (*index, func() error) {
			sopts := opts
			sopts.BufferPages = 4 // one leaf frame for each of the four shards
			x, err := OpenSharded(sopts, ShardOptions{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			// An object planted in one stack's tree behind the table's back
			// fails that stack's bulk load, and every stack is rebuilt;
			// the fresh stacks are then filled by Insert.
			if err := x.shards[0].tree.Insert(1<<40, Point{X: 0.1, Y: 0.1}); err != nil {
				t.Fatal(err)
			}
			if err := x.BulkInsert(ids, pts, PackSTR); err == nil {
				t.Fatal("BulkInsert over a non-empty shard tree succeeded")
			}
			insertEach(t, x, ids, pts)
			return x.index, x.Close
		}},
	}
	everything := NewRect(-10, -10, 10, 10)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			x, closeFn := row.build(t)
			defer closeFn()
			search := func() {
				if err := x.SearchFunc(everything, func(uint64, Point) bool { return true }); err != nil {
					t.Fatal(err)
				}
			}
			search() // warm
			st, _ := x.stats()
			internal, leaves := nodeCounts(t, x)
			if st.ResidentPages != internal {
				t.Fatalf("warm: ResidentPages = %d, the trees have %d internal nodes", st.ResidentPages, internal)
			}
			x.ResetStats()
			search()
			if st, _ = x.stats(); st.DiskReads > int64(leaves) {
				t.Fatalf("a warm whole-space search read %d pages; the trees have %d leaves and %d internal nodes", st.DiskReads, leaves, internal)
			}
			if err := x.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
