package burtree

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"burtree/internal/shard"
)

// quiesced runs fn with no merge-down in flight on any stack: the caller
// has no operation running, and holding every mergeMu keeps a background
// drain from moving the ledgers under fn.
func quiesced(x *index, fn func()) {
	for _, sh := range x.shards {
		sh.mergeMu.Lock()
		defer sh.mergeMu.Unlock()
	}
	fn()
}

// checkOneReading asserts that every load figure is a reading of the
// shard's ledger: Cost is Updates + Queries + CostPerPage × foreground,
// to the unit, and foreground plus background pages over the shards are
// the pages Stats counts.
func checkOneReading(t *testing.T, x *ShardedIndex) {
	t.Helper()
	quiesced(x.index, func() {
		loads := x.ShardLoads()
		st, _ := x.Stats()
		var pages uint64
		for i, l := range loads {
			fg := uint64(x.shards[i].io.Foreground())
			if want := l.Updates + l.Queries + shard.CostPerPage*fg; l.Cost != want {
				t.Errorf("shard %d: Cost = %d, want %d (%d updates + %d queries + %d × %d foreground pages)",
					i, l.Cost, want, l.Updates, l.Queries, shard.CostPerPage, fg)
			}
			pages += fg + l.BackgroundPages
		}
		if want := uint64(st.DiskReads + st.DiskWrites); pages != want {
			t.Errorf("foreground + background pages over the shards = %d, Stats counts %d reads + %d writes", pages, st.DiskReads, st.DiskWrites)
		}
	})
}

// TestStatsMonotoneAcrossRebuild pins the ledger to the shard slot: a
// BulkInsert that fails in one stack replaces every stack with a fresh
// one (openShards, swapShardsLocked), and that leaves every physical
// counter of Stats where it was or further, never restarted with the
// fresh stacks, and the load figures stay readings of the same ledgers.
// The index the load fails on was filled, churned and emptied first,
// under either cut: the uniform one of open (filled by Insert) or the
// balanced one of a bulk load.
func TestStatsMonotoneAcrossRebuild(t *testing.T) {
	for _, cut := range []string{"uniform", "hilbert"} {
		for _, tier := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/memtable=%v", cut, tier), func(t *testing.T) {
				x, err := OpenSharded(Options{
					Strategy:        GeneralizedBottomUp,
					BufferPages:     8,
					ExpectedObjects: 4096,
					Memtable:        Memtable{Enabled: tier, MaxObjects: 64},
				}, ShardOptions{Shards: 4})
				if err != nil {
					t.Fatal(err)
				}
				defer x.Close()
				ids, pts := randomPoints(1600, 23)
				if cut == "hilbert" {
					if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
						t.Fatal(err)
					}
				} else {
					insertEach(t, x, ids, pts)
				}
				hammerCorner(t, x, ids, 0.02, 0.02, 3000, 6)
				for _, id := range ids {
					if err := x.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				// The tier's deltas reach the trees, so they are empty when
				// the bulk load below starts.
				for _, sh := range x.shards {
					if err := sh.drainMemtable(); err != nil {
						t.Fatal(err)
					}
				}
				checkOneReading(t, x)

				var before Stats
				quiesced(x.index, func() { before, _ = x.Stats() })
				// An object planted in one stack's tree behind the table's
				// back makes that stack's bulk load fail after the others
				// succeeded, and every stack is replaced.
				if err := x.shards[0].tree.Insert(1<<40, Point{X: 0.1, Y: 0.1}); err != nil {
					t.Fatal(err)
				}
				old := slices.Clone(x.shards)
				if err := x.BulkInsert(ids, pts, PackSTR); err == nil {
					t.Fatal("BulkInsert over a non-empty shard tree succeeded")
				}
				for i, sh := range x.shards {
					if sh == old[i] {
						t.Fatalf("shard %d: the failed bulk load kept its stack", i)
					}
				}
				after, _ := x.Stats()
				for _, c := range []struct {
					name          string
					before, after int64
				}{
					{"DiskReads", before.DiskReads, after.DiskReads},
					{"DiskWrites", before.DiskWrites, after.DiskWrites},
					{"BufferHits", before.BufferHits, after.BufferHits},
					{"Splits", before.Splits, after.Splits},
					{"Reinserts", before.Reinserts, after.Reinserts},
					{"Evictions", before.Evictions, after.Evictions},
					{"DirtyWriteBacks", before.DirtyWriteBacks, after.DirtyWriteBacks},
					{"PinFallbacks", before.PinFallbacks, after.PinFallbacks},
				} {
					if c.after < c.before {
						t.Errorf("%s ran backward across the rebuild: %d -> %d", c.name, c.before, c.after)
					}
				}
				// The stacks that loaded before the failure wrote their
				// trees, on top of the count.
				if after.DiskWrites == before.DiskWrites {
					t.Errorf("the failed load wrote no page: DiskWrites stays %d", after.DiskWrites)
				}
				checkOneReading(t, x)
				// The fresh stacks take a corrected retry.
				if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
					t.Fatal(err)
				}
				if err := x.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				checkOneReading(t, x)
			})
		}
	}
}

// TestForegroundPagesAfterResetStats pins ResetStats to the whole ledger:
// foreground and background pages restart together, so the reads that
// follow a reset show up as foreground pages at once — not only after the
// restarted counters catch up with merge-down pages counted before it.
func TestForegroundPagesAfterResetStats(t *testing.T) {
	x, err := OpenSharded(Options{
		Strategy:        GeneralizedBottomUp,
		BufferPages:     4, // one page per shard: the reads below pay physical I/O
		ExpectedObjects: 4096,
		Memtable:        Memtable{Enabled: true, MaxObjects: 64},
	}, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	ids, pts := randomPoints(1200, 7)
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 4000; i++ {
		if err := x.Update(ids[rng.Intn(len(ids))], Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	for i, sh := range x.shards {
		if err := sh.drainMemtable(); err != nil {
			t.Fatal(err)
		}
		if sh.io.Background() == 0 {
			t.Fatalf("setup: shard %d ran no merge-down", i)
		}
	}

	x.ResetStats()
	for i, l := range x.ShardLoads() {
		if l.BackgroundPages != 0 {
			t.Errorf("shard %d: BackgroundPages = %d right after ResetStats", i, l.BackgroundPages)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := x.Search(NewRect(0, 0, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range x.ShardLoads() {
		if l.Queries < 50 {
			t.Fatalf("setup: shard %d was visited %d times", i, l.Queries)
		}
		if fg := x.shards[i].io.Foreground(); fg == 0 || l.Cost <= l.Updates+l.Queries {
			t.Errorf("shard %d: %d foreground pages, cost %d for %d operations, after 50 window scans through a one-page buffer",
				i, fg, l.Cost, l.Updates+l.Queries)
		}
	}
	checkOneReading(t, x)
}

// TestOneStackKeepsNoLoadTracker: nothing reads the loads of an index with
// one stack, so Index and ConcurrentIndex keep no tracker, and every write
// and read path runs without one; a ShardedIndex keeps one whatever its
// shard count.
func TestOneStackKeepsNoLoadTracker(t *testing.T) {
	drive := func(t *testing.T, x *index) {
		t.Helper()
		if x.load != nil {
			t.Fatal("a one-stack index keeps a load tracker")
		}
		batch := make([]Change, 32)
		for i := range batch {
			if err := x.Insert(uint64(i), Point{X: float64(i) / 64, Y: 0.5}); err != nil {
				t.Fatal(err)
			}
			batch[i] = Change{ID: uint64(i), To: Point{X: 0.5, Y: float64(i) / 64}}
		}
		if err := x.Update(1, Point{X: 0.9, Y: 0.9}); err != nil {
			t.Fatal(err)
		}
		if _, err := x.UpdateBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := x.Delete(2); err != nil {
			t.Fatal(err)
		}
		all := NewRect(0, 0, 1, 1)
		if got, err := x.Search(all); err != nil || len(got) != 31 {
			t.Fatalf("Search = %d ids, err %v", len(got), err)
		}
		if n, err := x.Count(all); err != nil || n != 31 {
			t.Fatalf("Count = %d, err %v", n, err)
		}
		if err := x.SearchFunc(all, func(uint64, Point) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if got, err := x.Nearest(Point{X: 0.5, Y: 0.5}, 3); err != nil || len(got) != 3 {
			t.Fatalf("Nearest = %d neighbours, err %v", len(got), err)
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tier := range []bool{false, true} {
		opts := Options{Strategy: GeneralizedBottomUp, BufferPages: 16, Memtable: Memtable{Enabled: tier, MaxObjects: 8}}
		t.Run(fmt.Sprintf("Index/memtable=%v", tier), func(t *testing.T) {
			x, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			drive(t, x.index)
		})
		t.Run(fmt.Sprintf("ConcurrentIndex/memtable=%v", tier), func(t *testing.T) {
			x, err := OpenConcurrent(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			drive(t, x.index)
		})
	}
	x, err := OpenSharded(Options{}, ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if x.load == nil {
		t.Fatal("a ShardedIndex keeps no load tracker")
	}
}

// TestShardCostIsExact: two clients working one shard at once. A cost
// summed from per-call brackets counts the pages of overlapping calls in
// each of them; read from the ledger it is exact — at quiescence, to the
// unit.
func TestShardCostIsExact(t *testing.T) {
	x, err := OpenSharded(Options{
		Strategy:        GeneralizedBottomUp,
		BufferPages:     2, // one page per shard: every operation pays physical I/O
		ExpectedObjects: 2048,
	}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	ids, pts := randomPoints(800, 31)
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	// Both clients stay in shard 0's half, each on its own ids.
	home := cellMidpoints(x, 0)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(40 + c)))
			for i := 0; i < 600; i++ {
				p := home[rng.Intn(len(home))]
				if err := x.Update(ids[2*rng.Intn(len(ids)/2)+c], p); err != nil {
					t.Error(err)
					return
				}
				if i%4 == 0 {
					if _, err := x.Search(NewRect(p.X-0.1, p.Y-0.1, p.X+0.1, p.Y+0.1)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if l := x.ShardLoads()[0]; l.Updates < 1200 || l.Queries < 300 {
		t.Fatalf("setup: shard 0 took %d updates and %d queries", l.Updates, l.Queries)
	}
	checkOneReading(t, x)
}
