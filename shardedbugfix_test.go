package burtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"burtree/internal/core"
)

// This file pins the cross-shard read-consistency fixes with regression
// tests that fail on the pre-fix code (the WAL-failure rollbacks that
// used to live here are rows of TestWALFailureMatrix):
//
//  1. A scatter racing a cross-shard move can find the same id in two
//     shards; the gather must de-duplicate (Search, SearchFunc, Count,
//     Nearest).
//  2. Nearest must not prune shards while its result set is still
//     under-filled, even when every object lives in one distant shard.
//
// and one accounting fix: ShardLoad.BackgroundPages reports the merge-down
// pages the stacks counted (it read a tracker ledger nothing fed).

// plantDuplicate bypasses routing and inserts the same id into two
// shard trees directly — the transient state a scatter can observe
// while racing a cross-shard move (insert into the destination applied,
// delete from the source not yet visible).
func plantDuplicate(t *testing.T, x *ShardedIndex, id uint64, a, b int, pa, pb Point) {
	t.Helper()
	if err := x.shards[a].tree.Insert(id, pa); err != nil {
		t.Fatal(err)
	}
	if err := x.shards[b].tree.Insert(id, pb); err != nil {
		t.Fatal(err)
	}
	x.put(opInsert, core.BatchChange{OID: id, New: pb})
}

// TestScatterDedup pins the gather de-duplication: with the same id
// present in two shards (the racing-reader anomaly), Search, SearchFunc,
// Count and Nearest must each report the object exactly once.
func TestScatterDedup(t *testing.T) {
	x := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4})
	defer x.Close()

	// A normal object in each quadrant, then one id planted in two shards.
	if err := x.Insert(1, Point{X: 0.1, Y: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(2, Point{X: 0.9, Y: 0.9}); err != nil {
		t.Fatal(err)
	}
	pa := Point{X: 0.2, Y: 0.2}
	pb := Point{X: 0.8, Y: 0.2}
	a, b := x.router.ShardOf(pa), x.router.ShardOf(pb)
	if a == b {
		t.Fatalf("setup: both copies route to shard %d", a)
	}
	plantDuplicate(t, x, 42, a, b, pa, pb)

	whole := NewRect(0, 0, 1, 1)

	got, err := x.Search(whole)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]int)
	for _, id := range got {
		seen[id]++
	}
	if seen[42] != 1 {
		t.Fatalf("Search returned id 42 %d times, want once (results %v)", seen[42], got)
	}
	if len(got) != 3 {
		t.Fatalf("Search returned %d ids, want 3: %v", len(got), got)
	}

	visits := 0
	err = x.SearchFunc(whole, func(id uint64, p Point) bool {
		if id == 42 {
			visits++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if visits != 1 {
		t.Fatalf("SearchFunc visited id 42 %d times, want once", visits)
	}

	n, err := x.Count(whole)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Count = %d, want 3", n)
	}

	// Nearest from beside copy A: id 42 appears once, at its nearest
	// copy's distance.
	q := Point{X: 0.21, Y: 0.21}
	ns, err := x.Nearest(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, nb := range ns {
		if nb.ID == 42 {
			hits++
			wantDist := math.Hypot(q.X-pa.X, q.Y-pa.Y)
			if math.Abs(nb.Dist-wantDist) > 1e-12 {
				t.Fatalf("Nearest kept the far copy of id 42: dist %g, want %g", nb.Dist, wantDist)
			}
		}
	}
	if hits != 1 {
		t.Fatalf("Nearest returned id 42 %d times, want once (%v)", hits, ns)
	}
}

// TestMergeNeighbors checks the linear merge against sort-and-dedupe on
// seeded lists that share some ids (at different distances) and some
// distances (at different ids).
func TestMergeNeighbors(t *testing.T) {
	byDistThenID := func(a, b Neighbor) int {
		if a.Dist != b.Dist {
			return int(math.Copysign(1, a.Dist-b.Dist))
		}
		return int(a.ID) - int(b.ID)
	}
	rng := rand.New(rand.NewSource(5))
	for _, size := range []int{0, 1, 7, 60} {
		for trial := 0; trial < 20; trial++ {
			// Ids drawn from a range that forces repeats across the lists,
			// distances from a lattice that forces ties.
			list := func(n int) []Neighbor {
				out := make([]Neighbor, 0, n)
				for _, id := range rng.Perm(2*size + 1)[:n] {
					out = append(out, Neighbor{ID: uint64(id), Dist: float64(rng.Intn(size+1)) / 4})
				}
				slices.SortFunc(out, byDistThenID)
				return out
			}
			a, b := list(rng.Intn(size+1)), list(size)
			want := slices.Concat(a, b)
			slices.SortStableFunc(want, byDistThenID)
			seen := make(map[uint64]bool)
			want = slices.DeleteFunc(want, func(n Neighbor) bool {
				dup := seen[n.ID]
				seen[n.ID] = true
				return dup
			})
			for _, k := range []int{1, size/2 + 1, 2*size + 5} {
				got := mergeNeighbors(nil, slices.Clone(a), slices.Clone(b), k)
				if !slices.Equal(got, want[:min(k, len(want))]) {
					t.Fatalf("size %d, k %d: merged\n%v\nand\n%v\ninto\n%v\nwant\n%v", size, k, a, b, got, want[:min(k, len(want))])
				}
			}
		}
	}
}

// TestNearestUnderfilledShards pins the best-first pruning guard: with
// every object concentrated in one shard far from the query point and
// k larger than the object count, Nearest must keep visiting shards
// until the result is as full as the data allows, matching brute force.
func TestNearestUnderfilledShards(t *testing.T) {
	x := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 8})
	defer x.Close()

	// Per-object inserts do not rebuild the uniform Hilbert router, so
	// clustering every object near one corner leaves seven shards empty.
	pts := make([]Point, 20)
	for i := range pts {
		pts[i] = Point{X: 0.93 + 0.003*float64(i%5), Y: 0.93 + 0.003*float64(i/5)}
		if err := x.Insert(uint64(i), pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	occupied := 0
	for _, n := range x.ShardLens() {
		if n > 0 {
			occupied++
		}
	}
	if occupied > 2 {
		t.Fatalf("setup: cluster spread over %d shards, want <= 2", occupied)
	}

	q := Point{X: 0.02, Y: 0.02} // opposite corner: every region is "far"
	for _, k := range []int{5, 20, 50} {
		ns, err := x.Nearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		wantLen := k
		if wantLen > len(pts) {
			wantLen = len(pts)
		}
		if len(ns) != wantLen {
			t.Fatalf("Nearest(k=%d) returned %d results, want %d", k, len(ns), wantLen)
		}
		// Brute-force oracle.
		dists := make([]float64, len(pts))
		for i, p := range pts {
			dists[i] = math.Hypot(q.X-p.X, q.Y-p.Y)
		}
		sort.Float64s(dists)
		for i, nb := range ns {
			if math.Abs(nb.Dist-dists[i]) > 1e-12 {
				t.Fatalf("Nearest(k=%d) result %d at dist %g, brute force says %g", k, i, nb.Dist, dists[i])
			}
		}
	}
}

// TestShardLoadsBackgroundPages pins ShardLoad.BackgroundPages to the
// pages merge-down actually spent: summed over the shards it equals
// Stats().Memtable.MergePages.
func TestShardLoadsBackgroundPages(t *testing.T) {
	x, err := OpenSharded(Options{
		Strategy:        GeneralizedBottomUp,
		BufferPages:     8,
		ExpectedObjects: 4096,
		Memtable:        Memtable{Enabled: true, MaxObjects: 64},
	}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids, pts := randomPoints(600, 3)
	insertEach(t, x, ids, pts)
	background := func() (sum uint64) {
		for _, l := range x.ShardLoads() {
			sum += l.BackgroundPages
		}
		return sum
	}

	// Updates far past MaxObjects, first in one corner and then in the
	// opposite one, so merge-downs run; Close drains what the tiers still
	// hold.
	hammerCorner(t, x, ids, 0.02, 0.02, 3000, 5)
	for _, sh := range x.shards {
		if err := sh.drainMemtable(); err != nil {
			t.Fatal(err)
		}
	}
	if background() == 0 {
		t.Fatal("BackgroundPages is 0 after 3000 updates through a 64-object tier")
	}
	hammerCorner(t, x, ids, 0.9, 0.9, 3000, 6)
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	st, _ := x.Stats()
	if st.Memtable.MergePages == 0 {
		t.Fatal("setup: no merge-down pages")
	}
	if got, want := background(), uint64(st.Memtable.MergePages); got != want {
		t.Fatalf("summed BackgroundPages = %d, want the %d merge pages", got, want)
	}
}
