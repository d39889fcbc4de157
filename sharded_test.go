package burtree

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func openShardedTest(t testing.TB, s Strategy, so ShardOptions) *ShardedIndex {
	t.Helper()
	x, err := OpenSharded(Options{
		Strategy:        s,
		BufferPages:     64,
		ExpectedObjects: 4096,
	}, so)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func randomPoints(n int, seed int64) ([]uint64, []Point) {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]uint64, n)
	pts := make([]Point, n)
	for i := range ids {
		ids[i] = uint64(i)
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return ids, pts
}

// insertEach fills x one Insert at a time. Unlike BulkInsert, which
// balances a ShardedIndex's ranges over its data, it leaves the uniform
// ranges of open in place.
func insertEach(t testing.TB, x interface{ Insert(uint64, Point) error }, ids []uint64, pts []Point) {
	t.Helper()
	for i, id := range ids {
		if err := x.Insert(id, pts[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// hammerCorner drives n update operations at the given index, all
// landing inside a small square around (cx, cy), so the shard owning
// that corner accumulates (nearly) the whole load window.
func hammerCorner(t testing.TB, x *ShardedIndex, ids []uint64, cx, cy float64, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		id := ids[rng.Intn(len(ids))]
		p := Point{X: cx + rng.Float64()*0.05, Y: cy + rng.Float64()*0.05}
		if err := x.Update(id, p); err != nil {
			t.Fatal(err)
		}
	}
}

func sortedShardedIDs(t *testing.T, search func(Rect) ([]uint64, error), q Rect) []uint64 {
	t.Helper()
	got, err := search(q)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return got
}

// TestShardedHilbertBalance bulk-loads heavily skewed data and expects
// the balanced Hilbert partition to spread it far better than equal
// ranges would.
func TestShardedHilbertBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4000
	ids := make([]uint64, n)
	pts := make([]Point, n)
	for i := range ids {
		ids[i] = uint64(i)
		u, v := rng.Float64(), rng.Float64()
		pts[i] = Point{X: u * u * u, Y: v * v * v}
	}
	sh := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 8})
	if err := sh.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	lens := sh.ShardLens()
	want := n / 8
	for s, l := range lens {
		if l < want/3 || l > want*3 {
			t.Fatalf("hilbert shard %d holds %d of %d (want ≈%d): %v", s, l, n, want, lens)
		}
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedErrors exercises the error surface: duplicate inserts,
// unknown updates/deletes, unknown ids failing a whole batch, bulk
// loading a non-empty index.
func TestShardedErrors(t *testing.T) {
	sh := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4})
	if err := sh.Insert(1, Point{X: 0.1, Y: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := sh.Insert(1, Point{X: 0.2, Y: 0.2}); err == nil {
		t.Fatal("duplicate insert must fail")
	}
	if err := sh.Update(99, Point{X: 0.5, Y: 0.5}); err == nil {
		t.Fatal("unknown update must fail")
	}
	if err := sh.Delete(99); err == nil {
		t.Fatal("unknown delete must fail")
	}
	if _, err := sh.UpdateBatch([]Change{{ID: 1, To: Point{X: 0.9, Y: 0.9}}, {ID: 99, To: Point{}}}); err == nil {
		t.Fatal("batch with unknown id must fail")
	}
	if p, ok := sh.Location(1); !ok || p != (Point{X: 0.1, Y: 0.1}) {
		t.Fatalf("failed batch must not move objects; got %v %v", p, ok)
	}
	if err := sh.BulkInsert([]uint64{7}, []Point{{X: 0.3, Y: 0.3}}, PackSTR); err == nil {
		t.Fatal("BulkInsert on non-empty index must fail")
	}
	if _, err := OpenSharded(Options{Strategy: GeneralizedBottomUp}, ShardOptions{Shards: -3}); err == nil {
		t.Fatal("negative shard count must fail")
	}
}

// TestShardedDegenerateQueries: inverted and NaN windows contain no
// points; they must answer empty (matching the single-tree index), not
// panic in the scatter planner. Extreme windows and positions must not
// overflow the routing arithmetic either.
func TestShardedDegenerateQueries(t *testing.T) {
	bad := []Rect{
		{MinX: 0.99, MinY: 0.5, MaxX: 0.01, MaxY: 0.5}, // inverted x
		{MinX: 0.5, MinY: 0.9, MaxX: 0.5, MaxY: 0.1},   // inverted y
		{MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1},  // NaN corner
	}
	huge := Rect{MinX: 0.8, MinY: 0, MaxX: 1e20, MaxY: 1}
	for _, so := range []ShardOptions{{Shards: 9}, {Shards: 8}} {
		sh := openShardedTest(t, GeneralizedBottomUp, so)
		ci := openConcurrentTest(t, GeneralizedBottomUp)
		ids, pts := randomPoints(300, 8)
		if err := sh.BulkInsert(ids, pts, PackSTR); err != nil {
			t.Fatal(err)
		}
		if err := ci.BulkInsert(ids, pts, PackSTR); err != nil {
			t.Fatal(err)
		}
		for _, q := range bad {
			for name, search := range map[string]func(Rect) ([]uint64, error){"sharded": sh.Search, "concurrent": ci.Search} {
				got, err := search(q)
				if err != nil {
					t.Fatalf("%d shards %s: Search(%v): %v", so.Shards, name, q, err)
				}
				if len(got) != 0 {
					t.Fatalf("%d shards %s: Search(%v) returned %d results", so.Shards, name, q, len(got))
				}
			}
			if n, err := sh.Count(q); err != nil || n != 0 {
				t.Fatalf("Count(%v) = %d, %v", q, n, err)
			}
		}
		got, err := sh.Search(huge)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ci.Search(huge)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("huge window: sharded %d results, concurrent %d", len(got), len(want))
		}
	}
}

// TestShardedBulkInsertNaN: invalid coordinates must fail the whole
// load before any shard is touched, and a corrected retry must work.
func TestShardedBulkInsertNaN(t *testing.T) {
	sh := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4})
	ids, pts := randomPoints(500, 17)
	pts[250] = Point{X: math.NaN(), Y: 0.5}
	if err := sh.BulkInsert(ids, pts, PackSTR); err == nil {
		t.Fatal("BulkInsert accepted NaN coordinates")
	}
	if sh.Len() != 0 {
		t.Fatalf("failed BulkInsert left %d objects", sh.Len())
	}
	pts[250] = Point{X: 0.5, Y: 0.5}
	if err := sh.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatalf("retry after failed load: %v", err)
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedConcurrentStress hammers a sharded index from many
// goroutines mixing single updates, batches, window and NN queries, and
// insert/delete churn, then validates every invariant at quiescence.
// Run with -race.
func TestShardedConcurrentStress(t *testing.T) {
	sh := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4})
	const n = 1200
	ids, pts := randomPoints(n, 21)
	if err := sh.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	iters := 60
	if testing.Short() {
		iters = 25
	}
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 1031))
			// Each worker owns a disjoint id range for updates, so
			// per-object ordering is externally serialized as documented.
			lo := w * (n / workers)
			hi := lo + n/workers
			for i := 0; i < iters; i++ {
				switch rng.Intn(5) {
				case 0: // batch of moves within the worker's range
					batch := make([]Change, 0, 16)
					for j := 0; j < 16; j++ {
						id := uint64(lo + rng.Intn(hi-lo))
						batch = append(batch, Change{ID: id, To: Point{X: rng.Float64(), Y: rng.Float64()}})
					}
					if _, err := sh.UpdateBatch(batch); err != nil {
						errCh <- err
						return
					}
				case 1: // window query
					x, y := rng.Float64(), rng.Float64()
					if _, err := sh.Search(NewRect(x, y, x+0.1, y+0.1)); err != nil {
						errCh <- err
						return
					}
				case 2: // NN query
					if _, err := sh.Nearest(Point{X: rng.Float64(), Y: rng.Float64()}, 5); err != nil {
						errCh <- err
						return
					}
				case 3: // insert + delete churn in a private id space
					id := uint64(100_000 + w*1000 + i)
					p := Point{X: rng.Float64(), Y: rng.Float64()}
					if err := sh.Insert(id, p); err != nil {
						errCh <- err
						return
					}
					if err := sh.Delete(id); err != nil {
						errCh <- err
						return
					}
				default: // single update, long jump (cross-shard)
					id := uint64(lo + rng.Intn(hi-lo))
					if err := sh.Update(id, Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if got := sh.Len(); got != n {
		t.Fatalf("Len after churn: %d, want %d", got, n)
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st, cs := sh.Stats()
	if st.Size != n {
		t.Fatalf("aggregated Size %d, want %d", st.Size, n)
	}
	if len(cs) != 4 {
		t.Fatalf("expected 4 per-shard stats, got %d", len(cs))
	}
}

// TestShardLoadsAccounting: every write counts as an update of the shard
// that owns it and every scatter leg as a query of the shard it visits.
func TestShardLoadsAccounting(t *testing.T) {
	x := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4})
	defer x.Close()

	// One insert per quadrant: each shard's update counter reaches 1.
	quadrants := []Point{
		{X: 0.2, Y: 0.2}, {X: 0.8, Y: 0.2},
		{X: 0.2, Y: 0.8}, {X: 0.8, Y: 0.8},
	}
	for i, p := range quadrants {
		if err := x.Insert(uint64(i), p); err != nil {
			t.Fatal(err)
		}
	}
	var updates, queries uint64
	for _, l := range x.ShardLoads() {
		updates += l.Updates
		queries += l.Queries
		if l.Updates != 1 {
			t.Fatalf("per-shard updates %+v, want 1 each", x.ShardLoads())
		}
	}
	if queries != 0 {
		t.Fatalf("queries before any read: %d", queries)
	}

	// A whole-space window visits all four shards.
	if _, err := x.Search(NewRect(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	queries = 0
	for _, l := range x.ShardLoads() {
		queries += l.Queries
	}
	if queries != 4 {
		t.Fatalf("whole-space search recorded %d shard visits, want 4", queries)
	}

	// A move and a delete both count as updates.
	if err := x.Update(0, Point{X: 0.25, Y: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := x.Delete(1); err != nil {
		t.Fatal(err)
	}
	updates = 0
	for _, l := range x.ShardLoads() {
		updates += l.Updates
	}
	if updates != 6 {
		t.Fatalf("total updates = %d, want 6 (4 inserts + 1 move + 1 delete)", updates)
	}
}
