package burtree

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"burtree/internal/workload"
)

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

// snapshotResults captures the window-query answer over the whole space
// so tests can assert a rebalance is observationally invisible.
func allIDs(t *testing.T, x *ShardedIndex) []uint64 {
	t.Helper()
	return sortedShardedIDs(t, x.Search, NewRect(-10, -10, 10, 10))
}

// TestRebalanceGridUpgrade concentrates the update stream in one corner
// of a grid-partitioned index and checks that one Rebalance call
// upgrades the partition to load-balanced Hilbert ranges without
// changing any query answer.
func TestRebalanceGridUpgrade(t *testing.T) {
	x := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4, Partition: ShardGrid})
	defer x.Close()

	ids, pts := randomPoints(1200, 11)
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	before := allIDs(t, x)

	hammerCorner(t, x, ids, 0.02, 0.02, 2000, 5)

	loads := x.ShardLoads()
	hotUpdates := uint64(0)
	for _, l := range loads {
		if l.Updates > hotUpdates {
			hotUpdates = l.Updates
		}
	}
	if hotUpdates < 1800 {
		t.Fatalf("expected the corner shard to absorb most updates, loads %+v", loads)
	}

	moved, err := x.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("grid upgrade moved no objects")
	}
	if got := x.Partition(); got != ShardHilbert {
		t.Fatalf("partition after upgrade = %v, want ShardHilbert", got)
	}
	if got := x.RouterEpoch(); got != 1 {
		t.Fatalf("router epoch after upgrade = %d, want 1", got)
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatalf("invariants after upgrade: %v", err)
	}
	after := allIDs(t, x)
	if len(before) != len(after) {
		t.Fatalf("object count changed across rebalance: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("id set changed across rebalance at %d: %d vs %d", i, before[i], after[i])
		}
	}
}

// TestRebalanceNudge starts from a Hilbert partition, makes one shard
// hot, and checks that rebalance steps shrink that shard by migrating
// boundary slices to its neighbors.
func TestRebalanceNudge(t *testing.T) {
	x := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4, Partition: ShardHilbert})
	defer x.Close()

	ids, pts := randomPoints(1600, 23)
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	before := allIDs(t, x)

	// Find which shard owns the corner, then hammer it.
	hammerCorner(t, x, ids, 0.02, 0.02, 3000, 6)
	loads := x.ShardLoads()
	hot, hotObjects := 0, 0
	for i, l := range loads {
		if l.Updates > loads[hot].Updates {
			hot = i
		}
	}
	hotObjects = loads[hot].Objects

	moved, err := x.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatalf("nudge moved no objects; loads %+v", loads)
	}
	if got := x.RouterEpoch(); got != 1 {
		t.Fatalf("router epoch after nudge = %d, want 1", got)
	}
	if got := x.ShardLoads()[hot].Objects; got >= hotObjects {
		t.Fatalf("hot shard did not shrink: %d -> %d objects", hotObjects, got)
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatalf("invariants after nudge: %v", err)
	}
	after := allIDs(t, x)
	if len(before) != len(after) {
		t.Fatalf("object count changed across nudge: %d vs %d", len(before), len(after))
	}

	// Repeated hot windows keep nudging; the epoch is monotone.
	hammerCorner(t, x, ids, 0.02, 0.02, 3000, 7)
	if _, err := x.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if got := x.RouterEpoch(); got < 1 {
		t.Fatalf("router epoch went backwards: %d", got)
	}
}

// TestRebalanceQuietWindow checks the two no-trigger paths: an idle
// window (below MinOps) and a balanced window (no shard above
// HotFactor× fair share) both leave the boundaries alone.
func TestRebalanceQuietWindow(t *testing.T) {
	x := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4, Partition: ShardHilbert})
	defer x.Close()
	ids, pts := randomPoints(800, 31)
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}

	// Idle: no operations recorded at all.
	moved, err := x.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 || x.RouterEpoch() != 0 {
		t.Fatalf("idle window rebalanced: moved %d, epoch %d", moved, x.RouterEpoch())
	}

	// Below MinOps: a handful of skewed updates must not trigger.
	hammerCorner(t, x, ids, 0.02, 0.02, 100, 8)
	moved, err = x.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 || x.RouterEpoch() != 0 {
		t.Fatalf("sub-MinOps window rebalanced: moved %d, epoch %d", moved, x.RouterEpoch())
	}

	// Balanced: uniform updates well above MinOps, no hot shard. A fresh
	// index keeps the skewed window above out of the EWMA memory.
	y := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4, Partition: ShardHilbert})
	defer y.Close()
	if err := y.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 4000; i++ {
		id := ids[rng.Intn(len(ids))]
		if err := y.Update(id, Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	moved, err = y.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 || y.RouterEpoch() != 0 {
		t.Fatalf("balanced window rebalanced: moved %d, epoch %d", moved, y.RouterEpoch())
	}
}

// TestShardLoadsAccounting checks that the per-shard counters track the
// operation stream: updates count inserts, moves and deletes; queries
// count the shards a scatter visits.
func TestShardLoadsAccounting(t *testing.T) {
	x := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4, Partition: ShardGrid})
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

// TestRebalanceSnapshotRoundTrip rebalances, saves, reloads, and
// requires the rebalanced boundaries (witnessed by the router epoch and
// identical shard occupancy) and every object to survive the trip.
func TestRebalanceSnapshotRoundTrip(t *testing.T) {
	x := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4, Partition: ShardGrid})
	ids, pts := randomPoints(1000, 17)
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	hammerCorner(t, x, ids, 0.02, 0.02, 2000, 12)
	if _, err := x.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if x.RouterEpoch() == 0 {
		t.Fatal("setup: rebalance did not fire")
	}
	before := allIDs(t, x)
	lensBefore := x.ShardLens()

	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}

	y, err := LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	if got := y.RouterEpoch(); got != 1 {
		t.Fatalf("router epoch after reload = %d, want 1", got)
	}
	if got := y.Partition(); got != ShardHilbert {
		t.Fatalf("partition after reload = %v, want ShardHilbert", got)
	}
	lensAfter := y.ShardLens()
	for i := range lensBefore {
		if lensBefore[i] != lensAfter[i] {
			t.Fatalf("shard occupancy changed across snapshot: %v vs %v", lensBefore, lensAfter)
		}
	}
	after := allIDs(t, y)
	if len(before) != len(after) {
		t.Fatalf("object count changed across snapshot: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("id set changed across snapshot at %d", i)
		}
	}
	if err := y.CheckInvariants(); err != nil {
		t.Fatalf("invariants after reload: %v", err)
	}
	// The reloaded index can keep rebalancing.
	hammerCorner(t, y, ids, 0.9, 0.9, 2000, 13)
	if _, err := y.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if got := y.RouterEpoch(); got < 1 {
		t.Fatalf("epoch regressed after reload: %d", got)
	}
}

// TestRebalanceAutoLoop enables the background loop with a tiny
// interval and checks it fires on its own and shuts down with Close.
func TestRebalanceAutoLoop(t *testing.T) {
	x, err := OpenSharded(Options{
		Strategy:        GeneralizedBottomUp,
		BufferPages:     64,
		ExpectedObjects: 4096,
	}, ShardOptions{
		Shards:    4,
		Partition: ShardGrid,
		// MinOps is lowered so the short 2ms sampling windows can carry a
		// full window's worth of the test's update stream.
		Rebalance: RebalanceOptions{Interval: 2 * time.Millisecond, MinOps: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, pts := randomPoints(1200, 41)
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	// Keep hammering until the loop fires: each sampling window must see
	// enough skewed traffic on its own.
	deadline := time.Now().Add(10 * time.Second)
	for x.RouterEpoch() == 0 && time.Now().Before(deadline) {
		hammerCorner(t, x, ids, 0.02, 0.02, 200, 14)
	}
	if x.RouterEpoch() == 0 {
		t.Fatal("background loop never rebalanced a hot index")
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatalf("invariants after background rebalance: %v", err)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceRaceStress interleaves explicit rebalances with
// concurrent batched updates, searches and nearest-neighbour queries.
// Run under -race it checks the exclusive-gate discipline of boundary
// moves; the final state must pass invariants and match the object
// table.
func TestRebalanceRaceStress(t *testing.T) {
	x := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4, Partition: ShardGrid})
	defer x.Close()
	ids, pts := randomPoints(1000, 53)
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}

	iters := 60
	if testing.Short() {
		iters = 20
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // updater: skewed batches keep a shard hot
		defer wg.Done()
		rng := rand.New(rand.NewSource(61))
		for i := 0; i < iters; i++ {
			batch := make([]Change, 64)
			for j := range batch {
				batch[j] = Change{
					ID: ids[rng.Intn(len(ids))],
					To: Point{X: rng.Float64() * 0.1, Y: rng.Float64() * 0.1},
				}
			}
			if _, err := x.UpdateBatch(batch); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
	}()
	wg.Add(1)
	go func() { // rebalancer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := x.Rebalance(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // readers
		defer wg.Done()
		rng := rand.New(rand.NewSource(67))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := x.Search(NewRect(rng.Float64()*0.5, rng.Float64()*0.5, 1, 1)); err != nil {
				t.Error(err)
				return
			}
			if _, err := x.Nearest(Point{X: rng.Float64(), Y: rng.Float64()}, 5); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if err := x.CheckInvariants(); err != nil {
		t.Fatalf("invariants after race stress: %v", err)
	}
	// Every object in the table must be findable at its recorded spot.
	got := allIDs(t, x)
	if len(got) != x.Len() {
		t.Fatalf("search found %d objects, table holds %d", len(got), x.Len())
	}
}

// rebalancingShardedSubject is a sharded trace subject whose replay
// pulls a Rebalance every fixed number of operations, so the zipfian
// equivalence run exercises boundary moves mid-trace.
func rebalancingShardedSubject(opts Options, so ShardOptions, every int) traceSubject {
	var idx *ShardedIndex
	return traceSubject{
		name: "ShardedIndex+rebalance",
		replay: func(t *testing.T, tr *workload.MixedTrace) *workload.Profile {
			var err error
			idx, err = OpenSharded(opts, so)
			if err != nil {
				t.Fatal(err)
			}
			front := &rebalancingFrontend{x: idx, every: every}
			prof, err := workload.ReplayTrace(front, nearestProfile(idx.Nearest), func(ids []uint64, pts []Point) error {
				return idx.BulkInsert(ids, pts, PackSTR)
			}, tr)
			if err != nil {
				t.Fatal(err)
			}
			return prof
		},
		cleanup: func(t *testing.T) {
			if err := idx.CheckInvariants(); err != nil {
				t.Errorf("rebalancing ShardedIndex invariants after replay: %v", err)
			}
			if err := idx.Close(); err != nil {
				t.Errorf("rebalancing ShardedIndex close after replay: %v", err)
			}
		},
	}
}

// rebalancingFrontend wraps a ShardedIndex and injects a Rebalance
// every N mutations, mid-trace.
type rebalancingFrontend struct {
	x     *ShardedIndex
	every int
	ops   int
}

func (f *rebalancingFrontend) tick() error {
	f.ops++
	if f.ops%f.every == 0 {
		if _, err := f.x.Rebalance(); err != nil {
			return err
		}
	}
	return nil
}

func (f *rebalancingFrontend) Insert(id uint64, p Point) error {
	if err := f.x.Insert(id, p); err != nil {
		return err
	}
	return f.tick()
}

func (f *rebalancingFrontend) Update(id uint64, p Point) error {
	if err := f.x.Update(id, p); err != nil {
		return err
	}
	return f.tick()
}

func (f *rebalancingFrontend) Delete(id uint64) error {
	if err := f.x.Delete(id); err != nil {
		return err
	}
	return f.tick()
}

func (f *rebalancingFrontend) Search(q Rect) ([]uint64, error) { return f.x.Search(q) }

func (f *rebalancingFrontend) Location(id uint64) (Point, bool) { return f.x.Location(id) }

func (f *rebalancingFrontend) Len() int { return f.x.Len() }

// TestTraceReplayZipfian replays a zipfian hotspot trace against the
// plain index and a rebalancing sharded index: adaptive boundary moves
// must be observationally invisible.
func TestTraceReplayZipfian(t *testing.T) {
	n, ops := 800, 4000
	if testing.Short() {
		n, ops = 400, 1500
	}
	tr := workload.BuildMixedTrace(workload.Spec{
		NumObjects:  n,
		MaxDistance: 0.05,
		ZipfTheta:   0.9,
		Hotspots:    3,
		HotspotPull: 0.6,
		Seed:        77,
	}, ops, workload.DefaultMixedRatios())
	opts := Options{Strategy: GeneralizedBottomUp, BufferPages: 48, ExpectedObjects: n}
	replayEquivalence(t, tr,
		indexSubject(opts),
		shardedSubject(opts, ShardOptions{Shards: 4, Partition: ShardGrid}),
		rebalancingShardedSubject(opts, ShardOptions{Shards: 4, Partition: ShardGrid}, 256),
		rebalancingShardedSubject(opts, ShardOptions{Shards: 5, Partition: ShardHilbert}, 256),
	)
}

// TestZipfianTraceIsSkewed sanity-checks that the zipfian trace the
// skew experiment uses actually concentrates spatial load: the busiest
// deciles of the space receive disproportionally many updates.
func TestZipfianTraceIsSkewed(t *testing.T) {
	spec := workload.Spec{
		NumObjects:  500,
		MaxDistance: 0.05,
		ZipfTheta:   1.1,
		Hotspots:    2,
		HotspotPull: 0.8,
		Seed:        5,
	}
	// An empty ratio struct makes every operation an update.
	tr := workload.BuildMixedTrace(spec, 4000, workload.MixedTraceRatios{})
	counts := make(map[int]int)
	total := 0
	for _, op := range tr.Ops {
		if op.Kind != workload.TraceUpdate {
			continue
		}
		cellX := int(math.Min(op.P.X, 0.999) * 10)
		cellY := int(math.Min(op.P.Y, 0.999) * 10)
		counts[cellY*10+cellX]++
		total++
	}
	loads := make([]int, 0, len(counts))
	for _, c := range counts {
		loads = append(loads, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(loads)))
	top := 0
	for i := 0; i < len(loads) && i < 10; i++ {
		top += loads[i]
	}
	if frac := float64(top) / float64(total); frac < 0.4 {
		t.Fatalf("top 10 cells carry %.2f of updates, want >= 0.4 (hotspot trace not skewed)", frac)
	}
}
