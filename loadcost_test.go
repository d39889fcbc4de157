package burtree

import (
	"math/rand"
	"testing"

	"burtree/internal/shard"
)

// cellMidpoints probes the unit square at Hilbert-cell midpoints and
// returns those owned by the given shard, so tests can place load in a
// known shard without depending on the curve layout.
func cellMidpoints(x *ShardedIndex, s int) []Point {
	var out []Point
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			p := Point{X: (float64(i) + 0.5) / 32, Y: (float64(j) + 0.5) / 32}
			if x.router.ShardOf(p) == s {
				out = append(out, p)
			}
		}
	}
	return out
}

// TestScatterQueryCostPerShard is the regression test for scatter-read
// accounting: a wide window visits every shard, and before cost
// weighting each visit was indistinguishable — one count per shard,
// whether the shard answered from a deep tree or was empty. The
// per-shard cost must now reflect the pages actually visited: the
// populated shard pays real I/O, the empty shards almost none.
func TestScatterQueryCostPerShard(t *testing.T) {
	x, err := OpenSharded(Options{
		Strategy: GeneralizedBottomUp,
		// One buffer page per shard, so the populated shard's window scan
		// pays physical reads instead of disappearing into the pool.
		BufferPages:     4,
		ExpectedObjects: 4096,
	}, ShardOptions{Shards: 4, Partition: ShardGrid})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	// All objects in one quadrant: three shards stay empty.
	rng := rand.New(rand.NewSource(3))
	ids := make([]uint64, 600)
	pts := make([]Point, 600)
	for i := range ids {
		ids[i] = uint64(i)
		pts[i] = Point{X: rng.Float64() * 0.5, Y: rng.Float64() * 0.5}
	}
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}

	if _, err := x.Search(NewRect(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}

	loads := x.ShardLoads()
	popCost, emptyMax := uint64(0), uint64(0)
	for _, l := range loads {
		// The op-count signal cannot tell the visits apart — that is the
		// bug this test pins down.
		if l.Queries != 1 {
			t.Fatalf("whole-space scatter: per-shard visit counts %+v, want 1 each", loads)
		}
		if l.Objects > 0 {
			popCost = l.Cost
		} else if l.Cost > emptyMax {
			emptyMax = l.Cost
		}
	}
	if popCost == 0 {
		t.Fatalf("populated shard recorded no cost: %+v", loads)
	}
	// The populated shard's scan read real pages; an empty shard's visit
	// is nearly free (at most the base unit plus a root touch).
	if popCost < 8*(emptyMax+1) {
		t.Fatalf("populated shard cost %d not ≫ empty shard cost %d: %+v", popCost, emptyMax, loads)
	}
}

// weightedWorkloadRound drives one window of the cheap-hot /
// expensive-cold workload: a large batched update stream hammering a
// few objects in one cell of shard 0 (coalesces to almost no I/O), and
// a small single-update stream spreading shard 1's objects across its
// whole region (every op pays real leaf I/O through a one-page buffer).
// Op counts and I/O disagree by construction: shard 0 wins the op
// count, shard 1 the actual page traffic.
func weightedWorkloadRound(t *testing.T, x *ShardedIndex, hotIDs []uint64, hotCenter Point,
	coldIDs []uint64, coldPts []Point, r int, rng *rand.Rand) {
	t.Helper()
	batch := make([]Change, 256)
	for j := range batch {
		batch[j] = Change{
			ID: hotIDs[j%len(hotIDs)],
			To: Point{
				X: hotCenter.X + (rng.Float64()*2-1)*0.002,
				Y: hotCenter.Y + (rng.Float64()*2-1)*0.002,
			},
		}
	}
	if _, err := x.UpdateBatch(batch); err != nil {
		t.Fatal(err)
	}
	for k, id := range coldIDs {
		p := coldPts[(k+r*7)%len(coldPts)]
		p.X += (rng.Float64()*2 - 1) * 0.002
		p.Y += (rng.Float64()*2 - 1) * 0.002
		if err := x.Update(id, p); err != nil {
			t.Fatal(err)
		}
	}
}

// openCheapHotExpensiveCold builds the two-shard index for the
// weighted-signal tests and populates it: a few hot objects clustered
// in one cell of shard 0, many cold objects spread over shard 1.
func openCheapHotExpensiveCold(t *testing.T) (x *ShardedIndex, hotIDs []uint64, hotCenter Point, coldIDs []uint64, coldPts []Point) {
	t.Helper()
	x, err := OpenSharded(Options{
		Strategy:        GeneralizedBottomUp,
		BufferPages:     2, // one page per shard: cold updates pay physical I/O
		ExpectedObjects: 512,
	}, ShardOptions{Shards: 2, Partition: ShardHilbert})
	if err != nil {
		t.Fatal(err)
	}
	hotPts := cellMidpoints(x, 0)
	coldPts = cellMidpoints(x, 1)
	if len(hotPts) == 0 || len(coldPts) < 64 {
		t.Fatalf("probing found %d shard-0 and %d shard-1 cells", len(hotPts), len(coldPts))
	}
	// A cluster cell early on the curve, so the op-count arm's quantile
	// target lands clearly inside shard 0's range.
	hotCenter = hotPts[0]
	for _, p := range hotPts {
		if shard.CellKey(p) < shard.CellKey(hotCenter) {
			hotCenter = p
		}
	}
	for i := 0; i < 4; i++ {
		id := uint64(1000 + i)
		hotIDs = append(hotIDs, id)
		if err := x.Insert(id, hotCenter); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		id := uint64(2000 + i)
		coldIDs = append(coldIDs, id)
		if err := x.Insert(id, coldPts[i%len(coldPts)]); err != nil {
			t.Fatal(err)
		}
	}
	return x, hotIDs, hotCenter, coldIDs, coldPts
}

// TestWeightedSharesCheapHotExpensiveCold is the workload where op
// counts and I/O disagree by construction: shard 0 absorbs 4× the
// operations at almost no page cost, shard 1 takes a quarter of the
// ops but pays real I/O for each. The op-count shares must favor
// shard 0 and the cost-weighted shares shard 1.
func TestWeightedSharesCheapHotExpensiveCold(t *testing.T) {
	x, hotIDs, hotCenter, coldIDs, coldPts := openCheapHotExpensiveCold(t)
	defer x.Close()

	rng := rand.New(rand.NewSource(19))
	for r := 0; r < 4; r++ {
		weightedWorkloadRound(t, x, hotIDs, hotCenter, coldIDs, coldPts, r, rng)
		x.load.SampleAt(x.fgPages())
	}

	loads := x.ShardLoads()
	if loads[0].Updates <= loads[1].Updates {
		t.Fatalf("setup: hot shard should win the op count: %+v", loads)
	}
	if loads[1].Cost <= loads[0].Cost {
		t.Fatalf("setup: cold shard should win the cost: %+v", loads)
	}
	if loads[0].OpShare < 0.6 {
		t.Fatalf("op-count share of the op-heavy shard = %.2f, want > 0.6: %+v", loads[0].OpShare, loads)
	}
	if loads[1].Share < 0.6 {
		t.Fatalf("weighted share of the I/O-heavy shard = %.2f, want > 0.6: %+v", loads[1].Share, loads)
	}
}

// TestWeightedRebalanceDirection runs the cheap-hot/expensive-cold
// workload twice and checks the rebalancer's boundary moves in
// opposite directions under the two signals: the cost-weighted default
// judges the I/O-heavy shard 1 hot and raises the cut (shedding
// shard 1's cells to shard 0), while the op-count arm chases the
// cheap update stream and lowers the cut toward shard 0's hot cell.
func TestWeightedRebalanceDirection(t *testing.T) {
	run := func(opCounts bool) (before, after uint64) {
		x, hotIDs, hotCenter, coldIDs, coldPts := openCheapHotExpensiveCold(t)
		defer x.Close()
		rng := rand.New(rand.NewSource(23))
		for r := 0; r < 4; r++ {
			weightedWorkloadRound(t, x, hotIDs, hotCenter, coldIDs, coldPts, r, rng)
			x.load.SampleAt(x.fgPages())
		}
		// One more window feeds the Rebalance call's own sample.
		weightedWorkloadRound(t, x, hotIDs, hotCenter, coldIDs, coldPts, 4, rng)
		x.SetRebalance(RebalanceOptions{
			HotFactor:   1.1,
			MinOps:      64,
			MaxStep:     1 << 20,
			UseOpCounts: opCounts,
		})
		before = x.router.Bounds()[0]
		if _, err := x.Rebalance(); err != nil {
			t.Fatal(err)
		}
		if got := x.RouterEpoch(); got != 1 {
			t.Fatalf("rebalance (opCounts=%v) did not move a boundary: epoch %d, loads %+v",
				opCounts, got, x.ShardLoads())
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("invariants after rebalance (opCounts=%v): %v", opCounts, err)
		}
		return before, x.router.Bounds()[0]
	}

	before, weighted := run(false)
	if weighted <= before {
		t.Fatalf("weighted rebalance moved the cut %d -> %d; want raised (shrinking the I/O-heavy shard)", before, weighted)
	}
	before, opcount := run(true)
	if opcount >= before {
		t.Fatalf("op-count rebalance moved the cut %d -> %d; want lowered (chasing the op-heavy shard)", before, opcount)
	}
}
