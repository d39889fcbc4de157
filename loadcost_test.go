package burtree

import (
	"math/rand"
	"testing"
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
	}, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	// All objects in one quadrant, inserted into the uniform ranges of
	// open, which are the quadrants: three shards stay empty.
	rng := rand.New(rand.NewSource(3))
	for i := uint64(0); i < 600; i++ {
		if err := x.Insert(i, Point{X: rng.Float64() * 0.5, Y: rng.Float64() * 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if lens := x.ShardLens(); lens[0] != 600 {
		t.Fatalf("setup: shard occupancy %v, want all 600 in shard 0", lens)
	}
	// The inserts' cost is not the scatter's: each shard is charged
	// what the one search adds.
	inserted := x.ShardLoads()

	if _, err := x.Search(NewRect(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}

	loads := x.ShardLoads()
	popCost, emptyMax := uint64(0), uint64(0)
	for i, l := range loads {
		// The op-count signal cannot tell the visits apart — that is the
		// bug this test pins down.
		if l.Queries != 1 {
			t.Fatalf("whole-space scatter: per-shard visit counts %+v, want 1 each", loads)
		}
		if cost := l.Cost - inserted[i].Cost; l.Objects > 0 {
			popCost = cost
		} else if cost > emptyMax {
			emptyMax = cost
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
// weighted-cost test and populates it: a few hot objects clustered
// in one cell of shard 0, many cold objects spread over shard 1.
func openCheapHotExpensiveCold(t *testing.T) (x *ShardedIndex, hotIDs []uint64, hotCenter Point, coldIDs []uint64, coldPts []Point) {
	t.Helper()
	x, err := OpenSharded(Options{
		Strategy:        GeneralizedBottomUp,
		BufferPages:     2, // one page per shard: cold updates pay physical I/O
		ExpectedObjects: 512,
	}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	hotPts := cellMidpoints(x, 0)
	coldPts = cellMidpoints(x, 1)
	if len(hotPts) == 0 || len(coldPts) < 64 {
		t.Fatalf("probing found %d shard-0 and %d shard-1 cells", len(hotPts), len(coldPts))
	}
	hotCenter = hotPts[0]
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
// ops but pays real I/O for each. Shard 0's share of the updates must
// be the larger, and shard 1's share of the cost.
func TestWeightedSharesCheapHotExpensiveCold(t *testing.T) {
	x, hotIDs, hotCenter, coldIDs, coldPts := openCheapHotExpensiveCold(t)
	defer x.Close()

	rng := rand.New(rand.NewSource(19))
	for r := 0; r < 4; r++ {
		weightedWorkloadRound(t, x, hotIDs, hotCenter, coldIDs, coldPts, r, rng)
	}

	loads := x.ShardLoads()
	opShare := float64(loads[0].Updates) / float64(loads[0].Updates+loads[1].Updates)
	if opShare < 0.6 {
		t.Fatalf("update share of the op-heavy shard = %.2f, want > 0.6: %+v", opShare, loads)
	}
	costShare := float64(loads[1].Cost) / float64(loads[0].Cost+loads[1].Cost)
	if costShare < 0.6 {
		t.Fatalf("cost share of the I/O-heavy shard = %.2f, want > 0.6: %+v", costShare, loads)
	}
}
