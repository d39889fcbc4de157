package burtree

import (
	"fmt"
	"testing"
)

// Named runs of the model test. Each drives matrixCell.run — the model of
// runUpdateSequence with the lifecycle steps between segments — through
// one corner of the options, with a plan the option matrix's two fixed
// seeds per cell leave out: long sequences that grow deeper trees,
// sequences heavy in batches, windows or k-NN queries, shard counts other
// than 1 and 4, and every front-end kind a directory recovers or a
// snapshot loads as.

// longSegment is the operation count of a segment in a long sequence,
// four times the matrix's.
const longSegment = 4 * matrixSegmentOps

// Operations a sequence may be biased toward (see runUpdateSequence).
const (
	opWindow  byte = 5
	opNearest byte = 6
	opBatch   byte = 7
)

// eachStrategy runs f as one subtest per facade strategy.
func eachStrategy(t *testing.T, f func(t *testing.T, s Strategy)) {
	for _, s := range allFacadeStrategies() {
		t.Run(s.String(), func(t *testing.T) { f(t, s) })
	}
}

// eachKind runs c once for each front-end kind its plan recovers or
// loads as, set by as.
func eachKind(t *testing.T, c matrixCell, seed int64, as func(p *matrixPlan, k kind)) {
	for k := kindIndex; k <= kindSharded; k++ {
		p := matrixPlan{seed: seed + int64(k), bulk: k == kindConcurrent}
		as(&p, k)
		c.runSeed(t, p, matrixSegmentOps, 0)
	}
}

func loadAs(p *matrixPlan, k kind)    { p.loadAs = k }
func recoverAs(p *matrixPlan, k kind) { p.recoverAs = k }

// Index, long sequences: trees several levels deep.
func TestFacadeRandomWorkload(t *testing.T) {
	eachStrategy(t, func(t *testing.T, s Strategy) {
		matrixCell{strategy: s}.runSeed(t, matrixPlan{seed: 1000, bulk: true}, longSegment, 0)
	})
}

// Index, every write logged and recovered.
func TestInsertUpdateDeleteLifecycle(t *testing.T) {
	eachStrategy(t, func(t *testing.T, s Strategy) {
		matrixCell{strategy: s, mode: DurabilityBatch}.runSeed(t, matrixPlan{seed: 1010}, longSegment, 0)
	})
}

// Window-heavy sequences over a delta tier.
func TestCountAndSearchFunc(t *testing.T) {
	matrixCell{strategy: GeneralizedBottomUp, memtable: true}.runSeed(t, matrixPlan{seed: 1020}, longSegment, opWindow)
}

// k-NN-heavy sequences on every front-end.
func TestNearestFacade(t *testing.T) {
	for fe := range matrixFrontEnds {
		matrixCell{frontEnd: fe, strategy: TopDown}.runSeed(t, matrixPlan{seed: 1030 + int64(fe)}, matrixSegmentOps, opNearest)
	}
}

// ConcurrentIndex, long sequences after a bulk load: the moves in
// parallel move more objects on a deeper tree.
func TestConcurrentIndex(t *testing.T) {
	matrixCell{frontEnd: 1, strategy: GeneralizedBottomUp}.runSeed(t, matrixPlan{seed: 1040, bulk: true, loadAs: kindConcurrent}, longSegment, 0)
}

// Index, batch-heavy sequences.
func TestUpdateBatchEquivalence(t *testing.T) {
	eachStrategy(t, func(t *testing.T, s Strategy) {
		matrixCell{strategy: s}.runSeed(t, matrixPlan{seed: 1050, bulk: true}, longSegment, opBatch)
	})
}

// ConcurrentIndex, batch-heavy sequences.
func TestUpdateBatchEquivalenceConcurrentIndex(t *testing.T) {
	eachStrategy(t, func(t *testing.T, s Strategy) {
		matrixCell{frontEnd: 1, strategy: s}.runSeed(t, matrixPlan{seed: 1060, bulk: true}, longSegment, opBatch)
	})
}

// ShardedIndex with shard counts beyond the matrix's, long sequences
// after a bulk load; batches move objects across shards.
func TestShardedEquivalence(t *testing.T) {
	for _, n := range []int{1, 4, 5, 8} {
		t.Run(fmt.Sprintf("hilbert-%d", n), func(t *testing.T) {
			c := matrixCell{frontEnd: 3, strategy: GeneralizedBottomUp, nShards: n}
			if m := c.runSeed(t, matrixPlan{seed: 1070, bulk: true}, longSegment, 0); n > 1 && m.cross == 0 {
				t.Fatal("no batch moved an object across shards")
			}
		})
	}
}

// ShardedIndex, batch-heavy sequences.
func TestShardedUpdateBatch(t *testing.T) {
	for _, n := range []int{4, 6} {
		t.Run(fmt.Sprintf("hilbert-%d", n), func(t *testing.T) {
			c := matrixCell{frontEnd: 3, strategy: TopDown, nShards: n}
			if m := c.runSeed(t, matrixPlan{seed: 1080, bulk: true}, longSegment, opBatch); m.cross == 0 {
				t.Fatal("no batch moved an object across shards")
			}
		})
	}
}

// ConcurrentIndex, window-heavy sequences over a delta tier.
func TestConcurrentReadEquivalence(t *testing.T) {
	eachStrategy(t, func(t *testing.T, s Strategy) {
		matrixCell{frontEnd: 1, strategy: s, memtable: true}.runSeed(t, matrixPlan{seed: 1090}, longSegment, opWindow)
	})
}

// An Index's snapshot loaded as every front-end kind.
func TestSaveLoadRoundTrip(t *testing.T) {
	eachStrategy(t, func(t *testing.T, s Strategy) {
		eachKind(t, matrixCell{strategy: s}, 1100, loadAs)
	})
}

// A long sequence after a bulk load, so the loaded tree is deep enough
// that bottom-up moves on it must resolve locally (matrixCell.run).
func TestLoadedIndexKeepsWorking(t *testing.T) {
	matrixCell{strategy: GeneralizedBottomUp}.runSeed(t, matrixPlan{seed: 1110, bulk: true}, longSegment, 0)
}

// A four-shard snapshot loaded as every front-end kind: merged into one
// stack, or kept in four.
func TestShardedSaveLoadRoundTrip(t *testing.T) {
	eachKind(t, matrixCell{frontEnd: 3, strategy: GeneralizedBottomUp}, 1120, loadAs)
}

// A ConcurrentIndex's snapshot loaded as every front-end kind.
func TestConcurrentSaveLoadRoundTrip(t *testing.T) {
	eachKind(t, matrixCell{frontEnd: 1, strategy: GeneralizedBottomUp}, 1130, loadAs)
}

// An Index's log recovered as every front-end kind.
func TestDurableRoundTripIndex(t *testing.T) {
	eachKind(t, matrixCell{strategy: GeneralizedBottomUp, mode: DurabilityBatch}, 1140, recoverAs)
}

// Group commit over a delta tier, long sequences: Checkpoint truncates
// more records, and the recoveries after it replay only what followed.
func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	matrixCell{strategy: TopDown, mode: DurabilityGroup, memtable: true}.runSeed(t, matrixPlan{seed: 1150, recoverAs: kindSharded}, longSegment, 0)
}

// A four-shard directory recovered onto the uniform ranges of open (no
// bulk load, so no snapshot before the checkpoint) and onto the Hilbert
// cut a bulk load checkpointed.
func TestRecoverShardedRoundTrip(t *testing.T) {
	for _, bulk := range []bool{false, true} {
		t.Run(map[bool]string{false: "uniform", true: "hilbert"}[bulk], func(t *testing.T) {
			c := matrixCell{frontEnd: 3, strategy: GeneralizedBottomUp, mode: DurabilityBatch}
			c.runSeed(t, matrixPlan{seed: 1160, bulk: bulk}, matrixSegmentOps, 0)
		})
	}
}
