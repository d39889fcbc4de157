package burtree

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"burtree/internal/workload"
)

// This file is the canonical cross-front-end equivalence test: one
// recorded trace of inserts, updates, deletes, window queries and k-NN
// queries is replayed against Index, ConcurrentIndex and ShardedIndex
// (at several shard counts), and all observation profiles — final
// object tables, window-query id sets and NN distance profiles — must
// be identical. The suites for each front-end call replayEquivalence
// with their own configurations.

// nearestProfile adapts a front-end's Nearest method to the harness's
// distance-profile hook.
func nearestProfile(nearest func(Point, int) ([]Neighbor, error)) workload.NearestFunc {
	return func(p Point, k int) ([]float64, error) {
		ns, err := nearest(p, k)
		if err != nil {
			return nil, err
		}
		dists := make([]float64, len(ns))
		for i, n := range ns {
			dists[i] = n.Dist
		}
		return dists, nil
	}
}

// traceSubject is one front-end under test.
type traceSubject struct {
	name    string
	replay  func(t *testing.T, tr *workload.MixedTrace) *workload.Profile
	cleanup func(t *testing.T)
}

func indexSubject(opts Options) traceSubject {
	var idx *Index
	return traceSubject{
		name: "Index",
		replay: func(t *testing.T, tr *workload.MixedTrace) *workload.Profile {
			var err error
			idx, err = Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := workload.ReplayTrace(idx, nearestProfile(idx.Nearest), func(ids []uint64, pts []Point) error {
				return idx.BulkInsert(ids, pts, PackSTR)
			}, tr)
			if err != nil {
				t.Fatal(err)
			}
			requireMerged(t, opts, idx.index)
			return prof
		},
		cleanup: func(t *testing.T) {
			if err := idx.CheckInvariants(); err != nil {
				t.Errorf("Index invariants after replay: %v", err)
			}
			if err := idx.Close(); err != nil {
				t.Errorf("Index close after replay: %v", err)
			}
		},
	}
}

func concurrentSubject(opts Options) traceSubject {
	var idx *ConcurrentIndex
	return traceSubject{
		name: "ConcurrentIndex",
		replay: func(t *testing.T, tr *workload.MixedTrace) *workload.Profile {
			var err error
			idx, err = OpenConcurrent(opts)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := workload.ReplayTrace(idx, nearestProfile(idx.Nearest), func(ids []uint64, pts []Point) error {
				return idx.BulkInsert(ids, pts, PackSTR)
			}, tr)
			if err != nil {
				t.Fatal(err)
			}
			requireMerged(t, opts, idx.index)
			return prof
		},
		cleanup: func(t *testing.T) {
			if err := idx.CheckInvariants(); err != nil {
				t.Errorf("ConcurrentIndex invariants after replay: %v", err)
			}
			if err := idx.Close(); err != nil {
				t.Errorf("ConcurrentIndex close after replay: %v", err)
			}
		},
	}
}

func shardedSubject(opts Options, so ShardOptions) traceSubject {
	var idx *ShardedIndex
	return traceSubject{
		name: fmt.Sprintf("ShardedIndex-%d", so.Shards),
		replay: func(t *testing.T, tr *workload.MixedTrace) *workload.Profile {
			var err error
			idx, err = OpenSharded(opts, so)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := workload.ReplayTrace(idx, nearestProfile(idx.Nearest), func(ids []uint64, pts []Point) error {
				return idx.BulkInsert(ids, pts, PackSTR)
			}, tr)
			if err != nil {
				t.Fatal(err)
			}
			requireMerged(t, opts, idx.index)
			return prof
		},
		cleanup: func(t *testing.T) {
			if err := idx.CheckInvariants(); err != nil {
				t.Errorf("ShardedIndex invariants after replay: %v", err)
			}
			if err := idx.Close(); err != nil {
				t.Errorf("ShardedIndex close after replay: %v", err)
			}
		},
	}
}

// memtableOpts returns opts with the delta tier enabled at a size
// small enough to force many merge-downs mid-trace, so the concurrent
// front-ends' background mergers race the replayed reads.
func memtableOpts(opts Options) Options {
	opts.Memtable = Memtable{Enabled: true, MaxObjects: 64}
	return opts
}

// requireMerged fails t unless the delta tier, when opts enable it,
// merged down before Close's final drain: the replay's size trips reached
// the merger. A short replay can end before a background merger, kicked
// mid-trace, finishes its first pass on a loaded machine, so this waits
// for the merge count (there is no event to wait on), up to a bound.
func requireMerged(t *testing.T, opts Options, x *index) {
	t.Helper()
	if !opts.Memtable.Enabled {
		return
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := x.stats(); st.Memtable.Merges > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no merge-down ran before Close")
		}
	}
}

// named overrides a subject's display name (memtable-enabled legs
// replay the same trace as their plain counterpart and must be told
// apart in diffs).
func named(name string, s traceSubject) traceSubject {
	s.name = name
	return s
}

// replayEquivalence replays one trace against every subject and
// requires identical profiles. The first subject is the reference.
func replayEquivalence(t *testing.T, tr *workload.MixedTrace, subjects ...traceSubject) {
	t.Helper()
	var ref *workload.Profile
	var refName string
	for _, s := range subjects {
		prof := s.replay(t, tr)
		s.cleanup(t)
		if ref == nil {
			ref, refName = prof, s.name
			continue
		}
		if err := ref.Diff(prof); err != nil {
			t.Fatalf("%s vs %s: %v", refName, s.name, err)
		}
	}
}

// TestTraceReplayEquivalence is the canonical all-front-ends run: the
// same recorded trace must be observationally identical on the plain,
// concurrent and sharded indexes, for every update strategy.
func TestTraceReplayEquivalence(t *testing.T) {
	for _, strategy := range []Strategy{TopDown, GeneralizedBottomUp} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			n, ops := 800, 3000
			if testing.Short() {
				n, ops = 400, 1200
			}
			tr := workload.BuildMixedTrace(workload.Spec{
				NumObjects:  n,
				MaxDistance: 0.1, // long moves: force cross-shard traffic
				Seed:        int64(strategy) + 1,
			}, ops, workload.DefaultMixedRatios())
			opts := Options{Strategy: strategy, BufferPages: 48, ExpectedObjects: n}
			replayEquivalence(t, tr,
				indexSubject(opts),
				concurrentSubject(opts),
				shardedSubject(opts, ShardOptions{Shards: 4}),
				shardedSubject(opts, ShardOptions{Shards: 5}),
				// Memtable-enabled legs against the memtable-disabled
				// oracle above: the delta tier must be observationally
				// invisible.
				named("Index+memtable", indexSubject(memtableOpts(opts))),
				named("ConcurrentIndex+memtable", concurrentSubject(memtableOpts(opts))),
				named("ShardedIndex-4+memtable",
					shardedSubject(memtableOpts(opts), ShardOptions{Shards: 4})),
			)
		})
	}
}

// TestTraceReplaySkewed runs the equivalence on a skewed distribution,
// where the balanced Hilbert partition takes a different shape.
func TestTraceReplaySkewed(t *testing.T) {
	tr := workload.BuildMixedTrace(workload.Spec{
		NumObjects:   600,
		Distribution: workload.Skewed,
		MaxDistance:  0.08,
		Seed:         99,
	}, 1500, workload.DefaultMixedRatios())
	opts := Options{Strategy: GeneralizedBottomUp, BufferPages: 32, ExpectedObjects: 600}
	replayEquivalence(t, tr,
		indexSubject(opts),
		concurrentSubject(opts),
		shardedSubject(opts, ShardOptions{Shards: 8}),
		named("ConcurrentIndex+memtable", concurrentSubject(memtableOpts(opts))),
		named("ShardedIndex-8+memtable",
			shardedSubject(memtableOpts(opts), ShardOptions{Shards: 8})),
	)
}

// TestTraceReplayZipfian replays a zipfian hotspot trace — hot objects
// drifting toward a few wandering hotspots, so most moves concentrate in
// a few shards and many cross a boundary — against the plain index and
// sharded indexes of four and five shards, whose answers must be the
// plain index's.
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
		shardedSubject(opts, ShardOptions{Shards: 4}),
		shardedSubject(opts, ShardOptions{Shards: 5}),
	)
}

// TestZipfianTraceIsSkewed sanity-checks that the zipfian trace
// TestTraceReplayZipfian replays actually concentrates spatial load: the
// busiest deciles of the space receive disproportionally many updates.
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
