package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported number. The names are the benchmark's
// contract: later changes are judged by them, so they are fixed here and
// mirrored into BENCHMARK.json by -manifest (TestManifestMatches keeps
// the committed file in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// Regression bounds, as a share of the parent's median, sized from the
// spreads recorded in README.md (ten runs, ten seeds, twice): a bound is
// at least three times the widest spread seen, and no more than the
// driver's cap of 0.25. The counts are fixed by the stream and move only
// with the seed: which ids are hot decides how much a batch coalesces
// (allocations, 3.2 %) and where nodes split (pages, 1.2 %); the live
// heap moves 2.2 % with how full the memtable is when the clock stops.
// Every timing wanders 4-17 % on the two-core reference box, so timings
// get the cap; a smaller change is resolved by paired runs
// (choosing-metrics guide, section 8), not by this bound.
const (
	boundSpace  = 0.03
	boundPages  = 0.04
	boundHeap   = 0.07
	boundAllocs = 0.10
	boundTiming = 0.25
)

// endToEnd lists what a caller of the library feels. Every workload
// produces every one of them, and none is ever zero. The three latency
// tails do not repeat within the driver's cap — one stolen millisecond is
// the p99 of a 70 us read, and a burst of stolen seconds on the shared
// box took the p99 of batch-hot's 13 ms batches from 22 to 50 ms, a
// spread of 41-46 % over ten runs — so they are reported with the
// layers, as frontend.update_p99_us, .search_p99_us and .nearest_p99_us.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, boundTiming},
	{"ops_s", "calls/s", higher, boundTiming},
	{"update_p50_us", "us", lower, boundTiming},
	{"search_p50_us", "us", lower, boundTiming},
	{"nearest_p50_us", "us", lower, boundTiming},
	{"cpu_us_per_op", "us", lower, boundTiming},
	{"allocs_per_op", "count", lower, boundAllocs},
	{"pages_per_op", "pages", lower, boundPages},
	{"live_heap_mb", "MB", lower, boundHeap},
	{"space_amp", "ratio", lower, boundSpace},
}

// perLayer lists the numbers of single layers, taken by the traced run.
// A layer a workload bypasses reports 0 for its micro-drivers.
var perLayer = []metricDef{
	{"frontend.self_us_per_update", "us", lower, 0},
	{"frontend.pages_per_update", "pages", lower, 0},
	{"frontend.pages_per_search", "pages", lower, 0},
	{"frontend.pages_per_nearest", "pages", lower, 0},
	{"frontend.insert_p50_us", "us", lower, 0},
	{"frontend.delete_p50_us", "us", lower, 0},
	{"frontend.batch_coalesced_share", "ratio", higher, 0},
	{"frontend.batch_group_resolved_share", "ratio", higher, 0},
	{"frontend.batch_fallback_share", "ratio", lower, 0},
	{"frontend.batch_cross_shard_share", "ratio", lower, 0},
	{"frontend.update_p99_us", "us", lower, 0},
	{"frontend.search_p99_us", "us", lower, 0},
	{"frontend.nearest_p99_us", "us", lower, 0},
	{"frontend.recover_s", "s", lower, 0},
	{"frontend.failed_ops_share", "ratio", lower, 0},

	{"persist.checkpoint_s", "s", lower, 0},
	{"persist.checkpoint_stall_ms", "ms", lower, 0},
	{"persist.snapshot_bytes", "bytes", lower, 0},
	{"persist.save_mb_s", "MB/s", higher, 0},
	{"persist.load_s", "s", lower, 0},
	{"persist.replay_moves_s", "1/s", higher, 0},

	{"shard.self_us_per_update", "us", lower, 0},
	{"shard.shardof_ns", "ns", lower, 0},
	{"shard.shardsfor_ns", "ns", lower, 0},
	{"shard.record_batch_ns", "ns", lower, 0},
	{"shard.shards_per_search", "count", lower, 0},
	{"shard.load_imbalance", "ratio", lower, 0},

	{"concurrent.self_us_per_update", "us", lower, 0},
	{"concurrent.local_share", "ratio", higher, 0},
	{"concurrent.escalated_share", "ratio", lower, 0},
	{"concurrent.batched_share", "ratio", higher, 0},
	{"concurrent.retries_per_kop", "count", lower, 0},
	{"concurrent.timeouts", "count", lower, 0},

	{"dgl.acquire_release_ns", "ns", lower, 0},
	{"dgl.scope3_ns", "ns", lower, 0},
	{"dgl.handoff_us", "us", lower, 0},

	{"core.update_us", "us", lower, 0},
	{"core.search_us", "us", lower, 0},
	{"core.nearest_us", "us", lower, 0},
	{"core.coalesce_ns_per_change", "ns", lower, 0},
	{"core.order_ns_per_change", "ns", lower, 0},
	{"core.applybatch_us_per_move", "us", lower, 0},
	{"core.applybatch_allocs_per_move", "count", lower, 0},
	{"core.inleaf_share", "ratio", higher, 0},
	{"core.extended_share", "ratio", higher, 0},
	{"core.shifted_share", "ratio", lower, 0},
	{"core.ascended_share", "ratio", lower, 0},
	{"core.topdown_share", "ratio", lower, 0},
	{"core.piggyback_per_shift", "count", higher, 0},

	{"hashindex.lookup_ns", "ns", lower, 0},
	{"hashindex.set_ns", "ns", lower, 0},
	{"hashindex.pages_per_lookup", "pages", lower, 0},
	{"hashindex.overflow_pages", "pages", lower, 0},

	{"summary.findparent_ns", "ns", lower, 0},
	{"summary.size_bytes", "bytes", lower, 0},

	{"rtree.readnode_ns", "ns", lower, 0},
	{"rtree.writenode_ns", "ns", lower, 0},
	{"rtree.readnode_allocs", "count", lower, 0},
	{"rtree.search_us", "us", lower, 0},
	{"rtree.nearest_us", "us", lower, 0},
	{"rtree.nodes_per_search", "count", lower, 0},
	{"rtree.height", "count", lower, 0},
	{"rtree.leaf_fill", "ratio", higher, 0},
	{"rtree.splits_per_kop", "count", lower, 0},
	{"rtree.reinserts_per_kop", "count", lower, 0},

	{"buffer.read_hit_ns", "ns", lower, 0},
	{"buffer.read_miss_ns", "ns", lower, 0},
	{"buffer.write_ns", "ns", lower, 0},
	{"buffer.flush_ms", "ms", lower, 0},
	{"buffer.hit_rate", "ratio", higher, 0},

	{"pagestore.read_ns", "ns", lower, 0},
	{"pagestore.write_ns", "ns", lower, 0},
	{"pagestore.reads_per_op", "pages", lower, 0},
	{"pagestore.writes_per_op", "pages", lower, 0},
	{"pagestore.pages", "pages", lower, 0},

	{"wal.append_async_ns", "ns", lower, 0},
	{"wal.append_each_us", "us", lower, 0},
	{"wal.append_group_us", "us", lower, 0},
	{"wal.sync_us", "us", lower, 0},
	{"wal.readdir_mb_s", "MB/s", higher, 0},
	{"wal.bytes_per_move", "bytes", lower, 0},
	{"wal.segments", "count", lower, 0},

	{"memtable.update_ns", "ns", lower, 0},
	{"memtable.get_ns", "ns", lower, 0},
	{"memtable.snapshot_us", "us", lower, 0},
	{"memtable.drain_us_per_entry", "us", lower, 0},
	{"memtable.absorbed_share", "ratio", higher, 0},
	{"memtable.merges", "count", lower, 0},
	{"memtable.merge_pages_per_merged", "pages", lower, 0},
	{"memtable.entries_mean", "count", lower, 0},

	{"runtime.alloc_bytes_per_op", "bytes", lower, 0},
	{"runtime.gc_cycles", "count", lower, 0},
	{"runtime.gc_pause_ms", "ms", lower, 0},
	{"runtime.peak_rss_mb", "MB", lower, 0},
	{"runtime.goroutines_end", "count", lower, 0},
	{"runtime.calib_ns", "ns", lower, 0},

	{"trace.overhead_pct", "%", lower, 0},
	{"trace.spans", "count", lower, 0},
	{"trace.model_coverage", "ratio", higher, 0},
	{"trace.ladder_top_us", "us", lower, 0},
}

// results maps metric name to value. Unset per-layer names read as 0.
type results map[string]float64

// report is the last line of standard output, in the driver's shape.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// project keeps exactly the metrics of defs, refusing a value no reader
// could use.
func project(r results, defs []metricDef, neverZero bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := r[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		if neverZero && v == 0 {
			return nil, fmt.Errorf("metric %s is zero", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"` // no bounds: Bound is 0 and left out
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measured length of one driver run (BENCHMARK.json's
// run_seconds and the default of -seconds).
const runSeconds = 15

func manifestJSON() ([]byte, error) {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		if w.gated() {
			m.Workloads = append(m.Workloads, manifestLoad{w.name, w.why})
		}
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// percentile returns the p-quantile (0 < p < 1) of sorted samples by the
// nearest-rank rule, 0 for no samples.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, 0 when b is 0 (a share of nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
