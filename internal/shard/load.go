package shard

import "sync/atomic"

// CostPerPage is the weight of one physical page access (read or write)
// in load-cost units. Every operation carries a base cost of one unit —
// the latch, id-map and object-table work it costs even when it never
// touches a page — and each page access adds CostPerPage on top. The
// base unit keeps a shard's cost defined when its writes are all absorbed
// by the memtable or the buffer pool; the page weight makes I/O dominate
// whenever it is present.
const CostPerPage = 64

// CellCount pairs a routing-cell curve position with a number of update
// operations aimed at it. It is RecordBatch's argument and nothing else's;
// it stays only while the benchmark's record_batch micro-benchmark calls
// RecordBatch, and a benchmark change deletes it.
type CellCount struct {
	Cell uint64
	N    int
}

// LoadTracker counts each shard's operations: updates (inserts, moves,
// deletes) and read visits. Counters are atomics so the sharded front-end
// records from its per-shard goroutines without extra locking.
//
// The tracker keeps no page counter of its own: a shard's page accesses
// are counted once, in its stats.IO ledger, and a shard's cost is its
// operation count plus CostPerPage per foreground page of that ledger.
type LoadTracker struct {
	updates []atomic.Uint64 // per-shard update ops (insert/update/delete), cumulative
	queries []atomic.Uint64 // per-shard read ops (search/nearest visits), cumulative
}

// NewLoadTracker builds a tracker for n shards.
func NewLoadTracker(n int) *LoadTracker {
	return &LoadTracker{
		updates: make([]atomic.Uint64, n),
		queries: make([]atomic.Uint64, n),
	}
}

// RecordUpdates adds n update operations in shard s.
func (t *LoadTracker) RecordUpdates(s int, n uint64) { t.updates[s].Add(n) }

// RecordBatch adds the cells' update operations to shard s; pages is
// ignored. It stays only while the benchmark's record_batch micro-benchmark
// calls it, and a benchmark change deletes it: writes record through
// RecordUpdates.
func (t *LoadTracker) RecordBatch(s int, pages uint64, cells []CellCount) {
	total := 0
	for _, cc := range cells {
		total += cc.N
	}
	t.RecordUpdates(s, uint64(total))
}

// RecordQuery adds one read operation in shard s. What the visit cost is
// in the shard's ledger: a scatter leg that answers from an empty or
// fully-buffered shard costs its base unit, nothing more.
func (t *LoadTracker) RecordQuery(s int) { t.queries[s].Add(1) }

// UpdateCount returns shard s's cumulative update-operation count.
func (t *LoadTracker) UpdateCount(s int) uint64 { return t.updates[s].Load() }

// QueryCount returns shard s's cumulative read-operation count.
func (t *LoadTracker) QueryCount(s int) uint64 { return t.queries[s].Load() }
