package shard

import (
	"sync"
	"sync/atomic"
)

// CostPerPage is the weight of one physical page access (read or write)
// in load-cost units. Every operation carries a base cost of one unit —
// the latch, hash-directory and object-table work it costs even when it
// never touches a page — and each page access adds CostPerPage on top.
// The base unit keeps the share signal defined when a window's writes
// are all absorbed by the memtable or the buffer pool (zero pages
// everywhere would make every share 0/0); the page weight makes I/O
// dominate whenever it is present, which is the point: the rebalancer
// consumes *shares* of the cost stream, so any constant of the right
// order of magnitude yields the same boundary decisions.
const CostPerPage = 64

// CellCount pairs a routing-cell curve position with the number of
// update operations a batch aimed at it; RecordBatch distributes the
// batch's measured I/O cost over these.
type CellCount struct {
	Cell uint64
	N    int
}

// Window is one closed sampling window: the EWMA share vectors plus the
// cell histograms, snapshot together under the tracker's mutex so a
// concurrent DecayCells (another rebalance step finishing) cannot zero
// the histogram between the share sample and the boundary decision
// computed from it.
type Window struct {
	// Shares is the EWMA of per-shard cost shares — operations weighted
	// by the page I/O they actually incurred. This is the rebalancer's
	// default trigger signal.
	Shares []float64
	// OpShares is the EWMA of per-shard raw operation-count shares (the
	// pre-cost signal), kept for observability and comparison runs.
	OpShares []float64
	// Ops and Cost are the window's totals: operations recorded and
	// cost units accumulated since the previous SampleAt.
	Ops  uint64
	Cost uint64
	// Cells is the cost-weighted per-cell update histogram; CellOps is
	// the op-count histogram. Both are cumulative (decayed after each
	// boundary change, not reset per window).
	Cells   []uint64
	CellOps []uint64
}

// LoadTracker accumulates per-shard load and a per-Hilbert-cell update
// histogram, and maintains a windowed EWMA of each shard's share of the
// recent load. Counters are atomics so the sharded front-end can record
// from its per-shard worker goroutines without extra locking;
// SampleAt/Shares snapshots and histogram decay are serialized by a
// mutex.
//
// Load is tracked twice: as raw operation counts (updates, queries) and
// as *cost* — each operation's base unit plus CostPerPage per physical
// page it read or wrote. Under extreme skew the two diverge: the
// hottest objects coalesce in batches, absorb into the memtable and hit
// the buffer pool, so they are nearly free while cold traffic pays full
// I/O, and a rebalancer that chases op counts moves boundaries toward
// the wrong shards. The EWMA shares and the cell histogram the
// quantile cuts consume are therefore cost-weighted by default; op
// counts stay available for observability.
//
// Background merge-down I/O (the memtable tier draining to the tree)
// never reaches the tracker — the caller subtracts it from the page
// counters it passes to SampleAt: it is deferred work already
// acknowledged in a previous window, and folding it into the foreground
// signal would re-skew the balance the weighting exists to fix.
//
// The EWMA is sample-indexed, not wall-clock-indexed: every SampleAt call
// closes one window, computes each shard's share of the cost that
// arrived during the window and folds it in with weight ½. Rebalancing
// decisions therefore depend only on the operation stream, which keeps
// tests deterministic and the tracker free of time arithmetic.
type LoadTracker struct {
	updates []atomic.Uint64 // per-shard update ops (insert/update/delete), cumulative
	queries []atomic.Uint64 // per-shard read ops (search/nearest visits), cumulative
	cost    []atomic.Uint64 // per-shard foreground cost units, cumulative
	cells   []atomic.Uint64 // per-cell cost-weighted update histogram, cumulative
	cellOps []atomic.Uint64 // per-cell update-op histogram, cumulative

	mu        sync.Mutex
	lastOps   []uint64  // updates+queries snapshot at the previous SampleAt
	lastPages []uint64  // the caller's page counters at the previous SampleAt
	ewma      []float64 // EWMA of per-shard cost share
	ewmaOps   []float64 // EWMA of per-shard op-count share
	sampled   bool      // true once the first window has closed
}

// NewLoadTracker builds a tracker for n shards.
func NewLoadTracker(n int) *LoadTracker {
	return &LoadTracker{
		updates:   make([]atomic.Uint64, n),
		queries:   make([]atomic.Uint64, n),
		cost:      make([]atomic.Uint64, n),
		cells:     make([]atomic.Uint64, NumCells),
		cellOps:   make([]atomic.Uint64, NumCells),
		lastOps:   make([]uint64, n),
		lastPages: make([]uint64, n),
		ewma:      make([]float64, n),
		ewmaOps:   make([]float64, n),
	}
}

// RecordUpdates adds n update operations that together incurred pages
// physical page accesses to shard s and the cell histograms at curve
// position cell. n may be zero with pages non-zero: the source side of
// a cross-shard move pays real I/O for an operation accounted to the
// destination.
func (t *LoadTracker) RecordUpdates(s int, cell uint64, n int, pages uint64) {
	c := uint64(n) + pages*CostPerPage
	if n != 0 {
		t.updates[s].Add(uint64(n))
		t.cellOps[cell].Add(uint64(n))
	}
	if c != 0 {
		t.cost[s].Add(c)
		t.cells[cell].Add(c)
	}
}

// RecordBatch charges shard s with one batch's worth of update
// operations — the per-cell op counts in cells, whose applies together
// incurred pages physical page accesses — distributing the page cost
// over the cells in proportion to their op counts. A batch with page
// cost but no ops (pure cross-shard departures) charges the shard
// without touching the histogram: the ops were accounted to their
// destination cells.
func (t *LoadTracker) RecordBatch(s int, pages uint64, cells []CellCount) {
	total := 0
	for _, cc := range cells {
		total += cc.N
	}
	pageCost := pages * CostPerPage
	t.cost[s].Add(uint64(total) + pageCost)
	if total == 0 {
		return
	}
	t.updates[s].Add(uint64(total))
	// Distribute pageCost over cells ∝ op counts with a running
	// cumulative so integer rounding never loses cost units.
	cum, assigned := 0, uint64(0)
	for _, cc := range cells {
		cum += cc.N
		upto := pageCost * uint64(cum) / uint64(total)
		t.cellOps[cc.Cell].Add(uint64(cc.N))
		t.cells[cc.Cell].Add(uint64(cc.N) + (upto - assigned))
		assigned = upto
	}
}

// RecordQuery adds one read operation that incurred pages physical page
// accesses in shard s. Charging actual pages (instead of a flat visit)
// keeps broad windows over cold shards from inflating their apparent
// load: a scatter leg that answers from an empty or fully-buffered
// shard costs its base unit, nothing more.
func (t *LoadTracker) RecordQuery(s int, pages uint64) {
	t.queries[s].Add(1)
	t.cost[s].Add(1 + pages*CostPerPage)
}

// UpdateCount returns shard s's cumulative update-operation count.
func (t *LoadTracker) UpdateCount(s int) uint64 { return t.updates[s].Load() }

// QueryCount returns shard s's cumulative read-operation count.
func (t *LoadTracker) QueryCount(s int) uint64 { return t.queries[s].Load() }

// CostOf returns shard s's cumulative foreground cost units.
func (t *LoadTracker) CostOf(s int) uint64 { return t.cost[s].Load() }

// SampleAt closes the current window: it computes each shard's share of
// the cost (and, separately, of the raw op count) that arrived since the
// previous call, folds the shares into the EWMAs with weight ½, and
// returns the updated shares together with a snapshot of the cell
// histograms. The histogram snapshot is taken under the same mutex
// hold, so a concurrent DecayCells cannot zero the cells between the
// share sample and a boundary decision computed from the returned
// Window. A window with no operations leaves the EWMAs untouched.
//
// pages is the caller's exact cumulative foreground page counters, one
// per shard, monotone across calls: window cost = window ops +
// CostPerPage × window pages. The per-operation cost counters are not
// the source: they bracket each call, brackets of concurrent operations
// on one shard overlap and each measures the union of the interval, so
// they over-count roughly quadratically with the number of concurrent
// operations per shard. They remain the source for cell attribution and
// observability (CostOf).
func (t *LoadTracker) SampleAt(pages []uint64) Window {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.updates)
	curOps := make([]uint64, n)
	winCost := make([]uint64, n)
	var ops, cost uint64
	for i := 0; i < n; i++ {
		curOps[i] = t.updates[i].Load() + t.queries[i].Load()
		winPages := uint64(0)
		if pages[i] > t.lastPages[i] {
			winPages = pages[i] - t.lastPages[i]
		}
		winCost[i] = (curOps[i] - t.lastOps[i]) + winPages*CostPerPage
		ops += curOps[i] - t.lastOps[i]
		cost += winCost[i]
	}
	if ops > 0 {
		for i := 0; i < n; i++ {
			opShare := float64(curOps[i]-t.lastOps[i]) / float64(ops)
			costShare := opShare
			if cost > 0 {
				costShare = float64(winCost[i]) / float64(cost)
			}
			if t.sampled {
				t.ewma[i] = 0.5*t.ewma[i] + 0.5*costShare
				t.ewmaOps[i] = 0.5*t.ewmaOps[i] + 0.5*opShare
			} else {
				t.ewma[i] = costShare
				t.ewmaOps[i] = opShare
			}
		}
		t.sampled = true
		copy(t.lastOps, curOps)
		copy(t.lastPages, pages)
	}
	return Window{
		Shares:   append([]float64(nil), t.ewma...),
		OpShares: append([]float64(nil), t.ewmaOps...),
		Ops:      ops,
		Cost:     cost,
		Cells:    t.cellSnapshotLocked(t.cells),
		CellOps:  t.cellSnapshotLocked(t.cellOps),
	}
}

// cellSnapshotLocked copies one cell histogram; caller holds t.mu.
func (t *LoadTracker) cellSnapshotLocked(cells []atomic.Uint64) []uint64 {
	out := make([]uint64, len(cells))
	for i := range cells {
		out[i] = cells[i].Load()
	}
	return out
}

// Shares returns the current EWMA cost shares without closing a window.
func (t *LoadTracker) Shares() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.ewma...)
}

// OpShares returns the current EWMA op-count shares without closing a
// window.
func (t *LoadTracker) OpShares() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.ewmaOps...)
}

// DecayCells halves every cell count so past hotspots fade from the
// histograms instead of anchoring boundaries forever. Called after each
// rebalance step while the front-end holds its exclusive gate;
// serialized with SampleAt so a decay never lands between a share sample
// and the histogram snapshot it pairs with.
func (t *LoadTracker) DecayCells() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, cells := range [][]atomic.Uint64{t.cells, t.cellOps} {
		for i := range cells {
			for {
				v := cells[i].Load()
				if cells[i].CompareAndSwap(v, v/2) {
					break
				}
			}
		}
	}
}

// ResetShares forgets the EWMA history and restarts the current window
// at the present counter values. Called after a boundary change: the old
// shares describe shards that no longer exist. pages is the caller's
// exact cumulative foreground page snapshot (as passed to SampleAt)
// taken after the boundary change, so the migration I/O the
// change itself paid is charged to the closed history rather than
// polluting the first window of the new layout.
func (t *LoadTracker) ResetShares(pages []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.ewma {
		t.ewma[i] = 0
		t.ewmaOps[i] = 0
		t.lastOps[i] = t.updates[i].Load() + t.queries[i].Load()
	}
	copy(t.lastPages, pages)
	t.sampled = false
}
