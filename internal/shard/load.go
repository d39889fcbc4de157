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
// update operations a write aimed at it; RecordBatch distributes the
// write's measured I/O cost over these.
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
	// Ops is the window's total: operations recorded since the previous
	// SampleAt.
	Ops uint64
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
// The tracker counts operations (updates, queries) and keeps no page
// counter of its own: a shard's page accesses are counted once, in its
// stats.IO ledger, and the caller hands SampleAt that ledger's foreground
// reading. A window's *cost* is its operations' base units plus
// CostPerPage per foreground page. Under extreme skew cost and op counts
// diverge: the hottest objects coalesce in batches, absorb into the
// memtable and hit the buffer pool, so they are nearly free while cold
// traffic pays full I/O, and a rebalancer that chases op counts moves
// boundaries toward the wrong shards. The EWMA shares and the cell
// histogram the quantile cuts consume are therefore cost-weighted by
// default; op counts stay available for observability.
//
// Background merge-down I/O (the memtable tier draining to the tree)
// never reaches the tracker — the ledger's foreground reading leaves it
// out: it is deferred work already acknowledged in a previous window, and
// folding it into the foreground signal would re-skew the balance the
// weighting exists to fix.
//
// The EWMA is sample-indexed, not wall-clock-indexed: every SampleAt call
// closes one window, computes each shard's share of the cost that
// arrived during the window and folds it in with weight ½. Rebalancing
// decisions therefore depend only on the operation stream, which keeps
// tests deterministic and the tracker free of time arithmetic.
type LoadTracker struct {
	updates []atomic.Uint64 // per-shard update ops (insert/update/delete), cumulative
	queries []atomic.Uint64 // per-shard read ops (search/nearest visits), cumulative
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
		cells:     make([]atomic.Uint64, NumCells),
		cellOps:   make([]atomic.Uint64, NumCells),
		lastOps:   make([]uint64, n),
		lastPages: make([]uint64, n),
		ewma:      make([]float64, n),
		ewmaOps:   make([]float64, n),
	}
}

// RecordBatch charges shard s with one write's worth of update
// operations — the per-cell op counts in cells, whose applies together
// incurred pages physical page accesses, as the caller's bracket of them
// measured — distributing the page cost over the cells in proportion to
// their op counts. The cost lands in the cell histogram alone: the
// shard's own is read from its ledger. Cells that carry no ops at all
// name where the source side of a cross-shard move paid real I/O for an
// operation accounted to its destination; they weigh alike.
func (t *LoadTracker) RecordBatch(s int, pages uint64, cells []CellCount) {
	total := 0
	for _, cc := range cells {
		total += cc.N
	}
	even := 0
	if total == 0 {
		even = 1
	} else {
		t.updates[s].Add(uint64(total))
	}
	// Distribute pageCost over the cells by weight with a running
	// cumulative so integer rounding never loses cost units.
	pageCost := pages * CostPerPage
	weight := uint64(total + even*len(cells))
	cum, assigned := uint64(0), uint64(0)
	for _, cc := range cells {
		cum += uint64(cc.N + even)
		upto := pageCost * cum / weight
		t.cellOps[cc.Cell].Add(uint64(cc.N))
		t.cells[cc.Cell].Add(uint64(cc.N) + (upto - assigned))
		assigned = upto
	}
}

// RecordQuery adds one read operation in shard s. What the visit cost is
// in the shard's ledger: a scatter leg that answers from an empty or
// fully-buffered shard costs its base unit, nothing more.
func (t *LoadTracker) RecordQuery(s int) { t.queries[s].Add(1) }

// UpdateCount returns shard s's cumulative update-operation count.
func (t *LoadTracker) UpdateCount(s int) uint64 { return t.updates[s].Load() }

// QueryCount returns shard s's cumulative read-operation count.
func (t *LoadTracker) QueryCount(s int) uint64 { return t.queries[s].Load() }

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
// per shard (stats.IO.Foreground): window cost = window ops +
// CostPerPage × window pages. A counter that ran backward — the caller
// reset its statistics — closes its window at zero pages.
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
