package burtree

import (
	"time"

	"burtree/internal/concurrent"
)

// ConcurrentIndex is the multi-threaded variant of Index: the same
// index (engine.go) over a tree whose operations are isolated with
// Dynamic-Granular-Locking-style granule locks (paper §3.2.2 and §5.4),
// so bottom-up updates in disjoint regions proceed in parallel while
// top-down work holds the whole tree, and with the memtable delta tier —
// when enabled — merged down by a background goroutine. It offers the
// full Index API — updates, batched updates, window and
// nearest-neighbour queries, bulk loading and snapshots — and is safe
// for concurrent use by any number of goroutines.
//
// Reads run under shared granule locks: a window query locks the grid
// cells covering its window in S mode, so no update can move an object
// into or out of the window while the query scans it (phantom
// protection at granule granularity); a nearest-neighbour query, whose
// footprint cannot be pre-declared, takes the whole-tree granule in S
// mode. Queries therefore observe a consistent snapshot of the region
// they read, and run in parallel with each other and with updates
// elsewhere in the data space.
type ConcurrentIndex struct {
	*index
}

// OpenConcurrent creates an empty concurrent index. With
// Options.Durability enabled, the durability directory must not
// already hold a snapshot or log segments — resume existing durable
// state with RecoverConcurrent instead.
func OpenConcurrent(opts Options) (*ConcurrentIndex, error) {
	return front[ConcurrentIndex](open(opts, single, kindConcurrent))
}

// SetIOLatency simulates a per-page-access service time, making
// throughput figures I/O-bound as on the paper's hardware. Zero disables
// the simulation.
func (x *ConcurrentIndex) SetIOLatency(d time.Duration) { x.setIOLatency(d) }

// ConcurrencyStats reports lock-layer behaviour.
type ConcurrencyStats = concurrent.Stats

// Stats returns physical counters, tree shape and lock-layer counters.
func (x *ConcurrentIndex) Stats() (Stats, ConcurrencyStats) {
	st, cs := x.stats()
	return st, cs[0]
}
