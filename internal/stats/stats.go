// Package stats provides the performance counters used throughout the
// library: physical disk reads/writes, buffer hits, evictions and dirty
// write-backs, and split/reinsert activity. All counters are safe for concurrent use; the throughput
// experiment (paper §5.4) updates them from 50 goroutines.
package stats

import (
	"fmt"
	"sync/atomic"
)

// IO aggregates the disk and buffer counters for one database instance:
// the one ledger its page accesses are counted in. An index keeps one per
// shard slot and hands it from a stack to the stack that replaces it, so
// the counters outlive a rebuild. The zero value is ready to use.
type IO struct {
	reads      atomic.Int64 // physical page reads
	writes     atomic.Int64 // physical page writes
	background atomic.Int64 // of reads+writes, the accesses made by deferred (merge-down) work
	bufferHits atomic.Int64 // logical reads served by the buffer pool
	splits     atomic.Int64 // node splits
	reinserts  atomic.Int64 // entries force-reinserted

	evictions       atomic.Int64 // frames the buffer pool evicted to make room
	dirtyWriteBacks atomic.Int64 // evicted frames that were dirty and went to disk
	pinFallbacks    atomic.Int64 // accesses served outside the pool: every frame was pinned
}

// CountRead records one physical page read.
func (io *IO) CountRead() { io.reads.Add(1) }

// CountWrite records one physical page write.
func (io *IO) CountWrite() { io.writes.Add(1) }

// CountBackground marks n of the page accesses already counted as reads
// or writes as background work: deferred I/O of writes acknowledged
// earlier (a memtable merge-down), which Foreground leaves out.
func (io *IO) CountBackground(n int64) { io.background.Add(n) }

// CountBufferHit records a logical read served from the buffer pool.
func (io *IO) CountBufferHit() { io.bufferHits.Add(1) }

// CountSplit records one node split.
func (io *IO) CountSplit() { io.splits.Add(1) }

// CountReinserts records n entries scheduled for forced reinsertion.
func (io *IO) CountReinserts(n int) { io.reinserts.Add(int64(n)) }

// CountEviction records one frame evicted from the buffer pool; dirty
// says the victim had to be written back.
func (io *IO) CountEviction(dirty bool) {
	io.evictions.Add(1)
	if dirty {
		io.dirtyWriteBacks.Add(1)
	}
}

// CountPinFallback records a page access served on a transient frame
// because every frame of the pool was pinned.
func (io *IO) CountPinFallback() { io.pinFallbacks.Add(1) }

// Reads returns the physical read count.
func (io *IO) Reads() int64 { return io.reads.Load() }

// Writes returns the physical write count.
func (io *IO) Writes() int64 { return io.writes.Load() }

// BufferHits returns the buffer hit count.
func (io *IO) BufferHits() int64 { return io.bufferHits.Load() }

// Splits returns the node split count.
func (io *IO) Splits() int64 { return io.splits.Load() }

// Reinserts returns the count of force-reinserted entries.
func (io *IO) Reinserts() int64 { return io.reinserts.Load() }

// Total returns reads+writes, the paper's "disk I/O" metric.
func (io *IO) Total() int64 { return io.Reads() + io.Writes() }

// Background returns the page accesses marked as background work.
func (io *IO) Background() int64 { return io.background.Load() }

// Foreground returns reads+writes less the background accesses: the pages
// operations paid for while their callers waited. A Reset racing the
// reading can catch the counters half-zeroed, hence the floor.
func (io *IO) Foreground() int64 { return max(io.Total()-io.Background(), 0) }

// Snapshot is an immutable copy of the counters, used to compute
// per-phase deltas.
type Snapshot struct {
	Reads, Writes, BufferHits, Splits, Reinserts int64
	// Evictions, DirtyWriteBacks and PinFallbacks are the buffer pool's
	// own events (see CountEviction, CountPinFallback).
	Evictions, DirtyWriteBacks, PinFallbacks int64
}

// Snapshot returns the current counter values.
func (io *IO) Snapshot() Snapshot {
	return Snapshot{
		Reads:      io.Reads(),
		Writes:     io.Writes(),
		BufferHits: io.BufferHits(),
		Splits:     io.Splits(),
		Reinserts:  io.Reinserts(),

		Evictions:       io.evictions.Load(),
		DirtyWriteBacks: io.dirtyWriteBacks.Load(),
		PinFallbacks:    io.pinFallbacks.Load(),
	}
}

// Reset zeroes all counters.
func (io *IO) Reset() {
	io.reads.Store(0)
	io.writes.Store(0)
	io.background.Store(0)
	io.bufferHits.Store(0)
	io.splits.Store(0)
	io.reinserts.Store(0)
	io.evictions.Store(0)
	io.dirtyWriteBacks.Store(0)
	io.pinFallbacks.Store(0)
}

// Sub returns the component-wise difference s - t.
func (s Snapshot) Sub(t Snapshot) Snapshot {
	return Snapshot{
		Reads:      s.Reads - t.Reads,
		Writes:     s.Writes - t.Writes,
		BufferHits: s.BufferHits - t.BufferHits,
		Splits:     s.Splits - t.Splits,
		Reinserts:  s.Reinserts - t.Reinserts,

		Evictions:       s.Evictions - t.Evictions,
		DirtyWriteBacks: s.DirtyWriteBacks - t.DirtyWriteBacks,
		PinFallbacks:    s.PinFallbacks - t.PinFallbacks,
	}
}

// Total returns reads+writes for the snapshot.
func (s Snapshot) Total() int64 { return s.Reads + s.Writes }

// HitRate returns the fraction of logical reads served by the buffer,
// or 0 when there were no logical reads.
func (s Snapshot) HitRate() float64 {
	logical := s.Reads + s.BufferHits
	if logical == 0 {
		return 0
	}
	return float64(s.BufferHits) / float64(logical)
}

// String implements fmt.Stringer.
func (s Snapshot) String() string {
	return fmt.Sprintf("reads=%d writes=%d hits=%d splits=%d reinserts=%d evictions=%d writebacks=%d pinfallbacks=%d",
		s.Reads, s.Writes, s.BufferHits, s.Splits, s.Reinserts, s.Evictions, s.DirtyWriteBacks, s.PinFallbacks)
}
