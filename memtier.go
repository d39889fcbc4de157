package burtree

// This file wires the in-memory delta tier (internal/memtable) into the
// index front-ends: the Memtable options block, the drain that merges
// absorbed deltas down to the tree through the batched bottom-up
// pipeline, and the loop that runs it in the background. The reads that
// make buffered deltas visible before they reach the tree are the
// stack's own (treeStack.scan, Nearest), over a memtable.View.

import (
	"fmt"
	"sync"

	"burtree/internal/core"
	"burtree/internal/memtable"
)

// Memtable configures the in-memory delta tier. When enabled, write
// operations are absorbed into a per-index (per-shard, on
// ShardedIndex) memory buffer and acknowledged after the write-ahead
// log append alone — the tree pass they eventually cost is deferred to
// a merge-down that drains the buffer through the batched bottom-up
// UpdateBatch pipeline. A merge runs when a write brings the buffer to
// MaxObjects (in background on ConcurrentIndex and ShardedIndex, inline
// on the single-writer Index) and synchronously on Checkpoint, Save and
// Close, so snapshots never depend on buffer contents. Nothing merges on
// a timer: a buffer below MaxObjects stays in memory until one of those.
//
// Acknowledgement durability depends on the Durability mode. Under
// DurabilityBatch every log record is fsynced before the call returns,
// so acknowledged always means durable, exactly as without the tier.
// Under DurabilityGroup the tier acknowledges as soon as the record is
// appended, without waiting for the covering group sync: a background
// sync leader keeps the durable horizon advancing at the device's
// natural cadence, so the loss window on an OS or power crash is one
// group-sync cycle (process crashes lose nothing — the appended bytes
// are in the OS buffer). Checkpoint, Save and Close flush the log
// hard, so a clean shutdown or snapshot never leaves an acknowledged
// write at risk. A sync failure poisons the log and surfaces on the
// next write or flush.
//
// Reads remain read-your-writes: Search, SearchFunc, Count and Nearest
// overlay the buffered deltas on the tree results — the buffer wins
// per object and tombstones mask deleted objects — so an acknowledged
// write is immediately visible. A read does not copy the buffer: it
// takes a view of it (package memtable) that collects only the buffered
// objects it will report, from the buffer's grid cells that the window
// overlaps or, for Nearest, the rings of cells around the point that can
// still hold one of the k nearest. Per tree candidate the view decides
// whether a buffered delta supersedes it: one lock-free filter probe
// rules out most candidates, and a locked lookup settles the rest.
// Nearest pulls neighbours from the tree one at a time until k are in
// hand. What a read pays for the tier is the buffered positions in the
// cells its range touches, a probe per candidate and a lookup per
// buffered one, whatever the buffer's depth; it allocates for its
// results alone.
// Recovery replays the WAL tail into the buffer, so crash safety is
// exactly the write-ahead log's: everything the log retained is
// replayed, whether or not it was merged down before the crash.
type Memtable struct {
	// Enabled turns the tier on.
	Enabled bool
	// MaxObjects is the buffered-delta count that triggers a merge-down
	// (default 4096). ShardedIndex divides the budget across shards.
	MaxObjects int
}

// withDefaults normalizes the configuration; a disabled tier
// normalizes to the zero value.
func (m Memtable) withDefaults() Memtable {
	if !m.Enabled {
		return Memtable{}
	}
	if m.MaxObjects <= 0 {
		m.MaxObjects = 4096
	}
	return m
}

func (m Memtable) config() memtable.Config {
	return memtable.Config{MaxObjects: m.MaxObjects}
}

// MemtableStats reports the delta tier's counters (zero when the tier
// is disabled).
type MemtableStats struct {
	// Entries is the current number of buffered deltas.
	Entries int
	// Absorbed counts write operations absorbed by the tier.
	Absorbed int64
	// Merges counts completed merge-downs.
	Merges int64
	// Merged counts deltas merged down to the tree.
	Merged int64
	// MergePages counts physical page accesses incurred by merge-downs:
	// the background half of the tier's I/O, attributed separately so
	// foreground load accounting (ShardLoads, BatchResult.PageIO)
	// excludes deferred work.
	MergePages int64
}

func memStatsOf(t *memtable.Table) MemtableStats {
	if t == nil {
		return MemtableStats{}
	}
	s := t.Stats()
	return MemtableStats{Entries: s.Entries, Absorbed: s.Absorbed, Merges: s.Merges, Merged: s.Merged, MergePages: s.MergePages}
}

func (s MemtableStats) add(o MemtableStats) MemtableStats {
	return MemtableStats{
		Entries:    s.Entries + o.Entries,
		Absorbed:   s.Absorbed + o.Absorbed,
		Merges:     s.Merges + o.Merges,
		Merged:     s.Merged + o.Merged,
		MergePages: s.MergePages + o.MergePages,
	}
}

// validatePoint rejects coordinates the tree would reject on insertion.
// It runs at the validate stage of every write, tiered or not (index.write),
// before anything is reserved: the tier acknowledges writes before the
// tree sees them.
func validatePoint(p Point) error {
	if p.X != p.X || p.Y != p.Y {
		return fmt.Errorf("burtree: invalid position (%v, %v)", p.X, p.Y)
	}
	return nil
}

// drainEntries applies one drained generation to the tree: tombstones
// as bottom-up deletes, tree-resident moves through the batched
// group-apply pipeline, and never-inserted objects as inserts. The order
// matters only across categories: within one generation each id appears
// once.
func drainEntries(entries []memtable.Entry, tree treeOps) error {
	var moves []core.BatchChange
	for _, e := range entries {
		switch {
		case e.Tombstone:
			if err := tree.Delete(e.ID, e.Base); err != nil {
				return err
			}
		case e.InTree:
			moves = append(moves, core.BatchChange{OID: e.ID, Old: e.Base, New: e.Pos})
		}
	}
	if len(moves) > 0 {
		if _, err := tree.UpdateBatch(moves, func(core.BatchChange) {}); err != nil {
			return err
		}
	}
	for _, e := range entries {
		if !e.Tombstone && !e.InTree {
			if err := tree.Insert(e.ID, e.Pos); err != nil {
				return err
			}
		}
	}
	return nil
}

// merger is the background merge-down loop a background stack (a
// ConcurrentIndex's, or each shard's of a ShardedIndex) runs while its
// memtable is enabled.
type merger struct {
	trigger chan struct{}
	stop    chan struct{}
	done    sync.WaitGroup
	once    sync.Once
}

func newMerger() *merger {
	return &merger{trigger: make(chan struct{}, 1), stop: make(chan struct{})}
}

// kick requests a merge pass without blocking the writer.
func (m *merger) kick() {
	select {
	case m.trigger <- struct{}{}:
	default:
	}
}

// halt stops the loop and waits for an in-flight pass to finish.
// Idempotent.
func (m *merger) halt() {
	m.once.Do(func() {
		close(m.stop)
		m.done.Wait()
	})
}

// run executes drain() whenever kicked, until halted.
func (m *merger) run(need func() bool, drain func()) {
	defer m.done.Done()
	for {
		select {
		case <-m.stop:
			return
		case <-m.trigger:
		}
		if need() {
			drain()
		}
	}
}
