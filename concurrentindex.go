package burtree

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"burtree/internal/buffer"
	"burtree/internal/concurrent"
	"burtree/internal/core"
	"burtree/internal/memtable"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/stats"
	"burtree/internal/wal"
)

// ConcurrentIndex is the multi-threaded variant of Index: operations are
// isolated with Dynamic-Granular-Locking-style granule locks (paper
// §3.2.2 and §5.4) so bottom-up updates in disjoint regions proceed in
// parallel while top-down work holds the whole tree. It offers the full
// Index API — updates, batched updates, window and nearest-neighbour
// queries, bulk loading and snapshots — and is safe for concurrent use
// by any number of goroutines.
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
	store *pagestore.Store
	pool  *buffer.Pool
	io    *stats.IO
	db    *concurrent.DB

	mu      sync.RWMutex
	objects map[uint64]Point
	options Options // normalized copy, retained for persistence

	// ckpt is the durability gate: mutating operations hold it shared
	// across apply + log append, Save and Checkpoint hold it exclusively
	// so the snapshot's embedded log sequence is consistent with its
	// contents (no operation is ever caught between applying and
	// logging). Uncontended outside checkpoints.
	ckpt   sync.RWMutex
	wal    *wal.Log
	walSeq uint64

	// mem is the in-memory delta tier when Options.Memtable is enabled
	// (nil otherwise); merge is the background merge-down loop draining
	// it. mergeMu serializes drains (background, checkpoint-time and
	// close-time), and is the outermost of the drain's locks: a drain
	// never takes ckpt, so checkpoints (which hold ckpt exclusively and
	// then drain) cannot deadlock against the background merger.
	mem     *memtable.Table
	mergeMu sync.Mutex
	merge   *merger

	// bgPages counts physical page accesses incurred by background
	// merge-down drains, so foreground cost attribution (the sharded
	// front-end's load metering and BatchResult.PageIO) can subtract
	// deferred work from the window deltas it measures around x.io.
	bgPages atomic.Uint64
}

// pagesNow returns the cumulative physical page accesses (reads +
// writes) this index has performed. Together with BackgroundPages it
// lets callers bracket an operation and attribute the delta as that
// operation's foreground I/O. Under concurrency the delta can include
// pages from overlapping operations on the same index; the attribution
// is per shard either way, so the rebalancer's share signal keeps its
// direction.
func (x *ConcurrentIndex) pagesNow() uint64 {
	return uint64(x.io.Reads() + x.io.Writes())
}

// BackgroundPages returns the cumulative physical page accesses
// incurred by background memtable merge-down drains.
func (x *ConcurrentIndex) BackgroundPages() uint64 { return x.bgPages.Load() }

// OpenConcurrent creates an empty concurrent index. With
// Options.Durability enabled, the durability directory must not
// already hold a snapshot or log segments — resume existing durable
// state with RecoverConcurrent instead.
func OpenConcurrent(opts Options) (*ConcurrentIndex, error) {
	if err := opts.Durability.validate(); err != nil {
		return nil, err
	}
	parts, err := openParts(opts)
	if err != nil {
		return nil, err
	}
	x := &ConcurrentIndex{
		store:   parts.store,
		pool:    parts.pool,
		io:      parts.io,
		db:      concurrent.New(parts.u, 32),
		objects: make(map[uint64]Point),
		options: parts.opts,
	}
	x.ensureMemtable(parts.opts.Memtable)
	if d := opts.Durability; d.enabled() {
		if err := checkFreshDir(d.Dir); err != nil {
			return nil, err
		}
		log, err := wal.Open(d.Dir, d.logOptions(0, nil))
		if err != nil {
			return nil, err
		}
		x.wal = log
	}
	return x, nil
}

// logAppend records an acknowledged mutation, blocking until durable
// under the configured sync policy (concurrent callers piggyback on
// shared fsyncs in group-commit mode). Caller holds ckpt shared.
func (x *ConcurrentIndex) logAppend(typ wal.Type, ops []wal.Op) error {
	if x.wal == nil || len(ops) == 0 {
		return nil
	}
	if x.mem != nil {
		// Memtable mode acknowledges at the log append alone: the
		// background group-commit leader advances the durable horizon,
		// and Checkpoint/Save/Close flush hard. See Options.Memtable.
		if _, err := x.wal.AppendAsync(typ, ops); err != nil {
			return fmt.Errorf("burtree: durability: %w", err)
		}
		return nil
	}
	if _, err := x.wal.Append(typ, ops); err != nil {
		return fmt.Errorf("burtree: durability: %w", err)
	}
	return nil
}

// SetIOLatency simulates a per-page-access service time, making
// throughput figures I/O-bound as on the paper's hardware. Zero disables
// the simulation.
func (x *ConcurrentIndex) SetIOLatency(d time.Duration) { x.store.SetLatency(d) }

// BulkInsert loads many objects at once into an empty index using the
// chosen packing method at ~66% node fill. The whole index is locked
// exclusively for the duration: bulk loading rebuilds the tree from
// scratch, so no reader or writer may observe the intermediate state.
func (x *ConcurrentIndex) BulkInsert(ids []uint64, pts []Point, method PackMethod) error {
	items, objects, err := packItems(ids, pts)
	if err != nil {
		return err
	}
	err = x.db.Exclusive(func(u core.Updater) error {
		x.mu.Lock()
		defer x.mu.Unlock()
		if len(x.objects) != 0 {
			return fmt.Errorf("burtree: BulkInsert on non-empty index")
		}
		if err := bulkLoad(u, items, method); err != nil {
			return err
		}
		x.objects = objects
		return nil
	})
	if err != nil {
		return err
	}
	// With durability on, the snapshot (not per-object log records) is
	// the durable form of a bulk load.
	if x.wal != nil {
		return x.Checkpoint()
	}
	return nil
}

// Checkpoint makes the whole index state durable in one snapshot and
// truncates the log, like Index.Checkpoint. The index is gated
// exclusively for the duration: no operation is caught between
// applying and logging, so the snapshot's embedded log sequence is
// exact.
func (x *ConcurrentIndex) Checkpoint() error {
	if x.wal == nil {
		return errors.New("burtree: Checkpoint requires durability to be enabled")
	}
	x.ckpt.Lock()
	defer x.ckpt.Unlock()
	if err := x.wal.Sync(); err != nil {
		return err
	}
	seq := x.wal.LastSeq()
	path := filepath.Join(x.options.Durability.Dir, snapshotFileName)
	if err := saveToFile(path, x.saveLocked); err != nil {
		return err
	}
	return x.wal.TruncateThrough(seq)
}

// Close stops the background merger and merges any buffered deltas
// down to the tree, then syncs and closes the write-ahead log (no-op
// without durability). Reads keep working; further mutations fail
// their durable append. Close does not checkpoint: recovery replays
// the log onto the last snapshot.
func (x *ConcurrentIndex) Close() error {
	if x.merge != nil {
		x.merge.halt()
	}
	derr := x.drainMemtable()
	if x.wal == nil {
		return derr
	}
	return errors.Join(derr, x.wal.Close())
}

// ensureMemtable installs the delta tier from cfg and starts the
// background merge-down loop; used at OpenConcurrent and when recovery
// re-enables the tier on a loaded snapshot.
func (x *ConcurrentIndex) ensureMemtable(cfg Memtable) {
	cfg = cfg.withDefaults()
	x.options.Memtable = cfg
	if !cfg.Enabled {
		return
	}
	if x.mem == nil {
		x.mem = memtable.New(cfg.config())
	}
	if x.merge == nil {
		x.merge = newMerger()
		x.merge.done.Add(1)
		go x.merge.run(cfg.MaxAge,
			func() bool { return x.mem.NeedsMerge(time.Now()) },
			func() { _ = x.drainMemtable() }) // failure is sticky; surfaces via CheckInvariants/Checkpoint
	}
}

// signalMerge hands the background merger a pass when a write tripped
// the tier's threshold. Never blocks the writer.
func (x *ConcurrentIndex) signalMerge() {
	if x.merge != nil && x.mem.NeedsMerge(time.Now()) {
		x.merge.kick()
	}
}

// drainMemtable merges every buffered delta down to the tree, splitting
// the moves across Memtable.MergeParallelism concurrent group-apply
// chunks. Serialized with other drains by mergeMu; a failure to apply
// an acknowledged delta is sticky — see memtable.Table.Fail. No-op when
// the tier is disabled.
func (x *ConcurrentIndex) drainMemtable() error {
	if x.mem == nil {
		return nil
	}
	x.mergeMu.Lock()
	defer x.mergeMu.Unlock()
	entries := x.mem.BeginDrain()
	if entries == nil {
		return x.mem.Err()
	}
	// The drain's page accesses are background work: deferred I/O from
	// updates acknowledged in earlier windows. Attribute them to bgPages
	// (and the memtable's merge stats) so foreground cost metering can
	// subtract them — charging them to whichever foreground op happens to
	// overlap the drain would re-skew the balance the cost weighting
	// exists to fix. Attributed even on failure: the pages were spent.
	pre := x.pagesNow()
	err := drainEntries(entries, x.db.Delete, x.db.Insert, func(chs []core.BatchChange) error {
		_, err := x.db.UpdateBatch(chs, func(core.BatchChange) {})
		return err
	}, x.options.Memtable.MergeParallelism)
	if d := x.pagesNow() - pre; d > 0 {
		x.bgPages.Add(d)
		x.mem.AddMergePages(d)
	}
	if err != nil {
		x.mem.Fail(err)
		return fmt.Errorf("burtree: memtable merge: %w", err)
	}
	x.mem.EndDrain()
	return nil
}

// Insert adds a new object at p.
func (x *ConcurrentIndex) Insert(id uint64, p Point) error {
	x.ckpt.RLock()
	defer x.ckpt.RUnlock()
	if x.mem != nil {
		if err := validatePoint(p); err != nil {
			return err
		}
		x.mu.Lock()
		if _, ok := x.objects[id]; ok {
			x.mu.Unlock()
			return fmt.Errorf("%w: %d", ErrDuplicateObject, id)
		}
		// The object table and the delta tier transition together under
		// the map lock, so racing writers to the same id absorb their
		// deltas in the same order the table accepts them.
		x.objects[id] = p
		x.mem.Insert(id, p)
		x.mu.Unlock()
		if err := x.logAppend(wal.TypeInsert, []wal.Op{{ID: id, X: p.X, Y: p.Y}}); err != nil {
			// Absorbed but not logged: cancel the absorbed insert — unless
			// a concurrent writer already superseded the entry, in which
			// case its state must survive.
			x.mu.Lock()
			if cur, ok := x.objects[id]; ok && cur == p {
				delete(x.objects, id)
				x.mem.Delete(id, p)
			}
			x.mu.Unlock()
			return err
		}
		x.signalMerge()
		return nil
	}
	x.mu.Lock()
	if _, ok := x.objects[id]; ok {
		x.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrDuplicateObject, id)
	}
	// Reserve the id before releasing the map lock so concurrent inserts
	// of the same id cannot race; roll back on failure.
	x.objects[id] = p
	x.mu.Unlock()
	if err := x.db.Insert(id, p); err != nil {
		// Compare-and-delete: remove the reservation only if the entry
		// still holds the value this call wrote — a concurrent writer may
		// have superseded it in the meantime, and its entry must survive.
		x.mu.Lock()
		if cur, ok := x.objects[id]; ok && cur == p {
			delete(x.objects, id)
		}
		x.mu.Unlock()
		return err
	}
	if err := x.logAppend(wal.TypeInsert, []wal.Op{{ID: id, X: p.X, Y: p.Y}}); err != nil {
		// Applied but not logged: roll the tree and table back
		// (compare-and-delete, as in the apply-error path above).
		err = errors.Join(err, x.db.Delete(id, p))
		x.mu.Lock()
		if cur, ok := x.objects[id]; ok && cur == p {
			delete(x.objects, id)
		}
		x.mu.Unlock()
		return err
	}
	return nil
}

// Update moves an existing object to p. Updates to different objects
// run in parallel when the strategy can resolve them locally. Updates
// to the same object are last-writer-wins on the object table only;
// callers that race same-object updates can see one fail against the
// other's tree state, so callers that need per-object ordering
// serialize their own access (disjoint id ranges per writer, or a
// striped lock, as the examples do).
func (x *ConcurrentIndex) Update(id uint64, p Point) error {
	x.ckpt.RLock()
	defer x.ckpt.RUnlock()
	if x.mem != nil {
		if err := validatePoint(p); err != nil {
			return err
		}
		x.mu.Lock()
		old, ok := x.objects[id]
		if !ok {
			x.mu.Unlock()
			return fmt.Errorf("%w: %d", ErrUnknownObject, id)
		}
		x.objects[id] = p
		x.mem.Update(id, p, old)
		x.mu.Unlock()
		if err := x.logAppend(wal.TypeBatch, []wal.Op{{ID: id, X: p.X, Y: p.Y}}); err != nil {
			// Absorbed but not logged: re-absorb the old position unless a
			// newer concurrent write superseded this one.
			x.mu.Lock()
			if cur, ok := x.objects[id]; ok && cur == p {
				x.objects[id] = old
				x.mem.Update(id, old, p)
			}
			x.mu.Unlock()
			return err
		}
		x.signalMerge()
		return nil
	}
	x.mu.Lock()
	old, ok := x.objects[id]
	if !ok {
		x.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	x.objects[id] = p
	x.mu.Unlock()
	if err := x.db.Update(id, old, p); err != nil {
		// Compare-and-restore: put the old position back only if the
		// entry still holds the value this call wrote. An unconditional
		// restore could clobber a newer concurrent write that succeeded
		// between our failure and the rollback, diverging the object
		// table from the tree.
		x.mu.Lock()
		if cur, ok := x.objects[id]; ok && cur == p {
			x.objects[id] = old
		}
		x.mu.Unlock()
		return err
	}
	if err := x.logAppend(wal.TypeBatch, []wal.Op{{ID: id, X: p.X, Y: p.Y}}); err != nil {
		// Applied but not logged: move the object back (compare-and-
		// restore, as in the apply-error path above).
		err = errors.Join(err, x.db.Update(id, p, old))
		x.mu.Lock()
		if cur, ok := x.objects[id]; ok && cur == p {
			x.objects[id] = old
		}
		x.mu.Unlock()
		return err
	}
	return nil
}

// UpdateBatch moves many objects at once through the batched bottom-up
// pipeline. Changes are coalesced to the last position per object and
// sorted into per-leaf runs with one hash probe each; each run acquires
// its granule locks once — the union of the members' movement cells plus
// the run's leaf and parent page granules, derived from the leaf — and
// is applied in one bottom-up pass under the shared latch, so a batch
// pays one lock acquisition and one leaf read/write per run instead of
// one per object. Changes that need an ascent or a top-down pass are
// applied after the runs under exclusive access, at most 32 per
// exclusive section, so readers queued behind the batch get in between
// sections.
//
// Every id must already be in the index; an unknown id fails the whole
// batch before anything is applied. A batch is not atomic: concurrent
// readers may observe any subset of its changes applied (each change
// whole), and on error the changes applied before the failure — in leaf
// order, not the caller's — remain applied and are the ones logged and
// counted in BatchResult.Applied. Concurrent Update calls on
// ids that are also in the batch race with it (last writer wins);
// callers that need per-object ordering serialize their own access, as
// with Update.
func (x *ConcurrentIndex) UpdateBatch(changes []Change) (BatchResult, error) {
	x.ckpt.RLock()
	defer x.ckpt.RUnlock()
	var res BatchResult
	if x.mem != nil {
		return x.absorbBatch(changes, res)
	}
	x.mu.RLock()
	coalesced, dropped, err := coalesceChanges(changes, func(id uint64) (Point, bool) {
		p, ok := x.objects[id]
		return p, ok
	})
	x.mu.RUnlock()
	if err != nil {
		return res, err
	}
	res.Coalesced = dropped
	var applied []wal.Op
	prePages, preBG := x.pagesNow(), x.bgPages.Load()
	st, err := x.db.UpdateBatch(coalesced, func(c core.BatchChange) {
		x.mu.Lock()
		x.objects[c.OID] = c.New
		x.mu.Unlock()
		res.Applied++
		if x.wal != nil {
			applied = append(applied, wal.Op{ID: c.OID, X: c.New.X, Y: c.New.Y})
		}
	})
	res.Groups = st.Groups
	res.GroupResolved = st.GroupResolved
	res.Fallback = st.LocalFallback + st.Sequential
	res.PageIO = foregroundPages(x.pagesNow()-prePages, x.bgPages.Load()-preBG)
	// One record covers exactly the applied changes — all of the batch
	// on success, those applied before the failure otherwise.
	if werr := x.logAppend(wal.TypeBatch, applied); werr != nil {
		return res, errors.Join(err, werr)
	}
	return res, err
}

// Delete removes an object.
func (x *ConcurrentIndex) Delete(id uint64) error {
	x.ckpt.RLock()
	defer x.ckpt.RUnlock()
	if x.mem != nil {
		x.mu.Lock()
		old, ok := x.objects[id]
		if !ok {
			x.mu.Unlock()
			return fmt.Errorf("%w: %d", ErrUnknownObject, id)
		}
		delete(x.objects, id)
		x.mem.Delete(id, old)
		x.mu.Unlock()
		if err := x.logAppend(wal.TypeDelete, []wal.Op{{ID: id}}); err != nil {
			// Absorbed but not logged: resurrect the object unless a
			// concurrent Insert re-created the id.
			x.mu.Lock()
			if _, ok := x.objects[id]; !ok {
				x.objects[id] = old
				x.mem.Insert(id, old)
			}
			x.mu.Unlock()
			return err
		}
		x.signalMerge()
		return nil
	}
	x.mu.Lock()
	old, ok := x.objects[id]
	if !ok {
		x.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	delete(x.objects, id)
	x.mu.Unlock()
	if err := x.db.Delete(id, old); err != nil {
		// Compare-and-restore: re-add the entry only if the id is still
		// absent — a concurrent Insert of the same id may have succeeded
		// after our removal, and its entry must survive.
		x.mu.Lock()
		if _, ok := x.objects[id]; !ok {
			x.objects[id] = old
		}
		x.mu.Unlock()
		return err
	}
	if err := x.logAppend(wal.TypeDelete, []wal.Op{{ID: id}}); err != nil {
		// Applied but not logged: resurrect the object in tree and table
		// (compare-and-restore, as in the apply-error path above).
		err = errors.Join(err, x.db.Insert(id, old))
		x.mu.Lock()
		if _, ok := x.objects[id]; !ok {
			x.objects[id] = old
		}
		x.mu.Unlock()
		return err
	}
	return nil
}

// absorbBatch is the memtable-mode tail of UpdateBatch: the batch is
// coalesced and absorbed into the delta tier atomically under the map
// lock — racing writers see either none or all of it at the ack level
// — then logged as one record. Caller holds ckpt shared.
func (x *ConcurrentIndex) absorbBatch(changes []Change, res BatchResult) (BatchResult, error) {
	x.mu.Lock()
	coalesced, dropped, err := coalesceChanges(changes, func(id uint64) (Point, bool) {
		p, ok := x.objects[id]
		return p, ok
	})
	if err == nil {
		for _, c := range coalesced {
			if err = validatePoint(c.New); err != nil {
				break
			}
		}
	}
	if err != nil {
		x.mu.Unlock()
		return res, err
	}
	applied := make([]wal.Op, 0, len(coalesced))
	for _, c := range coalesced {
		x.objects[c.OID] = c.New
		x.mem.Update(c.OID, c.New, c.Old)
		applied = append(applied, wal.Op{ID: c.OID, X: c.New.X, Y: c.New.Y})
	}
	x.mu.Unlock()
	res.Coalesced = dropped
	res.Applied = len(coalesced)
	res.Absorbed = len(coalesced)
	if err := x.logAppend(wal.TypeBatch, applied); err != nil {
		// Absorbed but not logged: unwind each delta (compare-and-restore
		// per object — concurrent writers that superseded an entry keep
		// theirs), so the failed batch acks nothing.
		x.mu.Lock()
		for _, c := range coalesced {
			if cur, ok := x.objects[c.OID]; ok && cur == c.New {
				x.objects[c.OID] = c.Old
				x.mem.Update(c.OID, c.Old, c.New)
			}
		}
		x.mu.Unlock()
		res.Applied = 0
		res.Absorbed = 0
		return res, err
	}
	x.signalMerge()
	return res, nil
}

// Search returns the ids of all objects inside the window q, under
// shared granule locks covering the window (phantom-protected at
// granule granularity).
func (x *ConcurrentIndex) Search(q Rect) ([]uint64, error) {
	var out []uint64
	err := x.SearchFunc(q, func(id uint64, p Point) bool {
		out = append(out, id)
		return true
	})
	return out, err
}

// SearchFunc streams the objects inside q to visit; return false to
// stop early. The visit callback runs with the query's shared locks
// held: it must be fast and must not call back into the index, or
// updates to the locked region stall behind it.
func (x *ConcurrentIndex) SearchFunc(q Rect, visit func(id uint64, p Point) bool) error {
	if x.mem != nil {
		// The overlay snapshot is taken before the tree scan: a merge
		// completing in between leaves its objects masked in the scan and
		// reported from the overlay, never missed (see overlaySearch). The
		// overlay portion of the results streams after the tree's shared
		// locks are released.
		if overlay := x.mem.Snapshot(); overlay != nil {
			return overlaySearch(overlay, q, func(emit func(uint64, Rect) bool) error {
				return x.db.Search(q, emit)
			}, visit)
		}
	}
	return x.db.Search(q, func(oid uint64, r Rect) bool {
		return visit(oid, Point{X: r.MinX, Y: r.MinY})
	})
}

// Count returns the number of objects inside q under shared granule
// locks (phantom-protected at granule granularity). With the delta
// tier enabled, buffered writes count through the overlay.
func (x *ConcurrentIndex) Count(q Rect) (int, error) {
	if x.mem != nil && x.mem.Len() > 0 {
		n := 0
		err := x.SearchFunc(q, func(uint64, Point) bool { n++; return true })
		return n, err
	}
	return x.db.Query(q)
}

// Nearest returns the k objects nearest to p in increasing distance.
// The traversal's footprint cannot be declared up front, so the query
// holds the whole-tree granule shared: it runs in parallel with other
// reads but excludes updates for its duration.
func (x *ConcurrentIndex) Nearest(p Point, k int) ([]Neighbor, error) {
	if x.mem != nil {
		if overlay := x.mem.Snapshot(); overlay != nil {
			return overlayNearest(overlay, p, k, func(k int) ([]rtree.Neighbor, error) {
				return x.db.Nearest(p, k)
			})
		}
	}
	res, err := x.db.Nearest(p, k)
	if err != nil {
		return nil, err
	}
	return neighborsFromTree(res), nil
}

// Len returns the number of indexed objects.
func (x *ConcurrentIndex) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.objects)
}

// Location returns the last position accepted for the object. Under
// concurrent updates of the same id the value may be superseded by the
// time the caller uses it; callers that need stable read-modify-write
// semantics serialize their own per-object access.
func (x *ConcurrentIndex) Location(id uint64) (Point, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	p, ok := x.objects[id]
	return p, ok
}

// ConcurrencyStats reports lock-layer behaviour.
type ConcurrencyStats = concurrent.Stats

// Stats returns physical counters, tree shape and lock-layer counters.
// The snapshot is taken under the shared physical latch, so the tree
// shape values are mutually consistent; the atomic I/O counters may
// include operations still in their lock-acquisition phase.
func (x *ConcurrentIndex) Stats() (Stats, ConcurrencyStats) {
	var st Stats
	x.db.View(func(u core.Updater) {
		st = ioStats(x.io.Snapshot())
		st.Height = u.Tree().Height()
		st.Pages = x.store.NumPages()
		st.Size = u.Tree().Size()
		st.Outcomes = u.Outcomes()
		st.Memtable = memStatsOf(x.mem)
	})
	return st, x.db.Stats()
}

// ResetStats zeroes the physical counters (tree shape is unaffected).
// Operations in flight keep counting after the reset point.
func (x *ConcurrentIndex) ResetStats() { x.io.Reset() }

// Flush writes all buffered dirty pages to the simulated disk, with the
// index locked exclusively so no update is mid-way through a multi-page
// change when the pages go out.
func (x *ConcurrentIndex) Flush() error {
	return x.db.Exclusive(func(core.Updater) error { return x.pool.Flush() })
}

// CheckInvariants validates the index. It holds the shared latch for the
// tree walk, so concurrent readers keep running (the closing check for
// leaked page pins takes the exclusive latch for a moment), but callers
// must still ensure no updates are in flight: the tree/object-table size
// comparison is only meaningful at a quiescent point.
func (x *ConcurrentIndex) CheckInvariants() error {
	// Holding mergeMu excludes drains for the duration, so the delta
	// overlay and the tree are compared at a point where no generation
	// is half-applied.
	if x.mem != nil {
		x.mergeMu.Lock()
		defer x.mergeMu.Unlock()
	}
	var err error
	x.db.View(func(u core.Updater) {
		if err = u.Err(); err != nil {
			return
		}
		if err = u.Tree().CheckInvariants(); err != nil {
			return
		}
		x.mu.RLock()
		defer x.mu.RUnlock()
		if x.mem != nil {
			err = checkMemOverlay(x.mem, x.objects, u.Tree().Size())
			return
		}
		if u.Tree().Size() != len(x.objects) {
			err = fmt.Errorf("burtree: tree size %d != tracked objects %d", u.Tree().Size(), len(x.objects))
		}
	})
	if err != nil {
		return err
	}
	// Readers still running under the shared latch each hold a pin for the
	// length of a page scan; the exclusive latch waits them out, and any
	// pin left after that is a leak.
	return x.db.Exclusive(func(core.Updater) error { return checkNoPins(x.pool) })
}
