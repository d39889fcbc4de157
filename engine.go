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

// This file is the one mutation engine under the three front-ends.
// Index and ConcurrentIndex are an engine over a serial or a DGL-locked
// tree; ShardedIndex routes to N ConcurrentIndex shards and runs its own
// single-object writes through the same pipeline function (runStep) with
// a routed apply and a per-shard log.

// stepKind names the three single-object mutations.
type stepKind uint8

const (
	stepInsert stepKind = iota
	stepMove
	stepDelete
)

// step is one single-object mutation: an insert puts id at new, a move
// takes it from old to new, a delete removes it from old. The caller
// supplies kind, id and new; the pipeline fills old from the object
// table when it reserves the step.
type step struct {
	kind     stepKind
	id       uint64
	old, new Point
	// undo marks the inverse of a step whose log append failed, so a
	// target that meters its applies does not count the way back.
	undo bool
}

// inverse returns the step that takes the index back to where st found
// it: a delete of the inserted object, a move back, a re-insert of the
// deleted object at its old position.
func (st step) inverse() step {
	inv := step{kind: stepMove, id: st.id, old: st.new, new: st.old, undo: true}
	switch st.kind {
	case stepInsert:
		inv.kind = stepDelete
	case stepDelete:
		inv.kind = stepInsert
	}
	return inv
}

// stepTarget is where the pipeline applies and logs a step: an engine's
// own tree, delta tier and log, or ShardedIndex's routed shards and
// per-shard logs.
type stepTarget interface {
	// absorb hands st to the target's delta tier, if it runs one, and
	// reports whether it did. Called with the object table locked: the
	// table and the tier transition together, so racing writers to one
	// id absorb their deltas in the order the table accepted them.
	absorb(st step) bool
	// apply applies st to the tree(s); called without the table lock,
	// and only when absorb declined.
	apply(st step) error
	// logOf names the log st is recorded in (nil when durability is
	// off) and whether that log acknowledges at the append alone.
	logOf(st step) (log *wal.Log, async bool)
}

// objectTable is the id → position table every front-end keeps beside
// its tree(s), and the home of the single-object pipeline.
type objectTable struct {
	mu      sync.RWMutex
	objects map[uint64]Point
}

// put makes the table show st's outcome. Caller holds mu.
func (t *objectTable) put(st step) {
	if st.kind == stepDelete {
		delete(t.objects, st.id)
		return
	}
	t.objects[st.id] = st.new
}

// runStep is the single-object mutation pipeline, the only one in the
// package:
//
//	reserve  under the table lock: check the id (an insert needs it
//	         absent, a move or delete present), record st's outcome in
//	         the table so a racing writer of the same id sees it, and
//	         let the target's delta tier absorb st in the same hold
//	apply    without the table lock, unless absorbed: the tree
//	         operation, under whatever locks the target's tree takes
//	log      append st's record; the call acknowledges only after it
//	undo     on an apply or log failure: the inverse step goes through
//	         the same apply (after a log failure; a failed apply changed
//	         nothing), and the table — with the delta tier — is
//	         compare-and-restored
//
// so an error return leaves the tree, the tier and the table as the call
// found them, and recovery never disagrees with what the index serves. A
// failure of the undo itself is joined into the returned error.
func (t *objectTable) runStep(st step, tgt stepTarget) error {
	t.mu.Lock()
	old, ok := t.objects[st.id]
	if ok == (st.kind == stepInsert) {
		t.mu.Unlock()
		if ok {
			return fmt.Errorf("%w: %d", ErrDuplicateObject, st.id)
		}
		return fmt.Errorf("%w: %d", ErrUnknownObject, st.id)
	}
	st.old = old
	t.put(st)
	absorbed := tgt.absorb(st)
	t.mu.Unlock()
	if !absorbed {
		if err := tgt.apply(st); err != nil {
			t.restore(st, tgt, false)
			return err
		}
	}
	log, async := tgt.logOf(st)
	if err := logStep(log, async, st); err != nil {
		// Applied but not logged: the caller sees an error, so the change
		// must not stick — recovery would silently lose (or resurrect) an
		// object the index still serves.
		if !absorbed {
			err = errors.Join(err, tgt.apply(st.inverse()))
		}
		t.restore(st, tgt, absorbed)
		return err
	}
	return nil
}

// restore is the table half of an undo, a compare-and-restore: st's
// outcome is taken back only if the table still shows it. A concurrent
// writer of the same id may have superseded the entry between this
// call's failure and its rollback, and that writer's state must survive;
// an unconditional restore would diverge the table from the tree. With
// absorbed set the delta tier is unwound in the same hold, as it was
// absorbed.
func (t *objectTable) restore(st step, tgt stepTarget, absorbed bool) {
	t.mu.Lock()
	t.restoreLocked(st, tgt, absorbed)
	t.mu.Unlock()
}

// restoreLocked is restore for a caller that holds mu.
func (t *objectTable) restoreLocked(st step, tgt stepTarget, absorbed bool) {
	cur, ok := t.objects[st.id]
	if st.kind == stepDelete {
		if ok {
			return // re-created by a concurrent Insert
		}
	} else if !ok || cur != st.new {
		return
	}
	inv := st.inverse()
	t.put(inv)
	if absorbed {
		tgt.absorb(inv)
	}
}

// Len returns the number of indexed objects.
func (t *objectTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.objects)
}

// Location returns the last position accepted for the object. Under
// concurrent updates of the same id the value may be superseded by the
// time the caller uses it; callers that need stable read-modify-write
// semantics serialize their own per-object access.
func (t *objectTable) Location(id uint64) (Point, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p, ok := t.objects[id]
	return p, ok
}

// logAppend records an acknowledged mutation in log, blocking until it
// is durable under the configured sync policy (concurrent callers
// piggyback on shared fsyncs in group-commit mode). No-op when
// durability is off (log is nil).
func logAppend(log *wal.Log, async bool, typ wal.Type, ops []wal.Op) error {
	if log == nil || len(ops) == 0 {
		return nil
	}
	var err error
	if async {
		// Memtable mode acknowledges at the log append alone: the
		// background group-commit leader advances the durable horizon,
		// and Checkpoint/Save/Close flush hard. See Options.Memtable.
		_, err = log.AppendAsync(typ, ops)
	} else {
		_, err = log.Append(typ, ops)
	}
	if err != nil {
		return fmt.Errorf("burtree: durability: %w", err)
	}
	return nil
}

// logStep appends st's record. A move is logged as a one-change batch;
// replay re-routes it through the batched update path. The nil check
// comes before the record is built, so a volatile index allocates
// nothing here.
func logStep(log *wal.Log, async bool, st step) error {
	if log == nil {
		return nil
	}
	typ, op := wal.TypeBatch, wal.Op{ID: st.id, X: st.new.X, Y: st.new.Y}
	switch st.kind {
	case stepInsert:
		typ = wal.TypeInsert
	case stepDelete:
		typ, op = wal.TypeDelete, wal.Op{ID: st.id}
	}
	return logAppend(log, async, typ, []wal.Op{op})
}

// logBatch appends one record covering the applied changes of a batch.
func logBatch(log *wal.Log, async bool, applied []core.BatchChange) error {
	if log == nil || len(applied) == 0 {
		return nil
	}
	ops := make([]wal.Op, len(applied))
	for i, c := range applied {
		ops[i] = wal.Op{ID: c.OID, X: c.New.X, Y: c.New.Y}
	}
	return logAppend(log, async, wal.TypeBatch, ops)
}

// treeOps is what the engine needs of the tree under it. The two
// implementations hide the locking protocol: serialTree takes no locks
// (Index is single-writer), *concurrent.DB takes DGL granule locks and
// the physical latch per operation.
type treeOps interface {
	Insert(id uint64, p Point) error
	Update(id uint64, old, p Point) error
	Delete(id uint64, at Point) error
	// UpdateBatch applies coalesced changes through the batched bottom-up
	// pipeline, calling done for each applied change in application
	// order; on error done has run for exactly the applied prefix.
	UpdateBatch(changes []core.BatchChange, done func(core.BatchChange)) (core.BatchStats, error)
	Search(q Rect, visit func(uint64, Rect) bool) error
	Nearest(p Point, k int) ([]rtree.Neighbor, error)
	// Exclusive runs fn with every other operation locked out; View runs
	// it at a physically consistent point alongside readers.
	Exclusive(fn func(core.Updater) error) error
	View(fn func(core.Updater))
	Stats() concurrent.Stats
}

// serialTree is the lock-free treeOps of the single-writer Index.
type serialTree struct{ core.Updater }

func (s serialTree) UpdateBatch(changes []core.BatchChange, done func(core.BatchChange)) (core.BatchStats, error) {
	return core.ApplyBatch(s.Updater, changes, done)
}
func (s serialTree) Exclusive(fn func(core.Updater) error) error { return fn(s.Updater) }
func (s serialTree) View(fn func(core.Updater))                  { fn(s.Updater) }
func (s serialTree) Stats() concurrent.Stats                     { return concurrent.Stats{} }

// engine is one tree with everything a front-end keeps around it: page
// store, buffer pool and counters, the object table, the checkpoint
// gate, the write-ahead log and the memtable delta tier with its
// merge-down. Index and ConcurrentIndex embed it and differ only in the
// treeOps under it and in where merge-down runs.
type engine struct {
	store *pagestore.Store
	pool  *buffer.Pool
	io    *stats.IO
	tree  treeOps

	objectTable
	options Options // normalized copy, retained for persistence

	// ckpt is the durability gate: mutating operations hold it shared
	// across reserve → apply → log, Save and Checkpoint hold it
	// exclusively so the snapshot's embedded log sequence is consistent
	// with its contents (no operation is ever caught between applying and
	// logging). Uncontended outside checkpoints.
	ckpt sync.RWMutex
	// wal is the write-ahead log when durability is enabled (nil
	// otherwise); walSeq is the log sequence the loaded snapshot covers.
	wal    *wal.Log
	walSeq uint64

	// mem is the in-memory delta tier when Options.Memtable is enabled
	// (nil otherwise). With background set, merge is the goroutine
	// draining it (ConcurrentIndex and the shards of a ShardedIndex);
	// without, the single-writer Index merges down inline whenever a
	// write trips the size or age threshold. mergeMu serializes drains
	// (background, checkpoint-time and close-time), and is the outermost
	// of the drain's locks: a drain never takes ckpt, so checkpoints
	// (which hold ckpt exclusively and then drain) cannot deadlock
	// against the background merger.
	mem        *memtable.Table
	background bool
	mergeMu    sync.Mutex
	merge      *merger

	// bgPages counts physical page accesses incurred by merge-down
	// drains, so foreground cost attribution (the sharded front-end's
	// load metering and BatchResult.PageIO) can subtract deferred work
	// from the window deltas it measures around io.
	bgPages atomic.Uint64
}

// newEngine wraps the shared machinery in an engine: over a DGL-locked
// tree with background merge-down, or over a serial one merging inline.
func newEngine(parts indexParts, objects map[uint64]Point, background bool) *engine {
	e := &engine{
		store:       parts.store,
		pool:        parts.pool,
		io:          parts.io,
		objectTable: objectTable{objects: objects},
		options:     parts.opts,
		walSeq:      parts.walSeq,
		background:  background,
	}
	if background {
		e.tree = concurrent.New(parts.u, 32)
	} else {
		e.tree = serialTree{parts.u}
	}
	return e
}

// openEngine creates an empty engine from user options. With durability
// enabled the directory must not already hold a snapshot or log
// segments.
func openEngine(opts Options, background bool) (*engine, error) {
	if err := opts.Durability.validate(); err != nil {
		return nil, err
	}
	parts, err := openParts(opts)
	if err != nil {
		return nil, err
	}
	e := newEngine(parts, make(map[uint64]Point), background)
	e.ensureMemtable(parts.opts.Memtable)
	if d := opts.Durability; d.enabled() {
		if err := checkFreshDir(d.Dir); err != nil {
			return nil, err
		}
		log, err := wal.Open(d.Dir, d.logOptions(0, nil))
		if err != nil {
			return nil, err
		}
		e.wal = log
	}
	return e, nil
}

// pagesNow returns the cumulative physical page accesses (reads +
// writes) this engine has performed. Together with bgPages it lets
// callers bracket an operation and attribute the delta as that
// operation's foreground I/O. Under concurrency the delta can include
// pages from overlapping operations on the same engine; the attribution
// is per shard either way, so the rebalancer's share signal keeps its
// direction.
func (e *engine) pagesNow() uint64 {
	return uint64(e.io.Reads() + e.io.Writes())
}

// BulkInsert loads many objects at once into an empty index using the
// chosen packing method at ~66% node fill — far faster than repeated
// Insert calls and the usual way to start the paper's experiments. The
// whole index is locked exclusively for the duration: bulk loading
// rebuilds the tree from scratch, so no reader or writer may observe
// the intermediate state. With durability enabled, a successful bulk
// load checkpoints immediately: the snapshot, not per-object log
// records, is the durable form of a bulk load.
func (e *engine) BulkInsert(ids []uint64, pts []Point, method PackMethod) error {
	items, objects, err := packItems(ids, pts)
	if err != nil {
		return err
	}
	err = e.tree.Exclusive(func(u core.Updater) error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if len(e.objects) != 0 {
			return fmt.Errorf("burtree: BulkInsert on non-empty index")
		}
		if err := bulkLoad(u, items, method); err != nil {
			return err
		}
		e.objects = objects
		return nil
	})
	if err != nil || e.wal == nil {
		return err
	}
	return e.Checkpoint()
}

// Insert adds a new object at p.
func (e *engine) Insert(id uint64, p Point) error {
	return e.mutate(step{kind: stepInsert, id: id, new: p})
}

// Update moves an existing object to p using the configured strategy.
// The index tracks each object's current position, so callers only
// supply the new one. On a ConcurrentIndex, updates to different objects
// run in parallel when the strategy can resolve them locally; updates to
// the same object are last-writer-wins on the object table only, and
// callers that race them can see one fail against the other's tree
// state, so callers that need per-object ordering serialize their own
// access (disjoint id ranges per writer, or a striped lock, as the
// examples do).
func (e *engine) Update(id uint64, p Point) error {
	return e.mutate(step{kind: stepMove, id: id, new: p})
}

// Delete removes an object.
func (e *engine) Delete(id uint64) error {
	return e.mutate(step{kind: stepDelete, id: id})
}

// mutate runs one step through the pipeline under the checkpoint gate,
// then schedules the merge-down the write may have tripped.
func (e *engine) mutate(st step) error {
	e.ckpt.RLock()
	defer e.ckpt.RUnlock()
	if e.mem != nil && st.kind != stepDelete {
		if err := validatePoint(st.new); err != nil {
			return err
		}
	}
	if err := e.runStep(st, e); err != nil {
		return err
	}
	return e.afterAck()
}

// absorb implements stepTarget: with the delta tier on, every step is a
// delta (the inverse steps of an undo cancel or re-absorb theirs).
func (e *engine) absorb(st step) bool {
	if e.mem == nil {
		return false
	}
	switch st.kind {
	case stepInsert:
		e.mem.Insert(st.id, st.new)
	case stepMove:
		e.mem.Update(st.id, st.new, st.old)
	case stepDelete:
		e.mem.Delete(st.id, st.old)
	}
	return true
}

// apply implements stepTarget on the tree.
func (e *engine) apply(st step) error {
	switch st.kind {
	case stepInsert:
		return e.tree.Insert(st.id, st.new)
	case stepMove:
		return e.tree.Update(st.id, st.old, st.new)
	}
	return e.tree.Delete(st.id, st.old)
}

// logOf implements stepTarget: one log, acknowledging at the append
// alone while the delta tier is on.
func (e *engine) logOf(step) (*wal.Log, bool) { return e.wal, e.mem != nil }

// afterAck hands an acknowledged write's merge-down on when the write
// tripped the tier's size or age threshold: a kick to the background
// merger, which never blocks the writer, or — on the single-writer
// Index, which has no goroutine to hand the work to — an inline drain
// whose failure the write reports.
func (e *engine) afterAck() error {
	if e.mem == nil || !e.mem.NeedsMerge(time.Now()) {
		return nil
	}
	if e.merge != nil {
		e.merge.kick()
		return nil
	}
	return e.drainMemtable()
}

// coalesceChanges validates every id against the object table, then
// coalesces repeated moves of the same object to the final position
// through core.Coalesce (one shared definition of the last-write-wins
// rule). It returns the number of superseded input changes; an unknown
// id aborts with ErrUnknownObject. The caller holds the table's lock.
func coalesceChanges(changes []Change, objects map[uint64]Point) ([]core.BatchChange, int, error) {
	raw := make([]core.BatchChange, len(changes))
	for i, c := range changes {
		old, ok := objects[c.ID]
		if !ok {
			return nil, 0, fmt.Errorf("%w: %d", ErrUnknownObject, c.ID)
		}
		raw[i] = core.BatchChange{OID: c.ID, Old: old, New: c.To}
	}
	out, dropped := core.Coalesce(raw)
	return out, dropped, nil
}

// UpdateBatch moves many objects at once through the batched bottom-up
// pipeline: repeated moves of the same object are coalesced to the last
// position, the surviving changes are sorted into per-leaf runs with one
// hash probe each, and each run is applied in one bottom-up pass — one
// leaf read, one MBR extension decision covering the whole group, one
// write — falling back to the configured strategy's per-object path only
// for the changes the group pass cannot resolve. With the TopDown
// strategy (which has no per-leaf state to amortize) the batch degrades
// to a sequential application. On a ConcurrentIndex each run acquires
// its granule locks once — the union of the members' movement cells plus
// the run's leaf and parent page granules, derived from the leaf — and
// changes that need an ascent or a top-down pass are applied after the
// runs under exclusive access, at most 32 per exclusive section, so
// readers queued behind the batch get in between sections.
//
// Every id must already be in the index; an unknown id fails the whole
// batch before anything is applied. A batch is not atomic: concurrent
// readers may observe any subset of its changes applied (each change
// whole), and if a change fails mid-batch the changes applied before it
// — in leaf order, not the caller's — remain applied and are the ones
// logged and counted in BatchResult.Applied. Only a failed log append
// takes a batch back: the applied changes are undone and Applied is
// zero. Concurrent Update calls on ids that are also in the batch race
// with it (last writer wins); callers that need per-object ordering
// serialize their own access, as with Update.
//
// The stages are the pipeline's, batch-wide: coalesce against the table,
// apply to the tree or absorb into the delta tier, log the applied
// prefix as one record, and on a log failure undo that prefix.
func (e *engine) UpdateBatch(changes []Change) (BatchResult, error) {
	e.ckpt.RLock()
	defer e.ckpt.RUnlock()
	var res BatchResult
	absorbed := e.mem != nil
	var applied []core.BatchChange
	var err error
	if absorbed {
		applied, err = e.absorbBatch(changes, &res)
	} else {
		applied, err = e.applyBatch(changes, &res)
	}
	// One record covers the applied prefix — all of the batch on
	// success, exactly the changes before the failure otherwise.
	if werr := logBatch(e.wal, absorbed, applied); werr != nil {
		res.Applied, res.Absorbed = 0, 0
		return res, errors.Join(err, werr, e.undoBatch(applied, absorbed))
	}
	if err != nil {
		return res, err
	}
	return res, e.afterAck()
}

// applyBatch is the tree-path apply stage of UpdateBatch. It returns the
// applied changes when there is a log to record them in.
func (e *engine) applyBatch(changes []Change, res *BatchResult) ([]core.BatchChange, error) {
	e.mu.RLock()
	coalesced, dropped, err := coalesceChanges(changes, e.objects)
	e.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	res.Coalesced = dropped
	var applied []core.BatchChange
	prePages, preBG := e.pagesNow(), e.bgPages.Load()
	st, err := e.tree.UpdateBatch(coalesced, func(c core.BatchChange) {
		e.mu.Lock()
		e.objects[c.OID] = c.New
		e.mu.Unlock()
		res.Applied++
		if e.wal != nil {
			applied = append(applied, c)
		}
	})
	res.Groups = st.Groups
	res.GroupResolved = st.GroupResolved
	res.Fallback = st.LocalFallback + st.Sequential
	res.PageIO = foregroundPages(e.pagesNow()-prePages, e.bgPages.Load()-preBG)
	return applied, err
}

// absorbBatch is the memtable-mode apply stage of UpdateBatch: the batch
// is coalesced and absorbed into the delta tier atomically under the
// table lock — racing writers see either none or all of it at the ack
// level.
func (e *engine) absorbBatch(changes []Change, res *BatchResult) ([]core.BatchChange, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	coalesced, dropped, err := coalesceChanges(changes, e.objects)
	if err != nil {
		return nil, err
	}
	for _, c := range coalesced {
		if err := validatePoint(c.New); err != nil {
			return nil, err
		}
	}
	for _, c := range coalesced {
		e.objects[c.OID] = c.New
		e.mem.Update(c.OID, c.New, c.Old)
	}
	res.Coalesced = dropped
	res.Applied = len(coalesced)
	res.Absorbed = len(coalesced)
	return coalesced, nil
}

// undoBatch is the undo stage of UpdateBatch: the applied changes go
// back the way they came — inverted through the same batch apply, or
// re-absorbed at their old positions — with the table compare-and-
// restored per object, so concurrent writers that superseded an entry
// keep theirs and the failed batch acks nothing.
func (e *engine) undoBatch(applied []core.BatchChange, absorbed bool) error {
	if absorbed {
		e.mu.Lock()
		for _, c := range applied {
			e.restoreLocked(step{kind: stepMove, id: c.OID, old: c.Old, new: c.New}, e, true)
		}
		e.mu.Unlock()
		return nil
	}
	back := make([]core.BatchChange, len(applied))
	for i, c := range applied {
		back[i] = core.BatchChange{OID: c.OID, Old: c.New, New: c.Old}
	}
	_, err := e.tree.UpdateBatch(back, func(c core.BatchChange) {
		e.restore(step{kind: stepMove, id: c.OID, old: c.New, new: c.Old}, e, false)
	})
	return err
}

// foregroundPages converts a bracketed (pages, background-pages) delta
// pair into the foreground page count, clamped at zero: a background
// drain finishing inside the bracket can make the background delta
// exceed the foreground one.
func foregroundPages(pages, bg uint64) int {
	if bg >= pages {
		return 0
	}
	return int(pages - bg)
}

// Checkpoint makes the whole index state durable in one snapshot and
// truncates the log: the snapshot is written atomically to the
// durability directory (temp file, fsync, rename), embedding the log
// sequence it covers, and every log segment whose records the snapshot
// covers is deleted. The index is gated exclusively for the duration:
// no operation is caught between applying and logging, so the embedded
// sequence is exact. Requires durability to be enabled.
func (e *engine) Checkpoint() error {
	if e.wal == nil {
		return errors.New("burtree: Checkpoint requires durability to be enabled")
	}
	e.ckpt.Lock()
	defer e.ckpt.Unlock()
	if err := e.wal.Sync(); err != nil {
		return err
	}
	seq := e.wal.LastSeq()
	path := filepath.Join(e.options.Durability.Dir, snapshotFileName)
	if err := saveToFile(path, e.saveLocked); err != nil {
		return err
	}
	return e.wal.TruncateThrough(seq)
}

// Close stops the background merger (if one runs) and merges any
// buffered deltas down to the tree, then syncs and closes the
// write-ahead log (no-op without durability). The index itself stays
// usable for reads; further mutations fail their durable append. Close
// does not checkpoint: recovery replays the log onto the last snapshot.
func (e *engine) Close() error {
	if e.merge != nil {
		e.merge.halt()
	}
	err := e.drainMemtable()
	if e.wal != nil {
		err = errors.Join(err, e.wal.Close())
	}
	return err
}

// ensureMemtable installs the delta tier from cfg and, on a background
// engine, starts the merge-down loop; used at open and when recovery
// re-enables the tier on a loaded snapshot.
func (e *engine) ensureMemtable(cfg Memtable) {
	cfg = cfg.withDefaults()
	e.options.Memtable = cfg
	if !cfg.Enabled {
		return
	}
	if e.mem == nil {
		e.mem = memtable.New(cfg.config())
	}
	if e.background && e.merge == nil {
		e.merge = newMerger()
		e.merge.done.Add(1)
		go e.merge.run(cfg.MaxAge,
			func() bool { return e.mem.NeedsMerge(time.Now()) },
			func() { _ = e.drainMemtable() }) // failure is sticky; surfaces via CheckInvariants/Checkpoint
	}
}

// drainMemtable merges every buffered delta down to the tree — on a
// background engine split across Memtable.MergeParallelism concurrent
// group-apply chunks, sequentially on the single-writer Index.
// Serialized with other drains by mergeMu; a failure to apply an
// acknowledged delta is sticky — see memtable.Table.Fail. No-op when the
// tier is disabled.
func (e *engine) drainMemtable() error {
	if e.mem == nil {
		return nil
	}
	e.mergeMu.Lock()
	defer e.mergeMu.Unlock()
	entries := e.mem.BeginDrain()
	if entries == nil {
		return e.mem.Err()
	}
	parallelism := 1
	if e.background {
		parallelism = e.options.Memtable.MergeParallelism
	}
	// The drain's page accesses are background work: deferred I/O from
	// updates acknowledged in earlier windows. Attribute them to bgPages
	// (and the memtable's merge stats) so foreground cost metering can
	// subtract them — charging them to whichever foreground op happens to
	// overlap the drain would re-skew the balance the cost weighting
	// exists to fix. Attributed even on failure: the pages were spent.
	pre := e.pagesNow()
	err := drainEntries(entries, e.tree, parallelism)
	if d := e.pagesNow() - pre; d > 0 {
		e.bgPages.Add(d)
		e.mem.AddMergePages(d)
	}
	if err != nil {
		e.mem.Fail(err)
		return fmt.Errorf("burtree: memtable merge: %w", err)
	}
	e.mem.EndDrain()
	return nil
}

// Search returns the ids of all objects inside the window q. On a
// ConcurrentIndex the query runs under shared granule locks covering the
// window (phantom-protected at granule granularity).
func (e *engine) Search(q Rect) ([]uint64, error) {
	var out []uint64
	err := e.SearchFunc(q, func(id uint64, p Point) bool {
		out = append(out, id)
		return true
	})
	return out, err
}

// SearchFunc streams the objects inside q to visit; return false to stop
// early. With the delta tier enabled, buffered writes are merged into
// the results (read-your-writes; tombstones mask deleted objects). On a
// ConcurrentIndex the visit callback runs with the query's shared locks
// held: it must be fast and must not call back into the index, or
// updates to the locked region stall behind it.
func (e *engine) SearchFunc(q Rect, visit func(id uint64, p Point) bool) error {
	if e.mem != nil {
		// The overlay snapshot is taken before the tree scan: a merge
		// completing in between leaves its objects masked in the scan and
		// reported from the overlay, never missed (see overlaySearch). The
		// overlay portion of the results streams after the tree's shared
		// locks are released.
		if overlay := e.mem.Snapshot(); overlay != nil {
			return overlaySearch(overlay, q, func(emit func(uint64, Rect) bool) error {
				return e.tree.Search(q, emit)
			}, visit)
		}
	}
	return e.tree.Search(q, func(oid uint64, r Rect) bool {
		return visit(oid, Point{X: r.MinX, Y: r.MinY})
	})
}

// Count returns the number of objects inside q, under the same locks
// and with the same overlay as SearchFunc.
func (e *engine) Count(q Rect) (int, error) {
	n := 0
	err := e.SearchFunc(q, func(uint64, Point) bool { n++; return true })
	return n, err
}

// Nearest returns the k objects nearest to p in increasing distance. On
// a ConcurrentIndex the traversal's footprint cannot be declared up
// front, so the query holds the whole-tree granule shared: it runs in
// parallel with other reads but excludes updates for its duration.
func (e *engine) Nearest(p Point, k int) ([]Neighbor, error) {
	if e.mem != nil {
		if overlay := e.mem.Snapshot(); overlay != nil {
			return overlayNearest(overlay, p, k, func(k int) ([]rtree.Neighbor, error) {
				return e.tree.Nearest(p, k)
			})
		}
	}
	res, err := e.tree.Nearest(p, k)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(res))
	for i, n := range res {
		out[i] = Neighbor{ID: n.OID, Location: Point{X: n.Rect.MinX, Y: n.Rect.MinY}, Dist: n.Dist}
	}
	return out, nil
}

// stats fills the counter snapshot. It is taken at a physically
// consistent point (the shared latch, on a ConcurrentIndex), so the tree
// shape values are mutually consistent; the atomic I/O counters may
// include operations still in their lock-acquisition phase.
func (e *engine) stats() Stats {
	var st Stats
	e.tree.View(func(u core.Updater) {
		s := e.io.Snapshot()
		st = Stats{
			DiskReads:       s.Reads,
			DiskWrites:      s.Writes,
			BufferHits:      s.BufferHits,
			Splits:          s.Splits,
			Reinserts:       s.Reinserts,
			Evictions:       s.Evictions,
			DirtyWriteBacks: s.DirtyWriteBacks,
			PinFallbacks:    s.PinFallbacks,
			Height:          u.Tree().Height(),
			Pages:           e.store.NumPages(),
			Size:            u.Tree().Size(),
			Outcomes:        u.Outcomes(),
			Memtable:        memStatsOf(e.mem),
		}
	})
	return st
}

// ResetStats zeroes the physical counters (tree shape is unaffected).
// Operations in flight keep counting after the reset point.
func (e *engine) ResetStats() { e.io.Reset() }

// Flush writes all buffered dirty pages to the simulated disk, with the
// index locked exclusively so no update is mid-way through a multi-page
// change when the pages go out.
func (e *engine) Flush() error {
	return e.tree.Exclusive(func(core.Updater) error { return e.pool.Flush() })
}

// CheckInvariants validates the complete index structure; it is meant
// for tests and costs a full tree walk. On a ConcurrentIndex it holds
// the shared latch for the walk, so concurrent readers keep running (the
// closing check for leaked page pins takes the exclusive latch for a
// moment), but callers must still ensure no updates are in flight: the
// tree/object-table size comparison is only meaningful at a quiescent
// point.
func (e *engine) CheckInvariants() error {
	// Holding mergeMu excludes drains for the duration, so the delta
	// overlay and the tree are compared at a point where no generation
	// is half-applied.
	if e.mem != nil {
		e.mergeMu.Lock()
		defer e.mergeMu.Unlock()
	}
	var err error
	e.tree.View(func(u core.Updater) {
		if err = u.Err(); err != nil {
			return
		}
		if err = u.Tree().CheckInvariants(); err != nil {
			return
		}
		e.mu.RLock()
		defer e.mu.RUnlock()
		if e.mem != nil {
			err = checkMemOverlay(e.mem, e.objects, u.Tree().Size())
			return
		}
		if u.Tree().Size() != len(e.objects) {
			err = fmt.Errorf("burtree: tree size %d != tracked objects %d", u.Tree().Size(), len(e.objects))
		}
	})
	if err != nil {
		return err
	}
	// Every access pins one frame and releases it before it returns, so
	// with no operation in flight the pool holds none; a leaked pin would
	// keep its frame from ever being evicted. Readers still running under
	// the shared latch each hold a pin for the length of a page scan; the
	// exclusive latch waits them out, and any pin left after that is a
	// leak.
	return e.tree.Exclusive(func(core.Updater) error {
		if n := e.pool.Pinned(); n != 0 {
			return fmt.Errorf("burtree: %d buffer frames still pinned with no operation in flight", n)
		}
		return nil
	})
}
