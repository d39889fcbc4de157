package burtree

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"burtree/internal/core"
	"burtree/internal/wal"
)

// This file is the upper half of an index, the part that exists once
// however many trees there are: the object table with the mutation
// pipeline that runs on it, the log helpers, and the engine — table,
// checkpoint gate, log and one tree stack (treestack.go) — that Index and
// ConcurrentIndex are. ShardedIndex is the same upper half over N stacks:
// it runs the same pipeline on its one table, as a target whose absorb,
// apply and log are routed by position.
//
// Lock order, outermost first: the gate (engine.ckpt, ShardedIndex.opMu),
// shared by writers and exclusive for snapshots; the table's per-id
// stripe of a single-object write; a stack's mergeMu; the tree's own
// locks (DGL granules, then the latch); the table's mu; the
// delta tier's mutex. The table lock is therefore never held across a
// tree operation (BulkInsert's load excepted, under the exclusive gate),
// and a tree operation's callback may take it. The tier's mutex is a
// leaf — no memtable.Table method calls out while holding it — taken
// under the table lock by an absorb and under the tree's shared locks by
// an overlay read's mask lookup (memtable.View.Masks), once per
// candidate.

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

// stepTarget is where the pipeline carries a step out and logs it: an
// engine's one stack and log, or ShardedIndex's routed stacks and
// per-shard logs.
type stepTarget interface {
	// tiered reports whether the target's stacks run a delta tier: steps
	// are then absorbed under the table lock, never applied, and the log
	// acknowledges at the append alone.
	tiered() bool
	// absorb hands st to the delta tier of the stack(s) it touches.
	// Called with the object table locked: the table and the tier
	// transition together, so racing writers to one id absorb their
	// deltas in the order the table accepted them.
	absorb(st step)
	// apply applies st to the tree(s); called without the table lock,
	// and only on an untiered target.
	apply(st step) error
	// logOf names the log st is recorded in (nil when durability is off).
	logOf(st step) *wal.Log
	// acked runs after st is logged: it hands on the merge-down the write
	// may have tripped. Its error does not take the write back.
	acked(st step) error
}

// objectTable is the id → position table an index keeps beside its
// tree(s) — exactly one per index, whatever the number of stacks — and
// the home of the mutation pipeline.
type objectTable struct {
	mu      sync.RWMutex
	objects map[uint64]Point
	// ids orders the single-object writes of one id: runStep holds the
	// id's stripe from reserve to ack or undo, so racing steps on one
	// object reach the tree(s) and the log in the order the table accepted
	// them — the table lock alone orders only the table. Taken inside the
	// gate and outside every other lock.
	ids [256]sync.Mutex
}

// put makes the table show st's outcome. Caller holds mu.
func (t *objectTable) put(st step) {
	if st.kind == stepDelete {
		delete(t.objects, st.id)
		return
	}
	t.objects[st.id] = st.new
}

// record makes the table show a move a batch has just applied to a
// tree: batches reach the table change by change, as they land.
func (t *objectTable) record(c core.BatchChange) {
	t.mu.Lock()
	t.objects[c.OID] = c.New
	t.mu.Unlock()
}

// stageProbe, when a test installs one, is told each time a write enters
// the pipeline ("step") and each time a batch is coalesced ("coalesce");
// the tests that pin "once per write, once per batch" count the calls.
var stageProbe func(stage string)

// runStep is the single-object mutation pipeline, the only one in the
// package:
//
//	order    take the id's stripe, held to the end: steps on one object
//	         run one after the other, steps on different objects in
//	         parallel
//	reserve  check the new position; then, under the table lock: check
//	         the id (an insert needs it absent, a move or delete
//	         present), record st's outcome in the table so a racing
//	         writer of the same id sees it, and let a tiered target
//	         absorb st in the same hold
//	apply    without the table lock, unless absorbed: the tree
//	         operation, under whatever locks the target's tree takes
//	log      append st's record; the call acknowledges only after it
//	ack      hand on the merge-down the write may have tripped
//	undo     on an apply or log failure: the inverse step goes through
//	         the same apply (after a log failure; a failed apply changed
//	         nothing), and the table — with the delta tier — is
//	         compare-and-restored
//
// so an error return leaves the tree, the tier and the table as the call
// found them, and recovery never disagrees with what the index serves. A
// failure of the undo itself is joined into the returned error.
func (t *objectTable) runStep(st step, tgt stepTarget) error {
	if stageProbe != nil {
		stageProbe("step")
	}
	order := &t.ids[st.id%uint64(len(t.ids))]
	order.Lock()
	defer order.Unlock()
	tiered := tgt.tiered()
	if st.kind != stepDelete {
		// The check the tree performs on insertion runs here, before
		// anything is reserved: the tier acknowledges a write before the
		// tree sees it, and on the tree path a position the tree turns away
		// is one the undo could not compare against (NaN != NaN).
		if err := validatePoint(st.new); err != nil {
			return err
		}
	}
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
	if tiered {
		tgt.absorb(st)
	}
	t.mu.Unlock()
	if !tiered {
		if err := tgt.apply(st); err != nil {
			t.restore(st, tgt, false)
			return err
		}
	}
	if err := logStep(tgt.logOf(st), tiered, st); err != nil {
		// Applied but not logged: the caller sees an error, so the change
		// must not stick — recovery would silently lose (or resurrect) an
		// object the index still serves.
		if !tiered {
			err = errors.Join(err, tgt.apply(st.inverse()))
		}
		t.restore(st, tgt, tiered)
		return err
	}
	return tgt.acked(st)
}

// restore is the table half of an undo, a compare-and-restore: st's
// outcome is taken back only if the table still shows it. A concurrent
// batch that moves the same id (batches do not take the id's stripe) may
// have superseded the entry between this call's failure and its rollback,
// and that writer's state must survive; an unconditional restore would
// diverge the table from the tree. With absorbed set the delta tier is
// unwound in the same hold, as it was absorbed.
func (t *objectTable) restore(st step, tgt stepTarget, absorbed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
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

// coalesceChanges validates every id against the object table, then
// coalesces repeated moves of the same object to the final position
// through core.Coalesce (one shared definition of the last-write-wins
// rule) and validates the positions that survive. It returns the number
// of superseded input changes; an unknown id aborts with
// ErrUnknownObject, an invalid position with validatePoint's error. The
// caller holds the table's lock.
func coalesceChanges(changes []Change, objects map[uint64]Point) ([]core.BatchChange, int, error) {
	if stageProbe != nil {
		stageProbe("coalesce")
	}
	raw := make([]core.BatchChange, len(changes))
	for i, c := range changes {
		old, ok := objects[c.ID]
		if !ok {
			return nil, 0, fmt.Errorf("%w: %d", ErrUnknownObject, c.ID)
		}
		raw[i] = core.BatchChange{OID: c.ID, Old: old, New: c.To}
	}
	out, dropped := core.Coalesce(raw)
	for _, c := range out {
		if err := validatePoint(c.New); err != nil {
			return nil, 0, err
		}
	}
	return out, dropped, nil
}

// reserveBatch is the reserve stage of a batch: the changes are checked
// and coalesced against the table — an unknown id or an invalid position
// fails the batch here, before anything is applied — and on a tiered
// target also recorded in it and absorbed into the delta tier(s), all
// under one hold of the table lock — racing writers see either none or
// all of the batch at the ack level. (An untiered target's changes reach
// the table one by one, as the tree applies them.) It returns the
// coalesced changes and the number of input changes they superseded.
func (t *objectTable) reserveBatch(changes []Change, tgt stepTarget) ([]core.BatchChange, int, error) {
	if !tgt.tiered() {
		t.mu.RLock()
		defer t.mu.RUnlock()
		return coalesceChanges(changes, t.objects)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	coalesced, dropped, err := coalesceChanges(changes, t.objects)
	if err != nil {
		return nil, 0, err
	}
	for _, c := range coalesced {
		st := step{kind: stepMove, id: c.OID, old: c.Old, new: c.New}
		t.put(st)
		tgt.absorb(st)
	}
	return coalesced, dropped, nil
}

// undoBatch is the undo stage of a batch whose log append failed: every
// applied change goes back the way a single step does — its inverse
// through the target's apply, or re-absorbed at its old position on a
// tiered target — with the table compare-and-restored per object, so
// concurrent writers that superseded an entry keep theirs and the failed
// record acks nothing.
func (t *objectTable) undoBatch(applied []core.BatchChange, tgt stepTarget) error {
	tiered := tgt.tiered()
	var err error
	for _, c := range applied {
		st := step{kind: stepMove, id: c.OID, old: c.Old, new: c.New}
		if !tiered {
			err = errors.Join(err, tgt.apply(st.inverse()))
		}
		t.restore(st, tgt, tiered)
	}
	return err
}

// logAppend records an acknowledged mutation in log, blocking until it
// is durable under the configured sync policy (concurrent callers
// piggyback on shared fsyncs in group-commit mode). Its two callers
// return first when durability is off (log is nil).
func logAppend(log *wal.Log, async bool, typ wal.Type, ops []wal.Op) error {
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

// logBatch appends one record covering the applied changes of a batch,
// or of one shard's group of it: the changes all end in one shard, so the
// log of the first is the log of all (logOf is the one place that asks
// whether there are logs).
func logBatch(tgt stepTarget, async bool, applied []core.BatchChange) error {
	if len(applied) == 0 {
		return nil
	}
	log := tgt.logOf(step{kind: stepMove, id: applied[0].OID, old: applied[0].Old, new: applied[0].New})
	if log == nil {
		return nil
	}
	ops := make([]wal.Op, len(applied))
	for i, c := range applied {
		ops[i] = wal.Op{ID: c.OID, X: c.New.X, Y: c.New.Y}
	}
	return logAppend(log, async, wal.TypeBatch, ops)
}

// engine is an index over one tree: the object table, the checkpoint
// gate and the write-ahead log above one tree stack. Index and
// ConcurrentIndex embed it and differ only in the treeOps under the
// stack and in where its merge-down runs. As the pipeline's target it is
// the stack itself (tiered, absorb and apply are the stack's) plus the
// one log.
type engine struct {
	treeStack
	objectTable

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
}

// newEngine wraps the shared machinery and an object table in an engine:
// over a DGL-locked tree with background merge-down, or over a serial one
// merging inline.
func newEngine(parts indexParts, objects map[uint64]Point, background bool) *engine {
	e := &engine{objectTable: objectTable{objects: objects}, walSeq: parts.walSeq}
	e.treeStack.init(parts, background)
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
	// The exclusive gate keeps out everything that waits for the table
	// under a tree lock — writers and snapshots; CheckInvariants is for
	// quiescent points — so here alone the table is held across a tree
	// operation: the empty-check, the load and the table swap are
	// invisible to readers.
	e.ckpt.Lock()
	e.mu.Lock()
	if len(e.objects) != 0 {
		err = fmt.Errorf("burtree: BulkInsert on non-empty index")
	} else if err = e.bulkLoad(items, method); err == nil {
		e.objects = objects
	}
	e.mu.Unlock()
	e.ckpt.Unlock()
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
// run in parallel when the strategy can resolve them locally. Racing
// Insert, Update and Delete calls on the same object run one after the
// other (runStep's per-id stripe), in an order the callers do not choose:
// the table, the tree and the log agree on the last one. A caller that
// reads Location and then moves the object relative to it still
// serializes its own read-modify-write, and so does one that races an
// UpdateBatch against single writes of the batch's ids (disjoint id
// ranges per writer, or a striped lock, as the examples do).
func (e *engine) Update(id uint64, p Point) error {
	return e.mutate(step{kind: stepMove, id: id, new: p})
}

// Delete removes an object.
func (e *engine) Delete(id uint64) error {
	return e.mutate(step{kind: stepDelete, id: id})
}

// mutate runs one step through the pipeline under the checkpoint gate.
func (e *engine) mutate(st step) error {
	e.ckpt.RLock()
	defer e.ckpt.RUnlock()
	return e.runStep(st, e)
}

// logOf implements stepTarget: one log.
func (e *engine) logOf(step) *wal.Log { return e.wal }

// acked implements stepTarget: the one stack's merge-down hand-off.
func (e *engine) acked(step) error { return e.afterAck() }

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
// zero. A batch does not take the per-id stripes single writes are
// ordered by: concurrent writes to ids that are also in the batch race
// with it, last writer wins on the object table only, and the tree may
// keep the other's position; callers keep such writers apart (disjoint id
// ranges per writer, as the experiment harness and examples do).
//
// The stages are the pipeline's, batch-wide: reserve (coalesce against
// the table, and absorb into the delta tier when there is one), apply to
// the tree unless absorbed, log the applied prefix as one record, and on
// a log failure undo that prefix.
func (e *engine) UpdateBatch(changes []Change) (BatchResult, error) {
	e.ckpt.RLock()
	defer e.ckpt.RUnlock()
	var res BatchResult
	tiered := e.tiered()
	coalesced, dropped, err := e.reserveBatch(changes, e)
	if err != nil {
		return res, err
	}
	res.Coalesced = dropped
	applied := coalesced
	if tiered {
		res.Applied, res.Absorbed = len(coalesced), len(coalesced)
	} else {
		applied, err = e.applyBatch(&e.objectTable, coalesced, e.wal != nil, &res)
	}
	// One record covers the applied prefix — all of the batch on
	// success, exactly the changes before the failure otherwise.
	if werr := logBatch(e, tiered, applied); werr != nil {
		res.Applied, res.Absorbed = 0, 0
		return res, errors.Join(err, werr, e.undoBatch(applied, e))
	}
	if err != nil {
		return res, err
	}
	return res, e.afterAck()
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
		return errNoDurability
	}
	e.ckpt.Lock()
	defer e.ckpt.Unlock()
	return checkpoint(e.options.Durability.Dir, []*wal.Log{e.wal}, e.wal.LastSeq, e.saveLocked)
}

var errNoDurability = errors.New("burtree: Checkpoint requires durability to be enabled")

// checkpoint is the body of Checkpoint on every front-end, under the
// caller's exclusive gate: sync the log(s), write the snapshot atomically
// with the sequence it covers — read after the sync, while the gate keeps
// every writer out — and truncate the log(s) through that sequence.
func checkpoint(dir string, logs []*wal.Log, lastSeq func() uint64, save func(io.Writer) error) error {
	for _, l := range logs {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	seq := lastSeq()
	if err := saveToFile(filepath.Join(dir, snapshotFileName), save); err != nil {
		return err
	}
	for _, l := range logs {
		if err := l.TruncateThrough(seq); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the background merger (if one runs) and merges any
// buffered deltas down to the tree, then syncs and closes the
// write-ahead log (no-op without durability). The index itself stays
// usable for reads; further mutations fail their durable append. Close
// does not checkpoint: recovery replays the log onto the last snapshot.
func (e *engine) Close() error {
	err := e.close()
	if e.wal != nil {
		err = errors.Join(err, e.wal.Close())
	}
	return err
}

// CheckInvariants validates the complete index structure — the tree, and
// the tree and delta tier against the object table, entry by entry; it is
// meant for tests and costs a full tree walk. On a ConcurrentIndex
// concurrent readers keep running, but callers must still ensure no
// updates are in flight: the comparison with the object table is only
// meaningful at a quiescent point.
func (e *engine) CheckInvariants() error {
	return e.checkInvariants(&e.objectTable, e.Len(), func(Point) bool { return true })
}
