package burtree

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"burtree/internal/atomicfile"
	"burtree/internal/core"
	"burtree/internal/shard"
	"burtree/internal/stats"
	"burtree/internal/wal"
)

// This file is the upper half of an index, the part that exists once
// however many trees there are: the index type — object table, gate,
// router, tree stacks (treestack.go) and log handles — and the mutation
// pipeline that runs on it. Index, ConcurrentIndex and ShardedIndex are
// this one type, told at open what its stacks are. How a step or a batch
// is routed to them, and a read scattered over them, is in
// shardedindex.go.
//
// Lock order, outermost first: the gate, shared by every operation and
// exclusive for snapshots, bulk loads and boundary changes; the table's
// per-id stripe of a single-object write; a stack's mergeMu; the tree's
// own locks (DGL granules, then the latch); the table's mu; the delta
// tier's mutex. The table lock is therefore never held across a tree
// operation, and a tree operation's callback may take it. The tier's mutex
// is a leaf — no memtable.Table method calls out while holding it — taken
// under the table lock by an absorb and under the tree's shared locks by
// an overlay read's mask lookup (memtable.View.Masks), for a candidate
// the view's presence filter cannot rule out.

// stepKind names the three single-object mutations.
type stepKind uint8

const (
	stepInsert stepKind = iota
	stepMove
	stepDelete
)

// step is one single-object mutation: an insert puts id at new, a move
// takes it from old to new, a delete removes it from old. The caller
// supplies kind, id and new; the pipeline fills old from the object table
// when it reserves the step, and routes it: src is the stack the object
// leaves and dst the one that owns it afterwards — the same for an insert,
// a delete and a move that stays in its shard. The gate keeps the router
// still for as long as a step runs.
type step struct {
	kind     stepKind
	id       uint64
	old, new Point
	src, dst int
	// undo marks the inverse of a step whose log append failed, so the
	// load accounting does not count the way back.
	undo bool
}

// inverse returns the step that takes the index back to where st found
// it: a delete of the inserted object, a move back, a re-insert of the
// deleted object at its old position.
func (st step) inverse() step {
	inv := step{kind: stepMove, id: st.id, old: st.new, new: st.old, src: st.dst, dst: st.src, undo: true}
	switch st.kind {
	case stepInsert:
		inv.kind = stepDelete
	case stepDelete:
		inv.kind = stepInsert
	}
	return inv
}

// at is the position that decides which stack owns the object after st.
func (st step) at() Point {
	if st.kind == stepDelete {
		return st.old
	}
	return st.new
}

// objectTable is the id → position table an index keeps beside its
// tree(s): exactly one per index, whatever the number of stacks.
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

// kind names the front-end an index is opened, loaded or recovered as:
// what its stacks are. It decides no on-disk format: every kind writes the
// same snapshot and keeps one log directory per stack.
type kind uint8

const (
	kindIndex kind = iota
	kindConcurrent
	kindSharded
)

// background reports whether the stacks run DGL-locked trees with a
// background merger each (Index runs a serial tree and merges inline).
func (k kind) background() bool { return k != kindIndex }

// sharded reports the two things a ShardedIndex does differently: it
// keeps a load tracker, and it loads a snapshot of several stacks as
// they are where the one-stack kinds merge them.
func (k kind) sharded() bool { return k == kindSharded }

// recoverName is the exported function that recovers this kind.
func (k kind) recoverName() string {
	return [...]string{"Recover", "RecoverConcurrent", "RecoverSharded"}[k]
}

// index is an index: one object table, one gate and one router over
// N ≥ 1 tree stacks, with one write-ahead log per stack. The three
// exported front-ends embed it and add only the methods whose shapes
// differ (Stats) or that one of them alone offers (the rebalancer).
type index struct {
	objectTable

	kind    kind
	router  *shard.Router
	shards  []*treeStack
	options Options      // as passed at open (totals, not per stack)
	sopts   ShardOptions // normalized; one grid cell for the single-stack kinds

	// gate is the snapshot gate: operations hold it shared for their whole
	// duration — a write across reserve → apply → log — and Save,
	// Checkpoint, BulkInsert, Flush and a boundary change exclusively: they
	// never catch a write between applying and logging, so they see a
	// quiescent state and the sequence a snapshot embeds is exact. It also
	// guards the shards slice, the router and the fields that say so.
	gate sync.RWMutex

	// wals holds one write-ahead log per stack when durability is enabled
	// (nil otherwise): commit streams share no fsync, lock or buffer — only
	// the lsn counter, one atomic increment per record, which stitches the
	// streams into a single total order for recovery. walSeq is the
	// sequence the loaded snapshot covers.
	wals   []*wal.Log
	lsn    atomic.Uint64
	walSeq uint64

	// load accumulates per-stack operation counts and the per-cell update
	// histogram the rebalancer splits on; see ShardLoads. Only a
	// ShardedIndex keeps one — a one-stack index has nothing to balance and
	// nobody to read it — and the pipeline reaches it through recordStep,
	// recordBatch and readFrom (shardedindex.go), which ask.
	load *shard.LoadTracker
	// routerEpoch counts boundary changes (guarded by the gate, persisted
	// in the snapshot).
	routerEpoch uint64
	// ioLatency remembers the simulated per-page latency so stacks rebuilt
	// by a rebalance or a failed bulk load keep paying it.
	ioLatency atomic.Int64

	// rebalMu guards the rebalancer configuration and loop lifecycle
	// (rebalance.go; only a ShardedIndex ever starts the loop).
	rebalMu   sync.Mutex
	ropts     RebalanceOptions
	rebalCool int // qualifying windows left to skip (Cooldown hysteresis)
	rebalStop chan struct{}
	rebalWG   sync.WaitGroup
}

// single is the partitioning of Index and ConcurrentIndex: one grid cell.
var single = ShardOptions{Shards: 1}

// newIndex assembles an index around its router, options and object
// table; the caller installs the stacks (fresh or loaded).
func newIndex(k kind, router *shard.Router, opts Options, sopts ShardOptions, objects map[uint64]Point) *index {
	x := &index{
		objectTable: objectTable{objects: objects},
		kind:        k,
		router:      router,
		options:     opts,
		sopts:       sopts,
		ropts:       sopts.Rebalance.withDefaults(),
	}
	if k.sharded() {
		x.load = shard.NewLoadTracker(sopts.Shards)
	}
	return x
}

// open creates an empty index of kind k. The Options are totals for the
// whole index: the buffer pool, hash-index and memtable budgets are
// divided evenly among the stacks. With durability enabled the directory
// must not already hold a snapshot or log segments.
func open(opts Options, sopts ShardOptions, k kind) (*index, error) {
	d := opts.Durability
	if err := d.validate(); err != nil {
		return nil, err
	}
	if d.enabled() {
		if err := checkFreshDir(d.Dir); err != nil {
			return nil, err
		}
	}
	sopts = sopts.withDefaults()
	var router *shard.Router
	var err error
	switch sopts.Partition {
	case ShardHilbert:
		router, err = shard.NewHilbertUniform(sopts.Shards)
	default:
		router, err = shard.NewGrid(sopts.Shards)
	}
	if err != nil {
		return nil, fmt.Errorf("burtree: %w", err)
	}
	x := newIndex(k, router, opts, sopts, make(map[uint64]Point))
	if x.shards, err = x.openShards(); err != nil {
		return nil, err
	}
	if d.enabled() {
		if err := x.openLogs(d, 0); err != nil {
			// The stacks' mergers and the logs opened so far stop with it.
			return nil, errors.Join(err, x.Close())
		}
	}
	return x, nil
}

// openShards opens a fresh, empty stack per shard under the index's
// options. Every place that needs fresh stacks — open, a failed bulk
// load, a partition upgrade — comes through here, so every one of them
// keeps paying the simulated I/O latency SetIOLatency asked for, and
// keeps counting in the ledger of the stack it replaces: a shard slot's
// page counters belong to the slot and never restart under a caller.
func (x *index) openShards() ([]*treeStack, error) {
	per := stackOptions(x.options, x.sopts.Shards)
	shards := make([]*treeStack, x.sopts.Shards)
	for i := range shards {
		var io *stats.IO
		if i < len(x.shards) {
			io = x.shards[i].io
		}
		parts, err := openParts(per, io)
		if err != nil {
			return nil, err
		}
		parts.store.SetLatency(time.Duration(x.ioLatency.Load()))
		shards[i] = newStack(parts, x.kind.background())
		shards[i].ensureMemtable(per.Memtable)
	}
	return shards, nil
}

// logDir is where stack i's log segments live: in the stack's own
// directory beneath the durability directory, whatever the kind.
func logDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// openLogs opens one log per stack under d, continuing the shared
// sequence after startAfter. On failure x.wals holds the logs it did
// open, for Close.
func (x *index) openLogs(d Durability, startAfter uint64) error {
	x.lsn.Store(startAfter)
	x.wals = make([]*wal.Log, 0, len(x.shards))
	for i := range x.shards {
		// The shared counter hands out globally ordered record sequences.
		log, err := wal.Open(logDir(d.Dir, i), d.logOptions(startAfter, func() uint64 { return x.lsn.Add(1) }))
		if err != nil {
			return err
		}
		x.wals = append(x.wals, log)
	}
	return nil
}

// stageProbe, when a test installs one, is told each time a write enters
// the pipeline ("step") and each time a batch is coalesced ("coalesce");
// the tests that pin "once per write, once per batch" count the calls.
var stageProbe func(stage string)

// Insert adds a new object at p, in the stack that owns p.
func (x *index) Insert(id uint64, p Point) error {
	return x.runStep(step{kind: stepInsert, id: id, new: p})
}

// Update moves an existing object to p using the configured strategy.
// The index tracks each object's current position, so callers only
// supply the new one. On a ShardedIndex a move within one shard is that
// shard's bottom-up update; a move across shards becomes a delete in the
// source shard followed by an insert in the destination. Updates to
// different objects run in parallel when the strategy can resolve them
// locally (not on Index, which is single-writer). Racing Insert, Update
// and Delete calls on the same object run one after the other (runStep's
// per-id stripe), whichever stacks they touch, in an order the callers do
// not choose: the table, the tree(s) and the log agree on the last one. A
// caller that reads Location and then moves the object relative to it
// still serializes its own read-modify-write, and so does one that races
// an UpdateBatch against single writes of the batch's ids (disjoint id
// ranges per writer, or a striped lock, as the examples do).
func (x *index) Update(id uint64, p Point) error {
	return x.runStep(step{kind: stepMove, id: id, new: p})
}

// Delete removes an object from the stack that owns it.
func (x *index) Delete(id uint64) error {
	return x.runStep(step{kind: stepDelete, id: id})
}

// runStep is the single-object mutation pipeline, the only one in the
// package, run under the shared gate:
//
//	order    take the id's stripe, held to the end: steps on one object
//	         run one after the other, steps on different objects in
//	         parallel
//	reserve  check the new position; then, under the table lock: check
//	         the id (an insert needs it absent, a move or delete
//	         present), record st's outcome in the table so a racing
//	         writer of the same id sees it, route st, and on a tiered
//	         index absorb it in the same hold
//	apply    without the table lock, unless absorbed: the tree
//	         operation(s), under whatever locks the stacks' trees take
//	log      append st's record; the call acknowledges only after it
//	ack      account the step and hand on the merge-down it may have
//	         tripped
//	undo     on an apply or log failure: the inverse step goes through
//	         the same apply (after a log failure; a failed apply changed
//	         nothing), and the table — with the delta tier — is
//	         compare-and-restored
//
// so an error return leaves the tree(s), the tier(s) and the table as the
// call found them, and recovery never disagrees with what the index
// serves. A failure of the undo itself is joined into the returned error.
func (x *index) runStep(st step) error {
	if stageProbe != nil {
		stageProbe("step")
	}
	x.gate.RLock()
	defer x.gate.RUnlock()
	order := &x.ids[st.id%uint64(len(x.ids))]
	order.Lock()
	defer order.Unlock()
	tiered := x.tiered()
	if st.kind != stepDelete {
		// The check the tree performs on insertion runs here, before
		// anything is reserved: the tier acknowledges a write before the
		// tree sees it, and on the tree path a position the tree turns away
		// is one the undo could not compare against (NaN != NaN).
		if err := validatePoint(st.new); err != nil {
			return err
		}
	}
	x.mu.Lock()
	old, ok := x.objects[st.id]
	if ok == (st.kind == stepInsert) {
		x.mu.Unlock()
		if ok {
			return fmt.Errorf("%w: %d", ErrDuplicateObject, st.id)
		}
		return fmt.Errorf("%w: %d", ErrUnknownObject, st.id)
	}
	st.old = old
	x.put(st)
	var full fullStacks
	if tiered {
		x.route(&st)
		full = x.absorb(st)
	}
	x.mu.Unlock()
	if !tiered {
		x.route(&st) // outside the table lock, which every writer takes
		if err := x.apply(st); err != nil {
			x.restore(st, false)
			return err
		}
	}
	if err := logStep(x.logOf(st), tiered, st); err != nil {
		// Applied but not logged: the caller sees an error, so the change
		// must not stick — recovery would silently lose (or resurrect) an
		// object the index still serves.
		if !tiered {
			err = errors.Join(err, x.apply(st.inverse()))
		}
		x.restore(st, tiered)
		return err
	}
	if !tiered {
		return nil
	}
	return x.acked(st, full)
}

// restore is the table half of an undo, a compare-and-restore: st's
// outcome is taken back only if the table still shows it. A concurrent
// batch that moves the same id (batches do not take the id's stripe) may
// have superseded the entry between this call's failure and its rollback,
// and that writer's state must survive; an unconditional restore would
// diverge the table from the tree. With absorbed set the delta tier is
// unwound in the same hold, as it was absorbed.
func (x *index) restore(st step, absorbed bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	cur, ok := x.objects[st.id]
	if st.kind == stepDelete {
		if ok {
			return // re-created by a concurrent Insert
		}
	} else if !ok || cur != st.new {
		return
	}
	inv := st.inverse()
	x.put(inv)
	if absorbed {
		x.absorb(inv)
	}
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

// moveStep is a batch change as the routed step the undo and the tier
// handle it as.
func (x *index) moveStep(c core.BatchChange) step {
	st := step{kind: stepMove, id: c.OID, old: c.Old, new: c.New}
	x.route(&st)
	return st
}

// reserveBatch is the reserve stage of a batch: the changes are checked
// and coalesced against the table — an unknown id or an invalid position
// fails the batch here, before anything is applied — and on a tiered
// index also recorded in it and absorbed into the delta tier(s), all
// under one hold of the table lock — racing writers see either none or
// all of the batch at the ack level. (An untiered index's changes reach
// the table one by one, as the trees apply them.) It returns the
// coalesced changes and the number of input changes they superseded, and
// marks in b the stacks whose tier the batch brought to its size
// threshold.
func (x *index) reserveBatch(changes []Change, b *batchRun) ([]core.BatchChange, int, error) {
	if !x.tiered() {
		x.mu.RLock()
		defer x.mu.RUnlock()
		return coalesceChanges(changes, x.objects)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	coalesced, dropped, err := coalesceChanges(changes, x.objects)
	if err != nil {
		return nil, 0, err
	}
	for _, c := range coalesced {
		st := x.moveStep(c)
		x.put(st)
		full := x.absorb(st)
		b.work[st.src].full = b.work[st.src].full || full.src
		b.work[st.dst].full = b.work[st.dst].full || full.dst
	}
	return coalesced, dropped, nil
}

// undoBatch is the undo stage of a batch whose log append failed: every
// applied change goes back the way a single step does — its inverse
// through the routed apply, or re-absorbed at its old position on a
// tiered index — with the table compare-and-restored per object, so
// concurrent writers that superseded an entry keep theirs and the failed
// record acks nothing.
func (x *index) undoBatch(applied []core.BatchChange) error {
	tiered := x.tiered()
	var err error
	for _, c := range applied {
		st := x.moveStep(c)
		if !tiered {
			err = errors.Join(err, x.apply(st.inverse()))
		}
		x.restore(st, tiered)
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

// logBatch appends one record covering the changes of a batch that ended
// in stack s, in that stack's log.
func (x *index) logBatch(s int, async bool, applied []core.BatchChange) error {
	if len(applied) == 0 || x.wals == nil {
		return nil
	}
	ops := make([]wal.Op, len(applied))
	for i, c := range applied {
		ops[i] = wal.Op{ID: c.OID, X: c.New.X, Y: c.New.Y}
	}
	return logAppend(x.wals[s], async, wal.TypeBatch, ops)
}

// BulkInsert loads many objects at once into an empty index using the
// chosen packing method at ~66% node fill — far faster than repeated
// Insert calls and the usual way to start the paper's experiments. With
// the ShardHilbert partition the router is rebuilt first so the Hilbert
// ranges are balanced over the actual data; the objects are then routed
// and every stack bulk-loads its partition in parallel. The whole index
// is locked exclusively for the duration: bulk loading rebuilds the trees
// from scratch, so no reader or writer may observe the intermediate
// state. With durability enabled, a successful bulk load checkpoints
// immediately: the snapshot, not per-object log records, is the durable
// form of a bulk load — it also persists the router the Hilbert path just
// rebuilt, which recovery must route with.
func (x *index) BulkInsert(ids []uint64, pts []Point, method PackMethod) error {
	items, objects, err := packItems(ids, pts)
	if err != nil {
		return err
	}
	x.gate.Lock()
	defer x.gate.Unlock()
	if x.Len() != 0 {
		return fmt.Errorf("burtree: BulkInsert on non-empty index")
	}
	router := x.router
	if x.sopts.Partition == ShardHilbert {
		if router, err = shard.NewHilbertBalanced(len(x.shards), pts); err != nil {
			return fmt.Errorf("burtree: %w", err)
		}
	}
	if err := loadShards(x.shards, router, items, method); err != nil {
		// A stack failed mid-load while others succeeded. Replace every
		// stack with an empty one so the index returns to its pre-call
		// state and a corrected retry is possible.
		if fresh, rerr := x.openShards(); rerr == nil {
			_ = x.swapShardsLocked(fresh) // the load's error is the one to report
		}
		return err
	}
	x.router = router
	x.mu.Lock()
	x.objects = objects
	x.mu.Unlock()
	if x.wals != nil {
		return x.checkpointLocked()
	}
	return nil
}

// Checkpoint makes the whole index state durable in one snapshot and
// truncates every log: the snapshot is written atomically to the
// durability directory (temp file, fsync, rename), embedding the shared
// log sequence it covers, and every log segment whose records the
// snapshot covers is deleted. The whole index is gated exclusively for
// the duration: no operation is caught between applying and logging, so
// the snapshot is a globally quiescent point and the embedded sequence
// is exact. Requires durability to be enabled.
func (x *index) Checkpoint() error {
	x.gate.Lock()
	defer x.gate.Unlock()
	return x.checkpointLocked()
}

var errNoDurability = errors.New("burtree: Checkpoint requires durability to be enabled")

// checkpointLocked is Checkpoint with the gate already held: sync the
// logs, write the snapshot atomically with the sequence it covers — read
// after the sync, while the gate keeps every writer out — and truncate
// the logs through that sequence.
func (x *index) checkpointLocked() error {
	if x.wals == nil {
		return errNoDurability
	}
	for _, l := range x.wals {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	seq := x.lsn.Load()
	if err := atomicfile.Write(filepath.Join(x.options.Durability.Dir, snapshotFileName), x.saveLocked); err != nil {
		return err
	}
	for _, l := range x.wals {
		if err := l.TruncateThrough(seq); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the rebalancer loop (if one runs) and closes every stack
// (stopping its background merger and merging buffered deltas down to the
// tree), then syncs and closes every write-ahead log (no-op without
// durability). Reads keep working; further mutations fail their durable
// append. Close does not checkpoint: recovery replays the logs onto the
// last snapshot.
func (x *index) Close() error {
	x.stopRebalancer()
	var err error
	for _, s := range x.shards {
		err = errors.Join(err, s.close())
	}
	for _, l := range x.wals {
		err = errors.Join(err, l.Close())
	}
	return err
}

// CheckInvariants validates the complete index structure: every stack's
// tree, and the tree and delta tier against the index's one object table,
// entry by entry — every object lives in the stack its position routes
// to, and nowhere else. It is meant for tests and costs a full walk of
// every tree. Concurrent readers keep running (except on the
// single-writer Index), but callers must ensure no updates are in flight:
// the comparison with the object table is only meaningful at a quiescent
// point.
func (x *index) CheckInvariants() error {
	x.gate.RLock()
	defer x.gate.RUnlock()
	counts := x.shardCounts()
	for i, s := range x.shards {
		owns := func(p Point) bool { return x.router.ShardOf(p) == i }
		if err := s.checkInvariants(&x.objectTable, counts[i], owns); err != nil {
			if len(x.shards) > 1 {
				err = fmt.Errorf("shard %d: %w", i, err)
			}
			return err
		}
	}
	return nil
}

// ResetStats zeroes the physical counters of every stack, foreground and
// background pages together (tree shape is unaffected). Operations in
// flight keep counting after the reset point.
func (x *index) ResetStats() {
	x.gate.RLock()
	defer x.gate.RUnlock()
	for _, s := range x.shards {
		s.ResetStats()
	}
}

// Flush writes all buffered dirty pages of every stack to the simulated
// disk, with the whole index locked exclusively so no update is mid-way
// through a multi-page change when the pages go out.
func (x *index) Flush() error {
	x.gate.Lock()
	defer x.gate.Unlock()
	for _, s := range x.shards {
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// stats aggregates the physical counters and tree shape over the stacks
// (sums; Height is the maximum) and returns each stack's lock-layer
// counters beside them.
func (x *index) stats() (Stats, []ConcurrencyStats) {
	x.gate.RLock()
	defer x.gate.RUnlock()
	var agg Stats
	cs := make([]ConcurrencyStats, len(x.shards))
	for i, s := range x.shards {
		agg = agg.add(s.stats())
		cs[i] = s.tree.Stats()
	}
	return agg, cs
}

// setIOLatency simulates a per-page-access service time on every stack's
// store. Zero disables the simulation. The setting survives stack
// rebuilds.
func (x *index) setIOLatency(d time.Duration) {
	x.gate.RLock()
	defer x.gate.RUnlock()
	x.ioLatency.Store(int64(d))
	for _, s := range x.shards {
		s.store.SetLatency(d)
	}
}
