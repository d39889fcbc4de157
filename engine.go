package burtree

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"burtree/internal/atomicfile"
	"burtree/internal/core"
	"burtree/internal/shard"
	"burtree/internal/stats"
	"burtree/internal/vfs"
	"burtree/internal/wal"
)

// This file is the upper half of an index, the part that exists once
// however many trees there are: the index type — object table, gate,
// router, tree stacks (treestack.go) and log handles — and the mutation
// pipeline that runs on it. Index, ConcurrentIndex and ShardedIndex are
// this one type, told at open what its stacks are. How a write is routed
// to them, and a read scattered over them, is in shardedindex.go.
//
// Lock order, outermost first: the gate, shared by every operation and
// exclusive for snapshots and bulk loads; the ordering stripes of a
// write's id set, in ascending order (table.go); a stack's mergeMu
// (CheckInvariants takes every stack's, in ascending order); the
// tree's own locks (DGL granules, then the latch); then two leaf locks,
// each held for one access and never while another lock is taken: a
// table stripe's record lock, and the delta tier's mutex. So no record
// lock is held across a tree operation, and a tree operation's callback —
// a placement its stack's view records, a change the pipeline records as
// it lands — may take one. The tier's mutex is taken by an absorb under
// the write's ordering stripes and under the tree's shared locks by an
// overlay read's mask lookup (memtable.View.Masks), for a candidate the
// view's presence filter cannot rule out; no memtable.Table method calls
// out while holding it.

// opKind names what a write does to each of its objects: Insert and
// Delete are writes of one change of their kind, UpdateBatch a write of
// moves and Update a write of one.
type opKind uint8

const (
	opMove opKind = iota
	opInsert
	opDelete
)

// inverse is the kind of the change that takes one of kind k back: a
// delete of the inserted object, a move back, a re-insert of the deleted
// object at its old position.
func (k opKind) inverse() opKind { return [...]opKind{opMove, opDelete, opInsert}[k] }

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
// differ (Stats) or that one of them alone offers (ShardLoads).
type index struct {
	objectTable

	kind    kind
	router  *shard.Router
	shards  []*treeStack
	options Options      // as passed at open (totals, not per stack)
	sopts   ShardOptions // normalized; one range for the single-stack kinds

	// gate is the snapshot gate: operations hold it shared for their whole
	// duration — a write across reserve → apply → log — and Save,
	// Checkpoint, BulkInsert and Flush exclusively: they never catch a
	// write between applying and logging, so they see a quiescent state
	// and the sequence a snapshot embeds is exact. It also guards the
	// shards slice, the router and the fields that say so.
	gate sync.RWMutex

	// wals holds one write-ahead log per stack when durability is enabled
	// (nil otherwise): commit streams share no fsync, lock or buffer — only
	// the lsn counter, one atomic increment per record, which stitches the
	// streams into a single total order for recovery. walSeq is the
	// sequence the loaded snapshot covers.
	wals   []*wal.Log
	lsn    atomic.Uint64
	walSeq uint64
	// fs is the file seam the logs and the snapshot writer run over:
	// vfs.OS, unless a test swaps in a fault-injecting one.
	fs vfs.FS

	// load accumulates per-stack operation counts; see ShardLoads. Only a
	// ShardedIndex keeps one — a one-stack index has nothing to balance and
	// nobody to read it — and the pipeline reaches it through recordBatch
	// and readFrom (shardedindex.go), which ask.
	load *shard.LoadTracker
	// ioLatency remembers the simulated per-page latency so stacks rebuilt
	// by a failed bulk load keep paying it.
	ioLatency atomic.Int64
}

// single is the partitioning of Index and ConcurrentIndex: one range.
var single = ShardOptions{Shards: 1}

// newIndex assembles an index around its router and options, with an
// empty object table sized by Options.ExpectedObjects; the caller fills
// the table and installs the stacks (fresh or loaded).
func newIndex(k kind, router *shard.Router, opts Options, sopts ShardOptions) *index {
	x := &index{
		kind:    k,
		router:  router,
		options: opts,
		sopts:   sopts,
		fs:      vfs.OS,
	}
	x.init(opts.ExpectedObjects)
	if k.sharded() {
		x.load = shard.NewLoadTracker(sopts.Shards)
	}
	return x
}

// open creates an empty index of kind k. The Options are totals for the
// whole index: the buffer pool and memtable budgets are divided evenly
// among the stacks, and the one object table is sized for
// ExpectedObjects. With durability enabled the directory
// must not already hold a snapshot or log segments.
func open(opts Options, sopts ShardOptions, k kind) (*index, error) {
	d := opts.Durability
	if err := d.validate(); err != nil {
		return nil, err
	}
	if err := sopts.check(); err != nil {
		return nil, err
	}
	if d.enabled() {
		if err := checkFreshDir(d.Dir); err != nil {
			return nil, err
		}
	}
	sopts = sopts.withDefaults()
	router, err := shard.NewHilbertUniform(sopts.Shards)
	if err != nil {
		return nil, fmt.Errorf("burtree: %w", err)
	}
	x := newIndex(k, router, opts, sopts)
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
// options. Both places that need fresh stacks — open and a failed bulk
// load — come through here, so the fresh stacks keep paying the
// simulated I/O latency SetIOLatency asked for, and keep counting in the
// ledger of the stack they replace: a shard slot's page counters belong
// to the slot and never restart under a caller.
func (x *index) openShards() ([]*treeStack, error) {
	per := stackOptions(x.options, x.sopts.Shards)
	shards := make([]*treeStack, x.sopts.Shards)
	for i := range shards {
		var io *stats.IO
		if i < len(x.shards) {
			io = x.shards[i].io
		}
		parts, err := openParts(per, io, x.view(i))
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
		log, err := wal.Open(logDir(d.Dir, i), d.logOptions(x.fs, startAfter, func() uint64 { return x.lsn.Add(1) }))
		if err != nil {
			return err
		}
		x.wals = append(x.wals, log)
	}
	return nil
}

// stageProbe, when a test installs one, is told each time a write enters
// the pipeline; the test that pins "once per write" counts the calls.
var stageProbe func(stage string)

// Insert adds a new object at p, in the stack that owns p.
func (x *index) Insert(id uint64, p Point) error { return x.writeOne(opInsert, id, p) }

// Update moves an existing object to p using the configured strategy.
// The index tracks each object's current position, so callers only
// supply the new one. On a ShardedIndex a move within one shard is that
// shard's bottom-up update; a move across shards becomes a delete in the
// source shard followed by an insert in the destination. Updates to
// different objects run in parallel when the strategy can resolve them
// locally (not on Index, which is single-writer). Racing writes of the
// same object — Insert, Update, Delete and UpdateBatch calls alike — run
// one after the other (each holds the stripes of its ids), whichever
// stacks they touch, in an order the callers do not choose: the table,
// the tree(s) and the log agree on the last one. A caller that reads
// Location and then moves the object relative to it still serializes its
// own read-modify-write.
func (x *index) Update(id uint64, p Point) error { return x.writeOne(opMove, id, p) }

// Delete removes an object from the stack that owns it.
func (x *index) Delete(id uint64) error { return x.writeOne(opDelete, id, Point{}) }

// UpdateBatch moves many objects at once through the batched bottom-up
// pipeline: repeated moves of the same object are coalesced to the last
// position — once, against the index's one object table — and the
// surviving changes are routed to the Hilbert range that owns each new
// position. Each stack sorts its in-shard moves into per-leaf runs with
// one leaf lookup each and applies each run in one bottom-up pass — one leaf read, one MBR
// extension decision covering the whole group, one write — falling back
// to the configured strategy's per-object path only for the changes the
// group pass cannot resolve; a stack handed a single move makes it through
// that per-object path directly. With the TopDown strategy (which has no
// per-leaf state to amortize) the batch degrades to a sequential
// application. On a DGL-locked tree each run acquires its granule locks
// once — the union of the members' movement cells plus the run's leaf and
// parent page granules, derived from the leaf — and changes that need an
// ascent or a top-down pass are applied after the runs under exclusive
// access, at most 32 per exclusive section, so readers queued behind the
// batch get in between sections.
//
// On a ShardedIndex the stacks work in parallel, each on its in-shard
// moves plus its share of the cross-shard moves as delete+insert pairs,
// in a deterministic order (departures sorted by id, then the batched
// moves, then arrivals sorted by id). All departures complete before any
// arrival starts, so no mover ever resides in two shards at once. With
// the memtable tier on nothing is applied: the batch is absorbed, each
// change into the tier(s) of the stacks it touches as the table accepts
// it. Either way the changes are logged as one record per
// stack they ended in.
//
// Every id must already be in the index and every position valid; an
// unknown id or an invalid position fails the whole batch before
// anything is applied. A batch is a write like any other: it holds the
// stripes of its ids from reserve to ack, so it runs one after the other
// with any write that shares a stripe (ids equal mod 256) — another
// batch included — and in parallel with the rest. A batch is not atomic:
// concurrent readers may observe any subset of its changes applied (each
// change whole), and if a change fails mid-batch the changes applied
// before it — in leaf order, not the caller's — remain applied and are
// the ones logged and counted in BatchResult.Applied. Only a failed log
// append takes work back: the changes that record would have covered —
// one stack's in-shard moves (its whole group, on the tiered path), or
// its arrivals — are undone and not counted.
func (x *index) UpdateBatch(changes []Change) (BatchResult, error) {
	return x.write(opMove, changes)
}

// writeOne is a write of one change: the pipeline's batch of one.
func (x *index) writeOne(k opKind, id uint64, p Point) error {
	_, err := x.write(k, []Change{{ID: id, To: p}})
	return err
}

// write is the mutation pipeline, the only one in the package: Insert,
// Update and Delete run it with one change of their kind, UpdateBatch
// with its moves. Under the shared gate:
//
//	validate  every new position is one the tree accepts
//	stripes   take the stripes of the write's id set in ascending order,
//	          held to the end: writes that share an id run one after the
//	          other, writes on different stripes in parallel
//	reserve   check each id in the table (an insert needs it absent, a
//	          move or delete present), read its old position, coalesce
//	          repeated moves; on a tiered index also record each outcome
//	          in the table and absorb it
//	route     split the changes by the stacks they leave and end in
//	apply     per stack, in parallel: the departures, then the stack's
//	          group — one change through the tree's per-object call for
//	          its kind, more through the batched bottom-up pass, none on a
//	          tiered index — then, after a barrier, the arrivals; the table
//	          learns each change as it lands
//	log       one record per stack and phase, in the log of the stack the
//	          changes ended in; the call acknowledges only after it
//	ack       account the write and hand on the merge-down it may have
//	          tripped
//	undo      on a failed append: the changes the record covered go back
//	          the way they came, and the table is restored
//
// so an error return leaves the tree(s), the tier(s) and the table as the
// call found them — except for the applied and logged prefix of a batch
// that failed part-way through a tree — and recovery never disagrees with
// what the index serves. A failure of the undo itself is joined into the
// returned error.
func (x *index) write(k opKind, changes []Change) (BatchResult, error) {
	if stageProbe != nil {
		stageProbe("write")
	}
	if k != opDelete {
		// The check the tree performs on insertion runs before anything is
		// reserved: the tier acknowledges a write before the tree sees it.
		for _, c := range changes {
			if err := validatePoint(c.To); err != nil {
				return BatchResult{}, err
			}
		}
	}
	x.gate.RLock()
	defer x.gate.RUnlock()
	held := x.lockIDs(changes)
	defer x.unlockIDs(held)
	b := batchRuns.Get().(*batchRun)
	b.prepare(x, k)
	defer b.release()
	if err := x.reserve(b, changes); err != nil {
		return BatchResult{}, err
	}
	if !b.tiered {
		x.scatter(b, false)
		x.scatter(b, true)
	} else if x.wals != nil {
		x.scatter(b, false) // an absorbed write has only its log records left
	}
	x.recordBatch(b)
	var err, ackErr error
	for _, s := range b.stacks {
		w := b.work[s]
		b.res.Applied += w.res.Applied
		b.res.Groups += w.res.Groups
		b.res.GroupResolved += w.res.GroupResolved
		b.res.Fallback += w.res.Fallback
		b.res.CrossShard += w.res.CrossShard
		b.res.PageIO += int(w.pages)
		if err == nil {
			err = w.err // the first stack's failure is the write's
		}
		// Only a tier the write filled hands a merge-down on; an inline
		// drain's failure is the write's to report.
		ackErr = errors.Join(ackErr, x.shards[s].afterAck(w.full.Load()))
	}
	if err == nil {
		err = ackErr
	}
	if b.tiered {
		b.res.Absorbed = b.res.Applied
	}
	return b.res, err
}

// reserve is the reserve and route stages of a write, under the write's
// ordering stripes: no other write can move one of its ids meanwhile.
// Each id is checked and its old position read into b.raw — an insert's
// Old set to its new position and a delete's New to its old one, so a
// change's New is always the position that decides its owner — and
// repeated moves of one object coalesce to the last through the run's
// core.Coalescer (one shared definition of the last-write-wins rule). Each
// surviving change is then routed (route). On a tiered index it is also
// recorded in the table and absorbed, change by change; an untiered
// index's changes reach the table one by one, as the trees apply them.
func (x *index) reserve(b *batchRun, changes []Change) error {
	for _, c := range changes {
		old, ok := x.Location(c.ID)
		switch {
		case ok && b.kind == opInsert:
			return fmt.Errorf("%w: %d", ErrDuplicateObject, c.ID)
		case !ok && b.kind != opInsert:
			return fmt.Errorf("%w: %d", ErrUnknownObject, c.ID)
		case b.kind == opInsert:
			old = c.To
		case b.kind == opDelete:
			c.To = old
		}
		b.raw = append(b.raw, core.BatchChange{OID: c.ID, Old: old, New: c.To})
	}
	coalesced := b.raw
	if len(coalesced) > 1 {
		coalesced, b.res.Coalesced = b.co.Coalesce(coalesced)
	}
	for _, c := range coalesced {
		if b.tiered {
			x.put(b.kind, c)
		}
		x.route(b, c)
	}
	// Each stack carries out its departures, and later its arrivals, in id
	// order (slices.SortFunc: unlike sort.Slice it allocates nothing).
	if len(b.cross) > 1 {
		slices.SortFunc(b.cross, func(a, c crossMove) int { return cmp.Compare(a.OID, c.OID) })
	}
	return nil
}

// undo is the undo stage, for the changes of b a record whose append
// failed would have covered: each goes back the way it came — on the tree
// path its inverse through the stack, or the two stacks, it touched; on a
// tiered index its inverse absorbed, cancelling or superseding its delta —
// and the table is restored. The write still holds its ids' stripes, so
// no other writer can have moved the entries on since.
func (x *index) undo(b *batchRun, applied []core.BatchChange) error {
	var err error
	ik := b.kind.inverse()
	for _, c := range applied {
		inv := core.BatchChange{OID: c.OID, Old: c.New, New: c.Old}
		src, dst := x.ends(inv)
		switch {
		case b.tiered:
		case src == dst:
			err = errors.Join(err, x.shards[src].apply(ik, inv))
		default:
			err = errors.Join(err, relocate(x.shards[src], x.shards[dst], inv.OID, inv.Old, inv.New))
		}
		x.put(ik, inv)
		if b.tiered {
			x.absorb(b, ik, inv, src, dst)
		}
	}
	return err
}

// logTypes is the record type a phase of each kind of write is logged as:
// moves as a batch record, which replay re-routes change by change,
// re-deriving a cross-shard delete+insert.
var logTypes = [...]wal.Type{opMove: wal.TypeBatch, opInsert: wal.TypeInsert, opDelete: wal.TypeDelete}

// logBatch appends one record covering the changes of kind k a phase
// applied (or absorbed) in stack s, in that stack's log, encoded in w's
// buffer, and blocks until it is durable under the configured sync policy
// (concurrent callers piggyback on shared fsyncs in group-commit mode).
// With async set — memtable mode — it acknowledges at the append alone:
// the background group-commit leader advances the durable horizon, and
// Checkpoint/Save/Close flush hard. See Options.Memtable.
func (x *index) logBatch(w *shardWork, s int, k opKind, async bool, applied []core.BatchChange) error {
	if len(applied) == 0 || x.wals == nil {
		return nil
	}
	w.ops = w.ops[:0]
	for _, c := range applied {
		op := wal.Op{ID: c.OID, X: c.New.X, Y: c.New.Y}
		if k == opDelete {
			op = wal.Op{ID: c.OID} // a delete record names the id alone
		}
		w.ops = append(w.ops, op)
	}
	appendOps := x.wals[s].Append
	if async {
		appendOps = x.wals[s].AppendAsync
	}
	if _, err := appendOps(logTypes[k], w.ops); err != nil {
		return fmt.Errorf("burtree: durability: %w", err)
	}
	return nil
}

// BulkInsert loads many objects at once into an empty index with STR
// packing at ~66% node fill — far faster than repeated Insert calls and
// the usual way to start the paper's experiments. method must be
// PackSTR: any other value is refused with an error before the index is
// locked or a stack touched. With more than one stack the router is
// rebuilt first so the Hilbert ranges are balanced over the actual
// data; the objects are then routed and every stack bulk-loads its
// partition in parallel. The whole index is locked exclusively for the
// duration: bulk loading rebuilds the trees from scratch, so no reader
// or writer may observe the intermediate state. With durability
// enabled, a successful bulk load checkpoints immediately: the
// snapshot, not per-object log records, is the durable form of a bulk
// load — it also persists the router the balanced cut just rebuilt,
// which recovery must route with.
func (x *index) BulkInsert(ids []uint64, pts []Point, method PackMethod) error {
	if method != PackSTR {
		return fmt.Errorf("burtree: BulkInsert: PackMethod %d: STR (PackSTR) is the only packer", int(method))
	}
	items, err := packItems(ids, pts)
	if err != nil {
		return err
	}
	x.gate.Lock()
	defer x.gate.Unlock()
	if x.Len() != 0 {
		return fmt.Errorf("burtree: BulkInsert on non-empty index")
	}
	router := x.router
	if len(x.shards) > 1 {
		if router, err = shard.NewHilbertBalanced(len(x.shards), pts); err != nil {
			return fmt.Errorf("burtree: %w", err)
		}
	}
	err = loadShards(x.shards, router, items)
	if err == nil {
		// The load's placements made the records; the positions go in
		// last, which is also where an id the input repeats shows.
		err = x.fill(ids, pts)
	}
	if err != nil {
		// A stack failed mid-load while others succeeded, or the input
		// repeats an id. Replace every stack with an empty one so the
		// index returns to its pre-call state and a corrected retry is
		// possible.
		if fresh, rerr := x.openShards(); rerr == nil {
			_ = x.swapShardsLocked(fresh) // the load's error is the one to report
		}
		x.init(x.options.ExpectedObjects)
		return err
	}
	x.router = router
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
	if err := atomicfile.WriteFS(x.fs, filepath.Join(x.options.Durability.Dir, snapshotFileName), x.saveLocked); err != nil {
		return err
	}
	for _, l := range x.wals {
		if err := l.TruncateThrough(seq); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every stack (stopping its background merger and merging
// buffered deltas down to the tree), then syncs and closes every write-ahead log (no-op without
// durability). Reads keep working; further mutations fail their durable
// append. Close does not checkpoint: recovery replays the logs onto the
// last snapshot.
func (x *index) Close() error {
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
	// Holding every stack's mergeMu, in ascending order, excludes drains
	// for the duration: each stack's delta overlay and tree are compared at
	// a point where no generation is half-applied, and no stack's drain
	// moves a placement of the table the other stacks are checked against.
	for _, s := range x.shards {
		if s.mem != nil {
			s.mergeMu.Lock()
			defer s.mergeMu.Unlock()
		}
	}
	counts := x.shardCounts()
	placed := x.options.Strategy != TopDown // TopDown keeps no placements
	for i, s := range x.shards {
		owns := func(p Point) bool { return x.router.ShardOf(p) == i }
		if err := s.checkInvariants(x.view(i), counts[i], owns, placed); err != nil {
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
