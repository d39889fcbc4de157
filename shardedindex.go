package burtree

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"burtree/internal/core"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/shard"
	"burtree/internal/wal"
)

// This file is how an index (engine.go) uses its stacks: the routing of a
// step and of a batch to the stacks they touch, the scatter of a read
// over the stacks its window meets, and what only a ShardedIndex offers.
// With one stack every route is to stack 0 and every scatter has one
// target.

// PartitionScheme selects how a ShardedIndex splits the data space.
type PartitionScheme int

const (
	// ShardGrid tiles the unit square into equal cells, one per shard
	// (the default; best on uniform data).
	ShardGrid PartitionScheme = iota
	// ShardHilbert splits a Hilbert linearization of the space into
	// contiguous ranges, balanced by object count at bulk-load time;
	// better on skewed data.
	ShardHilbert
)

func (p PartitionScheme) String() string {
	switch p {
	case ShardGrid:
		return "grid"
	case ShardHilbert:
		return "hilbert"
	default:
		return fmt.Sprintf("PartitionScheme(%d)", int(p))
	}
}

// ShardOptions configures the partitioning of a ShardedIndex.
type ShardOptions struct {
	// Shards is the number of partitions (default 4, max
	// shard.MaxShards). Each shard is a self-contained tree with its own
	// page store, buffer pool, hash index and lock manager.
	Shards int
	// Partition picks the space-splitting scheme.
	Partition PartitionScheme
	// Rebalance configures the online load-based rebalancer (off by
	// default); see RebalanceOptions.
	Rebalance RebalanceOptions
}

func (o ShardOptions) withDefaults() ShardOptions {
	if o.Shards == 0 {
		o.Shards = 4
	}
	return o
}

// ShardedIndex partitions the data space across N self-contained tree
// stacks — each the DGL-locked tree, buffer pool, page store and delta
// tier a ConcurrentIndex runs on — so that updates in different regions
// contend on no tree-level lock at all, not even a shared buffer-pool
// latch or lock-manager mutex. It is the index ConcurrentIndex is, opened
// over N stacks instead of one: what a shard adds is a router entry, a
// log directory and a stack, and what an index has once — the object
// table, the gate — it has once here too. It offers the familiar
// front-end API: updates, batched updates, window and nearest-neighbour
// queries, bulk loading and snapshots, and is safe for concurrent use by
// any number of goroutines.
//
//   - Writes route by target cell: an object lives in the shard owning
//     its current position. A move within one shard is that shard's
//     bottom-up update; a move across shards becomes a delete in the
//     source and an insert in the destination.
//   - Search and Count scatter to the shards overlapping the window and
//     gather the results; each object is owned by exactly one shard, so
//     the union is exact and duplicate-free.
//   - Nearest runs best-first over the shards ordered by the MinDist of
//     each shard's responsibility region, stopping as soon as the next
//     region lies farther than the current k-th neighbour.
//
// Consistency is per shard: a query observes each shard it touches at a
// consistent point (DGL granule locks, as ConcurrentIndex), but a
// scatter is not one global snapshot — a reader racing a cross-shard
// move can miss the mover (read after its delete, before its insert).
// The dual anomaly, observing the mover twice when shard visits
// straddle the move, is absorbed by the gather: Search, SearchFunc,
// Count and Nearest de-duplicate by id, so a racing reader sees each
// object at most once. Readers that need a globally consistent view
// quiesce writers first, as Save does.
type ShardedIndex struct {
	*index
}

// OpenSharded creates an empty sharded index. The Options are totals for
// the whole index: the buffer pool and hash-index budgets are divided
// evenly among the shards, so comparing shard counts compares equal
// hardware.
func OpenSharded(opts Options, sopts ShardOptions) (*ShardedIndex, error) {
	x, err := front[ShardedIndex](open(opts, sopts, kindSharded))
	if err != nil {
		return nil, err
	}
	x.SetRebalance(sopts.Rebalance)
	return x, nil
}

// NumShards returns the shard count.
func (x *ShardedIndex) NumShards() int {
	x.gate.RLock()
	defer x.gate.RUnlock()
	return len(x.shards)
}

// Partition returns the partitioning scheme in use. A grid partition
// reports ShardHilbert after its first rebalance upgraded it to Hilbert
// ranges.
func (x *ShardedIndex) Partition() PartitionScheme {
	x.gate.RLock()
	defer x.gate.RUnlock()
	return x.sopts.Partition
}

// ShardLens returns the number of objects per shard (diagnostics and
// balance monitoring).
func (x *ShardedIndex) ShardLens() []int {
	x.gate.RLock()
	defer x.gate.RUnlock()
	return x.shardCounts()
}

// SetIOLatency simulates a per-page-access service time on every shard's
// store. Zero disables the simulation. The setting survives rebalances:
// shards rebuilt by a partition upgrade inherit it.
func (x *ShardedIndex) SetIOLatency(d time.Duration) { x.setIOLatency(d) }

// Stats returns the aggregated physical counters and tree shape (sums
// over the shards; Height is the maximum shard height) plus each shard's
// lock-layer counters.
func (x *ShardedIndex) Stats() (Stats, []ConcurrencyStats) { return x.stats() }

// fgPages reads every shard slot's ledger: its exact cumulative
// foreground page count — pages read plus written, less the merge-down's.
// A slot's ledger outlives its stacks (openShards), so the sequence is
// monotone across rebuilds. This is the page stream LoadTracker.SampleAt
// consumes.
func (x *index) fgPages() []uint64 {
	x.gate.RLock()
	defer x.gate.RUnlock()
	return x.fgPagesLocked()
}

// fgPagesLocked is fgPages for callers already holding the gate (shared
// or exclusive).
func (x *index) fgPagesLocked() []uint64 {
	out := make([]uint64, len(x.shards))
	for s, sh := range x.shards {
		out[s] = uint64(sh.io.Foreground())
	}
	return out
}

// addCellCount accumulates one cell's op count in a small slice keyed
// by linear scan: batches concentrate on few distinct cells (that is
// what makes batching pay), so the scan beats a map and allocates only
// on new cells.
func addCellCount(cells []shard.CellCount, cell uint64, n int) []shard.CellCount {
	for i := range cells {
		if cells[i].Cell == cell {
			cells[i].N += n
			return cells
		}
	}
	return append(cells, shard.CellCount{Cell: cell, N: n})
}

// stackOptions are the options each of n stacks runs under, given the
// index-wide opts: the zero-value defaults filled in, and the buffer pool,
// hash-index and memtable budgets divided evenly, each share floored to
// stay usable (one stack keeps the whole budget). Fresh stacks
// (openShards) and loaded ones (load) both derive theirs here, so a
// snapshot carries the options once. The delta tier is per stack — each
// absorbs and merges its own deltas — which keeps merge-down traffic as
// parallel as the write traffic. Durability passes through untouched: the
// logs are the index's.
func stackOptions(opts Options, n int) Options {
	per := opts
	per.PageSize = cmp.Or(per.PageSize, pagestore.DefaultPageSize)
	per.ExpectedObjects = cmp.Or(per.ExpectedObjects, 1024)
	per.Memtable = per.Memtable.withDefaults()
	if n == 1 {
		return per
	}
	if per.Memtable.Enabled {
		per.Memtable.MaxObjects = max(per.Memtable.MaxObjects/n, 16)
	}
	per.ExpectedObjects = max(per.ExpectedObjects/n, 64)
	if per.BufferPages > 0 {
		per.BufferPages = max(per.BufferPages/n, 1)
	}
	return per
}

// swapShardsLocked installs fresh stacks (from openShards, so each counts
// on in the ledger of the stack it replaces) in place of the current ones,
// and closes the replaced stacks so their background mergers do not leak.
// Caller holds the gate exclusively.
func (x *index) swapShardsLocked(fresh []*treeStack) error {
	old := x.shards
	x.shards = fresh
	var err error
	for _, sh := range old {
		err = errors.Join(err, sh.close())
	}
	return err
}

// loadShards is the one bulk loader: it routes items to the stacks and
// bulk-loads every stack's share in parallel. The caller has validated
// the items (packItems), so a failure here is not the input's.
func loadShards(stacks []*treeStack, router *shard.Router, items []rtree.Item, method PackMethod) error {
	per := make([][]rtree.Item, len(stacks))
	for s := range per {
		// An even share plus slack fits a balanced partition without regrowth.
		per[s] = make([]rtree.Item, 0, len(items)/len(stacks)+len(items)/16)
	}
	for _, it := range items {
		s := router.ShardOf(Point{X: it.Rect.MinX, Y: it.Rect.MinY})
		per[s] = append(per[s], it)
	}
	errs := make([]error, len(stacks))
	var wg sync.WaitGroup
	for s := range stacks {
		if len(per[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = stacks[s].bulkLoad(per[s], method)
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// shardCounts returns the number of objects per stack. No stack counts
// its own objects — the table is the only place that knows them — so the
// figure is one routing pass over the table. Caller holds the gate.
func (x *index) shardCounts() []int {
	out := make([]int, len(x.shards))
	x.mu.RLock()
	defer x.mu.RUnlock()
	for _, p := range x.objects {
		out[x.router.ShardOf(p)]++
	}
	return out
}

// route fills in the stack st takes the object from and the one that
// owns it afterwards; st.old must be known.
func (x *index) route(st *step) {
	st.dst = x.router.ShardOf(st.at())
	st.src = st.dst
	if st.kind == stepMove {
		st.src = x.router.ShardOf(st.old)
	}
}

// tiered reports whether writes are absorbed, never applied, and the log
// acknowledges at the append alone: the stacks run a delta tier each, or
// none does.
func (x *index) tiered() bool { return x.shards[0].tiered() }

// fullStacks is what the tiers told the absorb of one step — the source
// or the destination stack's tier stands at its size threshold — carried
// from the absorb, under the table lock, to the ack.
type fullStacks struct{ src, dst bool }

// absorb hands st to the delta tier of the stack(s) it touches. Called
// with the object table locked: the table and the tiers transition
// together, so racing writers to one id absorb their deltas in the order
// the table accepted them. A step that stays in its shard is that stack's
// delta; a move that changes shards leaves a tombstone in the source
// stack's tier and an insert in the destination's, so each stack's
// merge-down later does its own half.
func (x *index) absorb(st step) (full fullStacks) {
	if st.src == st.dst {
		full.dst = x.shards[st.dst].absorb(st)
		return full
	}
	full.src = x.shards[st.src].absorb(step{kind: stepDelete, id: st.id, old: st.old})
	full.dst = x.shards[st.dst].absorb(step{kind: stepInsert, id: st.id, new: st.new})
	return full
}

// apply carries st out on the stack trees, without the table lock and
// only on an untiered index, with st.old from the one table: the owning
// stack's insert, delete or bottom-up update, or — for a move that changes
// shards — a relocation from the source stack to the destination.
//
// A step that succeeds is accounted (recordStep) with the pages its
// brackets measured in the stack(s) it touched. The inverse steps of an
// undo are not accounted.
func (x *index) apply(st step) error {
	mDst, mSrc := meterShard(x.shards[st.dst]), meterShard(x.shards[st.src])
	var err error
	if st.src == st.dst {
		err = x.shards[st.dst].apply(st)
	} else {
		err = relocate(x.shards[st.src], x.shards[st.dst], st.id, st.old, st.new)
	}
	if err == nil && !st.undo {
		x.recordStep(st, mDst.done(), mSrc.done())
	}
	return err
}

// recordStep, recordBatch and readFrom are where the pipeline reaches the
// load tracker, and the only places that ask whether the index keeps one
// (a ShardedIndex does): the write paths' two and the read paths' one.
//
// recordStep accounts one update operation to the stack that owns st's
// object afterwards, weighing its cell with the pages the step cost
// there; a cross-shard move also weighs the cell the object left with
// its real departure I/O, at no operation.
func (x *index) recordStep(st step, dstPages, srcPages uint64) {
	if x.load == nil {
		return
	}
	x.load.RecordBatch(st.dst, dstPages, []shard.CellCount{{Cell: shard.CellKey(st.at()), N: 1}})
	if st.src != st.dst {
		x.load.RecordBatch(st.src, srcPages, []shard.CellCount{{Cell: shard.CellKey(st.old)}})
	}
}

// recordBatch accounts a batch by its offered stream, before coalescing: a
// hot object updated many times per batch coalesces into one applied
// change, but each of those updates was traffic the owning stack absorbed
// — undercounting them would hide exactly the skew the rebalancer exists
// to detect. Each stack's tally weighs its cells with the foreground pages
// the stack's phases measured (even on error — the I/O was spent); what a
// departure-only stack spent stays in its ledger: its moves are tallied
// at their destination.
func (x *index) recordBatch(changes []Change, work []shardWork) {
	if x.load == nil {
		return
	}
	for _, c := range changes {
		w := &work[x.router.ShardOf(c.To)]
		if w.offered == nil {
			w.offered = make([]shard.CellCount, 0, evenShare(len(changes), len(work)))
		}
		w.offered = addCellCount(w.offered, shard.CellKey(c.To), 1)
	}
	for s := range work {
		x.load.RecordBatch(s, work[s].pages, work[s].offered)
	}
}

// readFrom counts one read visit to stack s and returns the stack. What
// the visit costs is in the stack's ledger: a wide window over a cold or
// empty shard costs that shard almost nothing, and the load signal says so.
func (x *index) readFrom(s int) *treeStack {
	if x.load != nil {
		x.load.RecordQuery(s)
	}
	return x.shards[s]
}

// logOf names the log st is recorded in (nil when durability is off): a
// step is logged once, in the log of the stack that owns the object
// afterwards (a delete, in the one that owned it); replay re-routes it,
// re-deriving the cross-shard delete+insert.
func (x *index) logOf(st step) *wal.Log {
	if x.wals == nil {
		return nil
	}
	return x.wals[st.dst]
}

// acked runs after an absorbed step is logged. It never reached apply,
// so it is accounted here — to the stack that owns the object afterwards,
// at no page cost — and the stacks whose tiers it grew hand on the
// merge-down it may have tripped (treeStack.afterAck); an inline drain's
// failure is the write's to report, though the write stays logged.
func (x *index) acked(st step, full fullStacks) error {
	x.recordStep(st, 0, 0)
	err := x.shards[st.dst].afterAck(full.dst)
	if st.src != st.dst {
		err = errors.Join(x.shards[st.src].afterAck(full.src), err)
	}
	return err
}

// evenShare is the capacity a stack's slice of an n-element batch starts
// with: an even share plus slack, so a balanced batch — or one stack's
// whole batch — fills it without regrowth.
func evenShare(n, stacks int) int { return n/stacks + 8 }

// crossMove is one batch change that leaves its shard: a delete in src
// followed by an insert in dst, with enough state to roll back.
type crossMove struct {
	core.BatchChange
	src, dst int
	departed bool // the src delete succeeded; dst owes an insert
}

// shardWork is one stack's slice of a batch: the coalesced moves that
// end in this stack — on the tree path only those that also start here,
// the others being the batch's cross moves — plus how many cross moves
// it has a side of, and what the batch's phases leave behind for it.
type shardWork struct {
	stay    []core.BatchChange
	departs int // cross moves that leave this stack
	arrives int // moves that came from another stack: cross moves that end here or, on the tiered path, changes in stay

	pages   uint64            // foreground pages the phases measured
	err     error             // the phases' failures, joined
	full    bool              // the batch brought this stack's tier to its size threshold
	offered []shard.CellCount // recordBatch's tally of the input changes that target this stack, per cell
}

// batchRun is the state the phases of one UpdateBatch share: the routed
// work, per stack — one allocation, sized by the stack count — and the
// tree path's cross-shard moves in id order; res is guarded by mu while a
// phase runs.
type batchRun struct {
	work   []shardWork
	cross  []crossMove
	tiered bool
	wg     sync.WaitGroup // the phase in flight
	mu     sync.Mutex
	res    BatchResult
}

// routeBatch splits a coalesced batch by stack. On the tiered path there
// are no departures or arrivals to schedule — the batch is already
// absorbed — so a stack's group is everything it owns afterwards, the
// unit of its log record.
func (x *index) routeBatch(b *batchRun, coalesced []core.BatchChange) {
	for _, c := range coalesced {
		src, dst := x.router.ShardOf(c.Old), x.router.ShardOf(c.New)
		if src != dst {
			b.work[dst].arrives++
			if !b.tiered {
				b.work[src].departs++
				b.cross = append(b.cross, crossMove{BatchChange: c, src: src, dst: dst})
				continue
			}
		}
		w := &b.work[dst]
		if w.stay == nil {
			w.stay = make([]core.BatchChange, 0, evenShare(len(coalesced), len(b.work)))
		}
		w.stay = append(w.stay, c)
	}
	// Each stack carries out its departures, and later its arrivals, in id
	// order (slices.SortFunc: unlike sort.Slice it allocates nothing).
	slices.SortFunc(b.cross, func(a, c crossMove) int { return cmp.Compare(a.OID, c.OID) })
}

// scatter runs one phase of a batch — the stays, or the arrivals — on
// every stack the phase has work for, in parallel: no operation ever
// holds locks in two stacks, so the schedule is deadlock-free by
// construction. The last such stack runs on the caller's goroutine, which
// would otherwise only wait, so a phase with one target starts none. It
// returns when every stack is done: the barrier between the phases.
func (x *index) scatter(b *batchRun, arrivals bool) {
	last := -1
	for s := range b.work {
		w := &b.work[s]
		if arrivals && w.arrives == 0 || !arrivals && len(w.stay)+w.departs == 0 {
			continue
		}
		if last >= 0 {
			b.wg.Add(1)
			go func(s int) {
				defer b.wg.Done()
				x.runPhase(b, s, arrivals)
			}(last)
		}
		last = s
	}
	if last >= 0 {
		x.runPhase(b, last, arrivals)
	}
	b.wg.Wait()
}

// runPhase runs one phase on stack s and folds its result, failure and
// bracketed page I/O into the run.
func (x *index) runPhase(b *batchRun, s int, arrivals bool) {
	m := meterShard(x.shards[s])
	var br BatchResult
	var err error
	if arrivals {
		br, err = x.batchArrivals(b, s)
	} else {
		br, err = x.batchStays(b, s)
	}
	b.work[s].pages += m.done()
	// Join rather than keep-first: a phase-1 error must not mask an
	// arrival failure (possible object loss).
	b.work[s].err = errors.Join(b.work[s].err, err)
	b.mu.Lock()
	b.res.Applied += br.Applied
	b.res.Groups += br.Groups
	b.res.GroupResolved += br.GroupResolved
	b.res.Fallback += br.Fallback
	b.res.CrossShard += br.CrossShard
	b.mu.Unlock()
}

// batchStays is phase 1 of a batch on stack s: the departures, then the
// stack's group — on the tree path its in-shard moves, through the
// stack's batched bottom-up pass; on the tiered path, where the group is
// already absorbed, nothing — and then the group's log record. An error
// stops the stack's remaining work; the other stacks and phase 2 still
// run, so every departed mover gets its arrival attempted — a batch is
// not atomic, but it never strands an object outside every stack.
func (x *index) batchStays(b *batchRun, s int) (BatchResult, error) {
	w := &b.work[s]
	var br BatchResult
	for i := range b.cross {
		cm := &b.cross[i]
		if cm.src != s {
			continue
		}
		if err := x.shards[s].apply(step{kind: stepDelete, id: cm.OID, old: cm.Old}); err != nil {
			return br, err
		}
		cm.departed = true
	}
	// Each change the stack applies updates the one table as it lands;
	// applied is that prefix (all of w.stay when err == nil), kept for the
	// stack's log record.
	applied, err := w.stay, error(nil)
	if b.tiered {
		br.Applied, br.CrossShard = len(w.stay), w.arrives
	} else {
		var tree BatchResult // escapes into the tree's callback: allocated on this path only
		applied, err = x.shards[s].applyBatch(&x.objectTable, w.stay, x.wals != nil, &tree)
		br = tree
	}
	// One record covers the applied prefix — all of the group on success,
	// exactly the changes before the failure otherwise.
	if werr := x.logBatch(s, b.tiered, applied); werr != nil {
		// Applied (or absorbed) but not logged: the prefix goes back the
		// way it came and the table is compare-and-restored, so the failed
		// record acks nothing.
		br.Applied, br.CrossShard = 0, 0
		return br, errors.Join(err, werr, x.undoBatch(applied))
	}
	return br, err
}

// batchArrivals is phase 2 of a tree-path batch on stack s: the arrivals
// of the movers whose departure succeeded, and their log record.
func (x *index) batchArrivals(b *batchRun, s int) (BatchResult, error) {
	var arrived []core.BatchChange
	var err error
	n := 0
	for i := range b.cross {
		cm := &b.cross[i]
		if cm.dst != s || !cm.departed {
			continue
		}
		if aerr := arrive(x.shards[cm.src], x.shards[s], cm.OID, cm.Old, cm.New); aerr != nil {
			// The mover is back in its source stack (or lost, and reported
			// so); the table keeps the old point.
			err = errors.Join(err, aerr)
			continue
		}
		x.record(cm.BatchChange)
		n++
		if x.wals != nil {
			arrived = append(arrived, cm.BatchChange)
		}
	}
	// One record covers this stack's arrivals; replay re-routes each
	// move, re-deriving the cross-shard delete+insert.
	if werr := x.logBatch(s, false, arrived); werr != nil {
		// Arrived but not logged: each mover goes back through the routed
		// apply to the stack it came from, and the table is compare-and-
		// restored, so the failed record acks nothing.
		return BatchResult{}, errors.Join(err, werr, x.undoBatch(arrived))
	}
	return BatchResult{Applied: n, CrossShard: n}, err
}

// UpdateBatch moves many objects at once through the batched bottom-up
// pipeline: repeated moves of the same object are coalesced to the last
// position — once, against the index's one object table — and the
// surviving changes are routed to the stacks by target cell. Each stack
// sorts its in-shard moves into per-leaf runs with one hash probe each and
// applies each run in one bottom-up pass — one leaf read, one MBR
// extension decision covering the whole group, one write — falling back
// to the configured strategy's per-object path only for the changes the
// group pass cannot resolve. With the TopDown strategy (which has no
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
// the memtable tier on nothing is applied: the batch is absorbed
// atomically, under the table lock, each change into the tier(s) of the
// stacks it touches. Either way the changes are logged as one record per
// stack they ended in.
//
// Every id must already be in the index; an unknown id fails the whole
// batch before anything is applied. A batch is not atomic: concurrent
// readers may observe any subset of its changes applied (each change
// whole), and if a change fails mid-batch the changes applied before it
// — in leaf order, not the caller's — remain applied and are the ones
// logged and counted in BatchResult.Applied. Only a failed log append
// takes work back: the changes that record would have covered — one
// stack's in-shard moves (its whole group, on the tiered path), or its
// arrivals — are undone and not counted. A batch does not take the
// per-id stripes single writes are ordered by: concurrent writes to ids
// that are also in the batch race with it — last writer wins on the
// object table only, the tree may keep the other's position, and a racing
// cross-shard move can make part of the batch fail against the moved
// object's old shard — so callers keep such writers apart (disjoint id
// ranges per writer, as the experiment harness and examples do).
func (x *index) UpdateBatch(changes []Change) (BatchResult, error) {
	x.gate.RLock()
	defer x.gate.RUnlock()
	b := batchRun{work: make([]shardWork, len(x.shards)), tiered: x.tiered()}
	coalesced, dropped, err := x.reserveBatch(changes, &b)
	if err != nil {
		return b.res, err
	}
	b.res.Coalesced = dropped
	x.routeBatch(&b, coalesced)
	x.scatter(&b, false)
	var ackErr error
	if b.tiered {
		b.res.Absorbed = b.res.Applied
		// Only a stack the batch filled hands a merge-down on; an inline
		// drain's failure is the batch's to report.
		for s, sh := range x.shards {
			ackErr = errors.Join(ackErr, sh.afterAck(b.work[s].full))
		}
	} else {
		x.scatter(&b, true)
	}
	x.recordBatch(changes, b.work)
	for s := range b.work {
		w := &b.work[s]
		b.res.PageIO += int(w.pages)
		if err == nil {
			err = w.err // the first stack's failure is the batch's
		}
	}
	if err == nil {
		err = ackErr
	}
	return b.res, err
}

// Search returns the ids of all objects inside the window q, scattering
// to the shards overlapping q in parallel and gathering the results.
// Each object is owned by exactly one shard at any instant, but a
// scatter racing a cross-shard move can still see the mover in both its
// shards (delete not yet visited, insert already visited), so the
// gather de-duplicates: every id appears at most once.
func (x *index) Search(q Rect) ([]uint64, error) {
	x.gate.RLock()
	defer x.gate.RUnlock()
	targets := x.router.ShardsFor(q)
	if len(targets) == 1 {
		return x.readFrom(targets[0]).Search(q)
	}
	return x.gather(q, targets)
}

// gather is the multi-shard scatter under Search and Count: every target
// shard is searched in parallel — the last on the caller's goroutine,
// which would otherwise only wait — and the union is returned with
// duplicate ids dropped. Caller holds the gate shared.
func (x *index) gather(q Rect, targets []int) ([]uint64, error) {
	outs := make([][]uint64, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, s := range targets {
		if i == len(targets)-1 {
			outs[i], errs[i] = x.readFrom(s).Search(q)
			break
		}
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			outs[i], errs[i] = x.readFrom(s).Search(q)
		}(i, s)
	}
	wg.Wait()
	total := 0
	for i := range targets {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total += len(outs[i])
	}
	if total == 0 {
		return nil, nil
	}
	seen := make(map[uint64]struct{}, total)
	out := make([]uint64, 0, total)
	for i := range targets {
		for _, id := range outs[i] {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	return out, nil
}

// SearchFunc streams the objects inside q to visit; return false to stop
// early. The scatter is sequential in shard order so the callback is
// never invoked concurrently; each shard is visited under its own shared
// granule locks. Each id is visited at most once, even when the scatter
// races a cross-shard move that makes the object surface in two shards.
func (x *index) SearchFunc(q Rect, visit func(id uint64, p Point) bool) error {
	x.gate.RLock()
	defer x.gate.RUnlock()
	targets := x.router.ShardsFor(q)
	var seen map[uint64]struct{}
	if len(targets) > 1 {
		seen = make(map[uint64]struct{})
	}
	stopped := false
	for _, s := range targets {
		err := x.readFrom(s).SearchFunc(q, func(id uint64, p Point) bool {
			if seen != nil {
				if _, dup := seen[id]; dup {
					return true
				}
				seen[id] = struct{}{}
			}
			if !visit(id, p) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// Count returns the number of objects inside q. A single-shard window
// counts directly in that shard; a multi-shard window gathers ids and
// counts the distinct ones — summing per-shard counts would double-count
// an object a racing cross-shard move surfaced in two shard visits.
func (x *index) Count(q Rect) (int, error) {
	x.gate.RLock()
	defer x.gate.RUnlock()
	targets := x.router.ShardsFor(q)
	if len(targets) == 1 {
		return x.readFrom(targets[0]).Count(q)
	}
	ids, err := x.gather(q, targets)
	return len(ids), err
}

// Nearest returns the k objects nearest to p in increasing distance. The
// shards are visited best-first in order of the MinDist from p to each
// shard's responsibility region; the scan stops as soon as the next
// region lies farther than the current k-th neighbour, so on clustered
// queries most shards are never touched. Within each visited shard the
// query holds that shard's whole-tree granule shared — updates elsewhere
// keep running, which is the point of sharding the NN path.
//
// Objects at exactly the same distance come back in no particular order
// (each shard's tree reports ties as its queue pops them), as on Index
// and ConcurrentIndex.
func (x *index) Nearest(p Point, k int) ([]Neighbor, error) {
	x.gate.RLock()
	defer x.gate.RUnlock()
	if k <= 0 {
		return nil, nil
	}
	type shardDist struct {
		s    int
		dist float64
	}
	// The order lives on the stack up to 16 shards, and the sort takes no
	// reflection swapper: a one-stack index pays for neither.
	var buf [16]shardDist
	order := buf[:0]
	for s := range x.shards {
		order = append(order, shardDist{s: s, dist: x.router.Region(s).MinDistPoint(p)})
	}
	slices.SortFunc(order, func(a, b shardDist) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.s, b.s))
	})
	var best []Neighbor
	for _, sd := range order {
		// Prune only when k candidates are already in hand: with fewer
		// than k gathered (empty or sparse shards — the common state under
		// skew), every remaining shard must still be visited no matter how
		// far its region lies, or the scan would return an under-filled
		// result while farther shards hold real neighbours.
		if len(best) == k && sd.dist > best[k-1].Dist {
			break
		}
		ns, err := x.readFrom(sd.s).Nearest(p, k)
		if err != nil {
			return nil, err
		}
		best = mergeNeighbors(best, ns, k)
	}
	return best, nil
}

// mergeNeighbors merges two neighbour lists, each ascending by distance
// and free of repeated ids, into the k nearest: ascending by distance,
// the smaller id first where one of a meets one of b at the same
// distance. An id both lists hold is kept once, at its nearer copy: shard
// visits racing a cross-shard move can both report the mover.
func mergeNeighbors(a, b []Neighbor, k int) []Neighbor {
	if len(a) == 0 {
		a, b = b, a
	}
	if len(b) == 0 {
		return a[:min(k, len(a))]
	}
	out := make([]Neighbor, 0, min(k, len(a)+len(b)))
	for len(out) < k && len(a)+len(b) > 0 {
		from := &a
		if len(a) == 0 || len(b) > 0 &&
			(b[0].Dist < a[0].Dist || b[0].Dist == a[0].Dist && b[0].ID < a[0].ID) {
			from = &b
		}
		n := (*from)[0]
		*from = (*from)[1:]
		// A repeated id is looked for among the neighbours already taken.
		if !slices.ContainsFunc(out, func(o Neighbor) bool { return o.ID == n.ID }) {
			out = append(out, n)
		}
	}
	return out
}
