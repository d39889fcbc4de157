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
	"burtree/internal/scratch"
	"burtree/internal/shard"
	"burtree/internal/wal"
)

// This file is how an index (engine.go) uses its stacks: the routing of a
// write to the stacks it touches, the scatter of a read
// over the stacks its window meets, and what only a ShardedIndex offers.
// With one stack every route is to stack 0 and every scatter has one
// target.

// PartitionScheme is retired: every index splits space into Hilbert
// ranges. The type and its one value remain so code that names them
// still compiles.
type PartitionScheme int

// ShardHilbert is the zero value and the only partition scheme: a
// Hilbert linearization of the space cut into contiguous ranges.
const ShardHilbert PartitionScheme = 0

// ShardOptions configures the partitioning of a ShardedIndex. Space is
// split into Shards contiguous ranges of a Hilbert linearization: equal
// ranges at open, ranges balanced by object count at BulkInsert. The
// ranges stay where they were cut: no boundary moves with the load.
type ShardOptions struct {
	// Shards is the number of partitions (default 4, max
	// shard.MaxShards). Each shard is a self-contained tree with its own
	// page store, buffer pool, id → leaf map and lock manager.
	Shards int
	// Partition is retired: Hilbert ranges are the only scheme, so the
	// zero value ShardHilbert is the only one accepted and any other
	// value fails at open. The field remains because the benchmark
	// harness sets it; a benchmark change deletes it.
	Partition PartitionScheme
}

// check refuses a retired Partition value.
func (o ShardOptions) check() error {
	if o.Partition != ShardHilbert {
		return fmt.Errorf("burtree: ShardOptions.Partition %d is retired: Hilbert ranges (ShardHilbert, the zero value) are the only scheme", int(o.Partition))
	}
	return nil
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
//   - Writes route to the Hilbert range that owns the new position: an
//     object lives in the shard owning its current position. A move within one shard is that shard's
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
// scatter is not one global snapshot. The shards are visited at
// different instants, so any cross-shard move that lands between two
// visits hides the mover from the read, not only one caught between
// its delete and its insert: a measurement with one object moving
// between two shards found it missing from 58 % of the results on 4
// shards, and from none on one shard (ROADMAP item 4, which is the
// fix). The dual anomaly, observing the mover twice when shard visits
// straddle the move, is absorbed by the gather: Search, SearchFunc,
// Count and Nearest de-duplicate by id, so a racing reader sees each
// object at most once. Readers that need a globally consistent view
// quiesce writers first, as Save does.
type ShardedIndex struct {
	*index
}

// OpenSharded creates an empty sharded index. The Options are totals for
// the whole index: the buffer pool and id-map capacity budgets are divided
// evenly among the shards, so comparing shard counts compares equal
// hardware.
func OpenSharded(opts Options, sopts ShardOptions) (*ShardedIndex, error) {
	return front[ShardedIndex](open(opts, sopts, kindSharded))
}

// NumShards returns the shard count.
func (x *ShardedIndex) NumShards() int {
	x.gate.RLock()
	defer x.gate.RUnlock()
	return len(x.shards)
}

// ShardLens returns the number of objects per shard (diagnostics and
// balance monitoring).
func (x *ShardedIndex) ShardLens() []int {
	x.gate.RLock()
	defer x.gate.RUnlock()
	return x.shardCounts()
}

// SetIOLatency simulates a per-page-access service time on every shard's
// store. Zero disables the simulation. The setting survives a failed
// BulkInsert: the shards it rebuilds inherit it.
func (x *ShardedIndex) SetIOLatency(d time.Duration) { x.setIOLatency(d) }

// Stats returns the aggregated physical counters and tree shape (sums
// over the shards; Height is the maximum shard height) plus each shard's
// lock-layer counters.
func (x *ShardedIndex) Stats() (Stats, []ConcurrencyStats) { return x.stats() }

// ShardLoad is one shard's load-accounting snapshot (see ShardLoads).
type ShardLoad struct {
	// Updates is the cumulative count of update operations (inserts,
	// moves, deletes) the shard owned.
	Updates uint64
	// Queries is the cumulative count of read visits (window, count and
	// nearest-neighbour scatters that touched the shard).
	Queries uint64
	// Cost is the shard's cumulative foreground load cost: one unit per
	// operation (Updates + Queries) plus shard.CostPerPage per foreground
	// page of the shard's ledger — the pages Stats counts, less
	// BackgroundPages. It weighs the shards by the work they did, where
	// the operation counts alone would rate a shard whose writes coalesce,
	// absorb in the memtable or hit the buffer pool as busy as one whose
	// writes pay I/O.
	Cost uint64
	// BackgroundPages is the shard's cumulative page count from
	// background memtable merge-downs — deferred work attributed
	// separately so it never skews the foreground cost. Like every
	// counter of the ledger it keeps counting across a failed BulkInsert
	// that rebuilds the shard, and restarts at ResetStats.
	BackgroundPages uint64
	// Objects is the shard's current object count.
	Objects int
}

// ShardLoads returns each shard's load accounting: cumulative update and
// query counts, foreground cost and background page attribution, and
// current object count. Companion to Stats for balance monitoring.
func (x *ShardedIndex) ShardLoads() []ShardLoad {
	x.gate.RLock()
	defer x.gate.RUnlock()
	counts := x.shardCounts()
	out := make([]ShardLoad, len(x.shards))
	for i, sh := range x.shards {
		updates, queries := x.load.UpdateCount(i), x.load.QueryCount(i)
		out[i] = ShardLoad{
			Updates:         updates,
			Queries:         queries,
			Cost:            updates + queries + shard.CostPerPage*uint64(sh.io.Foreground()),
			BackgroundPages: uint64(sh.io.Background()),
			Objects:         counts[i],
		}
	}
	return out
}

// stackOptions are the options each of n stacks runs under, given the
// index-wide opts: the zero-value defaults filled in, and the buffer pool,
// id-map capacity hint and memtable budgets divided evenly, the buffer and
// memtable shares floored to stay usable (one stack keeps the whole
// budget). Fresh stacks
// (openShards) and loaded ones (load) both derive theirs here, so a
// snapshot carries the options once. The delta tier is per stack — each
// absorbs and merges its own deltas — which keeps merge-down traffic as
// parallel as the write traffic. Durability passes through untouched: the
// logs are the index's.
func stackOptions(opts Options, n int) Options {
	per := opts
	per.PageSize = cmp.Or(per.PageSize, pagestore.DefaultPageSize)
	per.Memtable = per.Memtable.withDefaults()
	if n == 1 {
		return per
	}
	if per.Memtable.Enabled {
		per.Memtable.MaxObjects = max(per.Memtable.MaxObjects/n, 16)
	}
	per.ExpectedObjects /= n
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

// ends returns the stacks change c leaves and ends in — the same one for
// an insert, a delete and a move that stays in its shard. Reserve gives an
// insert's and a delete's change the one position they have as both Old
// and New.
func (x *index) ends(c core.BatchChange) (src, dst int) {
	if dst = x.router.ShardOf(c.New); c.Old == c.New {
		return dst, dst
	}
	return x.router.ShardOf(c.Old), dst
}

// tiered reports whether writes are absorbed, never applied, and the log
// acknowledges at the append alone: the stacks run a delta tier each, or
// none does.
func (x *index) tiered() bool { return x.shards[0].tiered() }

// absorb hands c, of kind k, to the delta tier of the stack(s) it
// touches, src and dst, and marks in b the stacks whose tier now stands at
// its size threshold, for the ack to hand their merge-down on. Called with
// the object table locked: the table and the tiers transition together,
// so racing writers to one id absorb their deltas in the order the table
// accepted them. A change that stays in its shard is that stack's delta; a
// move that changes shards leaves a tombstone in the source stack's tier
// and an insert in the destination's, so each stack's merge-down later
// does its own half.
func (x *index) absorb(b *batchRun, k opKind, c core.BatchChange, src, dst int) {
	if src != dst {
		// Each absorb runs whatever the flag already says.
		b.work[src].full = x.shards[src].absorb(opDelete, c) || b.work[src].full
		k = opInsert
	}
	b.work[dst].full = x.shards[dst].absorb(k, c) || b.work[dst].full
}

// recordBatch and readFrom are where the pipeline reaches the load
// tracker, and the only places that ask whether the index keeps one (a
// ShardedIndex does): the write path's one and the read paths' one.
//
// recordBatch accounts a write by its offered stream, before coalescing: a
// hot object updated many times per batch coalesces into one applied
// change, but each of those updates was traffic the owning stack absorbed.
// Each change counts as an update of the stack that owns it: the one its
// position routes to — a delete's old position, otherwise the new one. A
// departure-only stack counts none: its moves count at their
// destination, and what it spent on them is in its ledger.
func (x *index) recordBatch(b *batchRun) {
	if x.load == nil {
		return
	}
	for _, c := range b.raw {
		s := b.owner // a write of one change is routed as offered
		if len(b.raw) > 1 {
			s = x.router.ShardOf(c.New)
		}
		b.touch(s).offered++
	}
	for _, s := range b.stacks {
		x.load.RecordUpdates(s, b.work[s].offered)
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

// crossMove is one move that leaves its shard: a delete in src followed
// by an insert in dst, with enough state to roll back.
type crossMove struct {
	core.BatchChange
	src, dst int
	departed bool // the src delete succeeded; dst owes an insert
}

// shardWork is one stack's slice of a write: the coalesced changes that
// end in this stack — on the tree path only those that also start here,
// the others being the write's cross moves — plus how many cross moves
// it has a side of, and what the write's phases leave behind for it.
type shardWork struct {
	stay    []core.BatchChange
	departs int // cross moves that leave this stack
	arrives int // cross moves that end in this stack

	res     BatchResult // what the write applied here: counted by route on a tiered index, by the phases otherwise
	pages   uint64      // foreground pages the phases measured
	err     error       // the phases' failures, joined
	full    bool        // the write brought this stack's tier to its size threshold
	offered uint64      // recordBatch's count of the offered changes this stack owns
	ops     []wal.Op    // logBatch's buffer
	listed  bool        // the stack is in batchRun.stacks

	// applied and arrived are the changes the phases applied here, kept
	// for the log records.
	applied, arrived []core.BatchChange

	// The slot's stack, its run, and its callbacks, bound once when the
	// run made the slot: a write builds no closure.
	s      int
	run    *batchRun
	landed func(core.BatchChange) // land
	phase  func()                 // runPhase, on a goroutine of scatter's
}

// land records a change the stack's batch pass has just applied: in the
// one table, in the stack's count and, when the index keeps a log, in the
// applied prefix the stack's record covers.
func (w *shardWork) land(c core.BatchChange) {
	x := w.run.x
	x.record(opMove, c)
	w.res.Applied++
	if x.wals != nil {
		w.applied = append(w.applied, c)
	}
}

// runPhase runs the run's phase in flight on the slot's stack, for a
// scatter that waits on the run's WaitGroup.
func (w *shardWork) runPhase() {
	defer w.run.wg.Done()
	w.run.x.runPhase(w.run, w.s, w.run.arrivals)
}

// batchRun is the state the stages of one write share: the index and
// the write's kind, the offered changes with their old positions (raw),
// the routed work per stack, the tree path's cross-shard moves in id
// order and the write's result. Runs are pooled with their buffers and
// their slots' bound callbacks, so a write allocates nothing once its
// run has grown to it.
type batchRun struct {
	x        *index
	kind     opKind
	tiered   bool
	raw      []core.BatchChange
	co       core.Coalescer // reserve's
	work     []*shardWork   // a slot per stack, at least
	stacks   []int          // the stacks the write touches, in the order first touched
	cross    []crossMove
	owner    int            // the stack the last routed change ends in
	wg       sync.WaitGroup // the phase in flight
	arrivals bool           // which phase is in flight
	res      BatchResult
}

var batchRuns = sync.Pool{New: func() any { return new(batchRun) }}

// prepare readies a run from the pool for a write of kind k on x, making
// the slots it lacks for x's stacks.
func (b *batchRun) prepare(x *index, k opKind) {
	b.x, b.kind, b.tiered = x, k, x.tiered()
	for s := len(b.work); s < len(x.shards); s++ {
		w := &shardWork{s: s, run: b}
		w.landed, w.phase = w.land, w.runPhase
		b.work = append(b.work, w)
	}
}

// touch returns stack s's work, listing s among the stacks the write
// touches the first time.
func (b *batchRun) touch(s int) *shardWork {
	w := b.work[s]
	if !w.listed {
		w.listed = true
		b.stacks = append(b.stacks, s)
	}
	return w
}

// release empties the run, keeping its buffers, and returns it to the
// pool. Only the stacks the write touched have work to clear.
func (b *batchRun) release() {
	for _, s := range b.stacks {
		w := b.work[s]
		w.stay, w.ops, w.applied, w.arrived = w.stay[:0], w.ops[:0], w.applied[:0], w.arrived[:0]
		w.listed, w.departs, w.arrives, w.res, w.pages, w.err, w.full, w.offered = false, 0, 0, BatchResult{}, 0, nil, false, 0
	}
	b.x, b.raw, b.stacks, b.cross, b.res = nil, b.raw[:0], b.stacks[:0], b.cross[:0], BatchResult{}
	batchRuns.Put(b)
}

// route hands one coalesced change to the stacks it leaves and ends in.
// On a tiered index it is absorbed there — the caller holds the table
// lock and records the change in the table in the same hold — and joins
// the group of the stack that owns it afterwards: the unit of that stack's
// log record. On the tree path a change that stays in its shard joins its
// stack's group; one that changes shards becomes a cross move, a
// departure from its source stack and an arrival in its destination.
func (x *index) route(b *batchRun, c core.BatchChange) {
	src, dst := x.ends(c)
	b.owner = dst
	from, to := b.touch(src), b.touch(dst)
	switch {
	case b.tiered:
		x.absorb(b, b.kind, c, src, dst)
		to.res.Applied++
		if src != dst {
			to.res.CrossShard++
		}
	case src != dst:
		from.departs++
		to.arrives++
		b.cross = append(b.cross, crossMove{BatchChange: c, src: src, dst: dst})
		return
	}
	to.stay = append(to.stay, c)
}

// scatter runs one phase of a write — the stays, or the arrivals — on
// every stack the phase has work for, in parallel: no operation ever
// holds locks in two stacks, so the schedule is deadlock-free by
// construction. The last such stack runs on the caller's goroutine, which
// would otherwise only wait, so a phase with one target — every phase of a
// write of one change — starts none; the others start their slot's bound
// runPhase, which costs no closure. It returns when every stack is done:
// the barrier between the phases.
func (x *index) scatter(b *batchRun, arrivals bool) {
	b.arrivals = arrivals
	last := -1
	for _, s := range b.stacks {
		w := b.work[s]
		if arrivals && w.arrives == 0 || !arrivals && len(w.stay)+w.departs == 0 {
			continue
		}
		if last >= 0 {
			b.wg.Add(1)
			go b.work[last].phase()
		}
		last = s
	}
	if last >= 0 {
		x.runPhase(b, last, arrivals)
	}
	b.wg.Wait()
}

// runPhase runs one phase on stack s and folds its failure into the
// stack's work; the phase adds its result there. No other stack's phase
// touches that work.
//
// The phase is bracketed in the stack's ledger: the foreground pages
// counted meanwhile are its pages, floored at zero (a ResetStats inside
// the bracket runs the ledger backward). Pages from overlapping operations
// on the same stack land in every open bracket, so the figure over-counts
// under concurrency. Its one reader is BatchResult.PageIO, a figure of
// the write that no cumulative counter can give. Everything per shard —
// its cost, what Stats reports — is read from the ledger itself.
func (x *index) runPhase(b *batchRun, s int, arrivals bool) {
	w, io := b.work[s], x.shards[s].io
	before := io.Foreground()
	var err error
	if arrivals {
		err = x.batchArrivals(b, s)
	} else {
		err = x.batchStays(b, s)
	}
	w.pages += uint64(max(io.Foreground()-before, 0))
	// Join rather than keep-first: a phase-1 error must not mask an
	// arrival failure (possible object loss).
	w.err = errors.Join(w.err, err)
}

// batchStays is phase 1 of a write on stack s: the departures, then the
// stack's group — on the tree path through the tree's per-object call for
// the write's kind when the group is one change, so a single write costs
// the tree what it always has, and through the stack's batched bottom-up
// pass when it is more; on the tiered path, where the group is already
// absorbed, nothing — and then the group's log record. An error stops the
// stack's remaining work; the other stacks and phase 2 still run, so
// every departed mover gets its arrival attempted — a batch is not
// atomic, but it never strands an object outside every stack.
func (x *index) batchStays(b *batchRun, s int) error {
	w := b.work[s]
	for i := range b.cross {
		cm := &b.cross[i]
		if cm.src != s {
			continue
		}
		if err := x.shards[s].apply(opDelete, cm.BatchChange); err != nil {
			return err
		}
		cm.departed = true
	}
	// Each change the stack applies updates the one table as it lands;
	// applied is that prefix (all of w.stay when err == nil), kept for the
	// stack's log record.
	applied, err := w.stay, error(nil)
	switch {
	case b.tiered: // absorbed and counted at reserve: only the log record is left
	case len(w.stay) == 1:
		if err = x.shards[s].apply(b.kind, w.stay[0]); err != nil {
			applied = nil
		} else {
			x.record(b.kind, w.stay[0])
			w.res.Applied, w.res.Fallback = 1, 1
		}
	case len(w.stay) > 1:
		err = x.shards[s].applyBatch(w.stay, w.landed, &w.res)
		applied = w.applied
	}
	// One record covers the applied prefix — all of the group on success,
	// exactly the changes before the failure otherwise.
	if werr := x.logBatch(w, s, b.kind, b.tiered, applied); werr != nil {
		// Applied (or absorbed) but not logged: the prefix goes back the
		// way it came and the table is restored, so the failed record acks
		// nothing.
		w.res.Applied, w.res.CrossShard = 0, 0
		return errors.Join(err, werr, x.undo(b, applied))
	}
	return err
}

// batchArrivals is phase 2 of a tree-path write on stack s: the arrivals
// of the movers whose departure succeeded, and their log record.
func (x *index) batchArrivals(b *batchRun, s int) error {
	w := b.work[s]
	arrived := w.arrived[:0]
	var err error
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
		x.record(opMove, cm.BatchChange)
		w.res.Applied++
		w.res.CrossShard++
		if x.wals != nil {
			arrived = append(arrived, cm.BatchChange)
		}
	}
	w.arrived = arrived
	// One record covers this stack's arrivals; replay re-routes each
	// move, re-deriving the cross-shard delete+insert.
	if werr := x.logBatch(w, s, opMove, false, arrived); werr != nil {
		// Arrived but not logged: each mover goes back through the stacks
		// it crossed and the table is restored, so the failed record acks
		// nothing.
		w.res.Applied -= len(arrived)
		w.res.CrossShard -= len(arrived)
		return errors.Join(err, werr, x.undo(b, arrived))
	}
	return err
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
	var buf [stackShards]int
	targets := x.router.AppendShardsFor(buf[:0], q)
	if len(targets) == 1 {
		return x.readFrom(targets[0]).Search(q)
	}
	g := gathers.Get()
	defer g.release()
	if err := x.gather(g, q, targets, false); err != nil {
		return nil, err
	}
	if len(g.ids) == 0 {
		return nil, nil
	}
	return append(make([]uint64, 0, len(g.ids)), g.ids...), nil
}

// stackShards is how many target shards a read lists on its stack; a
// window over more spills the list to the heap.
const stackShards = 16

// gatherScan is the state of one multi-shard read: a scan per target
// shard, the ids gathered from them — with their positions, for
// SearchFunc — and the set that drops repeats. Kept on a free list, like
// the scans.
type gatherScan struct {
	scans []*searchScan
	wg    sync.WaitGroup
	ids   []uint64
	pts   []Point
	seen  map[uint64]struct{}
}

var gathers = scratch.List[gatherScan]{New: func() *gatherScan {
	return &gatherScan{seen: make(map[uint64]struct{})}
}}

func (g *gatherScan) release() {
	for _, sc := range g.scans {
		sc.release()
	}
	clear(g.scans)
	g.scans, g.ids, g.pts = g.scans[:0], scratch.Trim(g.ids, maxIdleIDs), scratch.Trim(g.pts, maxIdleIDs)
	if len(g.seen) > maxIdleIDs {
		g.seen = make(map[uint64]struct{})
	} else {
		clear(g.seen)
	}
	gathers.Put(g)
}

// gather is the multi-shard scatter under Search, SearchFunc and Count:
// every target shard is scanned in parallel — the last on the caller's
// goroutine, which would otherwise only wait; the others on the scan's
// bound runAsync — and the union collects in g.ids with duplicate ids
// dropped, and with pairs set their positions in g.pts. Caller holds the
// gate shared.
func (x *index) gather(g *gatherScan, q Rect, targets []int, pairs bool) error {
	if len(targets) == 0 {
		return nil // an invalid window meets no shard
	}
	for _, s := range targets {
		sc := searchScans.Get()
		sc.stack, sc.q, sc.wg = x.readFrom(s), q, &g.wg
		if pairs {
			sc.visit = sc.pairOne
		}
		g.scans = append(g.scans, sc)
	}
	last := len(g.scans) - 1
	g.wg.Add(last)
	for _, sc := range g.scans[:last] {
		go sc.runAsync()
	}
	sc := g.scans[last]
	sc.err = sc.stack.scan(sc, q)
	g.wg.Wait()
	for _, sc := range g.scans {
		if sc.err != nil {
			return sc.err
		}
	}
	if len(g.scans) == 1 { // one shard reports each id once
		g.ids, g.pts = append(g.ids, sc.ids...), append(g.pts, sc.pts...)
		return nil
	}
	for _, sc := range g.scans {
		for i, id := range sc.ids {
			if _, dup := g.seen[id]; dup {
				continue
			}
			g.seen[id] = struct{}{}
			g.ids = append(g.ids, id)
			if pairs {
				g.pts = append(g.pts, sc.pts[i])
			}
		}
	}
	return nil
}

// SearchFunc hands visit each object inside q, once each, even when the
// scatter races a cross-shard move that makes the object surface in two
// shards. The objects are collected first, into kept scratch, under the
// read's locks — the gate, each shard's shared granule locks and latch —
// and visit runs after every lock is released, never concurrently. So
// visit may call back into the index. Returning false stops the visits,
// not the scan: the read is over before the first visit.
func (x *index) SearchFunc(q Rect, visit func(id uint64, p Point) bool) error {
	g := gathers.Get()
	defer g.release()
	if err := x.collect(g, q); err != nil {
		return err
	}
	for i, id := range g.ids {
		if !visit(id, g.pts[i]) {
			break
		}
	}
	return nil
}

// collect is SearchFunc's read: the objects inside q, ids and positions,
// gathered into g under the shared gate.
func (x *index) collect(g *gatherScan, q Rect) error {
	x.gate.RLock()
	defer x.gate.RUnlock()
	var buf [stackShards]int
	return x.gather(g, q, x.router.AppendShardsFor(buf[:0], q), true)
}

// Count returns the number of objects inside q. A single-shard window
// counts directly in that shard; a multi-shard window gathers ids and
// counts the distinct ones — summing per-shard counts would double-count
// an object a racing cross-shard move surfaced in two shard visits.
func (x *index) Count(q Rect) (int, error) {
	x.gate.RLock()
	defer x.gate.RUnlock()
	var buf [stackShards]int
	targets := x.router.AppendShardsFor(buf[:0], q)
	if len(targets) == 1 {
		return x.readFrom(targets[0]).Count(q)
	}
	g := gathers.Get()
	defer g.release()
	err := x.gather(g, q, targets, false)
	return len(g.ids), err
}

// Nearest returns the k objects nearest to p in increasing distance. The
// shards are visited best-first in order of the MinDist from p to each
// shard's responsibility region; the scan stops as soon as the next
// region lies farther than the current k-th neighbour, so on clustered
// queries most shards are never touched. Within each visited shard the
// query holds that shard's whole-tree granule shared — updates elsewhere
// keep running, which is the point of sharding the NN path.
//
// The shards' lists and their merges are built in a kept scratch, and
// the result is copied out of it once.
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
	if len(x.shards) == 1 {
		return x.readFrom(0).Nearest(p, k)
	}
	// The order lives on the stack up to 16 shards, and the sort takes no
	// reflection swapper.
	var buf [stackShards]shardDist
	order := buf[:0]
	for s := range x.shards {
		order = append(order, shardDist{s: s, dist: x.router.Region(s).MinDistPoint(p)})
	}
	slices.SortFunc(order, nearerShard)
	m := merges.Get()
	defer m.release()
	best := m.best[:0]
	for _, sd := range order {
		// Prune only when k candidates are already in hand: with fewer
		// than k gathered (empty or sparse shards — the common state under
		// skew), every remaining shard must still be visited no matter how
		// far its region lies, or the scan would return an under-filled
		// result while farther shards hold real neighbours.
		if len(best) == k && sd.dist > best[k-1].Dist {
			break
		}
		ns, err := x.readFrom(sd.s).nearest(p, k, slices.Grow(m.shard[:0], k))
		m.shard = ns
		if err != nil {
			return nil, err
		}
		m.merged = mergeNeighbors(m.merged[:0], best, ns, k)
		best, m.merged = m.merged, best
	}
	m.best = best
	return slices.Clone(best), nil
}

// shardDist is a shard and the distance from the query point to its
// region.
type shardDist struct {
	s    int
	dist float64
}

// nearerShard orders shards by distance, then by number.
func nearerShard(a, b shardDist) int {
	return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.s, b.s))
}

// nearestMerge is the scratch of one multi-shard Nearest: the best list
// so far, the shard list being merged in, and the room the merge fills.
type nearestMerge struct {
	best, shard, merged []Neighbor
}

var merges scratch.List[nearestMerge]

// maxIdleNeighbors is the most room a merge keeps per list between reads.
const maxIdleNeighbors = 1 << 8

func (m *nearestMerge) release() {
	m.best = scratch.Trim(m.best, maxIdleNeighbors)
	m.shard = scratch.Trim(m.shard, maxIdleNeighbors)
	m.merged = scratch.Trim(m.merged, maxIdleNeighbors)
	merges.Put(m)
}

// mergeNeighbors appends to dst the k nearest of two neighbour lists, each
// ascending by distance and free of repeated ids: ascending by distance,
// the smaller id first where one of a meets one of b at the same
// distance. An id both lists hold is kept once, at its nearer copy: shard
// visits racing a cross-shard move can both report the mover.
func mergeNeighbors(dst, a, b []Neighbor, k int) []Neighbor {
	start := len(dst)
	for len(dst)-start < k && len(a)+len(b) > 0 {
		from := &a
		if len(a) == 0 || len(b) > 0 &&
			(b[0].Dist < a[0].Dist || b[0].Dist == a[0].Dist && b[0].ID < a[0].ID) {
			from = &b
		}
		n := (*from)[0]
		*from = (*from)[1:]
		// A repeated id is looked for among the neighbours already taken.
		if !slices.ContainsFunc(dst[start:], func(o Neighbor) bool { return o.ID == n.ID }) {
			dst = append(dst, n)
		}
	}
	return dst
}
