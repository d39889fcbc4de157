package burtree

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"burtree/internal/core"
	"burtree/internal/rtree"
	"burtree/internal/shard"
	"burtree/internal/wal"
)

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
// latch or lock-manager mutex. What an index has once it has once here
// too, above the stacks: the object table, the gate and the log handles;
// routing is a stage of the one mutation pipeline that runs on that
// table. It offers the familiar front-end API: updates, batched updates,
// window and nearest-neighbour queries, bulk loading and snapshots, and
// is safe for concurrent use by any number of goroutines.
//
//   - Writes route by target cell: an object lives in the shard owning
//     its current position. A move within one shard is that shard's
//     bottom-up update; a move across shards becomes a delete in the
//     source and an insert in the destination.
//   - Search and Count scatter to the shards overlapping the window and
//     gather the results; each object is owned by exactly one shard, so
//     the union is exact and duplicate-free.
//   - Nearest runs best-first over a shard priority queue ordered by the
//     MinDist of each shard's responsibility region, stopping as soon as
//     the next region lies farther than the current k-th neighbour.
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
	router  *shard.Router
	shards  []*treeStack
	options Options      // as passed to OpenSharded (totals, not per shard)
	sopts   ShardOptions // normalized

	// opMu is the snapshot gate: operations hold it shared for their
	// whole duration, Save/BulkInsert/Flush hold it exclusively so they
	// observe (and produce) a quiescent, globally consistent state.
	// With durability enabled it doubles as the checkpoint gate: log
	// appends happen inside the operation's shared hold, so an
	// exclusive holder never catches an operation between applying and
	// logging.
	opMu sync.RWMutex

	// The index's one object table — no shard keeps another. Writes run
	// its pipeline (runStep, reserveBatch) with this index as the target:
	// absorb and apply routed to the stacks the step touches, and the log
	// of the shard that owns the object afterwards.
	objectTable

	// wals holds one write-ahead log per shard when durability is
	// enabled (nil otherwise): commit streams share no fsync, lock or
	// buffer — only the lsn counter, one atomic increment per record,
	// which stitches the per-shard streams into a single total order
	// for recovery. walSeq is the sequence the loaded snapshot covers.
	wals   []*wal.Log
	lsn    atomic.Uint64
	walSeq uint64

	// load accumulates per-shard operation counts and the per-cell
	// update histogram the rebalancer splits on; see ShardLoads.
	load *shard.LoadTracker
	// routerEpoch counts boundary changes (guarded by opMu; bumped under
	// the exclusive gate, persisted in the sharded manifest).
	routerEpoch uint64
	// pageBase carries each shard slot's cumulative foreground page
	// count across shard rebuilds (guarded by opMu like the shards
	// slice): a boundary change that replaces the shards would otherwise
	// reset their page counters to zero and make the cumulative sequence
	// fgPages feeds to LoadTracker.SampleAt run backward. bgBase does
	// the same for the merge-down pages ShardLoads reports.
	pageBase []uint64
	bgBase   []uint64
	// ioLatency remembers the simulated per-page latency so shards
	// rebuilt by a rebalance keep paying it.
	ioLatency atomic.Int64

	// rebalMu guards the rebalancer configuration and loop lifecycle.
	rebalMu   sync.Mutex
	ropts     RebalanceOptions
	rebalCool int // qualifying windows left to skip (Cooldown hysteresis)
	rebalStop chan struct{}
	rebalWG   sync.WaitGroup
}

// fgPages snapshots every shard's exact cumulative foreground page
// count — pages read plus written, minus background merge-down pages —
// offset by pageBase so the sequence stays monotone across shard
// rebuilds. This is the page stream LoadTracker.SampleAt consumes.
func (x *ShardedIndex) fgPages() []uint64 {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	return x.fgPagesLocked()
}

// fgPagesLocked is fgPages for callers already holding opMu (shared or
// exclusive).
func (x *ShardedIndex) fgPagesLocked() []uint64 {
	out := make([]uint64, len(x.shards))
	for s, sh := range x.shards {
		out[s] = x.pageBase[s] + foregroundPages(sh.pagesNow(), sh.bgPages.Load())
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

// nextLSN hands out globally ordered record sequences to the per-shard
// logs.
func (x *ShardedIndex) nextLSN() uint64 { return x.lsn.Add(1) }

// OpenSharded creates an empty sharded index. The Options are totals for
// the whole index: the buffer pool and hash-index budgets are divided
// evenly among the shards, so comparing shard counts compares equal
// hardware.
func OpenSharded(opts Options, sopts ShardOptions) (*ShardedIndex, error) {
	if err := opts.Durability.validate(); err != nil {
		return nil, err
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
	x := newSharded(router, opts, sopts, make(map[uint64]Point))
	if x.shards, err = x.openShards(); err != nil {
		return nil, err
	}
	if d := opts.Durability; d.enabled() {
		if err := checkFreshDir(d.Dir); err != nil {
			return nil, err
		}
		for i := range x.shards {
			if err := checkFreshDir(shardLogDir(d.Dir, i)); err != nil {
				return nil, err
			}
		}
		if err := x.openLogs(d, 0); err != nil {
			return nil, err
		}
	}
	x.SetRebalance(sopts.Rebalance)
	return x, nil
}

// newSharded assembles an index around its router, options and object
// table; the caller installs the stacks (fresh or loaded).
func newSharded(router *shard.Router, opts Options, sopts ShardOptions, objects map[uint64]Point) *ShardedIndex {
	return &ShardedIndex{
		router:      router,
		options:     opts,
		sopts:       sopts,
		objectTable: objectTable{objects: objects},
		load:        shard.NewLoadTracker(sopts.Shards),
		pageBase:    make([]uint64, sopts.Shards),
		bgBase:      make([]uint64, sopts.Shards),
		ropts:       sopts.Rebalance.withDefaults(),
	}
}

// openLogs opens one log per shard under d, continuing the shared
// sequence after startAfter.
func (x *ShardedIndex) openLogs(d Durability, startAfter uint64) error {
	x.lsn.Store(startAfter)
	x.wals = make([]*wal.Log, len(x.shards))
	for i := range x.wals {
		log, err := wal.Open(shardLogDir(d.Dir, i), d.logOptions(startAfter, x.nextLSN))
		if err != nil {
			return err
		}
		x.wals[i] = log
	}
	return nil
}

// perShardOptions divides the index-wide budgets across n shards. The
// memtable budget is divided like the others: the delta tier is per
// shard (each stack absorbs and merges its own deltas independently),
// which is what keeps merge-down traffic as parallel as the write
// traffic. Durability passes through untouched — a stack has no log to
// open; the per-shard logs are the index's.
func perShardOptions(opts Options, n int) Options {
	per := opts
	if per.Memtable.Enabled {
		per.Memtable = per.Memtable.withDefaults()
		per.Memtable.MaxObjects = per.Memtable.MaxObjects / n
		if per.Memtable.MaxObjects < 16 {
			per.Memtable.MaxObjects = 16
		}
	}
	if per.ExpectedObjects == 0 {
		per.ExpectedObjects = 1024
	}
	per.ExpectedObjects = per.ExpectedObjects / n
	if per.ExpectedObjects < 64 {
		per.ExpectedObjects = 64
	}
	if per.BufferPages > 0 {
		per.BufferPages = per.BufferPages / n
		if per.BufferPages < 1 {
			per.BufferPages = 1
		}
	}
	return per
}

// openShards opens a fresh, empty stack per shard under the index's
// options. Every place that needs fresh stacks — open, a failed bulk
// load, a partition upgrade — comes through here, so every one of them
// keeps paying the simulated I/O latency SetIOLatency asked for.
func (x *ShardedIndex) openShards() ([]*treeStack, error) {
	per := perShardOptions(x.options, x.sopts.Shards)
	shards := make([]*treeStack, x.sopts.Shards)
	for i := range shards {
		parts, err := openParts(per)
		if err != nil {
			return nil, err
		}
		parts.store.SetLatency(time.Duration(x.ioLatency.Load()))
		shards[i] = new(treeStack)
		shards[i].init(parts, true)
	}
	return shards, nil
}

// swapShardsLocked installs fresh stacks in place of the current ones,
// folding the retiring stacks' page counts into pageBase and bgBase, and
// closes the replaced stacks so their background mergers do not leak.
// Caller holds opMu exclusively.
func (x *ShardedIndex) swapShardsLocked(fresh []*treeStack) error {
	x.pageBase = x.fgPagesLocked()
	old := x.shards
	x.shards = fresh
	var err error
	for s, sh := range old {
		err = errors.Join(err, sh.close())
		x.bgBase[s] += sh.bgPages.Load() // after close: its final drain counts
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

// shardCounts returns the number of objects per shard. No stack counts
// its own objects — the table is the only place that knows them — so the
// figure is one routing pass over the table. Caller holds opMu.
func (x *ShardedIndex) shardCounts() []int {
	out := make([]int, len(x.shards))
	x.mu.RLock()
	defer x.mu.RUnlock()
	for _, p := range x.objects {
		out[x.router.ShardOf(p)]++
	}
	return out
}

// NumShards returns the shard count.
func (x *ShardedIndex) NumShards() int {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	return len(x.shards)
}

// Partition returns the partitioning scheme in use. A grid partition
// reports ShardHilbert after its first rebalance upgraded it to Hilbert
// ranges.
func (x *ShardedIndex) Partition() PartitionScheme {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	return x.sopts.Partition
}

// ShardLens returns the number of objects per shard (diagnostics and
// balance monitoring).
func (x *ShardedIndex) ShardLens() []int {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	return x.shardCounts()
}

// SetIOLatency simulates a per-page-access service time on every shard's
// store. Zero disables the simulation. The setting survives rebalances:
// shards rebuilt by a partition upgrade inherit it.
func (x *ShardedIndex) SetIOLatency(d time.Duration) {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	x.ioLatency.Store(int64(d))
	for _, s := range x.shards {
		s.store.SetLatency(d)
	}
}

// BulkInsert loads many objects at once into an empty index. With the
// ShardHilbert partition the router is rebuilt first so the Hilbert
// ranges are balanced over the actual data; the objects are then routed
// and every shard bulk-loads its partition in parallel. The whole index
// is locked exclusively for the duration.
func (x *ShardedIndex) BulkInsert(ids []uint64, pts []Point, method PackMethod) error {
	x.opMu.Lock()
	defer x.opMu.Unlock()
	if x.Len() != 0 {
		return fmt.Errorf("burtree: BulkInsert on non-empty index")
	}
	items, objects, err := packItems(ids, pts)
	if err != nil {
		return err
	}
	router := x.router
	if x.sopts.Partition == ShardHilbert {
		if router, err = shard.NewHilbertBalanced(len(x.shards), pts); err != nil {
			return fmt.Errorf("burtree: %w", err)
		}
	}
	if err := loadShards(x.shards, router, items, method); err != nil {
		// A shard failed mid-load while others succeeded. Replace every
		// shard with an empty one so the index returns to its pre-call
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
	// With durability on, the snapshot (not per-object log records) is
	// the durable form of a bulk load — it also persists the router the
	// Hilbert path just rebuilt, which recovery must route with.
	if x.wals != nil {
		return x.checkpointLocked()
	}
	return nil
}

// Checkpoint makes the whole index state durable in one snapshot and
// truncates every shard's log: the sharded snapshot (manifest, router
// spec and one blob per shard) is written atomically to the durability
// directory, embedding the shared log sequence it covers. The whole
// index is gated exclusively, so the snapshot is a globally quiescent
// point. Requires durability to be enabled.
func (x *ShardedIndex) Checkpoint() error {
	x.opMu.Lock()
	defer x.opMu.Unlock()
	return x.checkpointLocked()
}

// checkpointLocked is Checkpoint with the snapshot gate already held.
func (x *ShardedIndex) checkpointLocked() error {
	if x.wals == nil {
		return errNoDurability
	}
	return checkpoint(x.options.Durability.Dir, x.wals, x.lsn.Load, x.saveLocked)
}

// Close stops the rebalancer loop (if running) and closes every shard
// (stopping its background merger and merging buffered deltas down),
// then syncs and closes every shard's write-ahead log (no-op without
// durability). Reads keep working; further mutations fail their durable
// append. Close does not checkpoint: recovery replays the logs onto the
// last snapshot.
func (x *ShardedIndex) Close() error {
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

// ensureMemtable re-enables the per-shard delta tiers on a loaded
// snapshot (loaders never enable the tier themselves); used by
// RecoverSharded before replaying the log tails.
func (x *ShardedIndex) ensureMemtable(cfg Memtable) {
	x.options.Memtable = cfg.withDefaults()
	per := perShardOptions(x.options, len(x.shards))
	for _, s := range x.shards {
		s.ensureMemtable(per.Memtable)
	}
}

// Insert adds a new object at p, routed to the shard owning p.
func (x *ShardedIndex) Insert(id uint64, p Point) error {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	return x.runStep(step{kind: stepInsert, id: id, new: p}, x)
}

// Update moves an existing object to p. A move within one shard runs
// that shard's bottom-up update; a move across shards becomes a delete
// in the source shard followed by an insert in the destination. As with
// ConcurrentIndex, racing single-object writes to one id run one after
// the other, whichever shards they touch; see engine.Update.
func (x *ShardedIndex) Update(id uint64, p Point) error {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	return x.runStep(step{kind: stepMove, id: id, new: p}, x)
}

// Delete removes an object from its owning shard.
func (x *ShardedIndex) Delete(id uint64) error {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	return x.runStep(step{kind: stepDelete, id: id}, x)
}

// route names the stack st takes the object from and the one that owns
// it afterwards — the same for an insert, a delete and a move that stays
// in its shard — with the position that decides the latter.
func (x *ShardedIndex) route(st step) (src, dst int, at Point) {
	at = st.new
	if st.kind == stepDelete {
		at = st.old
	}
	dst = x.router.ShardOf(at)
	src = dst
	if st.kind == stepMove {
		src = x.router.ShardOf(st.old)
	}
	return src, dst, at
}

// tiered implements stepTarget: the stacks run a delta tier each, or none
// does.
func (x *ShardedIndex) tiered() bool { return x.shards[0].tiered() }

// absorb implements stepTarget, routed, under the one table lock: a step
// that stays in its shard is that stack's delta; a move that changes
// shards leaves a tombstone in the source stack's tier and an insert in
// the destination's, so each stack's merge-down later does its own half.
func (x *ShardedIndex) absorb(st step) {
	src, dst, _ := x.route(st)
	if src == dst {
		x.shards[dst].absorb(st)
		return
	}
	x.shards[src].absorb(step{kind: stepDelete, id: st.id, old: st.old})
	x.shards[dst].absorb(step{kind: stepInsert, id: st.id, new: st.new})
}

// apply implements stepTarget by routing st to the stack trees, with
// st.old from the one table: the owning stack's insert, delete or
// bottom-up update, or — for a move that changes shards — a relocation
// from the source stack to the destination.
//
// A step that succeeds is accounted to the shard that owns the object
// afterwards, with the pages the bracket measured; a cross-shard move
// additionally charges the source its real departure I/O as a zero-op
// cost record at the object's old cell. The inverse steps of an undo
// are not accounted.
func (x *ShardedIndex) apply(st step) error {
	src, dst, at := x.route(st)
	mDst := meterShard(x.shards[dst])
	var err error
	if src == dst {
		if err = x.shards[dst].apply(st); err != nil || st.undo {
			return err
		}
	} else {
		mSrc := meterShard(x.shards[src])
		if err = relocate(x.shards[src], x.shards[dst], st.id, st.old, st.new); err != nil || st.undo {
			return err
		}
		x.load.RecordUpdates(src, shard.CellKey(st.old), 0, mSrc.done())
	}
	x.load.RecordUpdates(dst, shard.CellKey(at), 1, mDst.done())
	return nil
}

// logOf implements stepTarget: a step is logged once, in the shard that
// owns the object afterwards (a delete, in the one that owned it);
// replay re-routes it, re-deriving the cross-shard delete+insert.
func (x *ShardedIndex) logOf(st step) *wal.Log {
	if x.wals == nil {
		return nil // nothing to route for
	}
	_, dst, _ := x.route(st)
	return x.wals[dst]
}

// acked implements stepTarget. An absorbed step never reached apply, so
// it is accounted here — to the shard that owns the object afterwards,
// at no page cost — and the stacks whose tiers it grew get their
// merge-down kick (background stacks only kick; they return no error).
func (x *ShardedIndex) acked(st step) error {
	if !x.tiered() {
		return nil
	}
	src, dst, at := x.route(st)
	x.load.RecordUpdates(dst, shard.CellKey(at), 1, 0)
	if src != dst {
		_ = x.shards[src].afterAck()
	}
	return x.shards[dst].afterAck()
}

// crossMove is one batch change that leaves its shard: a delete in src
// followed by an insert in dst, with enough state to roll back.
type crossMove struct {
	core.BatchChange
	src, dst int
	departed bool // the src delete succeeded; dst owes an insert
}

// shardWork is one shard's slice of a batch: the coalesced moves that
// end in this shard — on the tree path only those that also start here,
// the others being the batch's cross moves — plus how many cross moves
// it has a side of.
type shardWork struct {
	stay    []core.BatchChange
	departs int // cross moves that leave this shard
	arrives int // moves that came from another shard: cross moves that end here or, on the tiered path, changes in stay
}

// batchRun is the state the phases of one UpdateBatch share: the routed
// work — per shard, and the tree path's cross-shard moves in id order —
// and, per shard, the foreground pages measured and the first failure;
// res is guarded by mu while a phase runs.
type batchRun struct {
	work  []shardWork
	cross []crossMove
	pages []uint64
	errs  []error
	mu    sync.Mutex
	res   BatchResult
}

// routeBatch splits a coalesced batch by shard. On the tiered path there
// are no departures or arrivals to schedule — the batch is already
// absorbed — so a shard's group is everything it owns afterwards, the
// unit of its log record.
func (x *ShardedIndex) routeBatch(b *batchRun, coalesced []core.BatchChange, tiered bool) {
	b.work = make([]shardWork, len(x.shards))
	for _, c := range coalesced {
		src, dst := x.router.ShardOf(c.Old), x.router.ShardOf(c.New)
		if src != dst {
			b.work[dst].arrives++
			if !tiered {
				b.work[src].departs++
				b.cross = append(b.cross, crossMove{BatchChange: c, src: src, dst: dst})
				continue
			}
		}
		b.work[dst].stay = append(b.work[dst].stay, c)
	}
	// Each shard carries out its departures, and later its arrivals, in id
	// order (slices.SortFunc: unlike sort.Slice it allocates nothing).
	slices.SortFunc(b.cross, func(a, c crossMove) int { return cmp.Compare(a.OID, c.OID) })
}

// scatter runs one phase of a batch on every shard the phase has work
// for, in parallel — no operation ever holds locks in two shards, so the
// schedule is deadlock-free by construction — and folds each shard's
// result, failure and bracketed page I/O into the run. It returns when
// every shard is done: the barrier between the phases.
func (x *ShardedIndex) scatter(b *batchRun, has func(*shardWork) bool, phase func(s int) (BatchResult, error)) {
	var wg sync.WaitGroup
	for s := range b.work {
		if !has(&b.work[s]) {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			m := meterShard(x.shards[s])
			br, err := phase(s)
			b.pages[s] += m.done()
			// Join rather than keep-first: a phase-1 error must not mask an
			// arrival failure (possible object loss).
			b.errs[s] = errors.Join(b.errs[s], err)
			b.mu.Lock()
			b.res.Applied += br.Applied
			b.res.Groups += br.Groups
			b.res.GroupResolved += br.GroupResolved
			b.res.Fallback += br.Fallback
			b.res.CrossShard += br.CrossShard
			b.mu.Unlock()
		}(s)
	}
	wg.Wait()
}

// batchStays is phase 1 of a batch on shard s: the departures, then the
// shard's group — on the tree path its in-shard moves, through the
// stack's batched bottom-up pass; on the tiered path, where the group is
// already absorbed, nothing — and then the group's log record. An error
// stops the shard's remaining work; the other shards and phase 2 still
// run, so every departed mover gets its arrival attempted — a batch is
// not atomic, but it never strands an object outside every shard.
func (x *ShardedIndex) batchStays(b *batchRun, s int, tiered bool) (BatchResult, error) {
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
	// shard's log record.
	applied, err := w.stay, error(nil)
	if tiered {
		br.Applied, br.CrossShard = len(w.stay), w.arrives
	} else {
		applied, err = x.shards[s].applyBatch(&x.objectTable, w.stay, x.wals != nil, &br)
	}
	if werr := logBatch(x, tiered, applied); werr != nil {
		// Applied (or absorbed) but not logged: the prefix goes back the
		// way it came and the table is compare-and-restored, so the failed
		// record acks nothing.
		br.Applied, br.CrossShard = 0, 0
		return br, errors.Join(err, werr, x.undoBatch(applied, x))
	}
	return br, err
}

// batchArrivals is phase 2 of a tree-path batch on shard s: the arrivals
// of the movers whose departure succeeded, and their log record.
func (x *ShardedIndex) batchArrivals(b *batchRun, s int) (BatchResult, error) {
	var arrived []core.BatchChange
	var err error
	n := 0
	for i := range b.cross {
		cm := &b.cross[i]
		if cm.dst != s || !cm.departed {
			continue
		}
		if aerr := arrive(x.shards[cm.src], x.shards[s], cm.OID, cm.Old, cm.New); aerr != nil {
			// The mover is back in its source shard (or lost, and reported
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
	// One record covers this shard's arrivals; replay re-routes each
	// move, re-deriving the cross-shard delete+insert.
	if werr := logBatch(x, false, arrived); werr != nil {
		// Arrived but not logged: each mover goes back through the routed
		// apply to the shard it came from, and the table is compare-and-
		// restored, so the failed record acks nothing.
		return BatchResult{}, errors.Join(err, werr, x.undoBatch(arrived, x))
	}
	return BatchResult{Applied: n, CrossShard: n}, err
}

// UpdateBatch moves many objects at once. The batch is coalesced once,
// against the index's one object table, and routed to shards by target
// cell. On the tree path it is applied per shard in parallel: each shard
// receives its in-shard moves, already coalesced, as one batched
// bottom-up pass over its stack plus its share of the cross-shard moves
// as delete+insert pairs. Work inside a shard is applied in a
// deterministic order (departures sorted by id, then the batched moves,
// then arrivals sorted by id). All departures complete before any
// arrival starts, so no mover ever resides in two shards at once (a
// racing scatter can still observe one twice if its shard visits
// straddle the move; see the type comment). With the memtable tier on
// the apply is not scattered: the batch is absorbed atomically under the
// table lock, each change routed to the tier(s) of the stacks it
// touches, and only the log records — one per destination shard — go out
// in parallel.
//
// Every id must already be in the index; an unknown id fails the whole
// batch before anything is applied. A batch is not atomic: when a change
// fails, the changes already applied remain applied (the returned
// BatchResult counts them). Only a failed log append takes work back:
// the changes that record would have covered — one shard's in-shard
// moves (its whole group, on the tiered path), or its arrivals — are
// undone and not counted. Concurrent writes to ids that are also in the
// batch race with it — a racing cross-shard move can make part of the
// batch fail against the moved object's old shard — so callers that need
// per-object ordering serialize their own access (disjoint id ranges per
// writer, as the experiment harness and examples do).
func (x *ShardedIndex) UpdateBatch(changes []Change) (BatchResult, error) {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	// Load accounting tallies the offered stream, before coalescing: a
	// hot object updated many times per batch coalesces into one applied
	// change, but each of those updates was traffic the owning shard
	// absorbed — undercounting them would hide exactly the skew the
	// rebalancer exists to detect. The tallies are recorded after the
	// apply phases, together with each shard's measured page I/O.
	offered := make([][]shard.CellCount, len(x.shards))
	for _, c := range changes {
		s := x.router.ShardOf(c.To)
		offered[s] = addCellCount(offered[s], shard.CellKey(c.To), 1)
	}
	b := batchRun{pages: make([]uint64, len(x.shards)), errs: make([]error, len(x.shards))}
	tiered := x.tiered()
	coalesced, dropped, err := x.reserveBatch(changes, x)
	if err != nil {
		return b.res, err
	}
	b.res.Coalesced = dropped
	x.routeBatch(&b, coalesced, tiered)
	x.scatter(&b, func(w *shardWork) bool { return len(w.stay)+w.departs > 0 },
		func(s int) (BatchResult, error) { return x.batchStays(&b, s, tiered) })
	if tiered {
		b.res.Absorbed = b.res.Applied
		for _, sh := range x.shards {
			_ = sh.afterAck() // a background stack only kicks its merger
		}
	} else {
		x.scatter(&b, func(w *shardWork) bool { return w.arrives > 0 },
			func(s int) (BatchResult, error) { return x.batchArrivals(&b, s) })
	}
	// Record each shard's offered ops with its measured foreground pages
	// (even on error — the I/O was spent). Departure-only shards record
	// pages with zero histogram ops: their moves were tallied at the
	// destination.
	for s := range x.shards {
		if len(offered[s]) > 0 || b.pages[s] > 0 {
			x.load.RecordBatch(s, b.pages[s], offered[s])
			b.res.PageIO += int(b.pages[s])
		}
	}
	for _, e := range b.errs {
		if e != nil {
			return b.res, e
		}
	}
	return b.res, nil
}

// Search returns the ids of all objects inside the window q, scattering
// to the shards overlapping q in parallel and gathering the results.
// Each object is owned by exactly one shard at any instant, but a
// scatter racing a cross-shard move can still see the mover in both its
// shards (delete not yet visited, insert already visited), so the
// gather de-duplicates: every id appears at most once.
func (x *ShardedIndex) Search(q Rect) ([]uint64, error) {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	targets := x.router.ShardsFor(q)
	// Each shard visit is charged its actual page I/O, not a flat count:
	// a wide window over a cold or empty shard costs that shard almost
	// nothing, and the load signal must say so.
	if len(targets) == 1 {
		s := targets[0]
		m := meterShard(x.shards[s])
		out, err := x.shards[s].Search(q)
		x.load.RecordQuery(s, m.done())
		return out, err
	}
	return x.gather(q, targets)
}

// gather is the multi-shard scatter under Search and Count: every target
// shard is searched in parallel, each visit charged its page I/O, and
// the union is returned with duplicate ids dropped. Caller holds opMu
// shared.
func (x *ShardedIndex) gather(q Rect, targets []int) ([]uint64, error) {
	outs := make([][]uint64, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, s := range targets {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			m := meterShard(x.shards[s])
			outs[i], errs[i] = x.shards[s].Search(q)
			x.load.RecordQuery(s, m.done())
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
func (x *ShardedIndex) SearchFunc(q Rect, visit func(id uint64, p Point) bool) error {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	targets := x.router.ShardsFor(q)
	var seen map[uint64]struct{}
	if len(targets) > 1 {
		seen = make(map[uint64]struct{})
	}
	stopped := false
	for _, s := range targets {
		m := meterShard(x.shards[s])
		err := x.shards[s].SearchFunc(q, func(id uint64, p Point) bool {
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
		x.load.RecordQuery(s, m.done())
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
func (x *ShardedIndex) Count(q Rect) (int, error) {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	targets := x.router.ShardsFor(q)
	if len(targets) == 1 {
		s := targets[0]
		m := meterShard(x.shards[s])
		n, err := x.shards[s].Count(q)
		x.load.RecordQuery(s, m.done())
		return n, err
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
func (x *ShardedIndex) Nearest(p Point, k int) ([]Neighbor, error) {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	if k <= 0 {
		return nil, nil
	}
	type shardDist struct {
		s    int
		dist float64
	}
	order := make([]shardDist, len(x.shards))
	for s := range x.shards {
		order[s] = shardDist{s: s, dist: x.router.Region(s).MinDistPoint(p)}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].dist != order[j].dist {
			return order[i].dist < order[j].dist
		}
		return order[i].s < order[j].s
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
		m := meterShard(x.shards[sd.s])
		ns, err := x.shards[sd.s].Nearest(p, k)
		x.load.RecordQuery(sd.s, m.done())
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

// Stats returns the aggregated physical counters and tree shape (sums
// over the shards; Height is the maximum shard height) plus each shard's
// lock-layer counters.
func (x *ShardedIndex) Stats() (Stats, []ConcurrencyStats) {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	var agg Stats
	cs := make([]ConcurrencyStats, len(x.shards))
	for i, s := range x.shards {
		agg = agg.add(s.stats())
		cs[i] = s.tree.Stats()
	}
	return agg, cs
}

// ResetStats zeroes the physical counters of every shard.
func (x *ShardedIndex) ResetStats() {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	for _, s := range x.shards {
		s.ResetStats()
	}
}

// Flush writes all buffered dirty pages of every shard to the simulated
// disk, with the whole index locked exclusively.
func (x *ShardedIndex) Flush() error {
	x.opMu.Lock()
	defer x.opMu.Unlock()
	for _, s := range x.shards {
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants validates every shard's stack against the index's one
// object table — the same entry-by-entry walk Index and ConcurrentIndex
// run, with the sharding invariant added: every object lives in the
// stack its position routes to, and nowhere else. Callers must ensure no
// updates are in flight.
func (x *ShardedIndex) CheckInvariants() error {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	counts := x.shardCounts()
	for i, s := range x.shards {
		owns := func(p Point) bool { return x.router.ShardOf(p) == i }
		if err := s.checkInvariants(&x.objectTable, counts[i], owns); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
