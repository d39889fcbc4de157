package burtree

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"burtree/internal/core"
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
	// shard.MaxShards). Each shard is a self-contained ConcurrentIndex
	// with its own page store, buffer pool, hash index and lock manager.
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

// ShardedIndex partitions the data space across N self-contained
// ConcurrentIndex shards so that updates in different regions contend on
// nothing at all — not even a shared buffer-pool latch or lock-manager
// mutex. It offers the familiar front-end API: updates, batched updates,
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
	shards  []*ConcurrentIndex
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

	// The global object table; single-object writes run its pipeline
	// (runStep) with this index as the target: a routed apply, and the
	// log of the shard that owns the object afterwards.
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
	// fgPages feeds to LoadTracker.SampleAt run backward.
	pageBase []uint64
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

// ioMark brackets one shard operation for foreground I/O attribution:
// done() reports the pages the shard spent since the mark, minus the
// background merge-down pages, clamped at zero. Pages from overlapping
// operations on the same shard land in every open bracket, so the
// bracketed costs over-count under concurrency — they feed per-cell
// attribution and observability, where only relative weight within a
// shard matters. The rebalancer's per-shard share signal samples the
// exact cumulative page counters instead (fgPages → SampleAt).
type ioMark struct {
	sh    *ConcurrentIndex
	pages uint64
	bg    uint64
}

func meterShard(sh *ConcurrentIndex) ioMark {
	return ioMark{sh: sh, pages: sh.pagesNow(), bg: sh.bgPages.Load()}
}

func (m ioMark) done() uint64 {
	return uint64(foregroundPages(m.sh.pagesNow()-m.pages, m.sh.bgPages.Load()-m.bg))
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
		out[s] = x.pageBase[s] + uint64(foregroundPages(sh.pagesNow(), sh.bgPages.Load()))
	}
	return out
}

// retirePagesLocked folds the retiring shards' foreground page counts
// into pageBase before a rebuild replaces them; caller holds opMu
// exclusively.
func (x *ShardedIndex) retirePagesLocked() {
	for s, sh := range x.shards {
		x.pageBase[s] += uint64(foregroundPages(sh.pagesNow(), sh.bgPages.Load()))
	}
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

// shardLog returns shard s's log (nil when durability is off) and
// whether it acknowledges at the append alone, which it does while the
// shard runs a delta tier. Caller holds opMu shared.
func (x *ShardedIndex) shardLog(s int) (*wal.Log, bool) {
	if x.wals == nil {
		return nil, false
	}
	return x.wals[s], x.shards[s].mem != nil
}

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
	shards, err := openShards(opts, sopts.Shards)
	if err != nil {
		return nil, err
	}
	x := &ShardedIndex{
		router:      router,
		shards:      shards,
		options:     opts,
		sopts:       sopts,
		objectTable: objectTable{objects: make(map[uint64]Point)},
		load:        shard.NewLoadTracker(sopts.Shards),
		pageBase:    make([]uint64, sopts.Shards),
		ropts:       sopts.Rebalance.withDefaults(),
	}
	if d := opts.Durability; d.enabled() {
		if err := checkFreshDir(d.Dir); err != nil {
			return nil, err
		}
		x.wals = make([]*wal.Log, len(shards))
		for i := range shards {
			dir := shardLogDir(d.Dir, i)
			if err := checkFreshDir(dir); err != nil {
				return nil, err
			}
			log, err := wal.Open(dir, d.logOptions(0, x.nextLSN))
			if err != nil {
				return nil, err
			}
			x.wals[i] = log
		}
	}
	x.rebalMu.Lock()
	x.startRebalancerLocked()
	x.rebalMu.Unlock()
	return x, nil
}

// perShardOptions divides the index-wide budgets across n shards. The
// shard indexes never log for themselves — the sharded front-end owns
// the per-shard logs — so any durability config is stripped. The
// memtable budget, by contrast, is divided, not stripped: the delta
// tier is per shard (each shard absorbs and merges its own deltas
// independently), which is what keeps merge-down traffic as parallel
// as the write traffic.
func perShardOptions(opts Options, n int) Options {
	per := opts
	per.Durability = Durability{}
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

func openShards(opts Options, n int) ([]*ConcurrentIndex, error) {
	per := perShardOptions(opts, n)
	shards := make([]*ConcurrentIndex, n)
	for i := range shards {
		ci, err := OpenConcurrent(per)
		if err != nil {
			return nil, err
		}
		shards[i] = ci
	}
	return shards, nil
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
	out := make([]int, len(x.shards))
	for i, s := range x.shards {
		out[i] = s.Len()
	}
	return out
}

// SetIOLatency simulates a per-page-access service time on every shard's
// store. Zero disables the simulation. The setting survives rebalances:
// shards rebuilt by a partition upgrade inherit it.
func (x *ShardedIndex) SetIOLatency(d time.Duration) {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	x.ioLatency.Store(int64(d))
	for _, s := range x.shards {
		s.SetIOLatency(d)
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
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.objects) != 0 {
		return fmt.Errorf("burtree: BulkInsert on non-empty index")
	}
	if len(ids) != len(pts) {
		return fmt.Errorf("burtree: BulkInsert: %d ids for %d points", len(ids), len(pts))
	}
	if x.sopts.Partition == ShardHilbert {
		router, err := shard.NewHilbertBalanced(len(x.shards), pts)
		if err != nil {
			return fmt.Errorf("burtree: %w", err)
		}
		x.router = router
	}
	objects := make(map[uint64]Point, len(ids))
	perIDs := make([][]uint64, len(x.shards))
	perPts := make([][]Point, len(x.shards))
	for i, id := range ids {
		if _, dup := objects[id]; dup {
			return fmt.Errorf("%w: %d", ErrDuplicateObject, id)
		}
		// Validate every point before any shard loads anything, matching
		// the single-tree path (which validates all rects before packing):
		// a mid-load failure would leave some shards populated and others
		// empty, with no way back to a loadable state.
		if pts[i].X != pts[i].X || pts[i].Y != pts[i].Y {
			return fmt.Errorf("burtree: BulkInsert: object %d has NaN coordinates", id)
		}
		objects[id] = pts[i]
		s := x.router.ShardOf(pts[i])
		perIDs[s] = append(perIDs[s], id)
		perPts[s] = append(perPts[s], pts[i])
	}
	errs := make([]error, len(x.shards))
	var wg sync.WaitGroup
	for s := range x.shards {
		if len(perIDs[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = x.shards[s].BulkInsert(perIDs[s], perPts[s], method)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// A shard failed mid-load while others succeeded. Rebuild every
			// shard empty so the index returns to its pre-call state and a
			// corrected retry is possible. The replaced shards are closed
			// first so their background mergers do not leak.
			if fresh, rerr := openShards(x.options, len(x.shards)); rerr == nil {
				x.retirePagesLocked()
				for _, s := range x.shards {
					_ = s.Close()
				}
				x.shards = fresh
			}
			return err
		}
	}
	x.objects = objects
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
		return errors.New("burtree: Checkpoint requires durability to be enabled")
	}
	for _, l := range x.wals {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	seq := x.lsn.Load()
	path := filepath.Join(x.options.Durability.Dir, snapshotFileName)
	if err := saveToFile(path, x.saveLocked); err != nil {
		return err
	}
	for _, l := range x.wals {
		if err := l.TruncateThrough(seq); err != nil {
			return err
		}
	}
	return nil
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
		err = errors.Join(err, s.Close())
	}
	if x.wals == nil {
		return err
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
	cfg = cfg.withDefaults()
	x.options.Memtable = cfg
	if !cfg.Enabled {
		return
	}
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
// ConcurrentIndex, racing updates of the same object are last-writer-
// wins on the object table; callers that need per-object ordering
// serialize their own access.
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

// absorb implements stepTarget: the sharded front-end keeps no delta
// tier of its own — each shard absorbs for itself inside apply.
func (x *ShardedIndex) absorb(step) bool { return false }

// apply implements stepTarget by routing st to the shard trees: the
// owning shard's insert, delete or bottom-up update, or — for a move
// that changes shards — a delete in the source followed by an insert in
// the destination. Each shard runs the step through its own engine
// (which has no log: the sharded front-end owns the per-shard logs), so
// the caller's table entry is the only state apply does not touch.
//
// A step that succeeds is accounted to the shard that owns the object
// afterwards, with the pages the bracket measured; a cross-shard move
// additionally charges the source its real departure I/O as a zero-op
// cost record at the object's old cell. The inverse steps of an undo
// are not accounted.
func (x *ShardedIndex) apply(st step) error {
	at := st.new
	if st.kind == stepDelete {
		at = st.old
	}
	dst := x.router.ShardOf(at)
	src := dst
	if st.kind == stepMove {
		src = x.router.ShardOf(st.old)
	}
	mDst := meterShard(x.shards[dst])
	var mSrc ioMark
	if src != dst {
		mSrc = meterShard(x.shards[src])
	}
	var err error
	switch {
	case st.kind == stepInsert:
		err = x.shards[dst].Insert(st.id, st.new)
	case st.kind == stepDelete:
		err = x.shards[dst].Delete(st.id)
	case src == dst:
		err = x.shards[dst].Update(st.id, st.new)
	default:
		if err = x.shards[src].Delete(st.id); err != nil {
			break
		}
		if err = x.shards[dst].Insert(st.id, st.new); err != nil {
			// Try to put the object back where it was so the index stays
			// complete; if even that fails the object is lost from the trees
			// and the sticky shard error will surface in CheckInvariants.
			if rerr := x.shards[src].Insert(st.id, st.old); rerr != nil {
				err = fmt.Errorf("burtree: cross-shard move of %d failed (%w) and rollback failed: %v", st.id, err, rerr)
			}
		}
	}
	if err != nil || st.undo {
		return err
	}
	x.load.RecordUpdates(dst, shard.CellKey(at), 1, mDst.done())
	if src != dst {
		x.load.RecordUpdates(src, shard.CellKey(st.old), 0, mSrc.done())
	}
	return nil
}

// logOf implements stepTarget: a step is logged once, in the shard that
// owns the object afterwards (a delete, in the one that owned it);
// replay re-routes it, re-deriving the cross-shard delete+insert.
func (x *ShardedIndex) logOf(st step) (*wal.Log, bool) {
	if st.kind == stepDelete {
		return x.shardLog(x.router.ShardOf(st.old))
	}
	return x.shardLog(x.router.ShardOf(st.new))
}

// reconcile makes the global table follow shard s for the given in-shard
// changes — whatever prefix the shard applied, all of them when its
// batch succeeded — and returns the changes that took effect, old
// position included, when there is a log to record them in.
func (x *ShardedIndex) reconcile(s int, changes []Change) []core.BatchChange {
	var applied []core.BatchChange
	x.mu.Lock()
	for _, c := range changes {
		if p, ok := x.shards[s].Location(c.ID); ok {
			if x.wals != nil && p == c.To {
				applied = append(applied, core.BatchChange{OID: c.ID, Old: x.objects[c.ID], New: p})
			}
			x.objects[c.ID] = p
		}
	}
	x.mu.Unlock()
	return applied
}

// crossMove is one batch change that leaves its shard: a delete in src
// followed by an insert in dst, with enough state to roll back.
type crossMove struct {
	id       uint64
	old, new Point
	src, dst int
	departed bool // the src delete succeeded; dst owes an insert
}

// shardWork is one shard's slice of a batch: in-shard moves plus its
// sides of the cross-shard moves.
type shardWork struct {
	stay []Change     // moves that stay in this shard
	del  []*crossMove // departures (delete here)
	ins  []*crossMove // arrivals (insert here)
}

// UpdateBatch moves many objects at once. The batch is coalesced once
// against the global object table, routed to shards by target cell, and
// applied per shard in parallel: each shard receives its in-shard moves
// as one batched bottom-up pass (its ConcurrentIndex.UpdateBatch) plus
// its share of the cross-shard moves as delete+insert pairs. Work inside
// a shard is applied in a deterministic order (departures sorted by id,
// then the batched moves, then arrivals sorted by id) and no operation
// ever holds locks in two shards, so the schedule is deadlock-free by
// construction. All departures complete before any arrival starts, so
// no mover ever resides in two shards at once (a racing scatter can
// still observe one twice if its shard visits straddle the move; see
// the type comment).
//
// Every id must already be in the index; an unknown id fails the whole
// batch before anything is applied. A batch is not atomic: when a change
// fails, the changes already applied remain applied (the returned
// BatchResult counts them). Only a failed log append takes work back:
// the changes that record would have covered — one shard's in-shard
// moves, or its arrivals — are undone and not counted. Concurrent writes
// to ids that are also in the batch race with it — a racing cross-shard
// move can make part of the batch fail against the moved object's old
// shard — so callers that need per-object ordering serialize their own
// access (disjoint id ranges per writer, as the experiment harness and
// examples do).
func (x *ShardedIndex) UpdateBatch(changes []Change) (BatchResult, error) {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	var res BatchResult
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
	x.mu.RLock()
	coalesced, dropped, err := coalesceChanges(changes, x.objects)
	x.mu.RUnlock()
	if err != nil {
		return res, err
	}
	res.Coalesced = dropped

	work := make([]shardWork, len(x.shards))
	for _, c := range coalesced {
		src, dst := x.router.ShardOf(c.Old), x.router.ShardOf(c.New)
		if src == dst {
			work[src].stay = append(work[src].stay, Change{ID: c.OID, To: c.New})
			continue
		}
		cm := &crossMove{id: c.OID, old: c.Old, new: c.New, src: src, dst: dst}
		work[src].del = append(work[src].del, cm)
		work[dst].ins = append(work[dst].ins, cm)
	}

	pagesTally := make([]uint64, len(x.shards))
	var resMu sync.Mutex

	// Phase 1, per shard in parallel: departures (sorted by id), then
	// the in-shard batch. An error stops that shard's remaining work;
	// the other shards and phase 2 still run, so every departed mover
	// gets its arrival attempted — a batch is not atomic, but it never
	// strands an object outside every shard.
	errs := make([]error, len(x.shards))
	var wg sync.WaitGroup
	for s := range x.shards {
		w := &work[s]
		if len(w.stay) == 0 && len(w.del) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, w *shardWork) {
			defer wg.Done()
			m := meterShard(x.shards[s])
			defer func() { pagesTally[s] += m.done() }()
			sort.Slice(w.del, func(i, j int) bool { return w.del[i].id < w.del[j].id })
			for _, cm := range w.del {
				if err := x.shards[s].Delete(cm.id); err != nil {
					errs[s] = err
					return
				}
				cm.departed = true
			}
			if len(w.stay) == 0 {
				return
			}
			br, err := x.shards[s].UpdateBatch(w.stay)
			// Reconcile the global table with whatever prefix the shard
			// applied (all of it when err == nil), collecting the applied
			// changes for the shard's log record.
			applied := x.reconcile(s, w.stay)
			log, async := x.shardLog(s)
			if werr := logBatch(log, async, applied); werr != nil {
				// Applied but not logged: the prefix goes back through the
				// same shard batch and the table follows the shard again,
				// so the failed record acks nothing.
				back := make([]Change, len(applied))
				for i, c := range applied {
					back[i] = Change{ID: c.OID, To: c.Old}
				}
				_, uerr := x.shards[s].UpdateBatch(back)
				x.reconcile(s, back)
				br.Applied, br.Absorbed = 0, 0
				err = errors.Join(err, werr, uerr)
			}
			resMu.Lock()
			res.Applied += br.Applied
			res.Groups += br.Groups
			res.GroupResolved += br.GroupResolved
			res.Fallback += br.Fallback
			res.Absorbed += br.Absorbed
			resMu.Unlock()
			if err != nil {
				errs[s] = err
			}
		}(s, w)
	}
	wg.Wait()

	// Phase 2, per shard in parallel: arrivals (sorted by id) of the
	// movers whose departure succeeded. The barrier between the phases
	// is what keeps a mover from being visible in two shards at once.
	for s := range x.shards {
		w := &work[s]
		if len(w.ins) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, w *shardWork) {
			defer wg.Done()
			m := meterShard(x.shards[s])
			defer func() { pagesTally[s] += m.done() }()
			sort.Slice(w.ins, func(i, j int) bool { return w.ins[i].id < w.ins[j].id })
			var arrived []core.BatchChange
			n := 0
			for _, cm := range w.ins {
				if !cm.departed {
					continue
				}
				if err := x.shards[s].Insert(cm.id, cm.new); err != nil {
					// Put the object back in its source shard so the index
					// stays complete; the global table keeps the old point.
					if rerr := x.shards[cm.src].Insert(cm.id, cm.old); rerr != nil {
						err = fmt.Errorf("burtree: cross-shard move of %d failed (%w) and rollback failed: %v", cm.id, err, rerr)
					}
					// Join rather than keep-first: a phase-1 error must not
					// mask an arrival failure (possible object loss).
					errs[s] = errors.Join(errs[s], err)
					continue
				}
				x.mu.Lock()
				x.objects[cm.id] = cm.new
				x.mu.Unlock()
				n++
				if x.wals != nil {
					arrived = append(arrived, core.BatchChange{OID: cm.id, Old: cm.old, New: cm.new})
				}
			}
			// One record covers this shard's arrivals; replay re-routes
			// each move, re-deriving the cross-shard delete+insert.
			log, async := x.shardLog(s)
			if werr := logBatch(log, async, arrived); werr != nil {
				// Arrived but not logged: each mover goes back through the
				// routed apply to the shard it came from, and the table is
				// compare-and-restored, so the failed record acks nothing.
				for _, c := range arrived {
					st := step{kind: stepMove, id: c.OID, old: c.Old, new: c.New}
					werr = errors.Join(werr, x.apply(st.inverse()))
					x.restore(st, x, false)
				}
				n = 0
				errs[s] = errors.Join(errs[s], werr)
			}
			resMu.Lock()
			res.Applied += n
			res.CrossShard += n
			if x.shards[s].mem != nil {
				res.Absorbed += n
			}
			resMu.Unlock()
		}(s, w)
	}
	wg.Wait()
	// Record each shard's offered ops with its measured foreground pages
	// (even on error — the I/O was spent). Departure-only shards record
	// pages with zero histogram ops: their moves were tallied at the
	// destination.
	for s := range x.shards {
		if len(offered[s]) > 0 || pagesTally[s] > 0 {
			x.load.RecordBatch(s, pagesTally[s], offered[s])
			res.PageIO += int(pagesTally[s])
		}
	}
	for _, e := range errs {
		if e != nil {
			return res, e
		}
	}
	return res, nil
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

// mergeNeighbors merges two ascending neighbour lists, keeping the k
// nearest with deterministic (distance, id) ordering. Ids are
// de-duplicated, keeping the nearest copy: shard visits racing a
// cross-shard move can both report the mover.
func mergeNeighbors(a, b []Neighbor, k int) []Neighbor {
	out := append(a, b...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	seen := make(map[uint64]struct{}, len(out))
	kept := out[:0]
	for _, n := range out {
		if _, dup := seen[n.ID]; dup {
			continue
		}
		seen[n.ID] = struct{}{}
		kept = append(kept, n)
	}
	out = kept
	if len(out) > k {
		out = out[:k]
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
		st, c := s.Stats()
		cs[i] = c
		agg.DiskReads += st.DiskReads
		agg.DiskWrites += st.DiskWrites
		agg.BufferHits += st.BufferHits
		agg.Splits += st.Splits
		agg.Reinserts += st.Reinserts
		agg.Evictions += st.Evictions
		agg.DirtyWriteBacks += st.DirtyWriteBacks
		agg.PinFallbacks += st.PinFallbacks
		agg.Pages += st.Pages
		agg.Size += st.Size
		if st.Height > agg.Height {
			agg.Height = st.Height
		}
		agg.Outcomes.InLeaf += st.Outcomes.InLeaf
		agg.Outcomes.Extended += st.Outcomes.Extended
		agg.Outcomes.Shifted += st.Outcomes.Shifted
		agg.Outcomes.Piggyback += st.Outcomes.Piggyback
		agg.Outcomes.Ascended += st.Outcomes.Ascended
		agg.Outcomes.TopDown += st.Outcomes.TopDown
		agg.Memtable = agg.Memtable.add(st.Memtable)
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

// CheckInvariants validates every shard plus the sharding invariants:
// the global object table partitions exactly into the shard tables, and
// every object lives in the shard its position routes to. Callers must
// ensure no updates are in flight.
func (x *ShardedIndex) CheckInvariants() error {
	x.opMu.RLock()
	defer x.opMu.RUnlock()
	total := 0
	for i, s := range x.shards {
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		total += s.Len()
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	if total != len(x.objects) {
		return fmt.Errorf("burtree: shard sizes sum to %d, global table has %d", total, len(x.objects))
	}
	for id, p := range x.objects {
		s := x.router.ShardOf(p)
		got, ok := x.shards[s].Location(id)
		if !ok {
			return fmt.Errorf("burtree: object %d (at %v) missing from owning shard %d", id, p, s)
		}
		if got != p {
			return fmt.Errorf("burtree: object %d at %v in shard %d, global table says %v", id, got, s, p)
		}
	}
	return nil
}
