// Package burtree is a disk-oriented R-tree index for frequently updated
// point data — a faithful, production-grade reproduction of
//
//	Lee, Hsu, Jensen, Cui, Teo:
//	"Supporting Frequent Updates in R-Trees: A Bottom-Up Approach",
//	VLDB 2003.
//
// The package indexes moving 2-D point objects and supports three update
// strategies from the paper:
//
//   - TopDown — the classical R-tree update (delete + insert, both
//     top-down): the baseline.
//   - LocalizedBottomUp — Algorithm 1: direct leaf access through a
//     secondary object-id hash index, uniform ε-enlargement of leaf MBRs
//     (bounded by the parent, via leaf parent pointers), sibling shifts.
//   - GeneralizedBottomUp — Algorithm 2: a compact main-memory summary
//     structure over the internal nodes plus a leaf fullness bit vector
//     enables directional ε-extension, bit-vector-screened sibling shifts
//     with piggybacking, ascent to the lowest bounding ancestor
//     (Algorithm 3), and memory-resident query planning.
//
// Beyond the paper, UpdateBatch applies buffered moves through a
// batched bottom-up pipeline: repeated moves of an object coalesce to
// the final position and the surviving changes are grouped by target
// leaf, so each group costs one leaf read, one MBR extension decision
// and one write instead of one of each per object.
//
// Storage is a simulated page store (1 KB pages by default, as in the
// paper) behind an LRU buffer pool, with physical reads and writes
// counted exactly the way the paper's evaluation reports them. The same
// counters are exposed through Stats, so applications can reproduce the
// paper's measurements on their own workloads.
//
// An Index is not safe for concurrent use; see ConcurrentIndex for the
// DGL-locked multi-threaded variant used in the paper's throughput
// study, which offers the same API — updates, batched updates, window
// and nearest-neighbour queries, bulk loading and snapshots — under
// granule locks.
package burtree

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"burtree/internal/buffer"
	"burtree/internal/core"
	"burtree/internal/geom"
	"burtree/internal/memtable"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/stats"
	"burtree/internal/wal"
)

// Point is a location in the 2-D data space.
type Point = geom.Point

// Rect is an axis-aligned query window.
type Rect = geom.Rect

// NewRect builds a rectangle from two corner points in any order.
func NewRect(x1, y1, x2, y2 float64) Rect { return geom.NewRect(x1, y1, x2, y2) }

// Strategy selects the update algorithm.
type Strategy int

const (
	// TopDown is the traditional R-tree update (paper baseline "TD").
	TopDown Strategy = iota
	// LocalizedBottomUp is the paper's Algorithm 1 ("LBU").
	LocalizedBottomUp
	// GeneralizedBottomUp is the paper's Algorithm 2 ("GBU") and the
	// recommended default for update-heavy workloads.
	GeneralizedBottomUp
)

func (s Strategy) String() string {
	switch s {
	case TopDown:
		return "TopDown"
	case LocalizedBottomUp:
		return "LocalizedBottomUp"
	case GeneralizedBottomUp:
		return "GeneralizedBottomUp"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

func (s Strategy) kind() (core.Kind, error) {
	switch s {
	case TopDown:
		return core.TD, nil
	case LocalizedBottomUp:
		return core.LBU, nil
	case GeneralizedBottomUp:
		return core.GBU, nil
	default:
		return 0, fmt.Errorf("burtree: unknown strategy %d", int(s))
	}
}

// Options configures an Index. The zero value selects the paper's
// defaults (the bold entries of its Table 1) with the TopDown strategy;
// set Strategy to GeneralizedBottomUp for the paper's recommended
// configuration.
//
// The tuning parameters carry the paper's names:
//
//	field              paper  default  used by
//	Epsilon            ε      0.003    LBU, GBU (MBR enlargement cap)
//	DistanceThreshold  δ      0.03     GBU (shift-before-extend cutoff)
//	LevelThreshold     λ      ∞        GBU (max ascent above the leaves)
//	PageSize           —      1024 B   all (node fanout follows)
//	ReinsertFraction   —      0.3      all (R*-style forced reinsertion)
type Options struct {
	// Strategy picks the update algorithm.
	Strategy Strategy
	// PageSize is the simulated disk page size in bytes (default 1024,
	// the paper's setting). Node fanout follows from it.
	PageSize int
	// BufferPages is the LRU buffer pool capacity in pages. Zero
	// disables caching (every access is a disk access).
	BufferPages int
	// Epsilon is the paper's ε parameter: the cap on how far a leaf MBR
	// may be enlarged per update (default 0.003, in data-space units of
	// the unit square). LBU enlarges uniformly in all directions; GBU
	// enlarges only toward the movement (Algorithm 4). TopDown ignores
	// it.
	Epsilon float64
	// DistanceThreshold is the paper's δ parameter (default 0.03):
	// objects that moved farther than δ since their last position are
	// likely to leave the neighbourhood for good, so GBU tries a sibling
	// shift before an ε-extension for them, and the reverse for slow
	// movers (§3.2.1 optimization 2).
	DistanceThreshold float64
	// LevelThreshold is the paper's λ parameter: how many levels above
	// the leaves a GBU update may ascend when the local repair fails
	// (Algorithm 3). Zero (the default) means unrestricted — ascend as
	// far as necessary, the paper's recommended setting.
	LevelThreshold int
	// ExpectedObjects sizes the secondary object-id hash index of the
	// bottom-up strategies (default 1024; undersizing costs overflow
	// pages, not correctness).
	ExpectedObjects int
	// ReinsertFraction enables R*-style forced reinsertion on overflow
	// (default 0.3, matching the paper's "R-tree with reinsertions";
	// set negative to disable).
	ReinsertFraction float64
	// SplitAlgorithm selects the node split (default Guttman quadratic).
	SplitAlgorithm rtree.SplitAlgorithm
	// DisablePiggyback turns off the GBU shift piggybacking optimization.
	DisablePiggyback bool
	// DisableSummaryQueries turns off GBU's memory-assisted queries.
	DisableSummaryQueries bool
	// Durability configures the write-ahead log. The zero value keeps
	// the index volatile (snapshots only); see Durability for the
	// per-batch and group-commit modes, Checkpoint and Recover.
	Durability Durability
	// Memtable configures the in-memory delta tier: writes are absorbed
	// into a memory buffer and acknowledged after the WAL append alone,
	// with the tree pass deferred to a background merge-down. The zero
	// value disables the tier; see the Memtable type for the ack, read
	// and recovery semantics.
	Memtable Memtable
}

// ErrUnknownObject reports an operation on an object id that is not in
// the index.
var ErrUnknownObject = errors.New("burtree: unknown object id")

// ErrDuplicateObject reports an insert of an existing object id.
var ErrDuplicateObject = errors.New("burtree: object id already present")

// Index is a single-writer R-tree over moving point objects.
type Index struct {
	store   *pagestore.Store
	pool    *buffer.Pool
	io      *stats.IO
	updater core.Updater
	objects map[uint64]Point
	options Options // as passed to Open, for persistence

	// wal is the write-ahead log when durability is enabled (nil
	// otherwise); walSeq is the log sequence the loaded snapshot covers.
	wal    *wal.Log
	walSeq uint64

	// mem is the in-memory delta tier when Options.Memtable is enabled
	// (nil otherwise). The single-writer Index merges it down inline
	// whenever a write trips the size or age threshold.
	mem *memtable.Table
}

// indexParts is the machinery shared by Index and ConcurrentIndex: the
// simulated store, its buffer pool, the physical counters and the
// configured update strategy.
type indexParts struct {
	store  *pagestore.Store
	pool   *buffer.Pool
	io     *stats.IO
	u      core.Updater
	opts   Options // normalized copy, retained for persistence
	walSeq uint64  // log sequence a loaded snapshot covers (0 when fresh)
}

// openParts builds the common machinery from user options, normalizing
// the zero-value defaults exactly once for both index front-ends.
func openParts(opts Options) (indexParts, error) {
	var parts indexParts
	kind, err := opts.Strategy.kind()
	if err != nil {
		return parts, err
	}
	if opts.PageSize == 0 {
		opts.PageSize = pagestore.DefaultPageSize
	}
	if opts.ExpectedObjects == 0 {
		opts.ExpectedObjects = 1024
	}
	reinsert := opts.ReinsertFraction
	if reinsert == 0 {
		reinsert = 0.3
	}
	if reinsert < 0 {
		reinsert = 0
	}
	lvl := opts.LevelThreshold
	if lvl == 0 {
		lvl = core.UnrestrictedLevels
	}
	opts.Memtable = opts.Memtable.withDefaults()
	io := &stats.IO{}
	store := pagestore.New(opts.PageSize, io)
	pool := buffer.New(store, opts.BufferPages)
	u, err := core.New(pool, core.Options{
		Strategy:          kind,
		Epsilon:           opts.Epsilon,
		DistanceThreshold: opts.DistanceThreshold,
		LevelThreshold:    lvl,
		NoPiggyback:       opts.DisablePiggyback,
		NoSummaryQueries:  opts.DisableSummaryQueries,
		ExpectedObjects:   opts.ExpectedObjects,
		Tree: rtree.Config{
			ReinsertFraction: reinsert,
			Split:            opts.SplitAlgorithm,
		},
	})
	if err != nil {
		return parts, err
	}
	return indexParts{store: store, pool: pool, io: io, u: u, opts: opts}, nil
}

// Open creates an empty index. With Options.Durability enabled, the
// durability directory must not already hold a snapshot or log
// segments — resume existing durable state with Recover instead.
func Open(opts Options) (*Index, error) {
	if err := opts.Durability.validate(); err != nil {
		return nil, err
	}
	parts, err := openParts(opts)
	if err != nil {
		return nil, err
	}
	x := &Index{
		store:   parts.store,
		pool:    parts.pool,
		io:      parts.io,
		updater: parts.u,
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

// PackMethod selects the bulk-load packing algorithm.
type PackMethod int

const (
	// PackSTR uses Sort-Tile-Recursive packing (the default).
	PackSTR PackMethod = iota
	// PackHilbert orders entries along a Hilbert curve before packing
	// (Kamel & Faloutsos), often better on skewed data.
	PackHilbert
)

// packItems validates a bulk-load input and converts it to tree items
// plus a fresh object table, so a failed load leaves the caller's state
// untouched. Shared by both index front-ends.
func packItems(ids []uint64, pts []Point) ([]rtree.Item, map[uint64]Point, error) {
	if len(ids) != len(pts) {
		return nil, nil, fmt.Errorf("burtree: BulkInsert: %d ids for %d points", len(ids), len(pts))
	}
	objects := make(map[uint64]Point, len(ids))
	items := make([]rtree.Item, len(ids))
	for i := range ids {
		if _, dup := objects[ids[i]]; dup {
			return nil, nil, fmt.Errorf("%w: %d", ErrDuplicateObject, ids[i])
		}
		items[i] = rtree.Item{OID: ids[i], Rect: geom.RectFromPoint(pts[i])}
		objects[ids[i]] = pts[i]
	}
	return items, objects, nil
}

// bulkLoad packs items into the strategy's tree with the chosen method.
func bulkLoad(u core.Updater, items []rtree.Item, method PackMethod) error {
	switch method {
	case PackHilbert:
		return u.Tree().BulkLoadHilbert(items, 0.66)
	default:
		return u.Tree().BulkLoad(items, 0.66)
	}
}

// BulkInsert loads many objects at once into an empty index using the
// chosen packing method at ~66% node fill — far faster than repeated
// Insert calls and the usual way to start the paper's experiments.
// With durability enabled, a successful bulk load checkpoints
// immediately: the snapshot, not per-object log records, is the
// durable form of a bulk load.
func (x *Index) BulkInsert(ids []uint64, pts []Point, method PackMethod) error {
	if len(x.objects) != 0 {
		return fmt.Errorf("burtree: BulkInsert on non-empty index")
	}
	items, objects, err := packItems(ids, pts)
	if err != nil {
		return err
	}
	if err := bulkLoad(x.updater, items, method); err != nil {
		return err
	}
	x.objects = objects
	if x.wal != nil {
		return x.Checkpoint()
	}
	return nil
}

// logAppend records an acknowledged mutation in the write-ahead log,
// blocking until it is durable under the configured sync policy.
// No-op when durability is off.
func (x *Index) logAppend(typ wal.Type, ops []wal.Op) error {
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

// Checkpoint makes the whole index state durable in one snapshot and
// truncates the log: the snapshot is written atomically to the
// durability directory (temp file, fsync, rename), embedding the log
// sequence it covers, and every log segment whose records the snapshot
// covers is deleted. Requires durability to be enabled.
func (x *Index) Checkpoint() error {
	if x.wal == nil {
		return errors.New("burtree: Checkpoint requires durability to be enabled")
	}
	if err := x.wal.Sync(); err != nil {
		return err
	}
	seq := x.wal.LastSeq()
	path := filepath.Join(x.options.Durability.Dir, snapshotFileName)
	if err := saveToFile(path, x.Save); err != nil {
		return err
	}
	return x.wal.TruncateThrough(seq)
}

// Close merges any buffered deltas down to the tree, then syncs and
// closes the write-ahead log (no-op without durability). The index
// itself stays usable for reads; further mutations fail their durable
// append. Close does not checkpoint: recovery replays the log onto the
// last snapshot.
func (x *Index) Close() error {
	derr := x.drainMemtable()
	if x.wal == nil {
		return derr
	}
	return errors.Join(derr, x.wal.Close())
}

// ensureMemtable installs the delta tier from cfg; used at Open and
// when recovery re-enables the tier on a loaded snapshot.
func (x *Index) ensureMemtable(cfg Memtable) {
	cfg = cfg.withDefaults()
	x.options.Memtable = cfg
	if cfg.Enabled && x.mem == nil {
		x.mem = memtable.New(cfg.config())
	}
}

// maybeMerge merges the delta tier down inline when a write tripped
// its size or age threshold (the single-writer Index has no background
// goroutine to hand the work to).
func (x *Index) maybeMerge() error {
	if x.mem != nil && x.mem.NeedsMerge(time.Now()) {
		return x.drainMemtable()
	}
	return nil
}

// drainMemtable merges every buffered delta down to the tree. A
// failure to apply an acknowledged delta is sticky — see
// memtable.Table.Fail. No-op when the tier is disabled.
func (x *Index) drainMemtable() error {
	if x.mem == nil {
		return nil
	}
	entries := x.mem.BeginDrain()
	if entries == nil {
		return x.mem.Err()
	}
	// Attribute the drain's page accesses to the tier's merge counter
	// (even on failure — the pages were spent), mirroring the background
	// attribution on ConcurrentIndex; the single-writer Index just runs
	// its merges inline.
	pre := uint64(x.io.Reads() + x.io.Writes())
	err := drainEntries(entries, x.updater.Delete, x.updater.Insert, func(chs []core.BatchChange) error {
		_, err := core.ApplyBatch(x.updater, chs, func(core.BatchChange) {})
		return err
	}, 1)
	if d := uint64(x.io.Reads()+x.io.Writes()) - pre; d > 0 {
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
func (x *Index) Insert(id uint64, p Point) error {
	if _, ok := x.objects[id]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateObject, id)
	}
	if x.mem != nil {
		if err := validatePoint(p); err != nil {
			return err
		}
		x.mem.Insert(id, p)
		x.objects[id] = p
		if err := x.logAppend(wal.TypeInsert, []wal.Op{{ID: id, X: p.X, Y: p.Y}}); err != nil {
			// Absorbed but not logged: the caller sees an error, so the
			// insert must not stick — recovery would silently lose an
			// object the index still serves. The delete delta cancels the
			// absorbed insert outright.
			x.mem.Delete(id, p)
			delete(x.objects, id)
			return err
		}
		return x.maybeMerge()
	}
	if err := x.updater.Insert(id, p); err != nil {
		return err
	}
	x.objects[id] = p
	if err := x.logAppend(wal.TypeInsert, []wal.Op{{ID: id, X: p.X, Y: p.Y}}); err != nil {
		// Applied but not logged: roll the tree and table back, as the
		// sharded front-end does.
		err = errors.Join(err, x.updater.Delete(id, p))
		delete(x.objects, id)
		return err
	}
	return nil
}

// Update moves an existing object to p using the configured strategy.
// The index tracks each object's current position, so callers only
// supply the new one.
func (x *Index) Update(id uint64, p Point) error {
	old, ok := x.objects[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	if x.mem != nil {
		if err := validatePoint(p); err != nil {
			return err
		}
		x.mem.Update(id, p, old)
		x.objects[id] = p
		if err := x.logAppend(wal.TypeBatch, []wal.Op{{ID: id, X: p.X, Y: p.Y}}); err != nil {
			// Absorbed but not logged: re-absorb the old position so the
			// errored move leaves no acked-but-unreplayable state.
			x.mem.Update(id, old, p)
			x.objects[id] = old
			return err
		}
		return x.maybeMerge()
	}
	if err := x.updater.Update(id, old, p); err != nil {
		return err
	}
	x.objects[id] = p
	if err := x.logAppend(wal.TypeBatch, []wal.Op{{ID: id, X: p.X, Y: p.Y}}); err != nil {
		// Applied but not logged: move the object back and restore the
		// table, mirroring the sharded front-end's rollback.
		err = errors.Join(err, x.updater.Update(id, p, old))
		x.objects[id] = old
		return err
	}
	return nil
}

// Change is one object move inside a batch: object ID moves to
// position To. The index knows each object's current position, so a
// change carries only the destination, like Update.
type Change struct {
	// ID names an object already in the index.
	ID uint64
	// To is the object's new position.
	To Point
}

// BatchResult reports how UpdateBatch resolved a batch.
type BatchResult struct {
	// Applied is the number of moves applied to the index after
	// coalescing (one per distinct object id in the batch).
	Applied int
	// Coalesced is the number of input changes superseded by a later
	// move of the same object within the batch; they cost no index work.
	Coalesced int
	// Groups is the number of target-leaf groups the batch formed.
	Groups int
	// GroupResolved is the number of changes resolved by a shared
	// per-leaf pass: one leaf read, one extension decision and one write
	// covering the whole group.
	GroupResolved int
	// Fallback is the number of changes applied through a per-object
	// path instead of a shared group pass: changes the group pass
	// declined (sibling shift, ascent, top-down), plus every change of
	// a batch when the strategy has no group support at all (TopDown
	// runs batches sequentially, so there Fallback equals Applied).
	Fallback int
	// CrossShard is the number of changes that moved an object between
	// shards (ShardedIndex only: each is a delete in the source shard
	// plus an insert in the destination).
	CrossShard int
	// Absorbed is the number of changes absorbed by the in-memory delta
	// tier instead of being applied to the tree (memtable mode only;
	// such changes count in Applied but in none of the tree-path
	// counters, since their tree work happens at merge-down time).
	Absorbed int
	// PageIO is the number of physical page accesses (reads + writes)
	// the batch's foreground apply incurred, background merge-down work
	// excluded. Under concurrent batches on the same index the figure
	// can include pages from overlapping operations; it is an
	// attribution signal, not an exact ledger. Absorbed batches report
	// ~0: their tree I/O is deferred to merge-down.
	PageIO int
	// Combined is the number of this caller's changes handed to a
	// hot-cell phase leader and applied as part of another caller's
	// combined batch (ShardedIndex phase batching only). Such changes
	// are applied, just not by this caller, so Applied+Combined is this
	// caller's end-to-end total; the phase leader excludes followers'
	// changes from its own Applied while reporting the phase-level
	// Coalesced/Groups/PageIO once, in its result.
	Combined int
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

// coalesceChanges validates every id against lookup, then coalesces
// repeated moves of the same object to the final position through
// core.Coalesce (one shared definition of the last-write-wins rule).
// It returns the number of superseded input changes; an unknown id
// aborts with ErrUnknownObject. Shared by Index and ConcurrentIndex.
func coalesceChanges(changes []Change, lookup func(uint64) (Point, bool)) ([]core.BatchChange, int, error) {
	raw := make([]core.BatchChange, len(changes))
	for i, c := range changes {
		old, ok := lookup(c.ID)
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
// position, the surviving changes are grouped by target leaf via the
// secondary hash index, and each leaf's group is applied in one
// bottom-up pass — one leaf read, one MBR extension decision covering
// the whole group, one write — falling back to the configured
// strategy's per-object path only for the changes the group pass cannot
// resolve. With the TopDown strategy (which has no per-leaf state to
// amortize) the batch degrades to a sequential application.
//
// Every id must already be in the index; an unknown id fails the whole
// batch before anything is applied. A batch is not atomic with respect
// to errors: if a change fails mid-batch, the error is returned and the
// changes before it remain applied (the returned BatchResult counts
// them).
func (x *Index) UpdateBatch(changes []Change) (BatchResult, error) {
	var res BatchResult
	coalesced, dropped, err := coalesceChanges(changes, func(id uint64) (Point, bool) {
		p, ok := x.objects[id]
		return p, ok
	})
	if err != nil {
		return res, err
	}
	res.Coalesced = dropped
	if x.mem != nil {
		return x.absorbBatch(coalesced, res)
	}
	var applied []wal.Op
	prePages := uint64(x.io.Reads() + x.io.Writes())
	st, err := core.ApplyBatch(x.updater, coalesced, func(c core.BatchChange) {
		x.objects[c.OID] = c.New
		res.Applied++
		if x.wal != nil {
			applied = append(applied, wal.Op{ID: c.OID, X: c.New.X, Y: c.New.Y})
		}
	})
	res.Groups = st.Groups
	res.GroupResolved = st.GroupResolved
	res.Fallback = st.LocalFallback + st.Sequential
	res.PageIO = foregroundPages(uint64(x.io.Reads()+x.io.Writes())-prePages, 0)
	// One record covers the applied prefix — all of the batch on
	// success, exactly the changes before the failure otherwise.
	if werr := x.logAppend(wal.TypeBatch, applied); werr != nil {
		return res, errors.Join(err, werr)
	}
	return res, err
}

// absorbBatch is the memtable-mode tail of UpdateBatch: the coalesced
// changes are absorbed into the delta tier (atomically — no partial
// batches at the ack level), logged as one record, and merged down
// inline if the batch tripped the tier's threshold.
func (x *Index) absorbBatch(coalesced []core.BatchChange, res BatchResult) (BatchResult, error) {
	for _, c := range coalesced {
		if err := validatePoint(c.New); err != nil {
			return res, err
		}
	}
	applied := make([]wal.Op, 0, len(coalesced))
	for _, c := range coalesced {
		x.mem.Update(c.OID, c.New, c.Old)
		x.objects[c.OID] = c.New
		applied = append(applied, wal.Op{ID: c.OID, X: c.New.X, Y: c.New.Y})
	}
	res.Applied = len(coalesced)
	res.Absorbed = len(coalesced)
	if err := x.logAppend(wal.TypeBatch, applied); err != nil {
		// Absorbed but not logged: unwind every delta so the failed
		// batch leaves the tier exactly as it was — the absorb path is
		// atomic at the ack level, so the rollback must be too.
		for _, c := range coalesced {
			x.mem.Update(c.OID, c.Old, c.New)
			x.objects[c.OID] = c.Old
		}
		res.Applied = 0
		res.Absorbed = 0
		return res, err
	}
	return res, x.maybeMerge()
}

// Delete removes an object.
func (x *Index) Delete(id uint64) error {
	old, ok := x.objects[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	if x.mem != nil {
		x.mem.Delete(id, old)
		delete(x.objects, id)
		if err := x.logAppend(wal.TypeDelete, []wal.Op{{ID: id}}); err != nil {
			// Absorbed but not logged: resurrect the object so the
			// errored delete leaves nothing for recovery to disagree
			// about.
			x.mem.Insert(id, old)
			x.objects[id] = old
			return err
		}
		return x.maybeMerge()
	}
	if err := x.updater.Delete(id, old); err != nil {
		return err
	}
	delete(x.objects, id)
	if err := x.logAppend(wal.TypeDelete, []wal.Op{{ID: id}}); err != nil {
		// Applied but not logged: resurrect the object in tree and
		// table, mirroring the sharded front-end's rollback.
		err = errors.Join(err, x.updater.Insert(id, old))
		x.objects[id] = old
		return err
	}
	return nil
}

// Location returns the current indexed position of an object.
func (x *Index) Location(id uint64) (Point, bool) {
	p, ok := x.objects[id]
	return p, ok
}

// Len returns the number of indexed objects.
func (x *Index) Len() int { return len(x.objects) }

// Search returns the ids of all objects inside the window q.
func (x *Index) Search(q Rect) ([]uint64, error) {
	var out []uint64
	err := x.SearchFunc(q, func(id uint64, p Point) bool {
		out = append(out, id)
		return true
	})
	return out, err
}

// SearchFunc streams the objects inside q to visit; return false to stop
// early. With the delta tier enabled, buffered writes are merged into
// the results (read-your-writes; tombstones mask deleted objects).
func (x *Index) SearchFunc(q Rect, visit func(id uint64, p Point) bool) error {
	if x.mem != nil {
		if overlay := x.mem.Snapshot(); overlay != nil {
			return overlaySearch(overlay, q, func(emit func(uint64, Rect) bool) error {
				return x.updater.Search(q, emit)
			}, visit)
		}
	}
	return x.updater.Search(q, func(oid rtree.OID, r geom.Rect) bool {
		return visit(oid, Point{X: r.MinX, Y: r.MinY})
	})
}

// Count returns the number of objects inside q.
func (x *Index) Count(q Rect) (int, error) {
	n := 0
	err := x.SearchFunc(q, func(uint64, Point) bool { n++; return true })
	return n, err
}

// Neighbor is one nearest-neighbour result.
type Neighbor struct {
	ID       uint64
	Location Point
	Dist     float64
}

// Nearest returns the k objects nearest to p in increasing distance.
func (x *Index) Nearest(p Point, k int) ([]Neighbor, error) {
	if x.mem != nil {
		if overlay := x.mem.Snapshot(); overlay != nil {
			return overlayNearest(overlay, p, k, func(k int) ([]rtree.Neighbor, error) {
				return x.updater.Nearest(p, k)
			})
		}
	}
	res, err := x.updater.Nearest(p, k)
	if err != nil {
		return nil, err
	}
	return neighborsFromTree(res), nil
}

// neighborsFromTree converts tree-level NN results to the public type.
func neighborsFromTree(res []rtree.Neighbor) []Neighbor {
	out := make([]Neighbor, len(res))
	for i, n := range res {
		out[i] = Neighbor{ID: n.OID, Location: Point{X: n.Rect.MinX, Y: n.Rect.MinY}, Dist: n.Dist}
	}
	return out
}

// Stats reports the physical counters and tree shape.
type Stats struct {
	DiskReads  int64
	DiskWrites int64
	BufferHits int64
	Splits     int64
	Reinserts  int64

	// Evictions counts frames the buffer pool evicted to make room,
	// DirtyWriteBacks those among them that had to be written to disk
	// first, PinFallbacks the page accesses served on a transient frame
	// because every frame of the pool was pinned by other goroutines.
	Evictions       int64
	DirtyWriteBacks int64
	PinFallbacks    int64

	Height int
	Pages  int
	Size   int

	// Outcomes classifies how updates were resolved (bottom-up
	// strategies; TopDown reports everything as TopDown).
	Outcomes core.Outcomes

	// Memtable reports the in-memory delta tier's counters (zero when
	// Options.Memtable is disabled).
	Memtable MemtableStats
}

// Stats returns a snapshot of the counters.
func (x *Index) Stats() Stats {
	st := ioStats(x.io.Snapshot())
	st.Height = x.updater.Tree().Height()
	st.Pages = x.store.NumPages()
	st.Size = x.updater.Tree().Size()
	st.Outcomes = x.updater.Outcomes()
	st.Memtable = memStatsOf(x.mem)
	return st
}

// ioStats is the counter part of Stats.
func ioStats(s stats.Snapshot) Stats {
	return Stats{
		DiskReads:       s.Reads,
		DiskWrites:      s.Writes,
		BufferHits:      s.BufferHits,
		Splits:          s.Splits,
		Reinserts:       s.Reinserts,
		Evictions:       s.Evictions,
		DirtyWriteBacks: s.DirtyWriteBacks,
		PinFallbacks:    s.PinFallbacks,
	}
}

// ResetStats zeroes the physical counters (tree shape is unaffected).
func (x *Index) ResetStats() { x.io.Reset() }

// Flush writes all buffered dirty pages to the simulated disk.
func (x *Index) Flush() error { return x.pool.Flush() }

// CheckInvariants validates the complete index structure; it is meant
// for tests and costs a full tree walk.
func (x *Index) CheckInvariants() error {
	if err := x.updater.Err(); err != nil {
		return err
	}
	if err := x.updater.Tree().CheckInvariants(); err != nil {
		return err
	}
	if err := checkNoPins(x.pool); err != nil {
		return err
	}
	if x.mem != nil {
		return checkMemOverlay(x.mem, x.objects, x.updater.Tree().Size())
	}
	if x.updater.Tree().Size() != len(x.objects) {
		return fmt.Errorf("burtree: tree size %d != tracked objects %d", x.updater.Tree().Size(), len(x.objects))
	}
	return nil
}

// checkNoPins reports page pins that outlived their operation. Every
// access pins one frame and releases it before it returns, so with no
// operation in flight the pool holds none; a leaked pin would keep its
// frame from ever being evicted.
func checkNoPins(pool *buffer.Pool) error {
	if n := pool.Pinned(); n != 0 {
		return fmt.Errorf("burtree: %d buffer frames still pinned with no operation in flight", n)
	}
	return nil
}

// Updater exposes the underlying strategy for advanced integrations
// (e.g. wrapping in a ConcurrentIndex).
func (x *Index) Updater() core.Updater { return x.updater }
