// Package burtree is a disk-oriented R-tree index for frequently updated
// point data — a faithful, production-grade reproduction of
//
//	Lee, Hsu, Jensen, Cui, Teo:
//	"Supporting Frequent Updates in R-Trees: A Bottom-Up Approach",
//	VLDB 2003.
//
// The package indexes moving 2-D point objects and supports two update
// strategies from the paper:
//
//   - TopDown — the classical R-tree update (delete + insert, both
//     top-down): the baseline.
//   - GeneralizedBottomUp — Algorithm 2: direct leaf access through the
//     index's in-memory object table, and a compact main-memory summary
//     structure over the internal nodes plus a leaf fullness bit vector
//     that enables directional ε-extension, bit-vector-screened sibling
//     shifts with piggybacking, ascent to the lowest bounding ancestor
//     (Algorithm 3), and memory-resident query planning.
//
// The paper's Localized Bottom-Up update (Algorithm 1) and its paged
// object-id hash index are kept for its §5 experiments (internal/exp,
// cmd/burbench), not offered here: in those experiments LBU's queries
// read more leaf pages than GBU's and its updates are no cheaper.
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
// Every index is one type (engine.go) built in two halves. The lower half
// is the tree stack (treestack.go): one tree with what belongs to it
// alone — page store, buffer pool and counters, the memtable delta tier
// with its merge-down — behind a small tree interface that hides the
// locking protocol. The upper half is what exists exactly once per index,
// however many stacks it has: the object table — one record per object,
// its position (the paper's secondary id → position structure, §3.1) and
// the leaf a tree holds it at (the id → leaf lookup of Figure 2) — the
// gate, the router and the write-ahead log handles, one log per stack. The three front-ends are
// that index told at open what its stacks are: Index, which is not safe
// for concurrent use, runs one stack over a serial adapter around the
// strategy; ConcurrentIndex one stack over the DGL-locked layer of the
// paper's throughput study (granule locks plus a physical latch);
// ShardedIndex N of those behind a spatial router, whose Hilbert ranges
// a bulk load balances. All three offer the same API — updates, batched
// updates, window and nearest-neighbour queries, bulk loading and
// snapshots — the latter two to any number of goroutines.
//
// Every write runs one pipeline, written once in index.write: Insert,
// Update and Delete are writes of one change of their kind (insert, move
// or delete), UpdateBatch a write of many moves. Under the gate held
// shared it validates the new positions → takes the stripes of its id set
// in ascending order, the one ordering rule of every writer → reserves in
// the object table, coalescing repeated moves and — with the memtable tier
// on — absorbing the changes in the same hold → routes them to the stacks
// they leave and end in → applies each stack's group to its tree, unless
// absorbed: one change through the tree's per-object call, more through
// the batched bottom-up pass → logs one record per stack → acks, or on a
// failed append undoes that record's changes and restores the table.
// Routing is a stage of this pipeline, and with one stack every route is
// to it. A write that returns an error is therefore never left
// acknowledged-but-unlogged: it is undone, except for the applied (and
// logged) prefix of a batch that failed part-way through the tree, and
// except that a failure of the merge-down a write trips inline — on the
// single-writer Index; the other two merge down in a background goroutine
// per stack — is reported by that write, which stays logged.
package burtree

import (
	"errors"
	"fmt"

	"burtree/internal/buffer"
	"burtree/internal/core"
	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/stats"
)

// Point is a location in the 2-D data space.
type Point = geom.Point

// Rect is an axis-aligned query window.
type Rect = geom.Rect

// NewRect builds a rectangle from two corner points in any order.
func NewRect(x1, y1, x2, y2 float64) Rect { return geom.NewRect(x1, y1, x2, y2) }

// Strategy selects the update algorithm. Its values are stored in
// snapshots, so they never change meaning: 1 was LocalizedBottomUp, which
// the package no longer offers, and Open, Load and Recover refuse it.
type Strategy int

const (
	// TopDown is the traditional R-tree update (paper baseline "TD").
	TopDown Strategy = 0
	// GeneralizedBottomUp is the paper's Algorithm 2 ("GBU") and the
	// recommended default for update-heavy workloads.
	GeneralizedBottomUp Strategy = 2
)

func (s Strategy) String() string {
	switch s {
	case TopDown:
		return "TopDown"
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
//	Epsilon            ε      0.003    GBU (MBR extension cap)
//	DistanceThreshold  δ      0.03     GBU (shift-before-extend cutoff)
//	PageSize           —      1024 B   all (node fanout follows)
//
// The rest of the paper's configuration is fixed at its defaults: λ
// unrestricted (a GBU update ascends as far as it must, Algorithm 3),
// R*-style forced reinsertion of 30 % of an overflowing node's entries,
// and Guttman's quadratic split. The λ sweep of the evaluation runs
// below this API.
type Options struct {
	// Strategy picks the update algorithm.
	Strategy Strategy
	// PageSize is the simulated disk page size in bytes (default 1024,
	// the paper's setting). Node fanout follows from it; a page too small
	// for a fanout of 4 is refused (200 bytes is the least).
	PageSize int
	// BufferPages is the LRU buffer pool capacity in pages, spent on
	// leaves: the internal nodes are cached beyond it and never evicted,
	// because the paper's bottom-up updates (§3.2) assume the levels
	// above the leaves live in main memory. They cost about one frame per
	// 16 pages of the tree (≈ 0.28 MB at 100 000 objects with 1 KB
	// pages; Stats.ResidentPages). Zero disables caching of both kinds
	// (every access is a disk access). The paper's §5 experiments
	// (internal/exp) keep a pure LRU pool of their own.
	BufferPages int
	// Epsilon is the paper's ε parameter: the cap on how far a leaf MBR
	// may be enlarged per update (default 0.003, in data-space units of
	// the unit square). GBU enlarges only toward the movement
	// (Algorithm 4). TopDown ignores it.
	Epsilon float64
	// DistanceThreshold is the paper's δ parameter (default 0.03):
	// objects that moved farther than δ since their last position are
	// likely to leave the neighbourhood for good, so GBU tries a sibling
	// shift before an ε-extension for them, and the reverse for slow
	// movers (§3.2.1 optimization 2).
	DistanceThreshold float64
	// ExpectedObjects is a capacity hint for the index's object table:
	// one in-memory record per object, holding its position and the leaf
	// the bottom-up strategies reach it through (ShardedIndex keeps one
	// table, not one per shard). It costs no page and changes no result:
	// the table grows with the data, so zero or a wrong guess costs only
	// the table's growth.
	ExpectedObjects int
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

// Index is a single-writer R-tree over moving point objects: the index
// (engine.go) over one stack with a serial tree, the memtable delta tier —
// when enabled — merged down inline by whichever write trips its
// threshold.
type Index struct {
	*index
}

// indexParts is the machinery a tree stack wraps: the simulated store,
// its buffer pool, the physical counters and the configured update
// strategy.
type indexParts struct {
	store *pagestore.Store
	pool  *buffer.Pool
	io    *stats.IO
	u     core.Updater
}

// coreOptions converts a stack's options (stackOptions) to the
// strategy's, fixing what Options leaves out at the paper's defaults.
// The locator is the caller's to fill in: every stack — of the three
// front-ends, fresh or loaded — is built with its view of the index's
// object table (openParts, restoreParts), never core's own id → leaf map.
// It refuses a strategy the package does not offer and a page the tree
// cannot use, before any store is built on it.
func (opts Options) coreOptions() (core.Options, error) {
	kind, err := opts.Strategy.kind()
	if err != nil {
		return core.Options{}, err
	}
	if least := rtree.MinPageSize(false); opts.PageSize < least {
		return core.Options{}, fmt.Errorf("burtree: page size %d below the %v minimum of %d bytes", opts.PageSize, opts.Strategy, least)
	}
	return core.Options{
		Strategy:          kind,
		Epsilon:           opts.Epsilon,
		DistanceThreshold: opts.DistanceThreshold,
		LevelThreshold:    core.UnrestrictedLevels,
		Tree:              rtree.Config{ReinsertFraction: 0.3},
	}, nil
}

// openParts builds the machinery of an empty stack under per, the
// stack's options as stackOptions derives them, with loc — the stack's
// view of the object table — as its strategy's locator. io is the ledger
// the new store counts its page accesses in: that of the stack it
// replaces, or nil for one of its own.
func openParts(per Options, io *stats.IO, loc core.Locator) (indexParts, error) {
	co, err := per.coreOptions()
	if err != nil {
		return indexParts{}, err
	}
	co.Locator = loc
	return stackParts(pagestore.New(per.PageSize, io), per, func(pool *buffer.Pool) (core.Updater, error) {
		return core.New(pool, co)
	})
}

// stackParts completes the machinery of a stack over store — an empty
// one's (openParts) or a saved one's (restoreParts) — with attach the
// strategy to run on its buffer pool. Every stack's pool is built here:
// BufferPages frames of leaves, and the internal levels resident beyond
// them, as the paper's §3.2 keeps the levels above the leaves in main
// memory.
func stackParts(store *pagestore.Store, per Options, attach func(*buffer.Pool) (core.Updater, error)) (indexParts, error) {
	pool := buffer.NewResident(store, per.BufferPages, rtree.InternalPage)
	u, err := attach(pool)
	if err != nil {
		return indexParts{}, err
	}
	return indexParts{store: store, pool: pool, io: store.IO(), u: u}, nil
}

// Open creates an empty index. With Options.Durability enabled, the
// durability directory must not already hold a snapshot or log
// segments — resume existing durable state with Recover instead.
func Open(opts Options) (*Index, error) {
	return front[Index](open(opts, single, kindIndex))
}

// PackMethod names a bulk-load packing algorithm. STR is the only one:
// BulkInsert refuses any other value with an error.
type PackMethod int

// PackSTR packs with Sort-Tile-Recursive, the library's one packer and
// PackMethod's zero value.
const PackSTR PackMethod = 0

// packItems validates a bulk-load input — once, for every front-end —
// and converts it to tree items. Every point is checked before anything
// is packed: a sharded load that failed in one shard would leave the
// others populated. A repeated id is found after the load, by fill.
func packItems(ids []uint64, pts []Point) ([]rtree.Item, error) {
	if len(ids) != len(pts) {
		return nil, fmt.Errorf("burtree: BulkInsert: %d ids for %d points", len(ids), len(pts))
	}
	items := make([]rtree.Item, len(ids))
	for i, id := range ids {
		if validatePoint(pts[i]) != nil {
			return nil, fmt.Errorf("burtree: BulkInsert: object %d has NaN coordinates", id)
		}
		items[i] = rtree.Item{OID: id, Rect: geom.RectFromPoint(pts[i])}
	}
	return items, nil
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
	// Combined is always zero; it is kept so callers that read it compile.
	Combined int
}

// Neighbor is one nearest-neighbour result.
type Neighbor struct {
	ID       uint64
	Location Point
	Dist     float64
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

	// ResidentPages counts the frames the buffer pool holds beyond
	// Options.BufferPages: the cached internal nodes, which are never
	// evicted (every one of them once the index is warm).
	ResidentPages int

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

// add returns s plus another stack's counters: sums, and the maximum
// Height.
func (s Stats) add(o Stats) Stats {
	s.DiskReads += o.DiskReads
	s.DiskWrites += o.DiskWrites
	s.BufferHits += o.BufferHits
	s.Splits += o.Splits
	s.Reinserts += o.Reinserts
	s.Evictions += o.Evictions
	s.DirtyWriteBacks += o.DirtyWriteBacks
	s.PinFallbacks += o.PinFallbacks
	s.ResidentPages += o.ResidentPages
	s.Height = max(s.Height, o.Height)
	s.Pages += o.Pages
	s.Size += o.Size
	s.Outcomes.InLeaf += o.Outcomes.InLeaf
	s.Outcomes.Extended += o.Outcomes.Extended
	s.Outcomes.Shifted += o.Outcomes.Shifted
	s.Outcomes.Piggyback += o.Outcomes.Piggyback
	s.Outcomes.Ascended += o.Outcomes.Ascended
	s.Outcomes.TopDown += o.Outcomes.TopDown
	s.Memtable = s.Memtable.add(o.Memtable)
	return s
}

// Stats returns a snapshot of the counters.
func (x *Index) Stats() Stats {
	st, _ := x.stats()
	return st
}
