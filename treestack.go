package burtree

import (
	"fmt"
	"math"
	"sync"

	"burtree/internal/buffer"
	"burtree/internal/concurrent"
	"burtree/internal/core"
	"burtree/internal/memtable"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/scratch"
	"burtree/internal/stats"
)

// This file is the lower half of an index: a tree stack is one tree with
// everything that belongs to that tree alone. What exists once per index
// — the object table, the gate, the router and the log handles — lives
// above it, in the index (engine.go), which runs on one stack or on many.

// treeOps is what a stack needs of the tree under it. The two
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
	// NearestFunc streams neighbours in non-decreasing distance, under the
	// tree granule held shared, until visit returns false.
	NearestFunc(p Point, visit func(rtree.Neighbor) bool) error
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
func (s serialTree) NearestFunc(p Point, visit func(rtree.Neighbor) bool) error {
	return s.Tree().NearestFunc(p, visit)
}
func (s serialTree) Exclusive(fn func(core.Updater) error) error { return fn(s.Updater) }
func (s serialTree) View(fn func(core.Updater))                  { fn(s.Updater) }
func (s serialTree) Stats() concurrent.Stats                     { return concurrent.Stats{} }

// treeStack is one tree with what it owns: page store, buffer pool and
// counters, the tree behind its locking protocol, and the memtable delta
// tier with its merge-down. It knows nothing of object ids it was not
// handed: every write arrives with the old position already
// looked up in the index's one object table, and the stack has no table,
// no checkpoint gate and no log of its own.
type treeStack struct {
	store *pagestore.Store
	pool  *buffer.Pool
	io    *stats.IO
	tree  treeOps

	// mem is the in-memory delta tier when Options.Memtable is enabled
	// (nil otherwise). With background set, merge is the goroutine
	// draining it (ConcurrentIndex and the stacks of a ShardedIndex);
	// without, the single-writer Index merges down inline whenever a
	// write trips the size threshold. mergeMu serializes drains
	// (background, checkpoint-time and close-time), and is the outermost
	// of the drain's locks: a drain never takes a checkpoint gate, so
	// checkpoints (which hold theirs exclusively and then drain) cannot
	// deadlock against the background merger.
	mem        *memtable.Table
	background bool
	mergeMu    sync.Mutex
	merge      *merger
}

// newStack wraps the shared machinery in a stack — over a DGL-locked tree
// with background merge-down, or over a serial one merging inline —
// without a delta tier: ensureMemtable installs one where the options ask
// for it.
func newStack(parts indexParts, background bool) *treeStack {
	s := &treeStack{store: parts.store, pool: parts.pool, io: parts.io, background: background}
	if background {
		s.tree = concurrent.New(parts.u, 32)
	} else {
		s.tree = serialTree{parts.u}
	}
	return s
}

// tiered reports whether the stack runs a delta tier, in which case
// writes are absorbed instead of applied.
func (s *treeStack) tiered() bool { return s.mem != nil }

// absorb hands c, of kind k, to the delta tier as a delta (the inverse
// changes of an undo cancel or re-absorb theirs) and returns the tier's
// answer: its mutable generation stands at the size threshold now, which
// the caller carries to afterAck. The caller holds the object table's
// lock and has established that the stack is tiered.
func (s *treeStack) absorb(k opKind, c core.BatchChange) (full bool) {
	switch k {
	case opInsert:
		return s.mem.Insert(c.OID, c.New)
	case opMove:
		return s.mem.Update(c.OID, c.New, c.Old)
	}
	return s.mem.Delete(c.OID, c.Old)
}

// apply carries c, of kind k, out on the tree through the tree's
// per-object call for that kind.
func (s *treeStack) apply(k opKind, c core.BatchChange) error {
	switch k {
	case opInsert:
		return s.tree.Insert(c.OID, c.New)
	case opMove:
		return s.tree.Update(c.OID, c.Old, c.New)
	}
	return s.tree.Delete(c.OID, c.Old)
}

// relocate moves an object between two stacks' trees without changing
// what the object table says: a delete at old in src, then an arrival at
// new in dst. Only the tree path relocates: a tiered write absorbs its
// cross-shard moves in the two stacks' tiers instead.
func relocate(src, dst *treeStack, id uint64, old, new Point) error {
	if err := src.apply(opDelete, core.BatchChange{OID: id, Old: old}); err != nil {
		return err
	}
	return arrive(src, dst, id, old, new)
}

// arrive is the second half of a relocation, for an object already
// deleted from src: the insert at new in dst. If that fails the object is
// put back where it was so the index stays complete; if even that fails
// it is lost from the trees, both errors are reported and the sticky
// tree error will surface in CheckInvariants.
func arrive(src, dst *treeStack, id uint64, old, new Point) error {
	err := dst.apply(opInsert, core.BatchChange{OID: id, New: new})
	if err != nil {
		if rerr := src.apply(opInsert, core.BatchChange{OID: id, New: old}); rerr != nil {
			err = fmt.Errorf("burtree: cross-shard move of %d failed (%w) and rollback failed: %v", id, err, rerr)
		}
	}
	return err
}

// afterAck hands an acknowledged write's merge-down on when the write
// tripped the tier's size threshold: a kick to the background merger,
// which never blocks the writer and never fails, or — on the
// single-writer Index, which has no goroutine to hand the work to — an
// inline drain whose failure the write reports. That failure is sticky,
// and with nobody else to notice it every later write reports it too.
// None of them is taken back: each is logged, and recovery replays it.
//
// The trigger, full, is what the write's own absorb returned, so a
// background stack's ack path takes the tier's mutex once, in absorb; an
// answer the merger has since acted on costs a kick the merger's own
// check turns away.
func (s *treeStack) afterAck(full bool) error {
	switch {
	case s.mem == nil:
		return nil
	case s.merge != nil:
		if full {
			s.merge.kick()
		}
		return nil
	case full:
		return s.drainMemtable()
	}
	return s.mem.Err()
}

// applyBatch is the tree-path apply stage of a group of more than one
// move: the changes go through the batched bottom-up pipeline, and landed
// runs for each one as it lands (shardWork.land, which records it).
func (s *treeStack) applyBatch(coalesced []core.BatchChange, landed func(core.BatchChange), res *BatchResult) error {
	st, err := s.tree.UpdateBatch(coalesced, landed)
	res.Groups = st.Groups
	res.GroupResolved = st.GroupResolved
	res.Fallback = st.LocalFallback + st.Sequential
	return err
}

// bulkLoad STR-packs items into the empty tree at ~66% node fill with
// the whole stack locked exclusively: bulk loading rebuilds the tree
// from scratch, so no reader or writer may observe the intermediate
// state.
func (s *treeStack) bulkLoad(items []rtree.Item) error {
	return s.tree.Exclusive(func(u core.Updater) error { return u.Tree().BulkLoad(items, 0.66) })
}

// ensureMemtable installs the delta tier from cfg, a stack's normalized
// share (stackOptions), and on a background stack starts the merge-down
// loop; used by openShards and when recovery re-enables the tier on a
// loaded snapshot (a loader never does: the tier is the caller's runtime
// choice).
func (s *treeStack) ensureMemtable(cfg Memtable) {
	if !cfg.Enabled {
		return
	}
	if s.mem == nil {
		s.mem = memtable.New(cfg.config())
	}
	if s.background && s.merge == nil {
		s.merge = newMerger()
		s.merge.done.Add(1)
		go s.merge.run(s.mem.NeedsMerge,
			func() { _ = s.drainMemtable() }) // failure is sticky; surfaces via CheckInvariants/Checkpoint
	}
}

// drainMemtable merges every buffered delta down to the tree. Serialized
// with other drains by mergeMu; a failure to apply an acknowledged delta
// is sticky — see memtable.Table.Fail. No-op when the tier is disabled.
func (s *treeStack) drainMemtable() error {
	if s.mem == nil {
		return nil
	}
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	entries := s.mem.BeginDrain()
	if entries == nil {
		return s.mem.Err()
	}
	// The drain's page accesses are background work: deferred I/O from
	// updates acknowledged in earlier windows. The ledger marks them so
	// (and the memtable's merge stats count them), which keeps them out of
	// every foreground reading — charging them to whichever foreground op
	// happens to overlap the drain would re-skew the balance the cost
	// weighting exists to fix. Marked even on failure: the pages were
	// spent. (A ResetStats inside the drain can run the total backward;
	// the restarted ledger has nothing to mark then.)
	pre := s.io.Total()
	err := drainEntries(entries, s.tree)
	if d := s.io.Total() - pre; d > 0 {
		s.io.CountBackground(d)
		s.mem.AddMergePages(uint64(d))
	}
	if err != nil {
		s.mem.Fail(err)
		return fmt.Errorf("burtree: memtable merge: %w", err)
	}
	s.mem.EndDrain()
	return nil
}

// close stops the background merger (if one runs) and merges any
// buffered deltas down to the tree.
func (s *treeStack) close() error {
	if s.merge != nil {
		s.merge.halt()
	}
	return s.drainMemtable()
}

// Search returns the ids of all objects inside the window q. On a
// ConcurrentIndex the query runs under shared granule locks covering the
// window (phantom-protected at granule granularity). The ids collect in
// the scan's kept buffer and are copied out once, at their exact number:
// the result is the read's one allocation.
func (s *treeStack) Search(q Rect) ([]uint64, error) {
	sc := searchScans.Get()
	defer sc.release()
	if err := s.scan(sc, q); err != nil {
		return nil, err
	}
	return sc.result(), nil
}

// scan runs one window read into sc. The view is taken before the tree
// scan: a merge completing in between leaves its objects masked in the
// scan and reported from the view, never missed (see package memtable).
// The buffered part of the results streams after the tree's shared locks
// are released.
func (s *treeStack) scan(sc *searchScan, q Rect) error {
	hits := sc.buf[:0]
	if s.mem != nil {
		sc.view, hits = s.mem.ViewWindow(q, hits)
	}
	if err := s.tree.Search(q, sc.fromTree); err != nil {
		return err
	}
	for _, h := range hits {
		sc.emit(h.ID, h.Pos)
	}
	return nil
}

// searchScan is the state of one window read. The function a read hands
// the tree escapes, since the compiler cannot see through treeOps, so a
// scan binds it once (fromTree), and scans are kept on a free list that
// drops none: a read allocates for its result alone, on every call.
type searchScan struct {
	view     memtable.View
	visit    func(uint64, Point) // Count's or SearchFunc's; nil collects into ids
	ids      []uint64
	pts      []Point                 // SearchFunc's positions, beside ids
	fromTree func(uint64, Rect) bool // sc.tree, bound once
	buf      [32]memtable.Hit

	n        int                 // Count's tally
	countOne func(uint64, Point) // sc.count, bound once
	pairOne  func(uint64, Point) // sc.pair, bound once

	// A scan of one shard of a gather, run on a goroutine of its own
	// (runAsync, bound once): where, and what it found.
	stack    *treeStack
	q        Rect
	err      error
	wg       *sync.WaitGroup
	runAsync func()
}

var searchScans = scratch.List[searchScan]{New: func() *searchScan {
	sc := new(searchScan)
	sc.fromTree, sc.countOne, sc.pairOne, sc.runAsync = sc.tree, sc.count, sc.pair, sc.run
	return sc
}}

// maxIdleIDs is the most id room a scan keeps between reads: a window of
// a tenth of the unit square's side over 100 000 uniform objects holds
// about a thousand.
const maxIdleIDs = 1 << 11

// tree takes one tree candidate: dropped if a buffered delta supersedes
// it, emitted otherwise.
func (sc *searchScan) tree(oid uint64, r Rect) bool {
	if !sc.view.Masks(oid) {
		sc.emit(oid, Point{X: r.MinX, Y: r.MinY})
	}
	return true
}

func (sc *searchScan) emit(id uint64, p Point) {
	if sc.visit == nil {
		sc.ids = append(sc.ids, id)
		return
	}
	sc.visit(id, p)
}

// count is Count's visit.
func (sc *searchScan) count(uint64, Point) { sc.n++ }

// pair is SearchFunc's visit: the ids and their positions collect in the
// scan's kept buffers, for the caller's visit once every lock is released.
func (sc *searchScan) pair(id uint64, p Point) {
	sc.ids = append(sc.ids, id)
	sc.pts = append(sc.pts, p)
}

// run is one shard's scan of a gather.
func (sc *searchScan) run() {
	defer sc.wg.Done()
	sc.err = sc.stack.scan(sc, sc.q)
}

// result copies the collected ids out at their exact number; nil when
// there are none.
func (sc *searchScan) result() []uint64 {
	if len(sc.ids) == 0 {
		return nil
	}
	return append(make([]uint64, 0, len(sc.ids)), sc.ids...)
}

func (sc *searchScan) release() {
	sc.view, sc.visit = memtable.View{}, nil
	sc.ids, sc.pts = scratch.KeepRoom(sc.ids, maxIdleIDs), scratch.KeepRoom(sc.pts, maxIdleIDs)
	sc.n, sc.stack, sc.err, sc.wg = 0, nil, nil, nil
	searchScans.Put(sc)
}

// Count returns the number of objects inside q, under the same locks
// and with the same overlay as Search.
func (s *treeStack) Count(q Rect) (int, error) {
	sc := searchScans.Get()
	defer sc.release()
	sc.visit = sc.countOne
	err := s.scan(sc, q)
	return sc.n, err
}

// Nearest returns the k objects nearest to p in increasing distance. On
// a ConcurrentIndex the traversal's footprint cannot be declared up
// front, so the query holds the whole-tree granule shared: it runs in
// parallel with other reads but excludes updates for its duration.
func (s *treeStack) Nearest(p Point, k int) ([]Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	return s.nearest(p, k, make([]Neighbor, 0, k))
}

// nearest appends the k objects nearest to p, in increasing distance, to
// out, which is empty with room for k.
//
// The tree's neighbours stream in, nearest first. With the delta tier
// enabled they merge with the view's own k nearest: a masked candidate is
// dropped, and the stream is cut as soon as k neighbours are in hand —
// which the buffered ones nearer than the next candidate may complete on
// their own — so the tree is asked for k plus the masked candidates in
// range, whatever the tier holds. No object comes from both sides: what
// the view reports, the tree does not hold or the view masks.
func (s *treeStack) nearest(p Point, k int, out []Neighbor) ([]Neighbor, error) {
	ns := nearestScans.Get()
	defer ns.release()
	ns.k, ns.out, ns.near = k, out, ns.buf[:0]
	if s.mem != nil {
		ns.view, ns.near = s.mem.ViewNearest(p, k, ns.near)
	}
	if err := s.tree.NearestFunc(p, ns.fromTree); err != nil {
		return nil, err
	}
	ns.takeNear(math.Inf(1))
	return ns.out, nil
}

// nearestScan is the state of one k-NN read, kept on a free list for the
// reason searchScan is.
type nearestScan struct {
	view     memtable.View
	near     []memtable.Hit // the view's k nearest not yet taken
	out      []Neighbor
	k        int
	fromTree func(rtree.Neighbor) bool // ns.tree, bound once
	buf      [16]memtable.Hit
}

var nearestScans = scratch.List[nearestScan]{New: func() *nearestScan {
	ns := new(nearestScan)
	ns.fromTree = ns.tree
	return ns
}}

// tree takes the next tree neighbour, after the buffered ones nearer
// than it, and reports whether more are wanted.
func (ns *nearestScan) tree(n rtree.Neighbor) bool {
	ns.takeNear(n.Dist)
	if len(ns.out) < ns.k && !ns.view.Masks(n.OID) {
		ns.out = append(ns.out, Neighbor{ID: n.OID, Location: Point{X: n.Rect.MinX, Y: n.Rect.MinY}, Dist: n.Dist})
	}
	return len(ns.out) < ns.k
}

// takeNear moves the buffered neighbours no farther than dist into out.
func (ns *nearestScan) takeNear(dist float64) {
	for len(ns.near) > 0 && len(ns.out) < ns.k && ns.near[0].Dist <= dist {
		h := ns.near[0]
		ns.out = append(ns.out, Neighbor{ID: h.ID, Location: h.Pos, Dist: h.Dist})
		ns.near = ns.near[1:]
	}
}

func (ns *nearestScan) release() {
	ns.view, ns.near, ns.out = memtable.View{}, nil, nil
	nearestScans.Put(ns)
}

// stats fills the counter snapshot. It is taken at a physically
// consistent point (the shared latch, on a DGL-locked tree), so the tree
// shape values are mutually consistent; the atomic I/O counters may
// include operations still in their lock-acquisition phase.
func (s *treeStack) stats() Stats {
	var st Stats
	s.tree.View(func(u core.Updater) {
		c := s.io.Snapshot()
		st = Stats{
			DiskReads:       c.Reads,
			DiskWrites:      c.Writes,
			BufferHits:      c.BufferHits,
			Splits:          c.Splits,
			Reinserts:       c.Reinserts,
			Evictions:       c.Evictions,
			DirtyWriteBacks: c.DirtyWriteBacks,
			PinFallbacks:    c.PinFallbacks,
			ResidentPages:   s.pool.ResidentPages(),
			Height:          u.Tree().Height(),
			Pages:           s.store.NumPages(),
			Size:            u.Tree().Size(),
			Outcomes:        u.Outcomes(),
			Memtable:        memStatsOf(s.mem),
		}
	})
	return st
}

// ResetStats zeroes the ledger (tree shape is unaffected). Operations in
// flight keep counting after the reset point.
func (s *treeStack) ResetStats() { s.io.Reset() }

// Flush writes all buffered dirty pages to the simulated disk, with the
// index locked exclusively so no update is mid-way through a multi-page
// change when the pages go out.
func (s *treeStack) Flush() error {
	return s.tree.Exclusive(func(core.Updater) error { return s.pool.Flush() })
}

// checkInvariants is the one invariant walk under all three front-ends:
// it validates the tree's structure, then checks the tree against the
// index's object table through v, the stack's view of it — every leaf
// entry the delta overlay does not mask must be the table's record for its
// id, at exactly that position and on the stack that position routes to —
// and the delta tier against both. With placed set (the strategy reaches
// leaves through the table), every record naming this stack must name a
// leaf of its tree that holds the id, and a tree entry whose record names
// another stack, or none, must be masked by this stack's tier: the copy a
// tiered cross-shard move leaves behind until this stack's merge-down
// deletes or moves it. owns reports whether a position belongs to this
// stack (always, unless the index is sharded) and owned is the number of
// live records that do. It costs a full tree walk and is only meaningful
// at a quiescent point; on a DGL-locked tree it holds the shared latch for
// the walk, so concurrent readers keep running (the closing check for
// leaked page pins takes the exclusive latch for a moment).
//
// The caller holds the mergeMu of every tiered stack of the index.
func (s *treeStack) checkInvariants(v *stackView, owned int, owns func(Point) bool, placed bool) error {
	var err error
	s.tree.View(func(u core.Updater) {
		if err = u.Err(); err != nil {
			return
		}
		if err = u.Tree().CheckInvariants(); err != nil {
			return
		}
		err = s.checkTable(u.Tree(), v, owned, owns, placed)
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
	return s.tree.Exclusive(func(core.Updater) error {
		if n := s.pool.Pinned(); n != 0 {
			return fmt.Errorf("burtree: %d buffer frames still pinned with no operation in flight", n)
		}
		return nil
	})
}

// checkTable is the table half of checkInvariants, at a point with no
// write or drain in flight: a previous merge failure is fatal; every
// live delta matches the recorded position and belongs here; a tombstone
// masks no object the table still places here; the tree's size accounts
// for the deltas not yet merged down; every unmasked leaf entry is the
// table's; and, with placed, the records that name this stack are
// exactly the leaf entries that hold their ids.
func (s *treeStack) checkTable(tree *rtree.Tree, v *stackView, owned int, owns func(Point) bool, placed bool) error {
	t := &v.x.objectTable
	var overlay map[uint64]memtable.Entry
	pendingInserts, tombstones := 0, 0
	if s.mem != nil {
		if err := s.mem.Err(); err != nil {
			return err
		}
		overlay = s.mem.Snapshot()
	}
	for id, e := range overlay {
		p, ok := t.Location(id)
		here := ok && owns(p)
		switch {
		case e.Tombstone && here:
			return fmt.Errorf("burtree: memtable tombstone for live object %d", id)
		case e.Tombstone:
			tombstones++
		case !here || p != e.Pos:
			return fmt.Errorf("burtree: memtable holds object %d at %v, the object table says %v (tracked here: %v)", id, e.Pos, p, here)
		case !e.InTree:
			pendingInserts++
		}
	}
	if want := owned - pendingInserts + tombstones; tree.Size() != want {
		return fmt.Errorf("burtree: tree size %d != expected %d (%d tracked objects, %d pending inserts, %d tombstones)",
			tree.Size(), want, owned, pendingInserts, tombstones)
	}
	matched := 0
	err := core.ForEachLeafEntry(tree, func(leaf rtree.PageID, e rtree.Entry) error {
		id := e.OID
		r, ok := t.get(id)
		_, masked := overlay[id]
		if placed {
			switch {
			case r.stack == v.s && rtree.PageID(r.leaf) != leaf:
				return fmt.Errorf("burtree: object %d is in leaf %d, its locator entry names %d", id, leaf, rtree.PageID(r.leaf))
			case r.stack == v.s:
				matched++
			case masked: // a copy this stack's merge-down deletes or moves
			case r.stack == 0:
				return fmt.Errorf("burtree: object %d in leaf %d has no locator entry", id, leaf)
			default:
				return fmt.Errorf("burtree: object %d in leaf %d: its record names stack %d, and no delta masks this copy", id, leaf, int(r.stack)-1)
			}
		}
		if masked {
			return nil
		}
		at := Point{X: e.Rect.MinX, Y: e.Rect.MinY}
		if p, live := r.point(), ok && r.live(); !live || p != at {
			return fmt.Errorf("burtree: tree holds object %d at %v, the object table says %v (tracked: %v)", id, at, p, live)
		}
		if !owns(at) {
			return fmt.Errorf("burtree: object %d at %v lives in a shard its position does not route to", id, at)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !placed {
		return nil
	}
	if n := v.Size(); n != matched {
		return fmt.Errorf("burtree: the table's locator maps %d ids to this stack, the tree's leaves hold %d of them", n, matched)
	}
	return nil
}
