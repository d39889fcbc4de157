// Package concurrent provides the multi-threaded access layer for the
// paper's throughput experiment (§5.4): operations lock DGL granules —
// a tree-level intention lock plus fine-grained leaf-region granules —
// before touching the index.
//
// Granule layout: granule 0 is the whole tree ("external" granule); the
// unit square is tiled into an N×N grid whose cells stand in for the
// paper's leaf granules; above the cells sit the tree's page granules.
// Updates take IX on the tree, X on the cells covering the old and new
// positions and X on the leaf's page scope; queries take IS on the tree
// and S on the cells covering the window. Two rules make the protocol
// deadlock-free: granules are waited for in id order (tree, cells,
// pages), which dgl's Acquire enforces by panicking on any other; and no
// granule is waited for with the latch held, which
// TestBlockedWaitsHoldNoLatch checks for every operation. A timeout then
// bounds a granule wait behind a holder that does not let go, and is
// counted in the stats. The latch has no timeout, which is one reason a
// Search visitor must not call back into the DB: its second read hold
// queues behind any writer waiting for the latch. (The library's
// SearchFunc collects what the read finds and visits after it, with no
// lock held.)
//
// A write is applied once. It is resolved to its leaf, the leaf's scope
// (core.GroupApplier.LeafScope) is locked, and whatever is confined to
// that scope is applied under the shared latch — one object for Update,
// a whole leaf run for UpdateBatch. What the scope cannot hold (ascent,
// top-down pass, an object that changed leaves meanwhile) is the
// residue, applied by the strategy's full Update under X on the tree
// granule and the exclusive latch in sections of at most residueSection
// changes, so a reader waits for a bounded slice of a batch's
// escalations, never for all of them.
//
// The lock cycle of a leaf is optimistic (lockLeaf). A bottom-up update
// knows its few granules before it touches anything and nearly always
// finds them free, so it synchronises once: it takes the shared latch,
// reads the leaf's scope, and asks the lock table for the whole set —
// tree, cells, leaf and parent — in one visit (dgl.TryAcquireAll), which
// grants all of it or none and never waits. Under that one unbroken
// latch hold the scope it read is the scope it locked: a leaf changes
// parents only in a split, a merge or a re-insertion, and those run
// under the exclusive latch, which cannot be taken while this hold
// lasts. So there is nothing to read again and nothing to compare, and
// the work is applied under the same hold. Only when the try is refused
// — a granule is held in a conflicting mode, or somebody is queued on
// one — does the update drop the latch and fall back to the blocking
// protocol: granule by granule in canonical order, waiting its turn in
// each queue, with the latch released (a waiter must not hold up an
// exclusive section), and therefore with the scope read before and
// again after, and the cycle repeated if the two differ. A query's cell
// set is tried the same way before the latch is taken. One lock owner
// (dgl.Txn) serves all the cycles of a batch, and queries borrow theirs
// from a pool, so a cycle allocates nothing.
//
// Physical integrity is provided by a coarse reader-writer latch: the
// paper's interest is the throughput effect of cheaper updates (shorter
// exclusive sections), which this preserves, while queries — the
// read-heavy end of the mix — run fully in parallel. README.md,
// "Concurrent reads & consistency", records this substitution.
package concurrent

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"burtree/internal/core"
	"burtree/internal/dgl"
	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/scratch"
)

// TreeGranule is the whole-index granule (DGL's external granule).
const TreeGranule = dgl.GranuleID(0)

// DB wraps an update strategy with DGL locking and a physical latch.
type DB struct {
	u       core.Updater
	lm      *dgl.Manager
	latch   sync.RWMutex
	gridN   int
	timeout time.Duration

	// txns holds idle lock owners, each holding nothing: an operation
	// borrows one for its lock cycles and hands it back released. A free
	// list that drops none, so a read's lock cycle allocates nothing, on
	// every call.
	txns scratch.List[dgl.Txn]
	// wideCells holds the granule lists of reads whose window covers more
	// cells than an operation keeps on its stack (a whole-space window
	// covers the whole grid), on a free list that drops none like txns.
	wideCells scratch.List[[]dgl.GranuleID]
	// refuseTry makes every optimistic lock attempt report a refusal, so
	// that a test can run on the blocking protocol alone. Nothing else
	// sets it.
	refuseTry bool

	updates   atomic.Int64
	queries   atomic.Int64
	timeouts  atomic.Int64
	retries   atomic.Int64
	local     atomic.Int64
	escalated atomic.Int64
	batched   atomic.Int64
}

// New wraps u with an N×N granule grid. A gridN of 0 defaults to 32.
func New(u core.Updater, gridN int) *DB {
	if gridN <= 0 {
		gridN = 32
	}
	d := &DB{
		u:       u,
		lm:      dgl.NewManager(),
		gridN:   gridN,
		timeout: 2 * time.Second,
	}
	d.txns.New = d.lm.Begin
	return d
}

// Updater returns the wrapped strategy.
func (d *DB) Updater() core.Updater { return d.u }

// Stats reports operation and contention counters.
type Stats struct {
	Updates   int64
	Queries   int64
	Timeouts  int64
	Retries   int64 // lock sets asked for again: after a refused try, a timeout, or a re-parented leaf
	Local     int64 // updates resolved on the fine-grained path
	Escalated int64 // updates that required exclusive access
	Batched   int64 // updates resolved under a leaf-group lock (UpdateBatch)
}

// Stats returns a snapshot of the counters.
func (d *DB) Stats() Stats {
	return Stats{
		Updates:   d.updates.Load(),
		Queries:   d.queries.Load(),
		Timeouts:  d.timeouts.Load(),
		Retries:   d.retries.Load(),
		Local:     d.local.Load(),
		Escalated: d.escalated.Load(),
		Batched:   d.batched.Load(),
	}
}

// cellOf maps a point to its grid granule id (1-based; 0 is the tree).
func (d *DB) cellOf(p geom.Point) dgl.GranuleID {
	x := geom.ClampCell(p.X, d.gridN)
	y := geom.ClampCell(p.Y, d.gridN)
	return dgl.GranuleID(1 + y*d.gridN + x)
}

// stackCells is the longest cell list an operation keeps on its stack,
// and the longest it tries to lock in one go: a query window of a tenth
// of the unit square's side covers at most 5×5 cells of the 32×32 grid,
// and a leaf run — at most one leaf's objects, each moved once — has two
// cells per change before the duplicates go, 82 for a full leaf at the
// default page size. A longer list spills to the heap.
const stackCells = 2 * rtree.DefaultLeafFanout

// cellRange returns the grid columns x0..x1 and rows y0..y1 that r
// covers. An inverted (or NaN) rectangle covers nothing: the query that
// carries it matches no objects, needs no cell locks, and must not
// compute a negative covering-range size, so its range is empty.
func (d *DB) cellRange(r geom.Rect) (x0, x1, y0, y1 int) {
	if !r.Valid() {
		return 0, -1, 0, -1
	}
	return geom.ClampCell(r.MinX, d.gridN), geom.ClampCell(r.MaxX, d.gridN),
		geom.ClampCell(r.MinY, d.gridN), geom.ClampCell(r.MaxY, d.gridN)
}

// cellsOfRect appends the granules covering r to dst, ascending.
func (d *DB) cellsOfRect(r geom.Rect, dst []dgl.GranuleID) []dgl.GranuleID {
	x0, x1, y0, y1 := d.cellRange(r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dst = append(dst, dgl.GranuleID(1+y*d.gridN+x))
		}
	}
	return dst
}

// pageGranule maps a tree page id into the granule space, above the grid
// cells so the global acquisition order (tree, cells, pages) is total.
func (d *DB) pageGranule(p rtree.PageID) dgl.GranuleID {
	return dgl.GranuleID(1<<32) + dgl.GranuleID(p)
}

// residueSection bounds the changes one exclusive section applies. The
// section holds X on the tree granule, which every reader conflicts with
// (Search through IS, Nearest through S): 32 escalated changes are a few
// hundred microseconds, and the section is released and re-queued behind
// any waiting reader before the next one starts.
const residueSection = 32

// maxAttempts bounds the lock retries of one leaf scope or one
// exclusive section after timeouts.
const maxAttempts = 8

// begin borrows a lock owner holding nothing; end releases whatever it
// holds by then and hands it back.
func (d *DB) begin() *dgl.Txn { return d.txns.Get() }

func (d *DB) end(txn *dgl.Txn) {
	d.lm.ReleaseAll(txn)
	d.txns.Put(txn)
}

// Update moves an object. Bottom-up strategies first attempt the local
// path in parallel: IX on the tree, X on the movement cells, X on the
// object's leaf and parent page granules, all under the shared physical
// latch — two local updates below different parents proceed
// concurrently, which is the behaviour that gives GBU its throughput
// edge in the paper's §5.4 study. When the strategy cannot resolve the
// update locally (ascent, top-down fallback) or does not support local
// updates at all (TD), the operation escalates to X on the tree granule
// plus the exclusive latch.
func (d *DB) Update(oid rtree.OID, old, new geom.Point) error {
	c := core.BatchChange{OID: oid, Old: old, New: new}
	if ga, ok := d.u.(core.GroupApplier); ok {
		done, err := d.tryLocal(ga, c)
		if done || err != nil {
			if err == nil {
				d.updates.Add(1)
				d.local.Add(1)
			}
			return err
		}
	}
	var st core.BatchStats
	return d.applyResidue([]core.BatchChange{c}, &st, nil)
}

// tryLocal attempts the fine-grained path for one object: resolve its
// leaf, lock the leaf's scope and run the strategy's local update on
// that leaf under the shared latch. It reports false, with the tree
// untouched, when the update has to escalate.
func (d *DB) tryLocal(ga core.GroupApplier, c core.BatchChange) (bool, error) {
	d.latch.RLock()
	leaf, err := ga.LeafOf(c.OID)
	d.latch.RUnlock()
	if err != nil {
		// Unknown object or bookkeeping failure: let the exclusive path
		// produce the definitive error.
		return false, nil
	}
	cells := [2]dgl.GranuleID{d.cellOf(c.Old), d.cellOf(c.New)}
	txn := d.begin()
	defer d.end(txn)
	if !d.lockLeaf(ga, txn, leaf, sortedCells(cells[:])) {
		return false, nil
	}
	// An object that left the leaf before the locks were granted is
	// declined here (its entry is gone), like any non-local outcome.
	done, err := ga.UpdateAtLeaf(leaf, c, true)
	d.latch.RUnlock()
	return done, err
}

// sortedCells sorts and deduplicates a cell list in place, giving the
// acquisition order.
func sortedCells(cells []dgl.GranuleID) []dgl.GranuleID {
	slices.Sort(cells)
	return slices.Compact(cells)
}

// scopePages lists the page granules of a leaf's scope in acquisition
// order: ascending, the parent left out when there is none.
func scopePages(sc core.Scope) ([2]rtree.PageID, int) {
	switch {
	case sc.Parent == pagestore.InvalidPage:
		return [2]rtree.PageID{sc.Leaf}, 1
	case sc.Parent < sc.Leaf:
		return [2]rtree.PageID{sc.Parent, sc.Leaf}, 2
	}
	return [2]rtree.PageID{sc.Leaf, sc.Parent}, 2
}

// tryLock asks for a whole lock set — the tree, the cells (sorted) and
// the pages (sorted) — in one visit to the lock table. It never waits:
// it reports false, with txn holding nothing, when the set cannot be
// granted as a whole right now. A set of more than stackCells cells is
// not tried at all: the visit would be a long one, and everybody else's
// wait at the table's door with it.
func (d *DB) tryLock(txn *dgl.Txn, treeMode, cellMode dgl.Mode, cells []dgl.GranuleID, pages []rtree.PageID) bool {
	if d.refuseTry || len(cells) > stackCells {
		return false
	}
	var buf [1 + stackCells + 2]dgl.Req
	reqs := append(buf[:0], dgl.Req{G: TreeGranule, Mode: treeMode})
	for _, c := range cells {
		reqs = append(reqs, dgl.Req{G: c, Mode: cellMode})
	}
	for _, p := range pages {
		reqs = append(reqs, dgl.Req{G: d.pageGranule(p), Mode: cellMode})
	}
	return d.lm.TryAcquireAll(txn, reqs)
}

// lockLeaf takes the fine-grained locks of one leaf on txn, which holds
// nothing: IX on the tree, X on cells (sorted) and X on the page
// granules of the leaf's scope. When it reports true the locks and the
// shared latch are held, and the caller releases both once it has
// applied its work; when it reports false — the scope cannot be read, or
// the locks keep timing out — nothing is held and the work belongs to
// the exclusive path.
//
// The first attempt is made under the latch it returns with: the scope
// is read and the whole set tried at once. Re-parenting a leaf takes the
// exclusive latch, so the scope cannot change while the shared latch is
// held, and a set granted under the hold that read the scope is the
// right set. The try is the only way into the lock table that may be
// used there — it never waits. When it is refused the latch is dropped
// and the blocking protocol takes over: read the scope, wait for the
// granules one by one with no latch held, then read the scope again
// under the latch and start over if somebody re-parented the leaf in
// between.
func (d *DB) lockLeaf(ga core.GroupApplier, txn *dgl.Txn, leaf rtree.PageID, cells []dgl.GranuleID) bool {
	d.latch.RLock()
	scope, err := ga.LeafScope(leaf)
	if err == nil {
		pages, n := scopePages(scope)
		if d.tryLock(txn, dgl.IX, dgl.X, cells, pages[:n]) {
			return true
		}
	}
	d.latch.RUnlock()
	if err != nil {
		return false
	}
	d.retries.Add(1)

	for attempt := 0; attempt < maxAttempts; attempt++ {
		d.latch.RLock()
		scope, err := ga.LeafScope(leaf)
		d.latch.RUnlock()
		if err != nil {
			return false
		}
		pages, n := scopePages(scope)
		if err := d.lockAll(txn, dgl.IX, dgl.X, cells, pages[:n]); err != nil {
			d.lm.ReleaseAll(txn)
			d.timeouts.Add(1)
			d.retries.Add(1)
			continue
		}
		d.latch.RLock()
		again, err := ga.LeafScope(leaf)
		if err == nil && again == scope {
			return true
		}
		d.latch.RUnlock()
		d.lm.ReleaseAll(txn)
		if err != nil {
			return false
		}
		d.retries.Add(1)
	}
	return false
}

// lockTree takes X on the tree granule for an exclusive section,
// retrying timed-out requests.
func (d *DB) lockTree(txn *dgl.Txn) error {
	for attempt := 0; ; attempt++ {
		err := d.lm.Acquire(txn, TreeGranule, dgl.X, d.timeout)
		if err == nil {
			return nil
		}
		d.lm.ReleaseAll(txn)
		d.timeouts.Add(1)
		if attempt+1 >= maxAttempts {
			return err
		}
		d.retries.Add(1)
	}
}

// applyResidue applies the changes the fine-grained path could not hold
// through the strategy's full Update, in exclusive sections of at most
// residueSection changes: X on the tree granule plus the exclusive
// latch, taken once per section instead of once per change. done runs
// after the section's latch is released.
func (d *DB) applyResidue(cs []core.BatchChange, st *core.BatchStats, done func(core.BatchChange)) error {
	if len(cs) == 0 {
		return nil
	}
	txn := d.begin()
	defer d.end(txn)
	for len(cs) > 0 {
		section := cs[:min(len(cs), residueSection)]
		cs = cs[len(section):]

		err := d.lockTree(txn)
		if err != nil {
			return fmt.Errorf("concurrent: update %d: %w", section[0].OID, err)
		}
		applied := 0
		d.latch.Lock()
		for _, c := range section {
			if err = d.u.Update(c.OID, c.Old, c.New); err != nil {
				break
			}
			applied++
		}
		d.latch.Unlock()
		d.lm.ReleaseAll(txn)

		d.updates.Add(int64(applied))
		d.escalated.Add(int64(applied))
		st.Changes += applied
		st.Sequential += applied
		if done != nil {
			for _, c := range section[:applied] {
				done(c)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Insert adds an object under IX(tree) + X(cell).
func (d *DB) Insert(oid rtree.OID, p geom.Point) error {
	txn := d.begin()
	defer d.end(txn)
	if err := d.lockAll(txn, dgl.IX, dgl.X, []dgl.GranuleID{d.cellOf(p)}, nil); err != nil {
		return err
	}
	d.latch.Lock()
	defer d.latch.Unlock()
	return d.u.Insert(oid, p)
}

// Delete removes an object under IX(tree) + X(cell).
func (d *DB) Delete(oid rtree.OID, at geom.Point) error {
	txn := d.begin()
	defer d.end(txn)
	if err := d.lockAll(txn, dgl.IX, dgl.X, []dgl.GranuleID{d.cellOf(at)}, nil); err != nil {
		return err
	}
	d.latch.Lock()
	defer d.latch.Unlock()
	return d.u.Delete(oid, at)
}

// Search visits the objects in the window under IS(tree) + S(cells) and
// the shared physical latch, delegating to the strategy's Search (so
// GBU's memory-assisted query planning stays active). Phantom
// protection: any update that could move an object into or out of the
// window must take X on one of these cells first. The cell set is tried
// as a whole first and waited for, cell by cell, only when that is
// refused. The visit callback runs with the locks held and must not call
// back into the DB.
func (d *DB) Search(q geom.Rect, visit func(rtree.OID, geom.Rect) bool) error {
	txn := d.begin()
	defer d.end(txn)
	var cellBuf [stackCells]dgl.GranuleID
	cells := cellBuf[:0]
	if x0, x1, y0, y1 := d.cellRange(q); (x1-x0+1)*(y1-y0+1) > stackCells {
		wide := d.wideCells.Get()
		defer d.wideCells.Put(wide)
		*wide = d.cellsOfRect(q, (*wide)[:0])
		cells = *wide
	} else {
		cells = d.cellsOfRect(q, cells)
	}
	if !d.tryLock(txn, dgl.IS, dgl.S, cells, nil) {
		if err := d.lockAll(txn, dgl.IS, dgl.S, cells, nil); err != nil {
			return err
		}
	}
	d.latch.RLock()
	defer d.latch.RUnlock()
	err := d.u.Search(q, visit)
	d.queries.Add(1)
	return err
}

// Query counts the objects in the window through Search.
func (d *DB) Query(q geom.Rect) (int, error) {
	count := 0
	err := d.Search(q, func(rtree.OID, geom.Rect) bool {
		count++
		return true
	})
	return count, err
}

// Nearest answers a k-nearest-neighbour query. A best-first NN
// traversal has no a-priori granule footprint — the search region grows
// until k results bound it — so the query takes S on the whole-tree
// granule (every updater holds at least IX there, which conflicts)
// plus the shared physical latch. Readers still run in parallel with
// each other; only updates are held off, exactly DGL's escalation rule
// for operations whose scope cannot be pre-declared.
func (d *DB) Nearest(p geom.Point, k int) ([]rtree.Neighbor, error) {
	txn := d.begin()
	defer d.end(txn)
	if err := d.lm.Acquire(txn, TreeGranule, dgl.S, d.timeout); err != nil {
		return nil, err
	}
	d.latch.RLock()
	defer d.latch.RUnlock()
	res, err := d.u.Nearest(p, k)
	d.queries.Add(1)
	return res, err
}

// NearestFunc streams the objects to visit in non-decreasing distance
// from p until visit returns false, under the locks Nearest takes and
// for the same reason. The visit callback runs with the locks held and
// must not call back into the DB.
func (d *DB) NearestFunc(p geom.Point, visit func(rtree.Neighbor) bool) error {
	txn := d.begin()
	defer d.end(txn)
	if err := d.lm.Acquire(txn, TreeGranule, dgl.S, d.timeout); err != nil {
		return err
	}
	d.latch.RLock()
	defer d.latch.RUnlock()
	err := d.u.Tree().NearestFunc(p, visit)
	d.queries.Add(1)
	return err
}

// Exclusive runs fn with the whole index locked out: X on the tree
// granule plus the exclusive physical latch. It is the hook for
// operations that restructure or snapshot the entire index (bulk
// loading, persistence, buffer flushes).
func (d *DB) Exclusive(fn func(core.Updater) error) error {
	txn := d.begin()
	defer d.end(txn)
	if err := d.lm.Acquire(txn, TreeGranule, dgl.X, d.timeout); err != nil {
		return err
	}
	d.latch.Lock()
	defer d.latch.Unlock()
	return fn(d.u)
}

// View runs fn under the shared physical latch with no granule locks:
// the snapshot it sees is physically consistent (no update is mid-way
// through a page write) but not phantom-protected. Stats readers use
// it; anything that must not observe concurrent movement takes Search
// or Exclusive instead.
func (d *DB) View(fn func(core.Updater)) {
	d.latch.RLock()
	defer d.latch.RUnlock()
	fn(d.u)
}

// lockAll takes the tree intention lock, then the cell locks, then the
// page granules, each list in the (sorted) order given.
func (d *DB) lockAll(txn *dgl.Txn, treeMode, cellMode dgl.Mode, cells []dgl.GranuleID, pages []rtree.PageID) error {
	if err := d.lm.Acquire(txn, TreeGranule, treeMode, d.timeout); err != nil {
		return err
	}
	for _, c := range cells {
		if err := d.lm.Acquire(txn, c, cellMode, d.timeout); err != nil {
			return err
		}
	}
	for _, p := range pages {
		if err := d.lm.Acquire(txn, d.pageGranule(p), cellMode, d.timeout); err != nil {
			return err
		}
	}
	return nil
}

// UpdateBatch applies an already-coalesced batch of moves, resolving,
// locking and applying each change once. The batch is planned under the
// shared latch (core.PlanBatch: one locator lookup per change, changes
// sorted into per-leaf runs); each run then locks its own scope once —
// IX on the tree, X on the union of its members' movement cells, X on
// the leaf's and its parent's page granules, the pages derived from the
// leaf and re-read under the locks — and is applied bottom-up under the
// shared latch: the strategy's group pass, then per-object local
// attempts on the still-buffered leaf. Members the run cannot hold — an
// ascent or a top-down pass, an object that left the leaf after
// planning, a scope whose locks kept timing out — join the batch's
// residue, which is applied after the runs in bounded exclusive sections
// (applyResidue) together with the changes that have no secondary-index
// entry. Strategies without batch support (TD) are all residue.
//
// A concurrent reader can observe any subset of the batch's changes
// applied, each whole: runs become visible one by one in leaf-page
// order, the residue afterwards in sections; a reader never sees an
// object at neither or both of its positions beyond what the strategy's
// sibling-first shift order already allows.
//
// done, when non-nil, is invoked once per applied change after the
// latch that covered it is released, in application order (leaf order,
// then residue — not the caller's order). On error the batch stops:
// done has been called for exactly the applied changes (a batch is not
// atomic).
func (d *DB) UpdateBatch(changes []core.BatchChange, done func(core.BatchChange)) (core.BatchStats, error) {
	var st core.BatchStats
	ga, ok := d.u.(core.GroupApplier)
	if !ok {
		return st, d.applyResidue(changes, &st, done)
	}

	plan := core.BorrowPlan()
	defer core.ReturnPlan(plan)
	d.latch.RLock()
	core.PlanBatch(plan, d.u, ga, changes)
	d.latch.RUnlock()

	// The residue collects in the plan's room for it.
	residue, err := d.applyRuns(ga, plan.Runs, plan.Residue, &st, done)
	plan.Residue = append(residue, plan.Loose...)
	// What the runs resolved is counted once, from the sums they kept.
	local := int64(st.GroupResolved + st.LocalFallback)
	d.updates.Add(local)
	d.local.Add(local)
	d.batched.Add(local)
	if err != nil {
		return st, err
	}
	return st, d.applyResidue(plan.Residue, &st, done)
}

// applyRuns applies the leaf runs of a planned batch one after the other,
// all their lock cycles on one lock owner, and returns residue with the
// members no run could hold appended.
func (d *DB) applyRuns(ga core.GroupApplier, runs []core.LeafRun, residue []core.BatchChange, st *core.BatchStats, done func(core.BatchChange)) ([]core.BatchChange, error) {
	txn := d.begin()
	defer d.end(txn)
	for _, run := range runs {
		st.Groups++
		var err error
		if residue, err = d.applyGroup(ga, txn, run, residue, st, done); err != nil {
			return residue, err
		}
	}
	return residue, nil
}

// applyGroup locks one leaf run's scope on txn, which holds nothing
// before and after, and resolves as much of the run as the scope can
// hold under the shared latch; the members it cannot are appended to
// residue, which is returned.
func (d *DB) applyGroup(ga core.GroupApplier, txn *dgl.Txn, run core.LeafRun, residue []core.BatchChange, st *core.BatchStats, done func(core.BatchChange)) ([]core.BatchChange, error) {
	var cellBuf [stackCells]dgl.GranuleID
	cells := cellBuf[:0]
	for _, c := range run.Changes {
		cells = append(cells, d.cellOf(c.Old), d.cellOf(c.New))
	}
	if !d.lockLeaf(ga, txn, run.Leaf, sortedCells(cells)) {
		return append(residue, run.Changes...), nil
	}
	// The group pass declines a member whose entry is no longer in the
	// leaf, and a leaf page that was freed or recycled declines them all,
	// so membership needs no second probe. Declined members land behind
	// the residue and get a per-object local attempt while the leaf is
	// still buffered and the granules are still held; the ones the scope
	// cannot hold stay there.
	mark := len(residue)
	residue, err := ga.ApplyLeafGroup(run.Leaf, run.Changes, residue)
	declined := len(residue) - mark
	if err == nil {
		kept := residue[:mark]
		for _, c := range residue[mark:] {
			var held bool
			if held, err = ga.UpdateAtLeaf(run.Leaf, c, true); err != nil {
				break
			}
			if !held {
				kept = append(kept, c)
			}
		}
		residue = kept
	}
	d.latch.RUnlock()
	d.lm.ReleaseAll(txn)
	if err != nil {
		return residue, err
	}

	grouped := len(run.Changes) - declined
	resolved := len(run.Changes) - (len(residue) - mark)
	st.GroupResolved += grouped
	st.LocalFallback += resolved - grouped
	st.Changes += resolved
	if done != nil {
		for _, c := range run.Changes {
			if !core.HasOID(residue[mark:], c.OID) {
				done(c)
			}
		}
	}
	return residue, nil
}
