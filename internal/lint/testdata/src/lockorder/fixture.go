// Package lockorder exercises the lockorder analyzer: granules in
// canonical tree → cell → page order, and never under the exclusive
// latch.
package lockorder

import (
	"sync"

	"dgl"
)

const treeGranule = dgl.GranuleID(0)

func cellGranule(i int) dgl.GranuleID { return dgl.GranuleID(1 + i) }
func pageGranule(i int) dgl.GranuleID { return dgl.GranuleID(1<<32) + dgl.GranuleID(i) }

// canonicalOrder is the engine's protocol. Not flagged.
func canonicalOrder(m *dgl.Manager, txn *dgl.Txn, cells []dgl.GranuleID) error {
	if err := m.Acquire(txn, treeGranule, dgl.IX, 0); err != nil {
		return err
	}
	if err := m.Acquire(txn, cells[0], dgl.X, 0); err != nil {
		return err
	}
	return m.Acquire(txn, pageGranule(7), dgl.X, 0)
}

// rollbackRace is the PR 2 bug shape: a failed update re-locks the
// tree while still holding cell granules, inverting the order against
// a concurrent forward pass.
func rollbackRace(m *dgl.Manager, txn *dgl.Txn, cells []dgl.GranuleID) {
	_ = m.Acquire(txn, cells[0], dgl.X, 0)
	_ = m.Acquire(txn, treeGranule, dgl.IX, 0) // want `tree granule acquired after a cell granule`
}

// pageThenCell inverts the lower tiers.
func pageThenCell(m *dgl.Manager, txn *dgl.Txn, cells []dgl.GranuleID) {
	_ = m.Acquire(txn, pageGranule(3), dgl.X, 0)
	_ = m.Acquire(txn, cells[1], dgl.X, 0) // want `cell granule acquired after a page granule`
}

// rollbackAfterRelease is the correct recovery: drop everything, then
// restart from the tree. Not flagged.
func rollbackAfterRelease(m *dgl.Manager, txn *dgl.Txn, cells []dgl.GranuleID) {
	_ = m.Acquire(txn, cells[0], dgl.X, 0)
	m.ReleaseAll(txn)
	_ = m.Acquire(txn, treeGranule, dgl.IX, 0)
}

// underLatch waits for a granule while holding the exclusive latch,
// which can deadlock against a holder waiting for that latch.
func underLatch(m *dgl.Manager, txn *dgl.Txn, latch *sync.Mutex) {
	latch.Lock()
	_ = m.Acquire(txn, treeGranule, dgl.X, 0) // want `granule lock acquired while holding the exclusive latch`
	latch.Unlock()
}

// granulesThenLatch is the engine's protocol: granules first, latch
// second. Not flagged.
func granulesThenLatch(m *dgl.Manager, txn *dgl.Txn, latch *sync.Mutex) {
	_ = m.Acquire(txn, pageGranule(1), dgl.X, 0)
	latch.Lock()
	defer latch.Unlock()
}

// afterUnlock re-acquires once the latch is dropped. Not flagged.
func afterUnlock(m *dgl.Manager, txn *dgl.Txn, latch *sync.Mutex) {
	latch.Lock()
	latch.Unlock()
	_ = m.Acquire(txn, treeGranule, dgl.X, 0)
}

// tryUnderSharedLatch is the optimistic lock cycle: the whole set is
// tried under the shared latch, and waited for only once the latch is
// dropped. Not flagged.
func tryUnderSharedLatch(m *dgl.Manager, txn *dgl.Txn, latch *sync.RWMutex, reqs []dgl.Req) bool {
	latch.RLock()
	if m.TryAcquireAll(txn, reqs) {
		return true
	}
	latch.RUnlock()
	_ = m.Acquire(txn, treeGranule, dgl.IX, 0)
	return false
}

// tryUnderExclusiveLatch never waits either. Not flagged.
func tryUnderExclusiveLatch(m *dgl.Manager, txn *dgl.Txn, latch *sync.RWMutex, reqs []dgl.Req) {
	latch.Lock()
	_ = m.TryAcquireAll(txn, reqs)
	latch.Unlock()
}

// acquireUnderSharedLatch is the cycle with the try swapped for a wait: a
// reader asleep in a granule queue holds up the exclusive section the
// granule's holder is about to enter.
func acquireUnderSharedLatch(m *dgl.Manager, txn *dgl.Txn, latch *sync.RWMutex) {
	latch.RLock()
	_ = m.Acquire(txn, treeGranule, dgl.IX, 0) // want `granule lock waited for while holding the shared latch`
	latch.RUnlock()
}

// lockCells is a same-package helper: its interprocedural summary
// carries the cell tier to every call site.
func lockCells(m *dgl.Manager, txn *dgl.Txn, cells []dgl.GranuleID) {
	for _, cell := range cells {
		_ = m.Acquire(txn, cell, dgl.X, 0)
	}
}

// helperInversion holds a page granule, then calls the cell-acquiring
// helper: the inversion is caught at the call site via the summary.
func helperInversion(m *dgl.Manager, txn *dgl.Txn, cells []dgl.GranuleID) {
	_ = m.Acquire(txn, pageGranule(2), dgl.X, 0)
	lockCells(m, txn, cells) // want `cell granule acquired by the called helper after a page granule`
}

// helperUnderLatch waits for granules inside a helper while holding
// the exclusive latch: the same deadlock, one frame removed.
func helperUnderLatch(m *dgl.Manager, txn *dgl.Txn, cells []dgl.GranuleID, latch *sync.Mutex) {
	latch.Lock()
	lockCells(m, txn, cells) // want `granule lock acquired by the called helper while holding the exclusive latch`
	latch.Unlock()
}

// helperUnderSharedLatch is the same wait behind a call, under the
// shared latch.
func helperUnderSharedLatch(m *dgl.Manager, txn *dgl.Txn, cells []dgl.GranuleID, latch *sync.RWMutex) {
	latch.RLock()
	lockCells(m, txn, cells) // want `granule lock waited for by the called helper while holding the shared latch`
	latch.RUnlock()
}

// helperCanonical calls the helper in protocol order. Not flagged.
func helperCanonical(m *dgl.Manager, txn *dgl.Txn, cells []dgl.GranuleID) {
	_ = m.Acquire(txn, treeGranule, dgl.IX, 0)
	lockCells(m, txn, cells)
	_ = m.Acquire(txn, pageGranule(9), dgl.X, 0)
}

// engine holds the manager; its methods participate through the same
// summary machinery as plain helpers.
type engine struct {
	m *dgl.Manager
}

func (e *engine) lockTree(txn *dgl.Txn) {
	_ = e.m.Acquire(txn, treeGranule, dgl.IX, 0)
}

// methodInversion re-locks the tree through a method while holding
// cell granules: the PR 2 shape hidden behind a call.
func methodInversion(e *engine, txn *dgl.Txn, cells []dgl.GranuleID) {
	_ = e.m.Acquire(txn, cells[0], dgl.X, 0)
	e.lockTree(txn) // want `tree granule acquired by the called helper after a cell granule`
}

// lockLeaf hands its transaction back with tree, cell and page granules
// held: the tiers stay acquired in the caller.
func (e *engine) lockLeaf(cells []dgl.GranuleID) *dgl.Txn {
	txn := e.m.Begin()
	_ = canonicalOrder(e.m, txn, cells)
	return txn
}

// update runs a whole transaction of its own; with no Txn in its
// signature nothing it took is held once it returns.
func (e *engine) update(cells []dgl.GranuleID) {
	txn := e.lockLeaf(cells)
	e.m.ReleaseAll(txn)
}

// localThenExclusive is the engine's escalation: the local attempt has
// released its page granules before the exclusive pass locks the tree.
// Not flagged.
func localThenExclusive(e *engine, cells []dgl.GranuleID) {
	e.update(cells)
	txn := e.m.Begin()
	e.lockTree(txn)
	e.m.ReleaseAll(txn)
}

// heldThenOwnTransaction calls the self-contained helper while the
// returned transaction still holds page granules: a second transaction
// taking the tree under them is the same inversion.
func heldThenOwnTransaction(e *engine, cells []dgl.GranuleID) {
	txn := e.lockLeaf(cells)
	e.update(cells) // want `tree granule acquired by the called helper after a page granule` `cell granule acquired by the called helper after a page granule`
	e.m.ReleaseAll(txn)
}
