package core

import (
	"errors"
	"fmt"

	"burtree/internal/buffer"
	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
)

// bottomUp is what the strategies that reach an object's leaf directly
// (§3.1, Figure 2) — NAIVE, LBU and GBU — share: the tree, the locator
// its placement events keep, the outcome counters and the one per-object
// update path. A strategy embeds it and supplies its own algorithm as
// the leafAlgorithm.
type bottomUp struct {
	tree    *rtree.Tree
	loc     Locator
	adapter *locatorAdapter
	alg     leafAlgorithm

	out outcomeCounters
}

// leafAlgorithm is what one bottom-up scheme adds to the shared path.
type leafAlgorithm interface {
	Name() string
	// topDownFirst reports, without I/O, that an update to new skips the
	// leaf and goes top-down from the caller's old point. Update asks
	// before the locator lookup, UpdateAtLeaf (atLeaf) before the pin.
	topDownFirst(new geom.Point, atLeaf bool) bool
	// attemptLocalAt runs the scheme's local phase on the leaf pinned for
	// patching, the object at entry li, and releases the pin. The ref
	// comes by value so the caller's stays on its stack. Unless the
	// update was resolved (localDone) it returns the decoded leaf, or
	// nil, with entry li unmodified; the caller hands it back.
	attemptLocalAt(c BatchChange, ref rtree.NodeRef, li int) (localOutcome, *rtree.Node, error)
	// ascend ends an update the local phase left needAscend, and is
	// called only then.
	ascend(c BatchChange, leaf *rtree.Node, li int) error
}

// localOutcome classifies the result of a scheme's local phase.
type localOutcome int

const (
	localDone   localOutcome = iota // resolved in-leaf / extend / shift
	needTopDown                     // full top-down fallback required
	needAscend                      // the scheme's non-local ending
)

// init builds the tree and its locator — the one opts passes, or else an
// in-memory map — which the tree's placement events keep, with alg as the
// scheme.
func (b *bottomUp) init(pool *buffer.Pool, cfg rtree.Config, opts Options, alg leafAlgorithm) {
	b.tree = rtree.New(pool, cfg)
	b.loc = opts.Locator
	if b.loc == nil {
		b.loc = newLeafMap(opts.ExpectedObjects)
	}
	b.adapter = &locatorAdapter{loc: b.loc}
	b.alg = alg
	b.tree.SetListener(b.adapter)
}

func (b *bottomUp) Insert(oid rtree.OID, p geom.Point) error {
	if err := b.tree.Insert(oid, geom.RectFromPoint(p)); err != nil {
		return err
	}
	return b.adapter.Err()
}

func (b *bottomUp) Delete(oid rtree.OID, at geom.Point) error {
	if err := b.tree.Delete(oid, geom.RectFromPoint(at)); err != nil {
		return err
	}
	return b.adapter.Err()
}

func (b *bottomUp) Search(q geom.Rect, visit func(rtree.OID, geom.Rect) bool) error {
	return b.tree.Search(q, visit)
}

func (b *bottomUp) Nearest(p geom.Point, k int) ([]rtree.Neighbor, error) {
	return b.tree.NearestK(p, k)
}

func (b *bottomUp) Tree() *rtree.Tree { return b.tree }

func (b *bottomUp) Outcomes() Outcomes { return b.out.snapshot() }

func (b *bottomUp) Err() error { return b.adapter.Err() }

func (b *bottomUp) locator() Locator { return b.loc }

// LeafOf resolves the leaf currently holding the object (GroupApplier).
func (b *bottomUp) LeafOf(oid rtree.OID) (rtree.PageID, error) {
	return b.loc.Lookup(oid)
}

// Update moves an object bottom-up: the scheme's no-I/O check, then
// "locate via the secondary object-ID index the leaf node" and run the
// per-object path strictly. An object the locator does not place in this
// tree (ErrNotPlaced) is reached top-down, from old.
func (b *bottomUp) Update(oid rtree.OID, old, new geom.Point) error {
	if b.alg.topDownFirst(new, false) {
		_, err := b.topDown(oid, geom.RectFromPoint(old), geom.RectFromPoint(new))
		return err
	}
	leaf, err := b.loc.Lookup(oid)
	switch {
	case errors.Is(err, ErrNotPlaced):
		_, err = b.topDown(oid, geom.RectFromPoint(old), geom.RectFromPoint(new))
		return err
	case err != nil:
		return fmt.Errorf("%s: update %d: %w", b.alg.Name(), oid, err)
	}
	_, err = b.updateAt(leaf, BatchChange{OID: oid, Old: old, New: new}, false, true)
	return err
}

// UpdateAtLeaf applies one change whose object lives in leaf, skipping
// the locator lookup (GroupApplier). Directly after a group
// pass the leaf is still buffered, so the read costs no disk access.
func (b *bottomUp) UpdateAtLeaf(leaf rtree.PageID, c BatchChange, localOnly bool) (bool, error) {
	return b.updateAt(leaf, c, localOnly, false)
}

// updateAt is the one per-object path: pin the leaf for patching, find
// the object's entry, run the scheme's local phase and, unless
// localOnly, end the update — top-down from the stored rectangle, or the
// scheme's ascent. It reports whether the change was applied.
//
// Strict is Update's mode: the locator has just named the leaf, so an
// object missing from it is an error. Otherwise the leaf comes from a
// plan that may be stale.
func (b *bottomUp) updateAt(leafPage rtree.PageID, c BatchChange, localOnly, strict bool) (bool, error) {
	t := b.tree
	newRect := geom.RectFromPoint(c.New)
	if b.alg.topDownFirst(c.New, true) {
		if localOnly {
			return false, nil
		}
		return b.topDown(c.OID, geom.RectFromPoint(c.Old), newRect)
	}
	ref, err := t.PinNodeForPatch(leafPage)
	if err != nil && (strict || !errors.Is(err, pagestore.ErrPageFreed)) {
		return false, err
	}
	li := -1
	if err == nil {
		if ref.IsLeaf() {
			li = ref.FindOID(c.OID)
		}
		if li < 0 {
			if err := ref.Release(); err != nil { // nothing was patched
				return false, err
			}
		}
	}
	switch {
	case li >= 0:
	case strict:
		return false, fmt.Errorf("%s: update %d: locator points to leaf %d but entry is missing", b.alg.Name(), c.OID, leafPage)
	case localOnly:
		return false, nil // moved concurrently; the caller escalates
	default:
		// The batch's own shifts (piggybacked passengers), splits and
		// top-down deletes can relocate objects — or free or recycle the
		// leaf page — between grouping and application; re-resolve
		// through the always-current locator.
		return true, b.Update(c.OID, c.Old, c.New)
	}
	// The stored rectangle is the authoritative old location for the
	// top-down delete traversal.
	stored := ref.Rect(li)
	res, leaf, err := b.alg.attemptLocalAt(c, ref, li)
	if err != nil {
		return false, err
	}
	defer t.ReturnNode(leaf)
	switch {
	case res == localDone:
	case localOnly:
		return false, nil
	case res == needTopDown:
		return b.topDown(c.OID, stored, newRect)
	default:
		if err := b.alg.ascend(c, leaf, li); err != nil {
			return false, err
		}
	}
	return true, b.adapter.Err()
}

// topDown hands one update to the tree's top-down path, counting it.
func (b *bottomUp) topDown(oid rtree.OID, oldRect, newRect geom.Rect) (bool, error) {
	b.out.topDown.Add(1)
	if err := b.tree.Update(oid, oldRect, newRect); err != nil {
		return false, err
	}
	return true, b.adapter.Err()
}
