package core

import (
	"errors"
	"fmt"

	"burtree/internal/geom"
	"burtree/internal/hashindex"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
)

// lbuStrategy is the Localized Bottom-Up update of Algorithm 1. The leaf
// holding the object is reached directly through the secondary hash
// index; the leaf MBR may be enlarged by ε uniformly in all directions
// (Kwon et al.), bounded by the parent MBR — which is why this tree
// variant stores parent pointers in every node and pays their
// maintenance cost on splits — or the object may be shifted into a
// sibling whose MBR already covers the new location. Anything else falls
// back to a top-down path.
type lbuStrategy struct {
	tree    *rtree.Tree
	hash    *hashindex.Index
	adapter *hashAdapter
	eps     float64

	out outcomeCounters
}

var (
	_ Updater      = (*lbuStrategy)(nil)
	_ GroupApplier = (*lbuStrategy)(nil)
)

func (s *lbuStrategy) Name() string { return "LBU" }

func (s *lbuStrategy) Insert(oid rtree.OID, p geom.Point) error {
	if err := s.tree.Insert(oid, geom.RectFromPoint(p)); err != nil {
		return err
	}
	return s.adapter.Err()
}

func (s *lbuStrategy) Delete(oid rtree.OID, at geom.Point) error {
	if err := s.tree.Delete(oid, geom.RectFromPoint(at)); err != nil {
		return err
	}
	return s.adapter.Err()
}

func (s *lbuStrategy) Search(q geom.Rect, visit func(rtree.OID, geom.Rect) bool) error {
	return s.tree.Search(q, visit)
}

func (s *lbuStrategy) Nearest(p geom.Point, k int) ([]rtree.Neighbor, error) {
	return s.tree.NearestK(p, k)
}

func (s *lbuStrategy) Tree() *rtree.Tree { return s.tree }

func (s *lbuStrategy) Outcomes() Outcomes { return s.out.snapshot() }

func (s *lbuStrategy) Err() error { return s.adapter.Err() }

// Update implements Algorithm 1 (Localized Bottom-Up Update).
func (s *lbuStrategy) Update(oid rtree.OID, old, new geom.Point) error {
	if err := s.update(oid, old, new); err != nil {
		return err
	}
	return s.adapter.Err()
}

func (s *lbuStrategy) update(oid rtree.OID, old, new geom.Point) error {
	t := s.tree
	newRect := geom.RectFromPoint(new)

	// "Locate via the secondary object-ID index the leaf node with the
	// object."
	leafPage, err := s.hash.Lookup(oid)
	if err != nil {
		return fmt.Errorf("lbu: update %d: %w", oid, err)
	}
	ref, err := t.PinNodeForPatch(leafPage)
	if err != nil {
		return err
	}
	li := ref.FindOID(oid)
	if li < 0 {
		_ = ref.Release() // nothing was patched
		return fmt.Errorf("lbu: update %d: hash points to leaf %d but entry is missing", oid, leafPage)
	}
	res, leaf, err := s.attemptLocalAt(oid, new, newRect, &ref, li)
	if err != nil {
		return err
	}
	switch res {
	case needTopDown:
		s.out.topDown.Add(1)
		// The stored rectangle is the authoritative old location for the
		// top-down delete traversal.
		err = t.Update(oid, leaf.Entries[li].Rect, newRect)
	case needAscend:
		err = s.reinsertFromRoot(oid, newRect, leaf, li)
	}
	t.ReturnNode(leaf)
	return err
}

// reinsertFromRoot is Algorithm 1's non-local ending: "Delete old index
// entry for the object from leaf node; write out leaf node. ... Issue a
// standard R-tree insert at the root."
func (s *lbuStrategy) reinsertFromRoot(oid rtree.OID, newRect geom.Rect, leaf *rtree.Node, li int) error {
	t := s.tree
	leaf.RemoveEntry(li)
	if err := t.WriteNode(leaf); err != nil {
		return err
	}
	s.out.topDown.Add(1)
	if err := t.Insert(oid, newRect); err != nil {
		return err
	}
	t.AdjustSize(-1) // the object was already counted; Insert re-counted it
	return nil
}

// attemptLocalAt performs the local portion of Algorithm 1 on the leaf
// holding the object, pinned for patching with the object at entry li:
// in-place update, uniform ε-enlargement, and a sibling shift. It
// releases the pin. Only the in-place update is patched into the pinned
// page: the other outcomes read the parent between reading and writing
// the leaf, so they work on the decoded leaf, which is returned
// (borrowed: the caller hands it back), entry li still unmodified, unless
// the update was resolved (localDone). needAscend here means "delete
// bottom-up and re-insert from the root". The batch pipeline enters here
// with the group's leaf, skipping the hash lookup.
func (s *lbuStrategy) attemptLocalAt(oid rtree.OID, new geom.Point, newRect geom.Rect, ref *rtree.NodeRef, li int) (localOutcome, *rtree.Node, error) {
	t := s.tree

	// "if newLocation lies within the leaf MBR: update in place."
	if ref.Self().ContainsPoint(new) {
		ref.SetRect(li, newRect)
		s.out.inLeaf.Add(1)
		return localDone, nil, ref.Release()
	}
	leaf := ref.Decode()
	if err := ref.Release(); err != nil {
		return needTopDown, nil, err
	}

	// "Retrieve the parent of the leaf node. Let eMBR be the leaf MBR
	// enlarged by ε; if eMBR is contained in the parent MBR and
	// newLocation is within eMBR: enlarge."
	var parent *rtree.Node
	if leaf.Parent != pagestore.InvalidPage {
		var err error
		parent, err = t.BorrowNode(leaf.Parent)
		if err != nil {
			return needTopDown, nil, err
		}
		defer t.ReturnNode(parent)
		eMBR, ok := geom.ExpandWithin(leaf.Self, s.eps, parent.Self)
		if ok && eMBR.ContainsPoint(new) {
			leaf.Self = eMBR
			leaf.Entries[li].Rect = newRect
			if err := t.WriteNode(leaf); err != nil {
				return needTopDown, nil, err
			}
			// Keep the parent's entry mirroring the enlarged leaf MBR so
			// queries keep finding the extension region. (The paper's
			// cost analysis charges only the parent read; the write is
			// required for correctness and is charged here.)
			pi := parent.FindChild(leaf.Page)
			if pi < 0 {
				return needTopDown, nil, fmt.Errorf("lbu: parent %d missing child %d", parent.Page, leaf.Page)
			}
			parent.Entries[pi].Rect = eMBR
			s.out.extended.Add(1)
			t.ReturnNode(leaf)
			return localDone, nil, t.WriteNode(parent)
		}
	}

	// "if deletion of the object from the leaf node leads to underflow:
	// issue a top-down update."
	if len(leaf.Entries)-1 < t.MinEntries(0) {
		return needTopDown, leaf, nil
	}

	// "if newLocation is contained in the MBR of some sibling node which
	// is not full: insert there." Without the summary structure's bit
	// vector, LBU must read each candidate sibling to learn whether it is
	// full — the extra disk accesses the paper charges this scheme. The
	// header answers that; a full sibling is not decoded.
	if parent != nil {
		for i := range parent.Entries {
			sibPage := parent.Entries[i].Child
			if sibPage == leaf.Page || !parent.Entries[i].Rect.ContainsPoint(new) {
				continue
			}
			sref, err := t.PinNode(sibPage)
			if err != nil {
				return needTopDown, nil, err
			}
			if sref.Count() >= t.MaxEntries(0) {
				if err := sref.Release(); err != nil {
					return needTopDown, nil, err
				}
				continue // full; keep scanning
			}
			sib := sref.Decode()
			if err := sref.Release(); err != nil {
				return needTopDown, nil, err
			}
			// Sibling first, then the source leaf: a concurrent reader
			// may transiently see the object twice but never zero times.
			sib.Entries = append(sib.Entries, rtree.Entry{Rect: newRect, OID: oid})
			if err := t.WriteNode(sib); err != nil {
				return needTopDown, nil, err
			}
			t.ReturnNode(sib)
			leaf.RemoveEntry(li)
			if err := t.WriteNode(leaf); err != nil {
				return needTopDown, nil, err
			}
			t.ReturnNode(leaf)
			if err := s.hash.Set(oid, sibPage); err != nil {
				return needTopDown, nil, err
			}
			s.out.shifted.Add(1)
			return localDone, nil, nil
		}
	}
	return needAscend, leaf, nil
}

// LeafOf resolves the leaf currently holding the object (GroupApplier).
func (s *lbuStrategy) LeafOf(oid rtree.OID) (rtree.PageID, error) {
	return s.hash.Lookup(oid)
}

// LeafScope names the leaf and its parent, read through the leaf's
// parent pointer (GroupApplier).
func (s *lbuStrategy) LeafScope(leaf rtree.PageID) (Scope, error) {
	ref, err := s.tree.PinNode(leaf)
	if err != nil {
		return Scope{}, err
	}
	parent := ref.Parent()
	if err := ref.Release(); err != nil {
		return Scope{}, err
	}
	return Scope{Leaf: leaf, Parent: parent}, nil
}

// ApplyLeafGroup applies one leaf's share of a batch in a single
// bottom-up pass. The leaf is read once and every in-leaf move rewrites
// its entry in place. For the rest the parent is read once (through the
// leaf's parent pointer) and the uniform ε-enlargement is decided once
// for the whole group — LBU's enlargement does not depend on the
// movement direction, so a single Kwon-style eMBR covers every change
// the sequential path could have resolved by extension. The leaf and
// the parent's mirroring entry are written back once for the group.
//
//burlint:hotpath
func (s *lbuStrategy) ApplyLeafGroup(leafPage rtree.PageID, group, unresolved []BatchChange) ([]BatchChange, error) {
	t := s.tree
	leaf, err := t.BorrowNode(leafPage)
	if err != nil {
		if errors.Is(err, pagestore.ErrPageFreed) {
			return append(unresolved, group...), nil // leaf freed by an earlier change in the batch
		}
		return nil, err
	}
	defer t.ReturnNode(leaf)
	if !leaf.IsLeaf() {
		return append(unresolved, group...), nil // page recycled as an internal node
	}

	// The members outside the leaf's MBR wait for the enlargement decision
	// in a list that starts on the stack.
	var outsideBuf [groupScratch]BatchChange
	outside := outsideBuf[:0]
	dirty := false
	for _, c := range group {
		li := leaf.FindOID(c.OID)
		if li < 0 {
			unresolved = append(unresolved, c) // moved since grouping
			continue
		}
		if leaf.Self.ContainsPoint(c.New) {
			leaf.Entries[li].Rect = geom.RectFromPoint(c.New)
			s.out.inLeaf.Add(1)
			dirty = true
			continue
		}
		outside = append(outside, c)
	}

	// One uniform enlargement decision for the whole group.
	var parent *rtree.Node
	enlarged := false
	if len(outside) > 0 && leaf.Parent != pagestore.InvalidPage {
		parent, err = t.BorrowNode(leaf.Parent)
		if err != nil {
			return nil, err
		}
		defer t.ReturnNode(parent)
		if eMBR, ok := geom.ExpandWithin(leaf.Self, s.eps, parent.Self); ok {
			rest := outside[:0]
			for _, c := range outside {
				if !eMBR.ContainsPoint(c.New) {
					rest = append(rest, c)
					continue
				}
				leaf.Entries[leaf.FindOID(c.OID)].Rect = geom.RectFromPoint(c.New)
				s.out.extended.Add(1)
				enlarged = true
				dirty = true
			}
			if enlarged {
				leaf.Self = eMBR
			}
			outside = rest
		}
	}

	if dirty {
		if err := t.WriteNode(leaf); err != nil {
			return nil, err
		}
	}
	if enlarged {
		pi := parent.FindChild(leaf.Page)
		if pi < 0 {
			return nil, fmt.Errorf("lbu: parent %d missing child %d", parent.Page, leaf.Page)
		}
		parent.Entries[pi].Rect = leaf.Self
		if err := t.WriteNode(parent); err != nil {
			return nil, err
		}
	}
	return append(unresolved, outside...), nil
}

// UpdateAtLeaf applies one change whose object lives in leaf, skipping
// the secondary-index lookup (GroupApplier). Directly after a group
// pass the leaf is still buffered, so the read costs no disk access.
func (s *lbuStrategy) UpdateAtLeaf(leafPage rtree.PageID, c BatchChange, localOnly bool) (bool, error) {
	t := s.tree
	newRect := geom.RectFromPoint(c.New)
	ref, err := t.PinNodeForPatch(leafPage)
	if err != nil && !errors.Is(err, pagestore.ErrPageFreed) {
		return false, err
	}
	li := -1
	if err == nil {
		if ref.IsLeaf() {
			li = ref.FindOID(c.OID)
		}
		if li < 0 {
			if err := ref.Release(); err != nil {
				return false, err
			}
		}
	}
	if li < 0 {
		if localOnly {
			return false, nil // moved concurrently; the caller escalates
		}
		// The batch's own shifts, splits and top-down deletes can
		// relocate objects — or free or recycle the leaf page — between
		// grouping and application; re-resolve through the always-current
		// hash index.
		return true, s.Update(c.OID, c.Old, c.New)
	}
	res, leaf, err := s.attemptLocalAt(c.OID, c.New, newRect, &ref, li)
	if err != nil {
		return false, err
	}
	if res == localDone {
		return true, s.adapter.Err()
	}
	defer t.ReturnNode(leaf)
	if localOnly {
		return false, nil
	}
	if res == needTopDown {
		s.out.topDown.Add(1)
		if err := t.Update(c.OID, leaf.Entries[li].Rect, newRect); err != nil {
			return false, err
		}
		return true, s.adapter.Err()
	}
	if err := s.reinsertFromRoot(c.OID, newRect, leaf, li); err != nil {
		return false, err
	}
	return true, s.adapter.Err()
}

// HashBucket names the secondary-index bucket of an object without I/O
// (batch lookup clustering).
func (s *lbuStrategy) HashBucket(oid rtree.OID) int { return s.hash.Bucket(oid) }
