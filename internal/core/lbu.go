package core

import (
	"errors"
	"fmt"

	"burtree/internal/geom"
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
	bottomUp
	eps float64
}

var (
	_ Updater      = (*lbuStrategy)(nil)
	_ GroupApplier = (*lbuStrategy)(nil)
)

func (s *lbuStrategy) Name() string { return "LBU" }

// topDownFirst: Algorithm 1 always starts at the leaf.
func (s *lbuStrategy) topDownFirst(geom.Point, bool) bool { return false }

// ascend is Algorithm 1's non-local ending: "Delete old index entry for
// the object from leaf node; write out leaf node. ... Issue a standard
// R-tree insert at the root."
func (s *lbuStrategy) ascend(c BatchChange, leaf *rtree.Node, li int) error {
	t := s.tree
	leaf.RemoveEntry(li)
	if err := t.WriteNode(leaf); err != nil {
		return err
	}
	s.out.topDown.Add(1)
	if err := t.Insert(c.OID, geom.RectFromPoint(c.New)); err != nil {
		return err
	}
	t.AdjustSize(-1) // the object was already counted; Insert re-counted it
	return nil
}

// attemptLocalAt performs the local portion of Algorithm 1: in-place
// update, uniform ε-enlargement, and a sibling shift. Only the in-place
// update is patched into the pinned page: the other outcomes read the
// parent between reading and writing the leaf, so they work on the
// decoded leaf. needAscend here means "delete bottom-up and re-insert
// from the root".
func (s *lbuStrategy) attemptLocalAt(c BatchChange, ref rtree.NodeRef, li int) (localOutcome, *rtree.Node, error) {
	t := s.tree
	oid, new, newRect := c.OID, c.New, geom.RectFromPoint(c.New)

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
			if err := s.loc.Set(oid, sibPage); err != nil {
				return needTopDown, nil, err
			}
			s.out.shifted.Add(1)
			return localDone, nil, nil
		}
	}
	return needAscend, leaf, nil
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
