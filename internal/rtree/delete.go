package rtree

import (
	"fmt"

	"burtree/internal/geom"
	"burtree/internal/pagestore"
)

// Delete removes the data entry for oid whose rectangle is at. The
// rectangle is the search hint (the paper's updates always know the old
// location); deletion descends every path whose bounding rectangles
// contain it, as in Guttman's FindLeaf. Underfull nodes are condensed and
// their entries reinserted.
func (t *Tree) Delete(oid OID, at geom.Rect) error {
	if t.root == pagestore.InvalidPage {
		return ErrNotFound
	}
	root, err := t.BorrowNode(t.root)
	if err != nil {
		return err
	}
	var pathBuf [8]*Node
	path, found, err := t.findLeaf(root, oid, at, pathBuf[:0])
	if err != nil {
		return err
	}
	if !found {
		t.ReturnNode(root)
		return fmt.Errorf("%w: oid %d at %v", ErrNotFound, oid, at)
	}
	leaf := path[len(path)-1]
	leaf.RemoveEntry(leaf.FindOID(oid))
	t.notifyRemoved(oid)
	if err := t.condense(path); err != nil {
		return err
	}
	t.returnNodes(path)
	t.size--
	return nil
}

// Update is the traditional top-down update (the paper's TD baseline):
// one top-down traversal to locate and delete the old entry, then a
// separate top-down insertion of the new one. A new rect the leaf cannot
// store is refused before anything is deleted.
func (t *Tree) Update(oid OID, old, new geom.Rect) error {
	if err := checkData(oid, new); err != nil {
		return err
	}
	if err := t.Delete(oid, old); err != nil {
		return err
	}
	return t.Insert(oid, new)
}

// findLeaf performs a depth-first containment search for the entry below
// the decoded node n, returning the full node path from n to the owning
// leaf. Leaves are scanned where they lie; only the owning one is decoded.
// The nodes findLeaf adds to a successful path are borrowed (the caller
// returns them); on a miss it has returned its own and the path comes
// back as it was passed in.
func (t *Tree) findLeaf(n *Node, oid OID, at geom.Rect, path []*Node) ([]*Node, bool, error) {
	path = append(path, n)
	if n.IsLeaf() {
		for i := range n.Entries {
			if n.Entries[i].OID == oid && n.Entries[i].Rect == at {
				return path, true, nil
			}
		}
		return path[:len(path)-1], false, nil
	}
	for i := range n.Entries {
		if !n.Entries[i].Rect.ContainsRect(at) {
			continue
		}
		child, found, err := t.probe(n.Entries[i].Child, oid, at)
		if err != nil {
			return nil, false, err
		}
		if found {
			return append(path, child), true, nil
		}
		if child == nil {
			continue // a leaf without the entry
		}
		sub, found, err := t.findLeaf(child, oid, at, path)
		if err != nil {
			return nil, false, err
		}
		if found {
			return sub, true, nil
		}
		t.ReturnNode(child)
	}
	return path[:len(path)-1], false, nil
}

// probe is one step of findLeaf's descent, one logical page read. A leaf
// is scanned in place for the entry and decoded only when it holds it
// (found); an internal node is decoded for the descent to continue. It
// returns no node for a leaf without the entry.
//
//burlint:hotpath
func (t *Tree) probe(page pagestore.PageID, oid OID, at geom.Rect) (n *Node, found bool, err error) {
	r, err := t.PinNode(page)
	if err != nil {
		return nil, false, err
	}
	if r.IsLeaf() {
		for i := 0; i < r.v.count && !found; i++ {
			found = r.v.id(i) == oid && r.v.rect(i) == at
		}
	}
	if found || !r.IsLeaf() {
		n = r.Decode()
	}
	return n, found, r.Release()
}

// condense implements Guttman's CondenseTree: walking from the leaf back
// to the root, underfull nodes are removed and their entries queued for
// reinsertion at their original level; surviving nodes have their MBRs
// tightened. Orphans are reinserted and finally the root is collapsed
// while it is an internal node with a single child.
//
// The orphans queue on a pooled insertion op, whose room the reinsertions
// reuse.
func (t *Tree) condense(path []*Node) error {
	op := t.borrowOp()
	defer t.returnOp(op)
	touched := true // the leaf lost an entry

	for i := len(path) - 1; i >= 1; i-- {
		n := path[i]
		parent := path[i-1]
		idx := parent.FindChild(n.Page)
		if idx < 0 {
			return fmt.Errorf("rtree: condense: node %d missing child %d", parent.Page, n.Page)
		}
		if len(n.Entries) < t.MinEntries(n.Level) {
			parent.RemoveEntry(idx)
			for _, e := range n.Entries {
				op.pending = append(op.pending, pendingReinsert{e, n.Level})
			}
			if err := t.freeNode(n.Page, n.Level); err != nil {
				return err
			}
			touched = true
			continue
		}
		if !touched {
			continue
		}
		if len(n.Entries) > 0 {
			n.Self = n.EntriesMBR()
		}
		if err := t.WriteNode(n); err != nil {
			return err
		}
		touched = parent.Entries[idx].Rect != n.Self
		parent.Entries[idx].Rect = n.Self
	}

	// Root: tighten and write if touched.
	root := path[0]
	if touched {
		if len(root.Entries) > 0 {
			root.Self = root.EntriesMBR()
		}
		if err := t.WriteNode(root); err != nil {
			return err
		}
	}

	// Reinsert orphans at their original levels.
	if err := t.drainReinserts(op); err != nil {
		return err
	}

	return t.collapseRoot()
}

// collapseRoot shrinks the tree while the root is an internal node with a
// single child, or empties it when the last entry is gone.
func (t *Tree) collapseRoot() error {
	for t.root != pagestore.InvalidPage {
		r, err := t.PinNode(t.root)
		if err != nil {
			return err
		}
		level, count := r.Level(), r.Count()
		child := pagestore.InvalidPage
		if level > 0 && count == 1 {
			child = r.Child(0)
		}
		if err := r.Release(); err != nil {
			return err
		}
		if level == 0 {
			if count == 0 {
				if err := t.freeNode(t.root, 0); err != nil {
					return err
				}
				t.setRoot(pagestore.InvalidPage, 0)
			}
			return nil
		}
		if count > 1 {
			return nil
		}
		if err := t.freeNode(t.root, level); err != nil {
			return err
		}
		t.setRoot(child, t.height-1)
		if t.cfg.ParentPointers {
			if err := t.setParent(child, pagestore.InvalidPage); err != nil {
				return err
			}
		}
	}
	return nil
}
