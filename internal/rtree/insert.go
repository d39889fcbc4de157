package rtree

import (
	"fmt"
	"sort"

	"burtree/internal/geom"
	"burtree/internal/pagestore"
)

// Insert adds a data object with the given bounding rectangle, descending
// top-down from the root (Guttman's algorithm, with optional R*-style
// forced reinsertion on the first overflow per level).
//
// Insert does not check for duplicate object ids; callers that need
// uniqueness enforce it above this layer (the facade keeps an object
// table). A rect that is not a point is refused with ErrNotPoint.
func (t *Tree) Insert(oid OID, rect geom.Rect) error {
	if err := checkData(oid, rect); err != nil {
		return err
	}
	if t.root == pagestore.InvalidPage {
		root := t.allocNode(0)
		root.Entries = append(root.Entries, Entry{Rect: rect, OID: oid})
		root.Self = rect
		if err := t.WriteNode(root); err != nil {
			return err
		}
		t.setRoot(root.Page, 1)
		t.notifyPlaced(oid, root.Page)
		t.size++
		t.ReturnNode(root)
		return nil
	}
	op := t.borrowOp()
	defer t.returnOp(op)
	if err := t.insertEntry(nil, t.root, Entry{Rect: rect, OID: oid}, 0, op); err != nil {
		return err
	}
	if err := t.drainReinserts(op); err != nil {
		return err
	}
	t.size++
	return nil
}

// checkData refuses a data rectangle a leaf cannot store: an invalid one,
// or one that is not a point (ErrNotPoint).
func checkData(oid OID, rect geom.Rect) error {
	switch {
	case !rect.Valid():
		return fmt.Errorf("rtree: object %d: invalid rect %v", oid, rect)
	case !rect.IsPoint():
		return fmt.Errorf("%w: object %d at %v", ErrNotPoint, oid, rect)
	}
	return nil
}

// InsertEntryAt performs a standard R-tree insertion of e at targetLevel,
// descending from the node on page start instead of the root. abovePath
// lists the ancestor chain from the root down to start's parent; it is
// consulted (and those pages read) only when a split or MBR change must
// propagate above start. The GBU strategy supplies this chain from its
// main-memory summary structure, which is what makes ascending cheaper
// than a full top-down insert.
//
// The caller is responsible for accounting (size) when e is a data entry
// that is logically new; for GBU updates the object count is unchanged.
func (t *Tree) InsertEntryAt(abovePath []pagestore.PageID, start pagestore.PageID, e Entry, targetLevel int) error {
	op := t.borrowOp()
	defer t.returnOp(op)
	if err := t.insertEntry(abovePath, start, e, targetLevel, op); err != nil {
		return err
	}
	return t.drainReinserts(op)
}

// insertOp carries per-operation state: the set of levels already treated
// with forced reinsertion (bit l for level l), the queue of entries
// awaiting reinsertion, and the overflow path's scratch. Ops come from the
// tree's free list with the room their buffers grew to, so an insertion
// that reinserts, splits or condenses allocates nothing once warm.
type insertOp struct {
	reinserted uint64
	pending    []pendingReinsert
	next       int // pending[next] is the next entry to reinsert
	dists      byDistDesc
	split      splitScratch
}

// borrowOp takes an empty op from the tree's free list; returnOp empties
// it, keeping its buffers, and hands it back.
func (t *Tree) borrowOp() *insertOp {
	if op, ok := t.ops.Get().(*insertOp); ok {
		return op
	}
	return new(insertOp)
}

func (t *Tree) returnOp(op *insertOp) {
	op.reinserted, op.pending, op.next = 0, op.pending[:0], 0
	t.ops.Put(op)
}

// markReinserted records that level is being treated with forced
// reinsertion in this operation and reports whether it already had been.
// Levels beyond the mask (no tree is that tall) count as treated.
func (op *insertOp) markReinserted(level int) (already bool) {
	if level >= 64 {
		return true
	}
	bit := uint64(1) << level
	already = op.reinserted&bit != 0
	op.reinserted |= bit
	return already
}

type pendingReinsert struct {
	e     Entry
	level int
}

// drainReinserts reinserts the queued entries first in, first out; the
// reinsertions may queue more behind them. The queue is walked, not
// resliced, so its room survives for the next op.
func (t *Tree) drainReinserts(op *insertOp) error {
	for op.next < len(op.pending) {
		p := op.pending[op.next]
		op.next++
		if err := t.insertEntry(nil, t.root, p.e, p.level, op); err != nil {
			return err
		}
	}
	return nil
}

// insertEntry descends from start to targetLevel, adds e, and repairs the
// tree on the way back up. abovePath (root first) is consulted only when
// changes propagate above start.
func (t *Tree) insertEntry(abovePath []pagestore.PageID, start pagestore.PageID, e Entry, targetLevel int, op *insertOp) error {
	var pathBuf [8]*Node
	path, err := t.descend(pathBuf[:0], start, e.Rect, targetLevel)
	if err != nil {
		return err
	}
	target := path[len(path)-1]
	target.Entries = append(target.Entries, e)
	target.Self = target.Self.Union(e.Rect)
	if target.IsLeaf() {
		t.notifyPlaced(e.OID, target.Page)
	} else if t.cfg.ParentPointers {
		if err := t.setParent(e.Child, target.Page); err != nil {
			return err
		}
	}
	if err := t.adjustUp(path, abovePath, op); err != nil {
		return err
	}
	t.returnNodes(path)
	return nil
}

// descend reads the nodes from start down to targetLevel into path
// (borrowed nodes), choosing at each level the subtree needing least
// enlargement to take r.
func (t *Tree) descend(path []*Node, start pagestore.PageID, r geom.Rect, targetLevel int) ([]*Node, error) {
	for cur := start; ; {
		n, err := t.BorrowNode(cur)
		if err != nil {
			return nil, err
		}
		path = append(path, n)
		if n.Level == targetLevel {
			return path, nil
		}
		if n.Level < targetLevel || n.IsLeaf() {
			return nil, fmt.Errorf("rtree: insert at level %d: descent hit level %d", targetLevel, n.Level)
		}
		cur = n.Entries[chooseSubtree(n, r)].Child
	}
}

// written is what the level above needs to know of a node just written.
type written struct {
	page  pagestore.PageID
	level int
	self  geom.Rect
}

// adjustUp writes the deepest node of path and propagates MBR changes and
// splits toward the root, continuing into abovePath if necessary.
func (t *Tree) adjustUp(path []*Node, abovePath []pagestore.PageID, op *insertOp) error {
	child := path[len(path)-1]
	isRoot := len(path) == 1 && len(abovePath) == 0 && child.Page == t.root

	split, err := t.resolveOverflow(child, isRoot, op)
	if err != nil {
		return err
	}
	if err := t.WriteNode(child); err != nil {
		return err
	}
	below := written{child.Page, child.Level, child.Self}

	// Walk up through the in-memory path, then lazily through abovePath.
	for i := len(path) - 2; i >= 0; i-- {
		parent := path[i]
		isRoot := i == 0 && len(abovePath) == 0 && parent.Page == t.root
		var changed bool
		if changed, split, err = t.absorb(parent, isRoot, below, split, op); err != nil || !changed {
			return err // nothing to propagate further
		}
		below = written{parent.Page, parent.Level, parent.Self}
	}
	for i := len(abovePath) - 1; i >= 0; i-- {
		if split == nil {
			// Only an MBR may still change: patch the ancestor in place.
			var changed bool
			if changed, below, err = t.tighten(abovePath[i], below); err != nil || !changed {
				return err
			}
			continue
		}
		parent, err := t.BorrowNode(abovePath[i])
		if err != nil {
			return err
		}
		isRoot := i == 0 && parent.Page == t.root
		if _, split, err = t.absorb(parent, isRoot, below, split, op); err != nil {
			return err
		}
		below = written{parent.Page, parent.Level, parent.Self}
		t.ReturnNode(parent)
	}

	if split != nil {
		// The split reached the top of the chain; below must be the root.
		if below.page != t.root {
			return fmt.Errorf("rtree: split escaped the ancestor chain at node %d", below.page)
		}
		err = t.growRoot(below, split)
		t.ReturnNode(split)
	}
	return err
}

// absorb brings the decoded parent up to date with the child just
// written below it — the child's MBR and, after a split, its new sibling
// (which is handed back to the free list) — and, if anything changed,
// resolves the parent's own overflow and writes it. It returns the
// parent's new sibling when the parent split in turn.
func (t *Tree) absorb(parent *Node, isRoot bool, below written, sibling *Node, op *insertOp) (changed bool, split *Node, err error) {
	idx := parent.FindChild(below.page)
	if idx < 0 {
		return false, nil, fmt.Errorf("rtree: node %d missing child entry for %d", parent.Page, below.page)
	}
	if parent.Entries[idx].Rect != below.self {
		parent.Entries[idx].Rect = below.self
		changed = true
	}
	if sibling != nil {
		parent.Entries = append(parent.Entries, Entry{Rect: sibling.Self, Child: sibling.Page})
		if t.cfg.ParentPointers {
			if err := t.setParent(sibling.Page, parent.Page); err != nil {
				return false, nil, err
			}
		}
		t.ReturnNode(sibling)
		changed = true
	}
	if !changed {
		return false, nil, nil
	}
	parent.Self = parent.EntriesMBR()
	if split, err = t.resolveOverflow(parent, isRoot, op); err != nil {
		return false, nil, err
	}
	return true, split, t.WriteNode(parent)
}

// tighten is absorb for an ancestor that was not read on the way down and
// whose child did not split: it mirrors the child's MBR in the node on
// page and recomputes the node's own, patching both in place. With the
// mirror already exact nothing is written.
func (t *Tree) tighten(page pagestore.PageID, below written) (changed bool, _ written, err error) {
	r, err := t.PinNodeForPatch(page)
	if err != nil {
		return false, below, err
	}
	idx := r.FindChild(below.page)
	if idx < 0 {
		_ = r.Release() // nothing was patched
		return false, below, fmt.Errorf("rtree: node %d missing child entry for %d", page, below.page)
	}
	if r.Rect(idx) == below.self {
		return false, below, r.Release()
	}
	r.SetRect(idx, below.self)
	self := r.entriesMBR()
	r.SetSelf(self)
	return true, written{page, r.Level(), self}, r.Release()
}

// resolveOverflow handles an over-full node: forced reinsertion on the
// first overflow of a level per operation, a split otherwise. It returns
// the new sibling node (already written, borrowed from the free list) when
// a split occurred. The caller writes n itself.
func (t *Tree) resolveOverflow(n *Node, isRoot bool, op *insertOp) (*Node, error) {
	if len(n.Entries) <= t.MaxEntries(n.Level) {
		return nil, nil
	}
	if t.cfg.ReinsertFraction > 0 && !isRoot && !op.markReinserted(n.Level) {
		t.forceReinsert(n, op)
		return nil, nil
	}
	return t.splitNode(n, &op.split)
}

// forceReinsert removes the ReinsertFraction of entries whose centers lie
// farthest from the node's center and queues them for reinsertion at the
// same level (R*-tree overflow treatment).
func (t *Tree) forceReinsert(n *Node, op *insertOp) {
	k := int(t.cfg.ReinsertFraction * float64(len(n.Entries)))
	if k < 1 {
		k = 1
	}
	if max := len(n.Entries) - t.MinEntries(n.Level); k > max {
		k = max
	}
	c := n.EntriesMBR().Center()
	ds := op.dists[:0]
	for _, e := range n.Entries {
		ds = append(ds, distEntry{geom.DistSq(c, e.Rect.Center()), e})
	}
	op.dists = ds
	sort.Sort(&op.dists) // by pointer: boxing the slice itself would allocate
	n.Entries = n.Entries[:0]
	for _, de := range ds[k:] {
		n.Entries = append(n.Entries, de.e)
	}
	n.Self = n.EntriesMBR()
	for _, de := range ds[:k] {
		op.pending = append(op.pending, pendingReinsert{de.e, n.Level})
	}
	t.io.CountReinserts(k)
}

// distEntry is an entry of an overflowing node with the squared distance
// of its center from the node's.
type distEntry struct {
	d float64
	e Entry
}

// byDistDesc sorts distEntries farthest first. A named sort.Interface:
// the sort takes no reflection swapper, and makes exactly the comparisons
// and swaps sort.Slice would, so equal distances keep their order.
type byDistDesc []distEntry

func (s byDistDesc) Len() int           { return len(s) }
func (s byDistDesc) Less(i, j int) bool { return s[i].d > s[j].d }
func (s byDistDesc) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// splitNode divides n, writes the new sibling, and returns it. n keeps
// the first group; the caller writes n.
func (t *Tree) splitNode(n *Node, s *splitScratch) (*Node, error) {
	g1, g2 := s.split(n.Entries, t.MinEntries(n.Level))
	nn := t.allocNode(n.Level)
	nn.Parent = n.Parent
	// Copied out of the scratch into the nodes' own slices, so borrowed
	// nodes keep their capacity.
	nn.Entries = append(nn.Entries[:0], g2...)
	nn.Self = nn.EntriesMBR()
	n.Entries = append(n.Entries[:0], g1...)
	n.Self = n.EntriesMBR()
	t.io.CountSplit()

	// Bookkeeping for the entries that moved to the new node: secondary
	// index updates for data entries, parent-pointer rewrites for child
	// nodes (the LBU maintenance cost the paper calls out).
	if nn.IsLeaf() {
		for _, e := range nn.Entries {
			t.notifyPlaced(e.OID, nn.Page)
		}
	} else if t.cfg.ParentPointers {
		for _, e := range nn.Entries {
			if err := t.setParent(e.Child, nn.Page); err != nil {
				return nil, err
			}
		}
	}
	if err := t.WriteNode(nn); err != nil {
		return nil, err
	}
	return nn, nil
}

// growRoot installs a new root above the two nodes of a root split.
func (t *Tree) growRoot(oldRoot written, sibling *Node) error {
	root := t.allocNode(oldRoot.level + 1)
	root.Entries = append(root.Entries,
		Entry{Rect: oldRoot.self, Child: oldRoot.page},
		Entry{Rect: sibling.Self, Child: sibling.Page},
	)
	root.Self = root.EntriesMBR()
	if err := t.WriteNode(root); err != nil {
		return err
	}
	if t.cfg.ParentPointers {
		if err := t.setParent(oldRoot.page, root.Page); err != nil {
			return err
		}
		if err := t.setParent(sibling.Page, root.Page); err != nil {
			return err
		}
	}
	t.setRoot(root.Page, t.height+1)
	t.ReturnNode(root)
	return nil
}

// setParent rewrites the parent pointer of the node on page child, in
// place. Each call costs one read and one write, which is exactly the
// maintenance overhead the paper attributes to parent-pointer schemes.
func (t *Tree) setParent(child, parent pagestore.PageID) error {
	r, err := t.PinNodeForPatch(child)
	if err != nil {
		return err
	}
	if r.Parent() != parent {
		r.setParent(parent)
	}
	return r.Release()
}

// chooseSubtree returns the index of the entry needing least area
// enlargement to cover r, breaking ties by smaller area (Guttman).
func chooseSubtree(n *Node, r geom.Rect) int {
	best := 0
	bestEnl := n.Entries[0].Rect.Enlargement(r)
	bestArea := n.Entries[0].Rect.Area()
	for i := 1; i < len(n.Entries); i++ {
		enl := n.Entries[i].Rect.Enlargement(r)
		area := n.Entries[i].Rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}
