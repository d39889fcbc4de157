package core

import (
	"errors"
	"fmt"
	"math"

	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/summary"
)

// gbuStrategy is the Generalized Bottom-Up update of Algorithm 2. It
// keeps the R-tree structure intact and adds the main-memory summary
// structure for parent access, sibling screening and query planning.
type gbuStrategy struct {
	bottomUp
	sum  *summary.Structure
	opts Options
}

var (
	_ Updater      = (*gbuStrategy)(nil)
	_ GroupApplier = (*gbuStrategy)(nil)
)

func (s *gbuStrategy) Name() string { return "GBU" }

func (s *gbuStrategy) Summary() *summary.Structure { return s.sum }

// Delete removes an object bottom-up when no underflow threatens,
// falling back to the standard top-down delete otherwise — and for an
// object the locator does not place in this tree (ErrNotPlaced), which
// the top-down delete finds by its position.
func (s *gbuStrategy) Delete(oid rtree.OID, at geom.Point) error {
	t := s.tree
	if t.Height() <= 1 {
		return t.Delete(oid, geom.RectFromPoint(at))
	}
	leafPage, err := s.loc.Lookup(oid)
	switch {
	case errors.Is(err, ErrNotPlaced):
		if err := t.Delete(oid, geom.RectFromPoint(at)); err != nil {
			return err
		}
		return s.adapter.Err()
	case err != nil:
		return fmt.Errorf("gbu: delete %d: %w", oid, err)
	}
	ref, err := t.PinNode(leafPage)
	if err != nil {
		return err
	}
	li := ref.FindOID(oid)
	if li < 0 {
		_ = ref.Release() // a shared pin's release cannot fail
		return fmt.Errorf("gbu: delete %d: locator points to leaf %d but entry is missing", oid, leafPage)
	}
	if ref.Count()-1 < t.MinEntries(0) {
		stored := ref.Rect(li)
		if err := ref.Release(); err != nil {
			return err
		}
		if err := t.Delete(oid, stored); err != nil {
			return err
		}
		return s.adapter.Err()
	}
	leaf := ref.Decode()
	if err := ref.Release(); err != nil {
		return err
	}
	leaf.RemoveEntry(li)
	if err := t.WriteNode(leaf); err != nil {
		return err
	}
	t.ReturnNode(leaf)
	t.AdjustSize(-1)
	t.NotifyDataRemoved(oid)
	return s.adapter.Err()
}

// Search answers a window query. With the summary structure enabled, all
// internal-level overlap tests are resolved in memory (§3.2: "Equipped
// with knowledge of which index nodes above the leaf level to read from
// disk, we carry on with the query as usual"), so only the overlapping
// parent-of-leaf nodes and leaves are read. Nearest has no such variant:
// the summary holds no leaf entries, and they decide the ranking.
func (s *gbuStrategy) Search(q geom.Rect, visit func(rtree.OID, geom.Rect) bool) error {
	t := s.tree
	if s.opts.NoSummaryQueries || t.Height() <= 1 {
		return t.Search(q, visit)
	}
	// Scratch that starts on the stack; the pages are scanned where they
	// lie and visited with nothing pinned. One node's hits fit: a level-1
	// node's children in kidBuf, a whole leaf at the default page size in
	// hitBuf.
	var pageBuf [64]rtree.PageID
	var kidBuf [32]rtree.Entry
	var hitBuf [rtree.DefaultLeafFanout]rtree.Entry
	for _, pg := range s.sum.OverlappingAtLevel(1, q, pageBuf[:0]) {
		_, kids, err := t.ScanNode(pg, q, kidBuf[:0])
		if err != nil {
			return err
		}
		for i := range kids {
			_, hits, err := t.ScanNode(kids[i].Child, q, hitBuf[:0])
			if err != nil {
				return err
			}
			for j := range hits {
				if !visit(hits[j].OID, hits[j].Rect) {
					return nil
				}
			}
		}
	}
	return nil
}

// topDownFirst is Algorithm 2's opening, decided without disk access:
// a tree of height 1 has no internal structure to exploit, and "access
// the root entry in direct access table; if newLocation lies outside
// rootMBR: issue a top-down update". UpdateAtLeaf checks the root MBR
// after the pin instead (attemptLocalAt), so that the top-down pass
// starts from the stored rectangle.
func (s *gbuStrategy) topDownFirst(new geom.Point, atLeaf bool) bool {
	if s.tree.Height() <= 1 {
		return true
	}
	return !atLeaf && s.outsideRoot(new)
}

func (s *gbuStrategy) outsideRoot(new geom.Point) bool {
	rootMBR, ok := s.sum.RootMBR()
	return !ok || !rootMBR.ContainsPoint(new)
}

// ascend re-inserts the object below its lowest bounding ancestor:
// "ancestor = FindParent(node, newLocation); issue a standard R-tree
// insert at the ancestor node." The ancestor chain comes from the
// summary table, so the ascent itself costs no disk reads.
func (s *gbuStrategy) ascend(c BatchChange, leaf *rtree.Node, li int) error {
	t := s.tree
	lambda := effectiveLevelThreshold(s.opts.LevelThreshold, t.Height())
	fp, err := s.sum.FindParent(leaf.Page, c.New, lambda)
	if err != nil {
		return err
	}
	leaf.RemoveEntry(li)
	if err := t.WriteNode(leaf); err != nil {
		return err
	}
	if err := t.InsertEntryAt(fp.PathAbove(), fp.Ancestor, rtree.Entry{Rect: geom.RectFromPoint(c.New), OID: c.OID}, 0); err != nil {
		return err
	}
	s.out.ascended.Add(1)
	return nil
}

// attemptLocalAt runs the local phase of Algorithm 2: the root-MBR
// check, the in-leaf case and the δ-ordered extension/shift attempts.
// The in-leaf move and a slow mover's extension are patched into the
// pinned page; the other outcomes need the decoded leaf — a shift
// restructures it. needAscend means "re-insert below the lowest bounding
// ancestor".
func (s *gbuStrategy) attemptLocalAt(c BatchChange, ref rtree.NodeRef, li int) (localOutcome, *rtree.Node, error) {
	t := s.tree
	old, new, newRect := c.Old, c.New, geom.RectFromPoint(c.New)
	if s.outsideRoot(new) {
		return needTopDown, nil, ref.Release()
	}

	// "if newLocation lies within leafMBR: update in place."
	if ref.Self().ContainsPoint(new) {
		ref.SetRect(li, newRect)
		s.out.inLeaf.Add(1)
		return localDone, nil, ref.Release()
	}

	// Distance threshold δ: slow movers extend first, fast movers try a
	// sibling shift first (§3.2.1 optimization 2).
	slow := geom.Dist(old, new) <= s.opts.DistanceThreshold
	if slow {
		iMBR, parentPage, ok, err := s.extension(ref.Page(), ref.Self(), new)
		if err != nil {
			_ = ref.Release() // nothing was patched
			return needTopDown, nil, err
		}
		if ok {
			ref.SetSelf(iMBR)
			ref.SetRect(li, newRect)
			if err := ref.Release(); err != nil {
				return needTopDown, nil, err
			}
			return localDone, nil, s.mirrorExtension(parentPage, ref.Page(), iMBR)
		}
	}

	leaf := ref.Decode()
	if err := ref.Release(); err != nil {
		return needTopDown, nil, err
	}
	wouldUnderflow := len(leaf.Entries)-1 < t.MinEntries(0)
	done := false
	var err error
	if !wouldUnderflow {
		done, err = s.tryShift(leaf, li, new, newRect)
	}
	if !done && err == nil && !slow {
		done, err = s.tryExtend(leaf, li, new, newRect)
	}
	switch {
	case err != nil:
		return needTopDown, nil, err
	case done:
		t.ReturnNode(leaf)
		return localDone, nil, nil
	case wouldUnderflow:
		return needTopDown, leaf, nil
	}
	return needAscend, leaf, nil
}

// extension is the decision of Algorithm 4 (iExtendMBR): enlarge the leaf
// MBR self only in the direction of movement, by at most ε per side,
// clipped by the parent's MBR — which the summary table provides without
// disk access. ok reports whether the enlarged MBR reaches new.
func (s *gbuStrategy) extension(leafPage rtree.PageID, self geom.Rect, new geom.Point) (iMBR geom.Rect, parentPage rtree.PageID, ok bool, err error) {
	parentPage, ok = s.sum.ParentOf(leafPage)
	if !ok {
		return iMBR, parentPage, false, fmt.Errorf("gbu: no parent recorded for leaf %d", leafPage)
	}
	parentMBR, ok := s.sum.MBROf(parentPage)
	if !ok {
		return iMBR, parentPage, false, fmt.Errorf("gbu: no summary MBR for node %d", parentPage)
	}
	iMBR = geom.ExtendToward(self, new, s.opts.Epsilon, parentMBR)
	return iMBR, parentPage, iMBR.ContainsPoint(new), nil
}

// mirrorExtension completes an extension whose leaf is already written:
// the parent's entry for the leaf takes the enlarged MBR, patched in
// place.
func (s *gbuStrategy) mirrorExtension(parentPage, leafPage rtree.PageID, iMBR geom.Rect) error {
	if err := s.tree.SetChildRect(parentPage, leafPage, iMBR); err != nil {
		return err
	}
	s.out.extended.Add(1)
	return nil
}

// tryExtend is Algorithm 4 on a decoded leaf (a fast mover whose shift
// found no sibling). On success both the leaf and its parent's mirroring
// entry are written.
func (s *gbuStrategy) tryExtend(leaf *rtree.Node, li int, new geom.Point, newRect geom.Rect) (bool, error) {
	iMBR, parentPage, ok, err := s.extension(leaf.Page, leaf.Self, new)
	if err != nil || !ok {
		return false, err
	}
	leaf.Self = iMBR
	leaf.Entries[li].Rect = newRect
	if err := s.tree.WriteNode(leaf); err != nil {
		return false, err
	}
	return true, s.mirrorExtension(parentPage, leaf.Page, iMBR)
}

// tryShift moves the object into a sibling leaf whose MBR already covers
// the new location. The summary bit vector screens out full siblings
// before any disk access; co-located objects are piggybacked across and
// the source leaf's MBR is tightened (§3.2.1 optimization 4). The parent
// is scanned where it lies and decoded only once a sibling is chosen; the
// sibling is decoded only once its header shows room.
func (s *gbuStrategy) tryShift(leaf *rtree.Node, li int, new geom.Point, newRect geom.Rect) (bool, error) {
	t := s.tree
	parentPage, ok := s.sum.ParentOf(leaf.Page)
	if !ok {
		return false, fmt.Errorf("gbu: no parent recorded for leaf %d", leaf.Page)
	}
	// The summary table answers "could any sibling contain the new
	// location?" without disk access: every sibling MBR lies inside the
	// parent's MBR, so a location outside it cannot be shifted to — skip
	// the parent read entirely (§3.2: the table gives quick access to a
	// node's parent).
	if pmbr, ok := s.sum.MBROf(parentPage); ok && !pmbr.ContainsPoint(new) {
		return false, nil
	}
	pref, err := t.PinNode(parentPage)
	if err != nil {
		return false, err
	}
	best, bestArea := -1, math.MaxFloat64
	for i, n := 0, pref.Count(); i < n; i++ {
		pg, r := pref.Child(i), pref.Rect(i)
		if pg == leaf.Page || !r.ContainsPoint(new) {
			continue
		}
		if s.sum.IsLeafFull(pg) {
			continue
		}
		if a := r.Area(); a < bestArea {
			best, bestArea = i, a
		}
	}
	if best < 0 {
		return false, pref.Release()
	}
	sibPage := pref.Child(best)
	parent := pref.Decode()
	if err := pref.Release(); err != nil {
		return false, err
	}
	sref, err := t.PinNode(sibPage)
	if err != nil {
		return false, err
	}
	if sref.Count() >= t.MaxEntries(0) {
		t.ReturnNode(parent)
		return false, sref.Release() // stale bit; never overflow a sibling
	}
	sib := sref.Decode()
	if err := sref.Release(); err != nil {
		return false, err
	}

	oid := leaf.Entries[li].OID
	leaf.RemoveEntry(li)
	sib.Entries = append(sib.Entries, rtree.Entry{Rect: newRect, OID: oid})

	// At most a leaf's worth ride along: on the stack at the default page
	// size.
	var passengerBuf [rtree.DefaultLeafFanout]rtree.OID
	passengers := passengerBuf[:0]
	if !s.opts.NoPiggyback {
		for j := len(leaf.Entries) - 1; j >= 0; j-- {
			if len(sib.Entries) >= t.MaxEntries(0) || len(leaf.Entries) <= t.MinEntries(0) {
				break
			}
			if sib.Self.ContainsRect(leaf.Entries[j].Rect) {
				sib.Entries = append(sib.Entries, leaf.Entries[j])
				passengers = append(passengers, leaf.Entries[j].OID)
				leaf.RemoveEntry(j)
			}
		}
	}

	// "After a shift, the leaf's MBR is tightened to reduce overlap."
	// The sibling is written before the source leaf so a concurrent
	// query (running under the DGL cell locks of its own window) can
	// never observe a moment where the shifted objects are in neither
	// page; a transient duplicate is the benign direction.
	leaf.Self = leaf.EntriesMBR()
	if err := t.WriteNode(sib); err != nil {
		return false, err
	}
	if err := t.WriteNode(leaf); err != nil {
		return false, err
	}
	pi := parent.FindChild(leaf.Page)
	if pi < 0 {
		return false, fmt.Errorf("gbu: parent %d missing child %d", parentPage, leaf.Page)
	}
	parent.Entries[pi].Rect = leaf.Self
	if err := t.WriteNode(parent); err != nil {
		return false, err
	}
	t.ReturnNode(sib)
	t.ReturnNode(parent)

	if err := s.loc.Set(oid, sibPage); err != nil {
		return false, err
	}
	for _, p := range passengers {
		if err := s.loc.Set(p, sibPage); err != nil {
			return false, err
		}
	}
	s.out.shifted.Add(1)
	s.out.piggyback.Add(int64(len(passengers)))
	return true, nil
}

// LeafScope names the leaf and its parent, resolved in the summary
// table without I/O (GroupApplier).
func (s *gbuStrategy) LeafScope(leaf rtree.PageID) (Scope, error) {
	parent, _ := s.sum.ParentOf(leaf) // InvalidPage when none is recorded
	return Scope{Leaf: leaf, Parent: parent}, nil
}

// ApplyLeafGroup applies one leaf's share of a batch in a single
// bottom-up pass. The leaf is read once; every in-leaf move rewrites
// its entry in place; the remaining slow movers (δ) share one
// directional extension decision — the candidate MBR grows by at most ε
// per change toward each new location, clipped by the parent MBR from
// the summary table, exactly the cumulative shape a sequence of
// per-object Algorithm 4 extensions would produce — and the leaf and
// its parent entry are written back once for the whole group. Fast
// movers, underflow risks and points beyond the achievable extension
// are appended to unresolved, untouched, for the per-object path.
func (s *gbuStrategy) ApplyLeafGroup(leafPage rtree.PageID, group, unresolved []BatchChange) ([]BatchChange, error) {
	t := s.tree
	if t.Height() <= 1 {
		return append(unresolved, group...), nil // no internal structure to exploit
	}
	ref, err := t.PinNodeForPatch(leafPage)
	if err != nil {
		if errors.Is(err, pagestore.ErrPageFreed) {
			return append(unresolved, group...), nil // leaf freed by an earlier change in the batch
		}
		return nil, err
	}
	if !ref.IsLeaf() {
		return append(unresolved, group...), ref.Release() // page recycled as an internal node
	}

	// Every resolved move is patched into the pinned leaf; the page goes
	// out once, when the pin is released. The members outside the leaf's
	// MBR wait for the extension decision in a list that starts on the
	// stack.
	var outsideBuf [groupScratch]BatchChange
	outside := outsideBuf[:0]
	oldSelf := ref.Self()
	self := oldSelf
	for _, c := range group {
		li := ref.FindOID(c.OID)
		if li < 0 {
			// The object left this leaf between grouping and application
			// (possible under concurrency); per-object handling re-resolves.
			unresolved = append(unresolved, c)
			continue
		}
		if self.ContainsPoint(c.New) {
			ref.SetRect(li, geom.RectFromPoint(c.New))
			s.out.inLeaf.Add(1)
			continue
		}
		outside = append(outside, c)
	}

	// One extension decision for the group's slow movers. The summary
	// table provides the parent and its MBR bound without disk access.
	var parentPage rtree.PageID
	okP := false
	if len(outside) > 0 {
		parentPage, okP = s.sum.ParentOf(leafPage)
		parentMBR, okM := geom.Rect{}, false
		if okP {
			parentMBR, okM = s.sum.MBROf(parentPage)
		}
		rest := outside[:0]
		for _, c := range outside {
			if !okM || geom.Dist(c.Old, c.New) > s.opts.DistanceThreshold {
				rest = append(rest, c) // fast movers try a shift first (δ)
				continue
			}
			ext := geom.ExtendToward(self, c.New, s.opts.Epsilon, parentMBR)
			if !ext.ContainsPoint(c.New) {
				rest = append(rest, c)
				continue
			}
			self = ext
			ref.SetRect(ref.FindOID(c.OID), geom.RectFromPoint(c.New))
			s.out.extended.Add(1)
		}
		outside = rest
	}

	if self != oldSelf {
		ref.SetSelf(self)
	}
	if err := ref.Release(); err != nil {
		return nil, err
	}
	if self != oldSelf {
		// Mirror the enlarged leaf MBR in the parent once per group
		// instead of once per extension.
		if !okP {
			return nil, fmt.Errorf("gbu: no parent recorded for leaf %d", leafPage)
		}
		if err := t.SetChildRect(parentPage, leafPage, self); err != nil {
			return nil, err
		}
	}
	return append(unresolved, outside...), nil
}
