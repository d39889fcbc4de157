package core

import (
	"burtree/internal/pagestore"
	"errors"
	"fmt"
	"math"

	"burtree/internal/geom"
	"burtree/internal/hashindex"
	"burtree/internal/rtree"
	"burtree/internal/summary"
)

// gbuStrategy is the Generalized Bottom-Up update of Algorithm 2. It
// keeps the R-tree structure intact and adds the main-memory summary
// structure for parent access, sibling screening and query planning.
type gbuStrategy struct {
	tree    *rtree.Tree
	hash    *hashindex.Index
	sum     *summary.Structure
	adapter *hashAdapter
	opts    Options

	out outcomeCounters
}

var (
	_ Updater      = (*gbuStrategy)(nil)
	_ GroupApplier = (*gbuStrategy)(nil)
)

func (s *gbuStrategy) Name() string { return "GBU" }

func (s *gbuStrategy) Tree() *rtree.Tree { return s.tree }

func (s *gbuStrategy) Summary() *summary.Structure { return s.sum }

func (s *gbuStrategy) Outcomes() Outcomes { return s.out.snapshot() }

func (s *gbuStrategy) Err() error { return s.adapter.Err() }

func (s *gbuStrategy) Insert(oid rtree.OID, p geom.Point) error {
	if err := s.tree.Insert(oid, geom.RectFromPoint(p)); err != nil {
		return err
	}
	return s.adapter.Err()
}

// Delete removes an object bottom-up when no underflow threatens,
// falling back to the standard top-down delete otherwise.
func (s *gbuStrategy) Delete(oid rtree.OID, at geom.Point) error {
	t := s.tree
	if t.Height() <= 1 {
		return t.Delete(oid, geom.RectFromPoint(at))
	}
	leafPage, err := s.hash.Lookup(oid)
	if err != nil {
		return fmt.Errorf("gbu: delete %d: %w", oid, err)
	}
	ref, err := t.PinNode(leafPage)
	if err != nil {
		return err
	}
	li := ref.FindOID(oid)
	if li < 0 {
		_ = ref.Release() // a shared pin's release cannot fail
		return fmt.Errorf("gbu: delete %d: hash points to leaf %d but entry is missing", oid, leafPage)
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
// parent-of-leaf nodes and leaves are read.
//
//burlint:hotpath
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

// Nearest answers a k-nearest-neighbour query through the tree's
// best-first search. The summary structure holds the MBRs of internal
// nodes but not of the leaf entries that decide the final ranking, so
// unlike Search there is no memory-assisted variant; the traversal is
// the plain MinDist descent.
func (s *gbuStrategy) Nearest(p geom.Point, k int) ([]rtree.Neighbor, error) {
	return s.tree.NearestK(p, k)
}

// localOutcome classifies the result of the local phase of Algorithm 2.
type localOutcome int

const (
	localDone   localOutcome = iota // resolved in-leaf / extend / shift
	needTopDown                     // full top-down fallback required
	needAscend                      // must re-insert below a bounding ancestor
)

// Update implements Algorithm 2 (Generalized Bottom-Up Update).
//
//burlint:hotpath
func (s *gbuStrategy) Update(oid rtree.OID, old, new geom.Point) error {
	if err := s.update(oid, old, new); err != nil {
		return err
	}
	return s.adapter.Err()
}

func (s *gbuStrategy) update(oid rtree.OID, old, new geom.Point) error {
	t := s.tree
	newRect := geom.RectFromPoint(new)

	// Trees of height 1 have no internal structure to exploit.
	if t.Height() <= 1 {
		return s.topDown(oid, geom.RectFromPoint(old), newRect)
	}

	// "Access the root entry in direct access table; if newLocation lies
	// outside rootMBR: issue a top-down update." No disk access needed.
	rootMBR, ok := s.sum.RootMBR()
	if !ok {
		return fmt.Errorf("gbu: update %d: summary has no root MBR", oid)
	}
	if !rootMBR.ContainsPoint(new) {
		return s.topDown(oid, geom.RectFromPoint(old), newRect)
	}

	// "Locate via the secondary object-ID index the leaf node."
	leafPage, err := s.hash.Lookup(oid)
	if err != nil {
		return fmt.Errorf("gbu: update %d: %w", oid, err)
	}
	ref, err := t.PinNodeForPatch(leafPage)
	if err != nil {
		return err
	}
	li := ref.FindOID(oid)
	if li < 0 {
		_ = ref.Release() // nothing was patched
		return fmt.Errorf("gbu: update %d: hash points to leaf %d but entry is missing", oid, leafPage)
	}
	res, leaf, err := s.attemptLocalAt(old, new, newRect, &ref, li)
	if err != nil {
		return err
	}
	switch res {
	case needTopDown:
		// The stored rectangle is the authoritative old location.
		err = s.topDown(oid, leaf.Entries[li].Rect, newRect)
	case needAscend:
		err = s.ascend(oid, new, newRect, leaf, li)
	}
	t.ReturnNode(leaf)
	return err
}

// topDown hands one update to the tree's top-down path, counting it.
func (s *gbuStrategy) topDown(oid rtree.OID, oldRect, newRect geom.Rect) error {
	s.out.topDown.Add(1)
	return s.tree.Update(oid, oldRect, newRect)
}

// ascend re-inserts the object below its lowest bounding ancestor:
// "ancestor = FindParent(node, newLocation); issue a standard R-tree
// insert at the ancestor node." The ancestor chain comes from the
// summary table, so the ascent itself costs no disk reads.
func (s *gbuStrategy) ascend(oid rtree.OID, new geom.Point, newRect geom.Rect, leaf *rtree.Node, li int) error {
	t := s.tree
	lambda := effectiveLevelThreshold(s.opts.LevelThreshold, t.Height())
	fp, err := s.sum.FindParent(leaf.Page, new, lambda)
	if err != nil {
		return err
	}
	leaf.RemoveEntry(li)
	if err := t.WriteNode(leaf); err != nil {
		return err
	}
	if err := t.InsertEntryAt(fp.PathAbove(), fp.Ancestor, rtree.Entry{Rect: newRect, OID: oid}, 0); err != nil {
		return err
	}
	s.out.ascended.Add(1)
	return nil
}

// attemptLocalAt runs the local phase of Algorithm 2 on the leaf holding
// the object, pinned for patching with the object at entry li: the
// in-leaf case and the δ-ordered extension/shift attempts. It releases
// the pin. The in-leaf move and a slow mover's extension are patched
// into the pinned page; the other outcomes need the decoded leaf — a
// shift restructures it — which is returned (borrowed: the caller hands
// it back), entry li still unmodified, unless the update was resolved
// (localDone). The batch pipeline enters here with the group's leaf,
// skipping the hash lookup.
func (s *gbuStrategy) attemptLocalAt(old, new geom.Point, newRect geom.Rect, ref *rtree.NodeRef, li int) (localOutcome, *rtree.Node, error) {
	t := s.tree

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

	var passengerBuf [8]rtree.OID
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

	if err := s.hash.Set(oid, sibPage); err != nil {
		return false, err
	}
	for _, p := range passengers {
		if err := s.hash.Set(p, sibPage); err != nil {
			return false, err
		}
	}
	s.out.shifted.Add(1)
	s.out.piggyback.Add(int64(len(passengers)))
	return true, nil
}

// LeafOf resolves the leaf currently holding the object (GroupApplier).
func (s *gbuStrategy) LeafOf(oid rtree.OID) (rtree.PageID, error) {
	return s.hash.Lookup(oid)
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
//
//burlint:hotpath
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

// UpdateAtLeaf applies one change whose object lives in leaf, skipping
// the secondary-index lookup (GroupApplier). Directly after a group
// pass the leaf is still buffered, so the read costs no disk access.
func (s *gbuStrategy) UpdateAtLeaf(leafPage rtree.PageID, c BatchChange, localOnly bool) (bool, error) {
	t := s.tree
	newRect := geom.RectFromPoint(c.New)
	if t.Height() <= 1 {
		if localOnly {
			return false, nil
		}
		return s.topDownEscalate(c.OID, geom.RectFromPoint(c.Old), newRect)
	}
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
		// The batch's own shifts (piggybacked passengers), splits and
		// top-down deletes can relocate objects — or free or recycle the
		// leaf page — between grouping and application; re-resolve
		// through the always-current hash index.
		return true, s.Update(c.OID, c.Old, c.New)
	}
	if rootMBR, ok := s.sum.RootMBR(); !ok || !rootMBR.ContainsPoint(c.New) {
		stored := ref.Rect(li)
		if err := ref.Release(); err != nil || localOnly {
			return false, err
		}
		return s.topDownEscalate(c.OID, stored, newRect)
	}
	res, leaf, err := s.attemptLocalAt(c.Old, c.New, newRect, &ref, li)
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
		return s.topDownEscalate(c.OID, leaf.Entries[li].Rect, newRect)
	}
	if err := s.ascend(c.OID, c.New, newRect, leaf, li); err != nil {
		return false, err
	}
	return true, s.adapter.Err()
}

// topDownEscalate hands one change to the tree's top-down update path,
// counting the escalation. A method rather than a closure inside
// UpdateAtLeaf: the closure allocated per fallback op on the batch hot
// path.
func (s *gbuStrategy) topDownEscalate(oid rtree.OID, oldRect, newRect geom.Rect) (bool, error) {
	if err := s.topDown(oid, oldRect, newRect); err != nil {
		return false, err
	}
	return true, s.adapter.Err()
}

// HashBucket names the secondary-index bucket of an object without I/O
// (batch lookup clustering).
func (s *gbuStrategy) HashBucket(oid rtree.OID) int { return s.hash.Bucket(oid) }
