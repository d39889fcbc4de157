// Package summary implements the paper's compact main-memory summary
// structure (§3.2, Figure 3): a direct-access table over the R-tree's
// internal nodes — each entry holding the node's single bounding MBR, its
// level, and its child page pointers — plus a bit vector over the leaf
// nodes recording whether they are full.
//
// The table is indexed by page id, the paper's "node offset": one slot
// per store page holds the page's parent, the entry of an internal node
// and the entry count of a leaf (the full bit is count ≥ fanout). Page
// ids are dense — the store appends or recycles — so a lookup is an array
// load, and an id beyond the table reads as absent. Beside the table
// each level keeps its nodes' (MBR, page) pairs in one dense array, so
// the query assist scans contiguous rectangles; a node's entry holds its
// position there, new nodes are appended and a freed node's position is
// filled from the end, which makes the scan order a function of the
// operation history alone. The real footprint is 24 bytes per store page
// plus 40 per internal node; SizeBytes reports the paper's accounting.
//
// The structure is maintained through the rtree.Listener hooks, so its
// upkeep costs no disk I/O: "We only need to update the direct access
// table when there is an MBR modification or node split." The GBU
// strategy uses it to (a) test the root MBR without touching disk,
// (b) find a node's parent and the lowest ancestor bounding a new
// location (Algorithm 3, FindParent), (c) screen sibling leaves for
// fullness before reading any of them, and (d) answer the internal-level
// overlap tests of a window query entirely in memory.
//
// Page ids reach the hooks from the tree's own allocations. Rebuild is
// the one place they come from outside — child pointers read from a
// loaded snapshot — and it checks each against the store's page count
// before the table sees it, so the table is never sized by a page's
// contents.
package summary

import (
	"fmt"
	"slices"
	"sync"

	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
)

// NodeInfo is one direct-access-table entry: the summary of an internal
// node. Its MBR lives in the level array, at position at.
type NodeInfo struct {
	Page     pagestore.PageID
	Level    int
	Children []pagestore.PageID

	at int // index of the node's entry in levels[Level]
}

// slot is what the table records for one page id. The zero slot is a
// page the summary knows nothing about.
type slot struct {
	parent pagestore.PageID // InvalidPage: none recorded
	info   *NodeInfo        // non-nil: the page is an internal node
	count  int32            // entry count of a tracked leaf
	leaf   bool             // the page is a tracked leaf
}

// levelEntry is one internal node in its level's scan array.
type levelEntry struct {
	mbr  geom.Rect
	page pagestore.PageID
}

// growStep is how many slots the table grows beyond the page id that
// outgrew it. Ids arrive in allocation order, so the table tracks the
// store's size to within this constant instead of doubling past it.
const growStep = 256

// Structure is the main-memory summary. It is safe for concurrent use;
// the throughput experiment updates it from many goroutines.
type Structure struct {
	mu sync.RWMutex

	maxLeafEntries int

	root   pagestore.PageID
	height int

	table  []slot         // indexed by page id
	levels [][]levelEntry // indexed by level; levels[0] stays empty
	leaves int            // tracked leaves: the length of the paper's bit vector
}

var _ rtree.Listener = (*Structure)(nil)

// New creates an empty summary for a tree whose leaves hold at most
// maxLeafEntries entries.
func New(maxLeafEntries int) *Structure {
	return &Structure{maxLeafEntries: maxLeafEntries}
}

// at returns the slot of page id, nil when the id lies beyond the table.
func (s *Structure) at(id pagestore.PageID) *slot {
	if uint64(id) < uint64(len(s.table)) {
		return &s.table[id]
	}
	return nil
}

// cover grows the table to hold page id.
func (s *Structure) cover(id pagestore.PageID) {
	if uint64(id) < uint64(len(s.table)) {
		return
	}
	t := make([]slot, int(id)+1+growStep)
	copy(t, s.table)
	s.table = t
}

// NodeWritten maintains the table and bit vector (rtree.Listener).
//
//burlint:hotpath
func (s *Structure) NodeWritten(page pagestore.PageID, level int, self geom.Rect, children []pagestore.PageID, count int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cover(page)
	sl := &s.table[page]
	if level == 0 {
		if !sl.leaf {
			sl.leaf = true
			s.leaves++
		}
		sl.count = int32(count)
		return
	}
	info := sl.info
	if info == nil {
		info = &NodeInfo{Page: page, Level: level}
		sl.info = info
		s.enterLevel(info)
	} else if info.Level != level {
		// A recycled page id changed roles; evict from the old level.
		s.leaveLevel(info)
		info.Level = level
		s.enterLevel(info)
	}
	s.levels[level][info.at].mbr = self

	// An MBR-only write (an extension mirrored in the parent, an
	// adjustment on the way up) leaves the child list as recorded, and
	// with it every parent link this node owns: the tree writes a node
	// out whenever its child list changes, so a child that left and came
	// back has passed through a write without it.
	if slices.Equal(info.Children, children) {
		return
	}
	// Diff children to keep the parent links exact. The table is grown
	// once, ahead of the loops, which then only index it.
	top := page
	for _, c := range children {
		top = max(top, c)
	}
	s.cover(top)
	old := info.Children
	info.Children = append(info.Children[:0:0], children...)
	for _, c := range children {
		s.table[c].parent = page
	}
	for _, c := range old {
		if s.table[c].parent == page && !slices.Contains(children, c) {
			s.table[c].parent = pagestore.InvalidPage
		}
	}
}

// enterLevel appends info's node to the scan array of info.Level.
func (s *Structure) enterLevel(info *NodeInfo) {
	for len(s.levels) <= info.Level {
		s.levels = append(s.levels, nil)
	}
	info.at = len(s.levels[info.Level])
	s.levels[info.Level] = append(s.levels[info.Level], levelEntry{page: info.Page})
}

// leaveLevel removes info's node from its level's scan array, moving the
// array's last entry into its place.
func (s *Structure) leaveLevel(info *NodeInfo) {
	lvl := s.levels[info.Level]
	last := lvl[len(lvl)-1]
	lvl[info.at] = last
	s.table[last.page].info.at = info.at
	s.levels[info.Level] = lvl[:len(lvl)-1]
}

// NodeFreed drops a node from the table (rtree.Listener).
func (s *Structure) NodeFreed(page pagestore.PageID, level int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := s.at(page)
	if sl == nil {
		return
	}
	sl.parent = pagestore.InvalidPage
	if level == 0 {
		if sl.leaf {
			sl.leaf, sl.count = false, 0
			s.leaves--
		}
		return
	}
	if info := sl.info; info != nil {
		for _, c := range info.Children {
			if s.table[c].parent == page {
				s.table[c].parent = pagestore.InvalidPage
			}
		}
		s.leaveLevel(info)
		sl.info = nil
	}
}

// RootChanged records the new root (rtree.Listener).
func (s *Structure) RootChanged(root pagestore.PageID, height int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.root = root
	s.height = height
	if sl := s.at(root); sl != nil {
		sl.parent = pagestore.InvalidPage
	}
}

// DataPlaced is a no-op; the summary tracks nodes, not objects.
func (s *Structure) DataPlaced(oid rtree.OID, leaf pagestore.PageID) {}

// DataRemoved is a no-op.
func (s *Structure) DataRemoved(oid rtree.OID) {}

// Root returns the current root page and tree height.
func (s *Structure) Root() (pagestore.PageID, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.root, s.height
}

// mbrOf returns the table MBR of internal node page.
func (s *Structure) mbrOf(page pagestore.PageID) (geom.Rect, bool) {
	if sl := s.at(page); sl != nil && sl.info != nil {
		return s.levels[sl.info.Level][sl.info.at].mbr, true
	}
	return geom.Rect{}, false
}

// parentOf returns the recorded parent of node.
func (s *Structure) parentOf(node pagestore.PageID) (pagestore.PageID, bool) {
	if sl := s.at(node); sl != nil && sl.parent != pagestore.InvalidPage {
		return sl.parent, true
	}
	return pagestore.InvalidPage, false
}

// RootMBR returns the MBR of the root node without disk access. For a
// leaf root (height 1) the table has no entry and ok is false; GBU then
// falls back to reading the root, which is a single page anyway.
func (s *Structure) RootMBR() (geom.Rect, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mbrOf(s.root)
}

// ParentOf returns the parent page of node, resolved entirely in memory.
func (s *Structure) ParentOf(node pagestore.PageID) (pagestore.PageID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.parentOf(node)
}

// MBROf returns the table MBR of an internal node.
func (s *Structure) MBROf(page pagestore.PageID) (geom.Rect, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mbrOf(page)
}

// IsLeafFull consults the bit vector; a missing leaf reads as full so
// that a stale sibling candidate is never chosen.
func (s *Structure) IsLeafFull(page pagestore.PageID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sl := s.at(page)
	return sl == nil || !sl.leaf || int(sl.count) >= s.maxLeafEntries
}

// LeafCount returns the recorded entry count of a leaf.
func (s *Structure) LeafCount(page pagestore.PageID) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if sl := s.at(page); sl != nil && sl.leaf {
		return int(sl.count), true
	}
	return 0, false
}

// maxPath is the longest ancestor chain FindParent hands out, kept inside
// its result so that an ascent allocates nothing. No tree here is that
// tall (fanout ≥ 4); for one that is, FindParent answers with the root,
// which is always correct.
const maxPath = 16

// FindParentResult is the outcome of Algorithm 3.
type FindParentResult struct {
	// Ancestor is the chosen insertion root: the lowest ancestor of the
	// starting leaf whose MBR contains the new location, subject to the
	// level threshold; the tree root when no ancestor qualifies.
	Ancestor pagestore.PageID
	// Level is the ancestor's tree level.
	Level int

	path  [maxPath]pagestore.PageID
	above int
}

// PathAbove lists the ancestors of Ancestor from the root down to its
// parent, for split/MBR propagation during the insert. The slice aliases
// the result and holds as long as the result does.
func (r *FindParentResult) PathAbove() []pagestore.PageID { return r.path[:r.above] }

// FindParent implements Algorithm 3 with the paper's level threshold λ:
// starting from the leaf's parent, ascend while the ancestor's table MBR
// does not contain p, visiting at most maxLevel levels above the leaf
// (maxLevel ≥ height-1 means unrestricted). If no ancestor within the
// threshold contains p, the root is returned, matching the algorithm's
// "return(root offset)".
//
//burlint:hotpath
func (s *Structure) FindParent(leaf pagestore.PageID, p geom.Point, maxLevel int) (FindParentResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.root == pagestore.InvalidPage {
		return FindParentResult{}, fmt.Errorf("summary: FindParent on empty tree")
	}
	atRoot := FindParentResult{Ancestor: s.root, Level: s.height - 1}
	// Climb to the root: up[0] is the leaf's parent (level 1), up[n-1]
	// the root.
	var up [maxPath]pagestore.PageID
	n := 0
	for cur := leaf; cur != s.root; n++ {
		par, ok := s.parentOf(cur)
		if !ok {
			return FindParentResult{}, fmt.Errorf("summary: no parent recorded for page %d", cur)
		}
		if n == maxPath {
			return atRoot, nil
		}
		up[n], cur = par, par
	}
	for i := 0; i < n && i < maxLevel; i++ {
		mbr, ok := s.mbrOf(up[i])
		if !ok {
			return FindParentResult{}, fmt.Errorf("summary: internal node %d missing from table", up[i])
		}
		if mbr.ContainsPoint(p) {
			res := FindParentResult{Ancestor: up[i], Level: i + 1, above: n - 1 - i}
			for k := range res.path[:res.above] {
				res.path[k] = up[n-1-k]
			}
			return res, nil
		}
	}
	return atRoot, nil
}

// OverlappingAtLevel appends to dst the pages of internal nodes at the
// given level whose MBR intersects q, in the order of the level's array.
// The query assist uses level 1 to decide which parent-of-leaf nodes to
// read from disk, skipping all higher internal levels entirely.
//
//burlint:hotpath
func (s *Structure) OverlappingAtLevel(level int, q geom.Rect, dst []pagestore.PageID) []pagestore.PageID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if level < 0 || level >= len(s.levels) {
		return dst
	}
	lvl := s.levels[level]
	for i := range lvl {
		if lvl[i].mbr.Intersects(q) {
			dst = append(dst, lvl[i].page)
		}
	}
	return dst
}

// internalCount returns the number of internal nodes in the table.
func (s *Structure) internalCount() int {
	n := 0
	for _, lvl := range s.levels {
		n += len(lvl)
	}
	return n
}

// Counts returns the number of internal entries and tracked leaves.
func (s *Structure) Counts() (internal, leaves int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.internalCount(), s.leaves
}

// SizeBytes estimates the memory footprint of the table and bit vector
// using the paper's accounting: each internal entry stores one MBR
// (4 float64), a level tag, and its child pointers; each leaf costs one
// bit (rounded up here to a byte for the count-tracking variant).
func (s *Structure) SizeBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bytes := 0
	for _, lvl := range s.levels {
		for _, e := range lvl {
			bytes += 8 /*page*/ + 2 /*level*/ + 32 /*MBR*/ + 8*len(s.table[e.page].info.Children)
		}
	}
	bytes += (s.leaves + 7) / 8 // bit vector
	return bytes
}

// Validate cross-checks the summary against the live tree: every internal
// node must be present with the exact MBR and children, every leaf's
// entry count (and with it the fullness bit) must match, parent links
// must mirror the tree, and the level arrays must hold each internal node
// of the table exactly once. Tests run it after random operation
// sequences.
func (s *Structure) Validate(t *rtree.Tree) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t.Root() != s.root || t.Height() != s.height {
		return fmt.Errorf("summary: root/height (%d,%d) != tree (%d,%d)", s.root, s.height, t.Root(), t.Height())
	}
	if err := s.validateLevels(); err != nil {
		return err
	}
	if t.Root() == pagestore.InvalidPage {
		if in := s.internalCount(); in != 0 || s.leaves != 0 {
			return fmt.Errorf("summary: leftovers after tree emptied: %d internal, %d leaves", in, s.leaves)
		}
		return nil
	}
	seenInternal := 0
	seenLeaves := 0
	var walk func(page pagestore.PageID, parent pagestore.PageID) error
	walk = func(page pagestore.PageID, parent pagestore.PageID) error {
		n, err := t.ReadNode(page)
		if err != nil {
			return err
		}
		if parent != pagestore.InvalidPage {
			if got, ok := s.parentOf(page); !ok || got != parent {
				return fmt.Errorf("summary: parent of %d = %d (ok=%v), want %d", page, got, ok, parent)
			}
		}
		sl := s.at(page)
		if sl == nil {
			return fmt.Errorf("summary: page %d lies beyond the table", page)
		}
		if n.IsLeaf() {
			seenLeaves++
			if !sl.leaf || int(sl.count) != len(n.Entries) {
				return fmt.Errorf("summary: leaf %d count = %d (tracked=%v), want %d", page, sl.count, sl.leaf, len(n.Entries))
			}
			return nil
		}
		seenInternal++
		info := sl.info
		if info == nil {
			return fmt.Errorf("summary: internal node %d missing", page)
		}
		if info.Level != n.Level {
			return fmt.Errorf("summary: node %d level %d, tree has %d", page, info.Level, n.Level)
		}
		if mbr := s.levels[info.Level][info.at].mbr; mbr != n.Self {
			return fmt.Errorf("summary: node %d MBR %v, tree has %v", page, mbr, n.Self)
		}
		if len(info.Children) != len(n.Entries) {
			return fmt.Errorf("summary: node %d has %d children, tree has %d", page, len(info.Children), len(n.Entries))
		}
		for i, e := range n.Entries {
			if info.Children[i] != e.Child {
				return fmt.Errorf("summary: node %d child %d = %d, tree has %d", page, i, info.Children[i], e.Child)
			}
			if err := walk(e.Child, page); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.Root(), pagestore.InvalidPage); err != nil {
		return err
	}
	if in := s.internalCount(); seenInternal != in {
		return fmt.Errorf("summary: %d internal entries tracked, tree has %d", in, seenInternal)
	}
	if seenLeaves != s.leaves {
		return fmt.Errorf("summary: %d leaves tracked, tree has %d", s.leaves, seenLeaves)
	}
	return nil
}

// validateLevels checks the table against the level arrays: every
// internal node of the table sits at its recorded position of its level's
// array, the arrays hold nothing else, and the leaf counter matches the
// table's leaves.
func (s *Structure) validateLevels() error {
	internal, leaves := 0, 0
	for id := range s.table {
		sl := &s.table[id]
		if sl.leaf {
			leaves++
		}
		info := sl.info
		if info == nil {
			continue
		}
		internal++
		if info.Page != pagestore.PageID(id) {
			return fmt.Errorf("summary: slot %d holds the entry of node %d", id, info.Page)
		}
		if info.Level <= 0 || info.Level >= len(s.levels) || info.at >= len(s.levels[info.Level]) ||
			s.levels[info.Level][info.at].page != info.Page {
			return fmt.Errorf("summary: node %d is not at position %d of level %d", info.Page, info.at, info.Level)
		}
	}
	// Each node claims a distinct position, so equal totals leave no
	// array entry unclaimed.
	if in := s.internalCount(); in != internal {
		return fmt.Errorf("summary: level arrays hold %d nodes, the table %d", in, internal)
	}
	if len(s.levels) > 0 && len(s.levels[0]) != 0 {
		return fmt.Errorf("summary: %d nodes recorded at leaf level", len(s.levels[0]))
	}
	if leaves != s.leaves {
		return fmt.Errorf("summary: %d leaves counted, the table tracks %d", s.leaves, leaves)
	}
	return nil
}

// Rebuild reconstructs the summary from a live tree, as after loading a
// persisted index: the table, the level arrays and the leaf counts are
// repopulated by one tree walk (main-memory work only; the walk's page
// reads go through the normal buffer path). The table is sized by the
// store's page count, and a child pointer the store never allocated
// fails the rebuild with pagestore.ErrPageBounds, as the read of that
// child would.
func (s *Structure) Rebuild(t *rtree.Tree) error {
	limit := pagestore.PageID(t.Pool().Store().NumAllocated())
	s.mu.Lock()
	s.table = make([]slot, limit+1)
	s.levels = nil
	s.leaves = 0
	s.mu.Unlock()

	s.RootChanged(t.Root(), t.Height())
	if t.Root() == pagestore.InvalidPage {
		return nil
	}
	var walk func(page pagestore.PageID, level int) error
	walk = func(page pagestore.PageID, level int) error {
		n, err := t.ReadNode(page)
		if err != nil {
			return fmt.Errorf("summary: rebuild: %w", err)
		}
		if n.Level != level {
			// Also what ends the walk of a child pointer that leads back up.
			return fmt.Errorf("summary: rebuild: node %d has level %d, its place in the tree %d", page, n.Level, level)
		}
		children := n.ChildPages()
		for _, c := range children {
			if c > limit {
				return fmt.Errorf("summary: rebuild: child of node %d: %w: %d", page, pagestore.ErrPageBounds, c)
			}
		}
		s.NodeWritten(n.Page, n.Level, n.Self, children, len(n.Entries))
		for _, c := range children {
			if err := walk(c, level-1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.Root(), t.Height()-1)
}
