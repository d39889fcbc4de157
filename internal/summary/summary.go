// Package summary implements the paper's compact main-memory summary
// structure (§3.2, Figure 3): a direct-access table over the R-tree's
// internal nodes — each entry holding the node's single bounding MBR, its
// level, and its child page pointers — plus a bit vector over the leaf
// nodes recording whether they are full.
//
// The structure is maintained through the rtree.Listener hooks, so its
// upkeep costs no disk I/O: "We only need to update the direct access
// table when there is an MBR modification or node split." The GBU
// strategy uses it to (a) test the root MBR without touching disk,
// (b) find a node's parent and the lowest ancestor bounding a new
// location (Algorithm 3, FindParent), (c) screen sibling leaves for
// fullness before reading any of them, and (d) answer the internal-level
// overlap tests of a window query entirely in memory.
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
// node.
type NodeInfo struct {
	Page     pagestore.PageID
	Level    int
	MBR      geom.Rect
	Children []pagestore.PageID
}

// Structure is the main-memory summary. It is safe for concurrent use;
// the throughput experiment updates it from many goroutines.
type Structure struct {
	mu sync.RWMutex

	maxLeafEntries int

	root   pagestore.PageID
	height int

	internal map[pagestore.PageID]*NodeInfo
	byLevel  map[int]map[pagestore.PageID]*NodeInfo
	parent   map[pagestore.PageID]pagestore.PageID // child -> parent (internal + leaf children)

	leafFull  map[pagestore.PageID]bool // the paper's bit vector
	leafCount map[pagestore.PageID]int
}

var _ rtree.Listener = (*Structure)(nil)

// New creates an empty summary for a tree whose leaves hold at most
// maxLeafEntries entries.
func New(maxLeafEntries int) *Structure {
	return &Structure{
		maxLeafEntries: maxLeafEntries,
		internal:       make(map[pagestore.PageID]*NodeInfo),
		byLevel:        make(map[int]map[pagestore.PageID]*NodeInfo),
		parent:         make(map[pagestore.PageID]pagestore.PageID),
		leafFull:       make(map[pagestore.PageID]bool),
		leafCount:      make(map[pagestore.PageID]int),
	}
}

// NodeWritten maintains the table and bit vector (rtree.Listener).
func (s *Structure) NodeWritten(page pagestore.PageID, level int, self geom.Rect, children []pagestore.PageID, count int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if level == 0 {
		s.leafFull[page] = count >= s.maxLeafEntries
		s.leafCount[page] = count
		return
	}
	info := s.internal[page]
	if info == nil {
		info = &NodeInfo{Page: page, Level: level}
		s.internal[page] = info
	} else if info.Level != level {
		// A recycled page id changed roles; evict from the old level.
		delete(s.byLevel[info.Level], page)
		info.Level = level
	}
	lvl := s.byLevel[level]
	if lvl == nil {
		lvl = make(map[pagestore.PageID]*NodeInfo)
		s.byLevel[level] = lvl
	}
	lvl[page] = info
	info.MBR = self

	// An MBR-only write (an extension mirrored in the parent, an
	// adjustment on the way up) leaves the child list as recorded, and
	// with it every parent-map entry this node owns: the tree writes a
	// node out whenever its child list changes, so a child that left and
	// came back has passed through a write without it.
	if slices.Equal(info.Children, children) {
		return
	}
	// Diff children to keep the reverse parent map exact.
	old := info.Children
	info.Children = append(info.Children[:0:0], children...)
	for _, c := range children {
		s.parent[c] = page
	}
	for _, c := range old {
		if s.parent[c] == page && !contains(children, c) {
			delete(s.parent, c)
		}
	}
}

func contains(pages []pagestore.PageID, p pagestore.PageID) bool {
	for _, q := range pages {
		if q == p {
			return true
		}
	}
	return false
}

// NodeFreed drops a node from the table (rtree.Listener).
func (s *Structure) NodeFreed(page pagestore.PageID, level int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if level == 0 {
		delete(s.leafFull, page)
		delete(s.leafCount, page)
		delete(s.parent, page)
		return
	}
	if info := s.internal[page]; info != nil {
		for _, c := range info.Children {
			if s.parent[c] == page {
				delete(s.parent, c)
			}
		}
		delete(s.byLevel[info.Level], page)
		delete(s.internal, page)
	}
	delete(s.parent, page)
}

// RootChanged records the new root (rtree.Listener).
func (s *Structure) RootChanged(root pagestore.PageID, height int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.root = root
	s.height = height
	delete(s.parent, root)
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

// RootMBR returns the MBR of the root node without disk access. For a
// leaf root (height 1) the table has no entry and ok is false; GBU then
// falls back to reading the root, which is a single page anyway.
func (s *Structure) RootMBR() (geom.Rect, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if info, ok := s.internal[s.root]; ok {
		return info.MBR, true
	}
	return geom.Rect{}, false
}

// ParentOf returns the parent page of node, resolved entirely in memory.
func (s *Structure) ParentOf(node pagestore.PageID) (pagestore.PageID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.parent[node]
	return p, ok
}

// MBROf returns the table MBR of an internal node.
func (s *Structure) MBROf(page pagestore.PageID) (geom.Rect, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	info, ok := s.internal[page]
	if !ok {
		return geom.Rect{}, false
	}
	return info.MBR, true
}

// IsLeafFull consults the bit vector; a missing leaf reads as full so
// that a stale sibling candidate is never chosen.
func (s *Structure) IsLeafFull(page pagestore.PageID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	full, ok := s.leafFull[page]
	return full || !ok
}

// LeafCount returns the recorded entry count of a leaf.
func (s *Structure) LeafCount(page pagestore.PageID) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.leafCount[page]
	return c, ok
}

// FindParentResult is the outcome of Algorithm 3.
type FindParentResult struct {
	// Ancestor is the chosen insertion root: the lowest ancestor of the
	// starting leaf whose MBR contains the new location, subject to the
	// level threshold; the tree root when no ancestor qualifies.
	Ancestor pagestore.PageID
	// Level is the ancestor's tree level.
	Level int
	// PathAbove lists the ancestors of Ancestor from the root down to its
	// parent, for split/MBR propagation during the insert.
	PathAbove []pagestore.PageID
}

// FindParent implements Algorithm 3 with the paper's level threshold λ:
// starting from the leaf's parent, ascend while the ancestor's table MBR
// does not contain p, visiting at most maxLevel levels above the leaf
// (maxLevel ≥ height-1 means unrestricted). If no ancestor within the
// threshold contains p, the root is returned, matching the algorithm's
// "return(root offset)".
func (s *Structure) FindParent(leaf pagestore.PageID, p geom.Point, maxLevel int) (FindParentResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.root == pagestore.InvalidPage {
		return FindParentResult{}, fmt.Errorf("summary: FindParent on empty tree")
	}
	// Climb to the root collecting the chain leaf-parent..root.
	var chain []pagestore.PageID
	cur := leaf
	for cur != s.root {
		par, ok := s.parent[cur]
		if !ok {
			return FindParentResult{}, fmt.Errorf("summary: no parent recorded for page %d", cur)
		}
		chain = append(chain, par)
		cur = par
	}
	// chain[0] is the leaf's parent (level 1), chain[len-1] the root.
	for i, page := range chain {
		level := i + 1
		if level > maxLevel {
			break
		}
		info := s.internal[page]
		if info == nil {
			return FindParentResult{}, fmt.Errorf("summary: internal node %d missing from table", page)
		}
		if info.MBR.ContainsPoint(p) {
			return FindParentResult{
				Ancestor:  page,
				Level:     level,
				PathAbove: reversedTail(chain, i+1),
			}, nil
		}
	}
	return FindParentResult{
		Ancestor:  s.root,
		Level:     s.height - 1,
		PathAbove: nil,
	}, nil
}

// reversedTail returns chain[from:] reversed into root-first order.
func reversedTail(chain []pagestore.PageID, from int) []pagestore.PageID {
	n := len(chain) - from
	if n <= 0 {
		return nil
	}
	out := make([]pagestore.PageID, n)
	for i := 0; i < n; i++ {
		out[i] = chain[len(chain)-1-i]
	}
	return out
}

// ChainAbove returns the ancestors of node from the root down to node's
// parent. GBU passes this to InsertEntryAt so split propagation above the
// insertion root needs no search.
func (s *Structure) ChainAbove(node pagestore.PageID) ([]pagestore.PageID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var chain []pagestore.PageID
	cur := node
	for cur != s.root {
		par, ok := s.parent[cur]
		if !ok {
			return nil, fmt.Errorf("summary: no parent recorded for page %d", cur)
		}
		chain = append(chain, par)
		cur = par
	}
	// Reverse to root-first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, nil
}

// OverlappingAtLevel appends to dst the pages of internal nodes at the
// given level whose MBR intersects q. The query assist uses level 1 to
// decide which parent-of-leaf nodes to read from disk, skipping all
// higher internal levels entirely.
func (s *Structure) OverlappingAtLevel(level int, q geom.Rect, dst []pagestore.PageID) []pagestore.PageID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for page, info := range s.byLevel[level] {
		if info.MBR.Intersects(q) {
			dst = append(dst, page)
		}
	}
	return dst
}

// Counts returns the number of internal entries and tracked leaves.
func (s *Structure) Counts() (internal, leaves int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.internal), len(s.leafFull)
}

// SizeBytes estimates the memory footprint of the table and bit vector
// using the paper's accounting: each internal entry stores one MBR
// (4 float64), a level tag, and its child pointers; each leaf costs one
// bit (rounded up here to a byte for the count-tracking variant).
func (s *Structure) SizeBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bytes := 0
	for _, info := range s.internal {
		bytes += 8 /*page*/ + 2 /*level*/ + 32 /*MBR*/ + 8*len(info.Children)
	}
	bytes += (len(s.leafFull) + 7) / 8 // bit vector
	return bytes
}

// Validate cross-checks the summary against the live tree: every internal
// node must be present with the exact MBR and children, every leaf's
// fullness bit must match its entry count, and parent links must mirror
// the tree. Tests run it after random operation sequences.
func (s *Structure) Validate(t *rtree.Tree) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t.Root() != s.root || t.Height() != s.height {
		return fmt.Errorf("summary: root/height (%d,%d) != tree (%d,%d)", s.root, s.height, t.Root(), t.Height())
	}
	if t.Root() == pagestore.InvalidPage {
		if len(s.internal) != 0 || len(s.leafFull) != 0 {
			return fmt.Errorf("summary: leftovers after tree emptied: %d internal, %d leaves", len(s.internal), len(s.leafFull))
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
			if got, ok := s.parent[page]; !ok || got != parent {
				return fmt.Errorf("summary: parent of %d = %d (ok=%v), want %d", page, got, ok, parent)
			}
		}
		if n.IsLeaf() {
			seenLeaves++
			wantFull := len(n.Entries) >= s.maxLeafEntries
			if got, ok := s.leafFull[page]; !ok || got != wantFull {
				return fmt.Errorf("summary: leaf %d full-bit = %v (ok=%v), want %v", page, got, ok, wantFull)
			}
			if got := s.leafCount[page]; got != len(n.Entries) {
				return fmt.Errorf("summary: leaf %d count = %d, want %d", page, got, len(n.Entries))
			}
			return nil
		}
		seenInternal++
		info := s.internal[page]
		if info == nil {
			return fmt.Errorf("summary: internal node %d missing", page)
		}
		if info.MBR != n.Self {
			return fmt.Errorf("summary: node %d MBR %v, tree has %v", page, info.MBR, n.Self)
		}
		if info.Level != n.Level {
			return fmt.Errorf("summary: node %d level %d, tree has %d", page, info.Level, n.Level)
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
	if seenInternal != len(s.internal) {
		return fmt.Errorf("summary: %d internal entries tracked, tree has %d", len(s.internal), seenInternal)
	}
	if seenLeaves != len(s.leafFull) {
		return fmt.Errorf("summary: %d leaves tracked, tree has %d", len(s.leafFull), seenLeaves)
	}
	return nil
}

// Rebuild reconstructs the summary from a live tree, as after loading a
// persisted index: the direct-access table, parent map and leaf bit
// vector are repopulated by one tree walk (main-memory work only; the
// walk's page reads go through the normal buffer path).
func (s *Structure) Rebuild(t *rtree.Tree) error {
	s.mu.Lock()
	s.internal = make(map[pagestore.PageID]*NodeInfo)
	s.byLevel = make(map[int]map[pagestore.PageID]*NodeInfo)
	s.parent = make(map[pagestore.PageID]pagestore.PageID)
	s.leafFull = make(map[pagestore.PageID]bool)
	s.leafCount = make(map[pagestore.PageID]int)
	s.mu.Unlock()

	s.RootChanged(t.Root(), t.Height())
	if t.Root() == pagestore.InvalidPage {
		return nil
	}
	var walk func(page pagestore.PageID) error
	walk = func(page pagestore.PageID) error {
		n, err := t.ReadNode(page)
		if err != nil {
			return fmt.Errorf("summary: rebuild: %w", err)
		}
		s.NodeWritten(n.Page, n.Level, n.Self, n.ChildPages(), len(n.Entries))
		if n.IsLeaf() {
			return nil
		}
		for _, e := range n.Entries {
			if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.Root())
}
