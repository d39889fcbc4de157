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
// (plus 8 per 256 for the chunk directory) and 80 per internal node;
// SizeBytes reports the paper's accounting.
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
// Locking. The point reads — Root, RootMBR, ParentOf, MBROf, IsLeafFull,
// LeafCount and FindParent, everything a bottom-up update asks — take no
// lock: every slot field is one atomic word, a node's MBR is four words
// under a per-node sequence counter, and a slot never moves once the
// table has published it (the table is a directory of fixed-size chunks;
// growing it copies the directory, never a slot, so a store made while
// it grows cannot be lost). A reader racing a writer sees, for each
// answer, the value from before or from after the write — a parent, a
// count or a whole MBR that some event put there, never a mixture — but
// two answers need not come from the same moment: a FindParent climbing
// a chain that is being restructured may find it cut and report an
// error. Callers that need the answers to agree hold the tree's own
// locks against the writers of the pages they ask about, as the DGL
// layer does. The hooks serialize among themselves on the structure's
// mutex, with one exception: a leaf write that only changes the count
// of a leaf already tracked — every in-leaf move — is a single atomic
// store and takes no lock either. The level arrays move when they grow
// and shrink, so OverlappingAtLevel, Counts, SizeBytes, Validate and
// Rebuild hold the mutex. Events for one page must arrive in order, which
// the tree's latch and page locks ensure.
//
// Page ids reach the hooks from the tree's own allocations. Rebuild is
// the one place they come from outside — child pointers read from a
// loaded snapshot — and it checks each against the store's page count
// before the table sees it, so the table is never sized by a page's
// contents.
package summary

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
)

// NodeInfo is one direct-access-table entry: the summary of an internal
// node. Level, Children and at belong to the hooks, under the mutex. The
// MBR is kept twice: in the level array, at position at, for the scans,
// and here for the point reads, which take no lock — the coordinates'
// bits in four atomic words, and around them a sequence counter that is
// odd while a write is between the first word and the last.
type NodeInfo struct {
	Page     pagestore.PageID
	Level    int
	Children []pagestore.PageID

	at int // index of the node's entry in levels[Level]

	seq atomic.Uint32
	mbr [4]atomic.Uint64
}

// storeMBR publishes r to the lock-free readers. Caller holds the mutex.
func (n *NodeInfo) storeMBR(r geom.Rect) {
	n.seq.Add(1)
	n.mbr[0].Store(math.Float64bits(r.MinX))
	n.mbr[1].Store(math.Float64bits(r.MinY))
	n.mbr[2].Store(math.Float64bits(r.MaxX))
	n.mbr[3].Store(math.Float64bits(r.MaxY))
	n.seq.Add(1)
}

// loadMBR returns an MBR some write stored whole: the four words are
// read again when the counter moved, or stood odd, while they were read.
// A write is four stores long, so the reader yields instead of spinning
// only for the case that the writer lost its processor in the middle.
func (n *NodeInfo) loadMBR() geom.Rect {
	for {
		if seq := n.seq.Load(); seq&1 == 0 {
			r := geom.Rect{
				MinX: math.Float64frombits(n.mbr[0].Load()),
				MinY: math.Float64frombits(n.mbr[1].Load()),
				MaxX: math.Float64frombits(n.mbr[2].Load()),
				MaxY: math.Float64frombits(n.mbr[3].Load()),
			}
			if n.seq.Load() == seq {
				return r
			}
		}
		runtime.Gosched()
	}
}

// slot is what the table records for one page id, each field one atomic
// word. The zero slot is a page the summary knows nothing about.
type slot struct {
	parent atomic.Uint64            // a pagestore.PageID; InvalidPage: none recorded
	info   atomic.Pointer[NodeInfo] // non-nil: the page is an internal node
	fill   atomic.Int32             // entry count of a tracked leaf, plus one; 0: not a tracked leaf
}

// levelEntry is one internal node in its level's scan array.
type levelEntry struct {
	mbr  geom.Rect
	page pagestore.PageID
}

// growStep is the number of slots in a chunk, the unit the table grows
// by. Ids arrive in allocation order, so the table tracks the store's
// size to within this constant instead of doubling past it.
const growStep = 256

// chunk is growStep consecutive slots. A chunk is allocated once and
// never copied, so a pointer into it stays good for the life of the
// table.
type chunk [growStep]slot

// rootState is the root page with the height that goes with it.
type rootState struct {
	page   pagestore.PageID
	height int
}

// Structure is the main-memory summary. It is safe for concurrent use;
// the throughput experiment updates it from many goroutines. The package
// comment says which calls take the mutex.
type Structure struct {
	mu sync.RWMutex

	maxLeafEntries int

	root  atomic.Pointer[rootState] // nil: no root recorded yet
	table atomic.Pointer[[]*chunk]  // the chunk directory, indexed by page id / growStep; replaced, never changed, when it grows

	levels [][]levelEntry // indexed by level; levels[0] stays empty
	leaves int            // tracked leaves: the length of the paper's bit vector

	old []pagestore.PageID // NodeWritten's copy of a replaced child list; under mu
}

var _ rtree.Listener = (*Structure)(nil)

// New creates an empty summary for a tree whose leaves hold at most
// maxLeafEntries entries.
func New(maxLeafEntries int) *Structure {
	return &Structure{maxLeafEntries: maxLeafEntries}
}

// at returns the slot of page id, nil when the id lies beyond the table.
func (s *Structure) at(id pagestore.PageID) *slot {
	if dir := s.table.Load(); dir != nil {
		if i := uint64(id) / growStep; i < uint64(len(*dir)) {
			return &(*dir)[i][uint64(id)%growStep]
		}
	}
	return nil
}

// cover returns the slot of page id, growing the table to hold it: the
// directory is copied and extended with fresh chunks, the chunks it
// already names stay where they are. Caller holds the mutex.
func (s *Structure) cover(id pagestore.PageID) *slot {
	if sl := s.at(id); sl != nil {
		return sl
	}
	var old []*chunk
	if dir := s.table.Load(); dir != nil {
		old = *dir
	}
	grown := make([]*chunk, uint64(id)/growStep+1)
	for i := copy(grown, old); i < len(grown); i++ {
		grown[i] = new(chunk)
	}
	s.table.Store(&grown)
	return &grown[uint64(id)/growStep][uint64(id)%growStep]
}

// NodeWritten maintains the table and bit vector (rtree.Listener).
//
//burlint:hotpath
func (s *Structure) NodeWritten(page pagestore.PageID, level int, self geom.Rect, children []pagestore.PageID, count int) {
	if level == 0 {
		// A write to a leaf the table already tracks — every in-leaf move —
		// changes one word.
		if sl := s.at(page); sl != nil && sl.fill.Load() != 0 {
			sl.fill.Store(int32(count) + 1)
			return
		}
		s.mu.Lock()
		sl := s.cover(page)
		if sl.fill.Load() == 0 {
			s.leaves++
		}
		sl.fill.Store(int32(count) + 1)
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := s.cover(page)
	info := sl.info.Load()
	created := info == nil
	entered := created // new to its level's array: its MBR there is yet to be written
	if created {
		info = &NodeInfo{Page: page, Level: level}
		s.enterLevel(info)
	} else if info.Level != level {
		// A recycled page id changed roles; evict from the old level.
		s.leaveLevel(info)
		info.Level = level
		s.enterLevel(info)
		entered = true
	}
	if e := &s.levels[level][info.at]; entered || e.mbr != self {
		e.mbr = self
		info.storeMBR(self)
	}
	if created {
		sl.info.Store(info) // published with its MBR in place
	}

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
	// The old list is set aside in the structure's scratch, and the new one
	// written over it in place: a child-list change allocates nothing.
	s.old = append(s.old[:0], info.Children...)
	info.Children = append(info.Children[:0], children...)
	for _, c := range children {
		s.at(c).parent.Store(uint64(page))
	}
	for _, c := range s.old {
		if csl := s.at(c); csl.parent.Load() == uint64(page) && !slices.Contains(children, c) {
			csl.parent.Store(uint64(pagestore.InvalidPage))
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
	s.at(last.page).info.Load().at = info.at
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
	sl.parent.Store(uint64(pagestore.InvalidPage))
	if level == 0 {
		if sl.fill.Load() != 0 {
			sl.fill.Store(0)
			s.leaves--
		}
		return
	}
	if info := sl.info.Load(); info != nil {
		for _, c := range info.Children {
			if csl := s.at(c); csl.parent.Load() == uint64(page) {
				csl.parent.Store(uint64(pagestore.InvalidPage))
			}
		}
		s.leaveLevel(info)
		sl.info.Store(nil)
	}
}

// RootChanged records the new root (rtree.Listener).
func (s *Structure) RootChanged(root pagestore.PageID, height int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.root.Store(&rootState{root, height})
	if sl := s.at(root); sl != nil {
		sl.parent.Store(uint64(pagestore.InvalidPage))
	}
}

// DataPlaced is a no-op; the summary tracks nodes, not objects.
func (s *Structure) DataPlaced(oid rtree.OID, leaf pagestore.PageID) {}

// DataRemoved is a no-op.
func (s *Structure) DataRemoved(oid rtree.OID) {}

// rootNow returns the recorded root and height: no page, height 0,
// before the first RootChanged.
func (s *Structure) rootNow() rootState {
	if r := s.root.Load(); r != nil {
		return *r
	}
	return rootState{}
}

// Root returns the current root page and tree height.
func (s *Structure) Root() (pagestore.PageID, int) {
	r := s.rootNow()
	return r.page, r.height
}

// RootMBR returns the MBR of the root node without disk access. For a
// leaf root (height 1) the table has no entry and ok is false; GBU then
// falls back to reading the root, which is a single page anyway.
//
//burlint:hotpath
func (s *Structure) RootMBR() (geom.Rect, bool) {
	return s.MBROf(s.rootNow().page)
}

// ParentOf returns the parent page of node, resolved entirely in memory.
//
//burlint:hotpath
func (s *Structure) ParentOf(node pagestore.PageID) (pagestore.PageID, bool) {
	if sl := s.at(node); sl != nil {
		if parent := pagestore.PageID(sl.parent.Load()); parent != pagestore.InvalidPage {
			return parent, true
		}
	}
	return pagestore.InvalidPage, false
}

// MBROf returns the table MBR of an internal node.
//
//burlint:hotpath
func (s *Structure) MBROf(page pagestore.PageID) (geom.Rect, bool) {
	if sl := s.at(page); sl != nil {
		if info := sl.info.Load(); info != nil {
			return info.loadMBR(), true
		}
	}
	return geom.Rect{}, false
}

// IsLeafFull consults the bit vector; a missing leaf reads as full so
// that a stale sibling candidate is never chosen.
//
//burlint:hotpath
func (s *Structure) IsLeafFull(page pagestore.PageID) bool {
	count, ok := s.LeafCount(page)
	return !ok || count >= s.maxLeafEntries
}

// LeafCount returns the recorded entry count of a leaf.
//
//burlint:hotpath
func (s *Structure) LeafCount(page pagestore.PageID) (int, bool) {
	if sl := s.at(page); sl != nil {
		if fill := sl.fill.Load(); fill != 0 {
			return int(fill) - 1, true
		}
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
	root := s.rootNow()
	if root.page == pagestore.InvalidPage {
		return FindParentResult{}, fmt.Errorf("summary: FindParent on empty tree")
	}
	atRoot := FindParentResult{Ancestor: root.page, Level: root.height - 1}
	// Climb to the root: up[0] is the leaf's parent (level 1), up[n-1]
	// the root.
	var up [maxPath]pagestore.PageID
	n := 0
	for cur := leaf; cur != root.page; n++ {
		par, ok := s.ParentOf(cur)
		if !ok {
			return FindParentResult{}, fmt.Errorf("summary: no parent recorded for page %d", cur)
		}
		if n == maxPath {
			return atRoot, nil
		}
		up[n], cur = par, par
	}
	for i := 0; i < n && i < maxLevel; i++ {
		mbr, ok := s.MBROf(up[i])
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
			bytes += 8 /*page*/ + 2 /*level*/ + 32 /*MBR*/ + 8*len(s.at(e.page).info.Load().Children)
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
	if root := s.rootNow(); t.Root() != root.page || t.Height() != root.height {
		return fmt.Errorf("summary: root/height (%d,%d) != tree (%d,%d)", root.page, root.height, t.Root(), t.Height())
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
			if got, ok := s.ParentOf(page); !ok || got != parent {
				return fmt.Errorf("summary: parent of %d = %d (ok=%v), want %d", page, got, ok, parent)
			}
		}
		sl := s.at(page)
		if sl == nil {
			return fmt.Errorf("summary: page %d lies beyond the table", page)
		}
		if n.IsLeaf() {
			seenLeaves++
			if count, tracked := s.LeafCount(page); !tracked || count != len(n.Entries) {
				return fmt.Errorf("summary: leaf %d count = %d (tracked=%v), want %d", page, count, tracked, len(n.Entries))
			}
			return nil
		}
		seenInternal++
		info := sl.info.Load()
		if info == nil {
			return fmt.Errorf("summary: internal node %d missing", page)
		}
		if info.Level != n.Level {
			return fmt.Errorf("summary: node %d level %d, tree has %d", page, info.Level, n.Level)
		}
		if mbr := s.levels[info.Level][info.at].mbr; mbr != n.Self || info.loadMBR() != n.Self {
			return fmt.Errorf("summary: node %d MBR %v in its level's array and %v in its entry, tree has %v", page, mbr, info.loadMBR(), n.Self)
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
	for id := pagestore.PageID(0); ; id++ {
		sl := s.at(id)
		if sl == nil {
			break
		}
		if sl.fill.Load() != 0 {
			leaves++
		}
		info := sl.info.Load()
		if info == nil {
			continue
		}
		internal++
		if info.Page != id {
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
	s.table.Store(nil)
	s.cover(limit)
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
