package rtree

import (
	"errors"
	"fmt"
	"sync"

	"burtree/internal/buffer"
	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/stats"
)

// SplitAlgorithm selects how overflowing nodes are divided.
type SplitAlgorithm int

const (
	// SplitQuadratic is Guttman's quadratic-cost split (the paper's
	// baseline implementation).
	SplitQuadratic SplitAlgorithm = iota
	// SplitLinear is Guttman's linear-cost split.
	SplitLinear
	// SplitRStar is the R*-tree topological split (margin-driven axis
	// choice, minimum-overlap distribution).
	SplitRStar
)

func (s SplitAlgorithm) String() string {
	switch s {
	case SplitQuadratic:
		return "quadratic"
	case SplitLinear:
		return "linear"
	case SplitRStar:
		return "rstar"
	default:
		return fmt.Sprintf("SplitAlgorithm(%d)", int(s))
	}
}

// Config carries the structural parameters of a tree.
type Config struct {
	// MinFillRatio is the minimum node occupancy as a fraction of the
	// fanout (Guttman's m/M). Zero means the default 0.4.
	MinFillRatio float64
	// Split selects the overflow split algorithm.
	Split SplitAlgorithm
	// ReinsertFraction is the share of entries force-reinserted on the
	// first overflow of a level per operation (R*-style). Zero disables
	// forced reinsertion; the paper's baseline R-tree uses reinsertion,
	// so the harness default is 0.3.
	ReinsertFraction float64
	// ParentPointers stores a parent page id in every node. Required by
	// the LBU strategy; costs header space and maintenance writes.
	ParentPointers bool
}

func (c Config) withDefaults() Config {
	if c.MinFillRatio == 0 {
		c.MinFillRatio = 0.4
	}
	if c.MinFillRatio < 0.05 || c.MinFillRatio > 0.5 {
		panic(fmt.Sprintf("rtree: MinFillRatio %v outside (0.05, 0.5]", c.MinFillRatio))
	}
	if c.ReinsertFraction < 0 || c.ReinsertFraction > 0.5 {
		panic(fmt.Sprintf("rtree: ReinsertFraction %v outside [0, 0.5]", c.ReinsertFraction))
	}
	return c
}

// Listener observes structural changes to the tree. The summary structure
// and the secondary object-id index register through it; a nil listener
// turns the tree into the plain top-down baseline with zero bookkeeping
// overhead.
type Listener interface {
	// NodeWritten fires after a node page is (re)written — encoded whole
	// or patched in place. children is nil for leaves; for internal nodes
	// it lists the child pages in entry order and must not be retained
	// (it is scratch the tree reuses).
	NodeWritten(page pagestore.PageID, level int, self geom.Rect, children []pagestore.PageID, count int)
	// NodeFreed fires when a node page is released.
	NodeFreed(page pagestore.PageID, level int)
	// RootChanged fires when the root page or tree height changes.
	RootChanged(root pagestore.PageID, height int)
	// DataPlaced fires when a data entry is written into a leaf, both on
	// first insertion and whenever it moves between leaves.
	DataPlaced(oid OID, leaf pagestore.PageID)
	// DataRemoved fires when a data entry permanently leaves the tree.
	DataRemoved(oid OID)
}

// Common sentinel errors.
var (
	ErrNotFound  = errors.New("rtree: object not found")
	ErrDuplicate = errors.New("rtree: object id already present")
	ErrEmptyTree = errors.New("rtree: tree is empty")
	// ErrNotPoint reports a data rectangle that is not a single point. A
	// leaf entry stores a point, so the tree refuses anything wider.
	ErrNotPoint = errors.New("rtree: data rectangle is not a point")
)

// Tree is a disk-resident R-tree. It is not safe for concurrent use by
// itself; the DGL lock manager in internal/dgl provides isolation for the
// multi-threaded throughput experiment: reads, and writes confined to
// disjoint pages, may then run concurrently, which is why per-call
// scratch is borrowed per call (sync.Pools, free lists) and never kept on
// the Tree as one buffer.
type Tree struct {
	pool     *buffer.Pool
	io       *stats.IO
	cfg      Config
	root     pagestore.PageID
	height   int // number of levels; 0 = empty tree
	size     int // number of data entries
	listener Listener

	// The fanout M and minimum fill m, for leaves and for internal nodes:
	// their entries differ in width, so a page holds more of the first.
	maxLeaf, maxInternal int
	minLeaf, minInternal int

	// nodes is the free list of decoded nodes whose lifetime is one call
	// (BorrowNode / ReturnNode), ops that of insertion ops (borrowOp /
	// returnOp).
	nodes sync.Pool
	ops   sync.Pool
}

// New creates an empty tree on the given pool.
func New(pool *buffer.Pool, cfg Config) *Tree {
	cfg = cfg.withDefaults()
	ps := pool.Store().PageSize()
	minFill := func(maxE int) int { return max(2, int(float64(maxE)*cfg.MinFillRatio)) }
	t := &Tree{
		pool:        pool,
		io:          pool.Store().IO(),
		cfg:         cfg,
		root:        pagestore.InvalidPage,
		maxLeaf:     MaxEntriesFor(ps, cfg.ParentPointers, 0),
		maxInternal: MaxEntriesFor(ps, cfg.ParentPointers, 1),
	}
	t.minLeaf, t.minInternal = minFill(t.maxLeaf), minFill(t.maxInternal)
	return t
}

// SetListener installs l; pass nil to detach. Must be called before any
// data is inserted so bookkeeping stays consistent.
func (t *Tree) SetListener(l Listener) {
	if t.size > 0 {
		panic("rtree: SetListener on non-empty tree")
	}
	t.listener = l
}

// Config returns the tree's configuration (with defaults applied).
func (t *Tree) Config() Config { return t.cfg }

// MaxEntries returns the fanout M of a node at level (0 = leaf).
func (t *Tree) MaxEntries(level int) int {
	if level == 0 {
		return t.maxLeaf
	}
	return t.maxInternal
}

// MinEntries returns the minimum fill m of a non-root node at level.
func (t *Tree) MinEntries(level int) int {
	if level == 0 {
		return t.minLeaf
	}
	return t.minInternal
}

// Height returns the number of levels (0 for an empty tree; leaves are
// level 0, the root of a tree with height h is at level h-1).
func (t *Tree) Height() int { return t.height }

// Size returns the number of data entries.
func (t *Tree) Size() int { return t.size }

// Root returns the root page id, or pagestore.InvalidPage when empty.
func (t *Tree) Root() pagestore.PageID { return t.root }

// Pool returns the buffer pool the tree performs I/O through.
func (t *Tree) Pool() *buffer.Pool { return t.pool }

// IO returns the counter set shared with the pool and store.
func (t *Tree) IO() *stats.IO { return t.io }

// RootMBR returns the MBR of the whole tree.
func (t *Tree) RootMBR() (geom.Rect, error) {
	if t.root == pagestore.InvalidPage {
		return geom.Rect{}, ErrEmptyTree
	}
	r, err := t.PinNode(t.root)
	if err != nil {
		return geom.Rect{}, err
	}
	self := r.Self()
	return self, r.Release()
}

// ReadNode fetches and decodes the node stored on the given page. Each
// call performs one logical page read (a disk read or a buffer hit). The
// node is the caller's to keep; see BorrowNode for the recycled kind.
func (t *Tree) ReadNode(page pagestore.PageID) (*Node, error) {
	n := &Node{}
	if err := t.readNodeInto(page, n); err != nil {
		return nil, err
	}
	return n, nil
}

// readNodeInto decodes the node on page into n, straight from the pinned
// frame.
func (t *Tree) readNodeInto(page pagestore.PageID, n *Node) error {
	r, err := t.PinNode(page)
	if err != nil {
		return err
	}
	r.v.decode(n)
	n.Page = page
	return r.Release()
}

// WriteNode encodes the node straight into its page's frame, firing the
// listener. A node that does not fit leaves the page as it was. Exposed
// for the bottom-up strategies in internal/core.
func (t *Tree) WriteNode(n *Node) error {
	h, err := t.pool.PinOverwrite(n.Page)
	if err != nil {
		return fmt.Errorf("rtree: writing node %d: %w", n.Page, err)
	}
	// encodeNode validates before its first store.
	if err := encodeNode(n, h.Bytes(), t.cfg.ParentPointers); err != nil {
		_ = h.Release() // nothing was stored, so there is nothing to write
		return err
	}
	h.MarkDirty()
	if err := h.Release(); err != nil {
		return fmt.Errorf("rtree: writing node %d: %w", n.Page, err)
	}
	if t.listener != nil {
		var children []pagestore.PageID
		if n.Level > 0 {
			n.kids = n.kids[:0]
			for i := range n.Entries {
				n.kids = append(n.kids, n.Entries[i].Child)
			}
			children = n.kids
		}
		t.listener.NodeWritten(n.Page, n.Level, n.Self, children, len(n.Entries))
	}
	return nil
}

// allocNode borrows an empty node at the given level on a new page.
func (t *Tree) allocNode(level int) *Node {
	n := t.borrow()
	n.Page = t.pool.Store().Alloc()
	n.Level = level
	n.Self = geom.Rect{}
	n.Parent = pagestore.InvalidPage
	return n
}

// freeNode releases the page of the node at the given level.
func (t *Tree) freeNode(page pagestore.PageID, level int) error {
	t.pool.Discard(page)
	if err := t.pool.Store().Free(page); err != nil {
		return err
	}
	if t.listener != nil {
		t.listener.NodeFreed(page, level)
	}
	return nil
}

func (t *Tree) setRoot(page pagestore.PageID, height int) {
	t.root = page
	t.height = height
	if t.listener != nil {
		t.listener.RootChanged(page, height)
	}
}

func (t *Tree) notifyPlaced(oid OID, leaf pagestore.PageID) {
	if t.listener != nil {
		t.listener.DataPlaced(oid, leaf)
	}
}

func (t *Tree) notifyRemoved(oid OID) {
	if t.listener != nil {
		t.listener.DataRemoved(oid)
	}
}

// Flush writes all buffered dirty pages to the store.
func (t *Tree) Flush() error { return t.pool.Flush() }

// AdjustSize corrects the cached entry count when a caller adds or
// removes data entries through the low-level node interface (ReadNode /
// WriteNode / InsertEntryAt) instead of Insert/Delete. The bottom-up
// strategies in internal/core use it.
func (t *Tree) AdjustSize(delta int) { t.size += delta }

// NotifyDataPlaced fires the DataPlaced listener hook on behalf of a
// caller that moved a data entry through the low-level node interface.
func (t *Tree) NotifyDataPlaced(oid OID, leaf pagestore.PageID) {
	t.notifyPlaced(oid, leaf)
}

// NotifyDataRemoved fires the DataRemoved listener hook on behalf of a
// caller that removed a data entry through the low-level node interface.
func (t *Tree) NotifyDataRemoved(oid OID) {
	t.notifyRemoved(oid)
}

// Restore attaches the tree to existing pages (e.g. after loading a
// persisted store): the root page, the height and the entry count are
// taken on trust and then spot-checked by reading the root node. The
// listener RootChanged hook fires so rebuilt auxiliary structures see
// the root. Full verification is available via CheckInvariants.
func (t *Tree) Restore(root pagestore.PageID, height, size int) error {
	if root == pagestore.InvalidPage {
		if height != 0 || size != 0 {
			return fmt.Errorf("rtree: restore of empty tree with height %d size %d", height, size)
		}
		t.setRoot(pagestore.InvalidPage, 0)
		t.size = 0
		return nil
	}
	r, err := t.PinNode(root)
	if err != nil {
		return fmt.Errorf("rtree: restore: %w", err)
	}
	level := r.Level()
	if err := r.Release(); err != nil {
		return err
	}
	if level != height-1 {
		return fmt.Errorf("rtree: restore: root level %d does not match height %d", level, height)
	}
	if size < 0 {
		return fmt.Errorf("rtree: restore: negative size %d", size)
	}
	t.setRoot(root, height)
	t.size = size
	return nil
}
