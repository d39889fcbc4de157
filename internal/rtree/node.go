// Package rtree implements a disk-resident R-tree over the simulated page
// store: Guttman's dynamic index structure with the quadratic split,
// optional R*-style forced reinsertion, top-down insert/delete/update,
// range search, and STR bulk loading.
//
// This package is the substrate for the paper's three update strategies:
// the traditional top-down update (TD) lives here, while the bottom-up
// strategies (LBU, GBU) in internal/core drive the tree through the
// lower-level node operations it exposes.
//
// Layout: each node occupies exactly one page, in a fixed-width format
// that is read where it lies: a 40-byte header — 48 with a parent
// pointer — then the entries. A leaf entry is 24 bytes, an object id and
// the object's point (every object is a point, so a leaf stores no
// rectangle); an internal entry is 40 bytes, a child page id and the
// child's MBR. A 1 KB page thus holds 41 leaf entries (40 with a parent
// pointer) or 24 internal ones. Data rectangles that are not points are
// refused with ErrNotPoint. The node header stores the node's level,
// entry count and its official MBR (the paper's "leaf MBR", which
// bottom-up updates may enlarge beyond the tight bound of the entries).
// Trees configured with parent pointers (the LBU variant) additionally
// store the parent page id in every node header, paying for it with
// reduced fanout and extra maintenance writes — exactly the overhead the
// paper attributes to Kwon-style localized updates.
//
// A page is reached in one of two ways, both one pin of its buffer frame
// (internal/buffer: pin, look, release — one pin per goroutine):
//
//   - In place. Searches, scans and the single-entry writes of the
//     update path — an entry's rectangle, the node's own MBR, the parent
//     pointer — go through a NodeRef: a validated view over the pinned
//     frame's bytes whose accessors read the fixed-width fields and whose
//     setters patch them (Tree.PinNode, Tree.PinNodeForPatch,
//     Tree.ScanNode, Tree.Search, Tree.NearestFunc). No Node is built.
//   - Decoded. Structural changes — appending or removing entries,
//     splits, reinsertion, condensing — work on a Node: ReadNode decodes
//     straight from the pinned frame, WriteNode encodes straight into
//     it. ReadNode's result belongs to the caller; nodes whose lifetime
//     is one call are borrowed from the tree's free list (BorrowNode,
//     NodeRef.Decode) and handed back with ReturnNode, so the Entries
//     slice is reused.
//
// A patch replaces a ReadNode … WriteNode pair only where no other page
// access lies between the two, so the buffer pool sees the same access
// sequence either way.
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"burtree/internal/geom"
	"burtree/internal/pagestore"
)

// OID identifies a data object stored in the tree.
type OID = uint64

// PageID aliases pagestore.PageID so that dependents of this package can
// speak about node pages without importing pagestore directly.
type PageID = pagestore.PageID

// Entry is one slot of a node: a bounding rectangle plus either a child
// page reference (internal nodes) or an object id (leaves). A leaf
// entry's rectangle is always a point (geom.RectFromPoint).
type Entry struct {
	Rect  geom.Rect
	Child pagestore.PageID // meaningful in internal nodes
	OID   OID              // meaningful in leaf nodes
}

// Node is the decoded in-memory form of one R-tree page.
type Node struct {
	Page    pagestore.PageID
	Level   int // 0 = leaf
	Self    geom.Rect
	Parent  pagestore.PageID // maintained only in parent-pointer trees
	Entries []Entry

	// kids is scratch for the child list WriteNode hands the listener,
	// kept with the node so that writing it again allocates nothing.
	kids []pagestore.PageID
}

// IsLeaf reports whether the node is at leaf level.
func (n *Node) IsLeaf() bool { return n.Level == 0 }

// EntriesMBR returns the tight bounding rectangle of the node's entries.
// It panics on an empty node; empty nodes never persist.
func (n *Node) EntriesMBR() geom.Rect {
	if len(n.Entries) == 0 {
		panic("rtree: EntriesMBR of empty node")
	}
	mbr := n.Entries[0].Rect
	for _, e := range n.Entries[1:] {
		mbr = mbr.Union(e.Rect)
	}
	return mbr
}

// FindOID returns the index of the entry with the given oid, or -1.
func (n *Node) FindOID(oid OID) int {
	for i := range n.Entries {
		if n.Entries[i].OID == oid {
			return i
		}
	}
	return -1
}

// FindChild returns the index of the entry referencing child, or -1.
func (n *Node) FindChild(child pagestore.PageID) int {
	for i := range n.Entries {
		if n.Entries[i].Child == child {
			return i
		}
	}
	return -1
}

// RemoveEntry deletes the entry at index i, preserving order of the rest.
func (n *Node) RemoveEntry(i int) {
	n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
}

// ChildPages returns the child page ids of an internal node.
func (n *Node) ChildPages() []pagestore.PageID {
	if n.IsLeaf() {
		return nil
	}
	out := make([]pagestore.PageID, len(n.Entries))
	for i := range n.Entries {
		out[i] = n.Entries[i].Child
	}
	return out
}

// Node serialization. All integers are little-endian. A leaf entry is an
// object id and the one point the object occupies; an internal entry is
// a child page id and the child's MBR. The header is the same for both.
const (
	nodeMagic = 0xA7

	flagLeaf   = 1 << 0
	flagParent = 1 << 1 // header carries a parent pointer

	baseHeaderSize    = 8 + 4*8 // magic,flags,level,count,pad + self MBR
	parentFieldSize   = 8
	leafEntrySize     = 8 + 2*8 // oid + x,y
	internalEntrySize = 8 + 4*8 // child + rect
	minFanoutForPage  = 4
)

// DefaultLeafFanout is the most entries a leaf holds at the default page
// size (in a tree without parent pointers, which has the larger fanout).
// Scratch that keeps one leaf's entries, or one leaf's share of a batch,
// on the stack is sized by it.
const DefaultLeafFanout = (pagestore.DefaultPageSize - baseHeaderSize) / leafEntrySize

// entrySize returns the width of one entry of a node at level.
func entrySize(level int) int {
	if level == 0 {
		return leafEntrySize
	}
	return internalEntrySize
}

// headerSize returns the encoded header length for the given tree mode.
func headerSize(parentPointers bool) int {
	if parentPointers {
		return baseHeaderSize + parentFieldSize
	}
	return baseHeaderSize
}

// MinPageSize returns the smallest page a tree of the given mode can use:
// one whose fanout reaches minFanoutForPage at every level under the
// mode's header. The wider internal entry sets it.
func MinPageSize(parentPointers bool) int {
	return headerSize(parentPointers) + minFanoutForPage*internalEntrySize
}

// MaxEntriesFor returns the fanout of a node at level (0 = leaf) for a
// page size and tree mode. It panics on a fanout below 4, which an
// internal level has below MinPageSize.
func MaxEntriesFor(pageSize int, parentPointers bool, level int) int {
	m := (pageSize - headerSize(parentPointers)) / entrySize(level)
	if m < minFanoutForPage {
		panic(fmt.Sprintf("rtree: page size %d too small (fanout %d < %d)", pageSize, m, minFanoutForPage))
	}
	return m
}

func putRect(b []byte, r geom.Rect) {
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(r.MinX))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.MinY))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.MaxX))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.MaxY))
}

func getRect(b []byte) geom.Rect {
	return geom.Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}
}

// putPoint stores the point of a degenerate rectangle.
func putPoint(b []byte, r geom.Rect) {
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(r.MinX))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.MinY))
}

// getPoint reads a stored point back as its degenerate rectangle.
func getPoint(b []byte) geom.Rect {
	x := math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
	y := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	return geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
}

// encodeNode serializes n into buf (one full page). parentPointers selects
// the header layout; it must match the tree configuration. A node that
// does not fit, or a leaf with an entry that is not a point, is refused
// before the first byte is stored.
func encodeNode(n *Node, buf []byte, parentPointers bool) error {
	leaf := n.Level == 0
	need := headerSize(parentPointers) + len(n.Entries)*entrySize(n.Level)
	if need > len(buf) {
		return fmt.Errorf("rtree: node %d with %d entries exceeds page size %d", n.Page, len(n.Entries), len(buf))
	}
	if n.Level > math.MaxUint16 || len(n.Entries) > math.MaxUint16 {
		return fmt.Errorf("rtree: node %d level/count out of range", n.Page)
	}
	if leaf {
		for i := range n.Entries {
			if e := &n.Entries[i]; !e.Rect.IsPoint() {
				return fmt.Errorf("%w: leaf %d entry %d (oid %d) is %v", ErrNotPoint, n.Page, i, e.OID, e.Rect)
			}
		}
	}
	var flags byte
	if leaf {
		flags |= flagLeaf
	}
	if parentPointers {
		flags |= flagParent
	}
	buf[0] = nodeMagic
	buf[1] = flags
	binary.LittleEndian.PutUint16(buf[2:], uint16(n.Level))
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(n.Entries)))
	buf[6], buf[7] = 0, 0
	putRect(buf[8:], n.Self)
	off := baseHeaderSize
	if parentPointers {
		binary.LittleEndian.PutUint64(buf[off:], uint64(n.Parent))
		off += parentFieldSize
	}
	for i := range n.Entries {
		e := &n.Entries[i]
		if leaf {
			binary.LittleEndian.PutUint64(buf[off:], e.OID)
			putPoint(buf[off+8:], e.Rect)
			off += leafEntrySize
			continue
		}
		binary.LittleEndian.PutUint64(buf[off:], uint64(e.Child))
		putRect(buf[off+8:], e.Rect)
		off += internalEntrySize
	}
	// Zero the tail so page contents are deterministic.
	clear(buf[off:])
	return nil
}

// InternalPage reports whether page holds a node above the leaf level,
// by its header's magic and leaf flag. It is the library's buffer pool's
// resident class (buffer.NewResident): the directory levels stay in
// memory and the capacity is spent on leaves.
func InternalPage(page []byte) bool {
	return len(page) > 1 && page[0] == nodeMagic && page[1]&flagLeaf == 0
}

// view is a node page read where it lies: the header fields, validated
// once, and the offset and width of the fixed-width entries.
type view struct {
	b     []byte
	level int
	count int
	off   int // offset of entry 0
	esize int // width of one entry: leafEntrySize or internalEntrySize
}

// viewNode validates the header of one page.
func viewNode(buf []byte, parentPointers bool) (view, error) {
	if buf[0] != nodeMagic {
		return view{}, fmt.Errorf("rtree: page is not a node (magic %#x)", buf[0])
	}
	flags := buf[1]
	if got := flags&flagParent != 0; got != parentPointers {
		return view{}, fmt.Errorf("rtree: node parent-pointer layout mismatch (page has %v, tree wants %v)", got, parentPointers)
	}
	v := view{
		b:     buf,
		level: int(binary.LittleEndian.Uint16(buf[2:])),
		count: int(binary.LittleEndian.Uint16(buf[4:])),
		off:   headerSize(parentPointers),
	}
	if isLeaf := flags&flagLeaf != 0; isLeaf != (v.level == 0) {
		return view{}, fmt.Errorf("rtree: leaf flag inconsistent with level %d", v.level)
	}
	v.esize = entrySize(v.level)
	if v.off+v.count*v.esize > len(buf) {
		return view{}, fmt.Errorf("rtree: node count %d exceeds page capacity", v.count)
	}
	return v, nil
}

func (v view) self() geom.Rect { return getRect(v.b[8:]) }

// parent returns the parent pointer, InvalidPage in a tree without them.
func (v view) parent() pagestore.PageID {
	if v.off == baseHeaderSize {
		return pagestore.InvalidPage
	}
	return pagestore.PageID(binary.LittleEndian.Uint64(v.b[baseHeaderSize:]))
}

// id returns the object id (leaf) or child page (internal node) of entry i.
func (v view) id(i int) uint64 { return binary.LittleEndian.Uint64(v.b[v.off+i*v.esize:]) }

// rect returns the rectangle of entry i: a leaf entry's point as its
// degenerate rectangle.
func (v view) rect(i int) geom.Rect {
	at := v.off + i*v.esize + 8
	if v.level == 0 {
		return getPoint(v.b[at:])
	}
	return getRect(v.b[at:])
}

// find returns the index of the entry whose id is id, or -1.
func (v view) find(id uint64) int {
	for i, off := 0, v.off; i < v.count; i, off = i+1, off+v.esize {
		if binary.LittleEndian.Uint64(v.b[off:]) == id {
			return i
		}
	}
	return -1
}

// decode fills n from the view; n.Page is the caller's to set.
func (v view) decode(n *Node) {
	n.Level = v.level
	n.Self = v.self()
	n.Parent = v.parent()
	n.Entries = slices.Grow(n.Entries[:0], v.count)[:v.count] // a borrowed node has the room
	// Stored field by field: building each Entry and copying it in costs
	// three times as much.
	b := v.b[v.off : v.off+v.count*v.esize]
	if v.level == 0 {
		for i := range n.Entries {
			e, eb := &n.Entries[i], b[:leafEntrySize]
			e.OID, e.Child = binary.LittleEndian.Uint64(eb), 0
			e.Rect.MinX = math.Float64frombits(binary.LittleEndian.Uint64(eb[8:]))
			e.Rect.MinY = math.Float64frombits(binary.LittleEndian.Uint64(eb[16:]))
			e.Rect.MaxX, e.Rect.MaxY = e.Rect.MinX, e.Rect.MinY
			b = b[leafEntrySize:]
		}
		return
	}
	for i := range n.Entries {
		e, eb := &n.Entries[i], b[:internalEntrySize]
		e.Child, e.OID = pagestore.PageID(binary.LittleEndian.Uint64(eb)), 0
		e.Rect.MinX = math.Float64frombits(binary.LittleEndian.Uint64(eb[8:]))
		e.Rect.MinY = math.Float64frombits(binary.LittleEndian.Uint64(eb[16:]))
		e.Rect.MaxX = math.Float64frombits(binary.LittleEndian.Uint64(eb[24:]))
		e.Rect.MaxY = math.Float64frombits(binary.LittleEndian.Uint64(eb[32:]))
		b = b[internalEntrySize:]
	}
}
