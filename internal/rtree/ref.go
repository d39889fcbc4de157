package rtree

import (
	"encoding/binary"
	"fmt"

	"burtree/internal/buffer"
	"burtree/internal/geom"
	"burtree/internal/pagestore"
)

// NodeRef is a node page pinned in the buffer pool and read — or patched
// — where it lies. It holds the goroutine's one pin: look, patch at most
// a few fixed-width fields, and Release before touching another page.
// The accessors are valid until Release.
type NodeRef struct {
	t       *Tree
	h       buffer.Handle
	page    pagestore.PageID
	v       view
	patched bool
}

// PinNode pins the node on page for reading. Each call performs one
// logical page read (a disk read or a buffer hit), like ReadNode, and
// validates the header the way decoding does.
//
//burlint:hotpath
func (t *Tree) PinNode(page pagestore.PageID) (NodeRef, error) {
	h, err := t.pool.Pin(page)
	return t.ref(page, h, err)
}

// PinNodeForPatch pins the node on page exclusively: one logical page
// read, after which the setters may patch single fields. It stands for a
// ReadNode whose WriteNode follows with no other page access in between;
// Release fires the listener as that WriteNode would have.
//
//burlint:hotpath
func (t *Tree) PinNodeForPatch(page pagestore.PageID) (NodeRef, error) {
	h, err := t.pool.PinExclusive(page)
	return t.ref(page, h, err)
}

func (t *Tree) ref(page pagestore.PageID, h buffer.Handle, err error) (NodeRef, error) {
	switch {
	case err == pagestore.ErrPageFreed:
		return NodeRef{}, err // bare, like the store's (ErrPageFreed)
	case err != nil:
		return NodeRef{}, fmt.Errorf("rtree: reading node %d: %w", page, err)
	}
	v, err := viewNode(h.Bytes(), t.cfg.ParentPointers)
	if err != nil {
		_ = h.Release() // nothing was stored
		return NodeRef{}, fmt.Errorf("rtree: decoding node %d: %w", page, err)
	}
	return NodeRef{t: t, h: h, page: page, v: v}, nil
}

// Page returns the pinned page's id.
func (r *NodeRef) Page() pagestore.PageID { return r.page }

// Level returns the node's level (0 = leaf).
func (r *NodeRef) Level() int { return r.v.level }

// IsLeaf reports whether the node is at leaf level.
func (r *NodeRef) IsLeaf() bool { return r.v.level == 0 }

// Count returns the number of entries.
func (r *NodeRef) Count() int { return r.v.count }

// Self returns the node's official MBR.
func (r *NodeRef) Self() geom.Rect { return r.v.self() }

// Parent returns the parent pointer (InvalidPage in trees without them).
func (r *NodeRef) Parent() pagestore.PageID { return r.v.parent() }

// Child returns the child page of internal entry i.
func (r *NodeRef) Child(i int) pagestore.PageID { return pagestore.PageID(r.v.id(i)) }

// Rect returns the rectangle of entry i.
func (r *NodeRef) Rect(i int) geom.Rect { return r.v.rect(i) }

// FindOID returns the index of the leaf entry with the given oid, or -1.
func (r *NodeRef) FindOID(oid OID) int { return r.v.find(oid) }

// FindChild returns the index of the entry referencing child, or -1.
func (r *NodeRef) FindChild(child pagestore.PageID) int { return r.v.find(uint64(child)) }

// entriesMBR returns the tight bounding rectangle of the entries. It
// panics on an empty node; empty nodes never persist.
func (r *NodeRef) entriesMBR() geom.Rect {
	if r.v.count == 0 {
		panic("rtree: EntriesMBR of empty node")
	}
	mbr := r.v.rect(0)
	for i := 1; i < r.v.count; i++ {
		mbr = mbr.Union(r.v.rect(i))
	}
	return mbr
}

// SetRect patches the rectangle of entry i; in a leaf it must be a point,
// and anything wider panics, as an index out of range would. Like the
// other setters it needs a PinNodeForPatch, and it makes Release write
// the page even when the bytes did not change, as the WriteNode it
// replaces did.
func (r *NodeRef) SetRect(i int, rect geom.Rect) {
	at := r.v.off + i*r.v.esize + 8
	if r.v.level > 0 {
		putRect(r.v.b[at:], rect)
	} else if rect.IsPoint() {
		putPoint(r.v.b[at:], rect)
	} else {
		panic(fmt.Sprintf("rtree: SetRect of leaf %d entry %d to %v: %v", r.page, i, rect, ErrNotPoint))
	}
	r.markPatched()
}

// SetSelf patches the node's official MBR.
func (r *NodeRef) SetSelf(rect geom.Rect) {
	putRect(r.v.b[8:], rect)
	r.markPatched()
}

// setParent patches the parent pointer of a parent-pointer tree's node.
func (r *NodeRef) setParent(parent pagestore.PageID) {
	binary.LittleEndian.PutUint64(r.v.b[baseHeaderSize:], uint64(parent))
	r.markPatched()
}

func (r *NodeRef) markPatched() {
	r.h.MarkDirty()
	r.patched = true
}

// Decode builds the node from the pinned bytes for a structural change.
// The node is borrowed: hand it back with ReturnNode. Decoding does not
// release the pin.
func (r *NodeRef) Decode() *Node {
	n := r.t.borrow()
	r.v.decode(n)
	n.Page = r.page
	return n
}

// Release unpins the page. After a patch it fires the listener's
// NodeWritten with the arguments WriteNode would have passed, once the
// pin is gone (a listener may touch pages of its own).
func (r *NodeRef) Release() error {
	t := r.t
	notify := r.patched && t.listener != nil
	var (
		level, count int
		self         geom.Rect
		scratch      *Node
		children     []pagestore.PageID
	)
	if notify {
		level, self, count = r.v.level, r.v.self(), r.v.count
		if level > 0 {
			scratch = t.borrow()
			scratch.kids = scratch.kids[:0]
			for i := 0; i < count; i++ {
				scratch.kids = append(scratch.kids, pagestore.PageID(r.v.id(i)))
			}
			children = scratch.kids
		}
	}
	if err := r.h.Release(); err != nil {
		return fmt.Errorf("rtree: writing node %d: %w", r.page, err)
	}
	if notify {
		t.listener.NodeWritten(r.page, level, self, children, count)
		t.ReturnNode(scratch)
	}
	return nil
}

// SetChildRect patches, in the node on page parent, the rectangle of the
// entry referencing child — the parent's mirror of a child MBR that
// changed. It is the in-place form of ReadNode, Entries[i].Rect = rect,
// WriteNode: one logical read, the page always written, the parent's own
// MBR left as it is.
//
//burlint:hotpath
func (t *Tree) SetChildRect(parent, child pagestore.PageID, rect geom.Rect) error {
	r, err := t.PinNodeForPatch(parent)
	if err != nil {
		return err
	}
	i := r.FindChild(child)
	if i < 0 {
		_ = r.Release() // nothing was patched
		return fmt.Errorf("rtree: node %d missing child entry for %d", parent, child)
	}
	r.SetRect(i, rect)
	return r.Release()
}

// borrow takes a node off the free list. Its fields are stale: the caller
// sets or decodes all of them.
func (t *Tree) borrow() *Node {
	if n, ok := t.nodes.Get().(*Node); ok {
		n.Entries = n.Entries[:0]
		return n
	}
	// Room for the one entry an insertion adds before the node splits, at
	// the leaf fanout: the narrower leaf entry makes it the larger one.
	return &Node{Entries: make([]Entry, 0, t.maxLeaf+1)}
}

// BorrowNode is ReadNode with a node from the tree's free list, for a
// caller that is done with the node before it returns: hand it back with
// ReturnNode and do not touch it afterwards.
func (t *Tree) BorrowNode(page pagestore.PageID) (*Node, error) {
	n := t.borrow()
	if err := t.readNodeInto(page, n); err != nil {
		t.ReturnNode(n)
		return nil, err
	}
	return n, nil
}

// ReturnNode puts a borrowed node (BorrowNode, NodeRef.Decode) back on
// the free list. A nil node is ignored; a node that is never returned is
// merely collected.
func (t *Tree) ReturnNode(n *Node) {
	if n != nil {
		t.nodes.Put(n)
	}
}

func (t *Tree) returnNodes(ns []*Node) {
	for _, n := range ns {
		t.nodes.Put(n)
	}
}
