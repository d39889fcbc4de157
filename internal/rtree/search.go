package rtree

import (
	"encoding/binary"

	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/scratch"
)

// ScanNode appends to out the entries of the node on page whose
// rectangle intersects q — data entries of a leaf, child entries of an
// internal node — reading them where they lie, and reports the node's
// level. It performs one logical page read and holds no pin when it
// returns, so the caller may visit out at leisure.
func (t *Tree) ScanNode(page pagestore.PageID, q geom.Rect, out []Entry) (level int, _ []Entry, err error) {
	r, err := t.PinNode(page)
	if err != nil {
		return 0, out, err
	}
	v := r.v
	b := v.b[v.off : v.off+v.count*v.esize]
	if v.level == 0 {
		for ; len(b) >= leafEntrySize; b = b[leafEntrySize:] {
			if rect := getPoint(b[8:leafEntrySize]); q.Intersects(rect) {
				out = append(out, Entry{Rect: rect, OID: binary.LittleEndian.Uint64(b)})
			}
		}
		return 0, out, r.Release()
	}
	for ; len(b) >= internalEntrySize; b = b[internalEntrySize:] {
		if rect := getRect(b[8:internalEntrySize]); q.Intersects(rect) {
			out = append(out, Entry{Rect: rect, Child: pagestore.PageID(binary.LittleEndian.Uint64(b))})
		}
	}
	return v.level, out, r.Release()
}

// Search visits every data entry whose rectangle intersects q. The visit
// callback returns false to stop early; it runs with no page pinned.
// Traversal order is unspecified.
func (t *Tree) Search(q geom.Rect, visit func(oid OID, r geom.Rect) bool) error {
	if t.root == pagestore.InvalidPage {
		return nil
	}
	// Both scratch slices start on the stack: a window query over a
	// resident tree allocates nothing unless it outgrows them. The hits
	// of one node fit in a leaf's worth at the default page size.
	var stackBuf [128]pagestore.PageID
	var hitBuf [DefaultLeafFanout]Entry
	stack := append(stackBuf[:0], t.root)
	for len(stack) > 0 {
		page := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		level, hits, err := t.ScanNode(page, q, hitBuf[:0])
		if err != nil {
			return err
		}
		if level == 0 {
			for i := range hits {
				if !visit(hits[i].OID, hits[i].Rect) {
					return nil
				}
			}
			continue
		}
		for i := range hits {
			stack = append(stack, hits[i].Child)
		}
	}
	return nil
}

// SearchCollect returns the ids of all objects intersecting q.
func (t *Tree) SearchCollect(q geom.Rect) ([]OID, error) {
	var out []OID
	err := t.Search(q, func(oid OID, _ geom.Rect) bool {
		out = append(out, oid)
		return true
	})
	return out, err
}

// Contains reports whether an entry with the given oid exists at the
// given rectangle.
func (t *Tree) Contains(oid OID, at geom.Rect) (bool, error) {
	if t.root == pagestore.InvalidPage {
		return false, nil
	}
	root, err := t.BorrowNode(t.root)
	if err != nil {
		return false, err
	}
	var pathBuf [8]*Node
	path, found, err := t.findLeaf(root, oid, at, pathBuf[:0])
	if err != nil {
		return false, err
	}
	if found {
		t.returnNodes(path)
	} else {
		t.ReturnNode(root)
	}
	return found, nil
}

// Neighbor is one result of a nearest-neighbour query.
type Neighbor struct {
	OID  OID
	Rect geom.Rect
	Dist float64
}

// NearestK returns the k data entries nearest to p in increasing distance
// order: the first k of NearestFunc's stream. It is an extension beyond
// the paper's evaluation, provided for library completeness.
func (t *Tree) NearestK(p geom.Point, k int) ([]Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	var out []Neighbor
	err := t.NearestFunc(p, func(n Neighbor) bool {
		out = append(out, n)
		return len(out) < k
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NearestFunc streams the data entries to visit in non-decreasing
// distance from p, using the standard best-first MinDist traversal over
// the pinned pages, until visit returns false or the tree is exhausted.
// The traversal is incremental: it opens only the nodes that lie nearer
// than the last entry visited, so a caller that stops after n entries
// pays for n, whatever it discarded on the way. visit runs with no page
// pinned.
func (t *Tree) NearestFunc(p geom.Point, visit func(Neighbor) bool) error {
	if t.root == pagestore.InvalidPage {
		return nil
	}
	pq := heaps.Get()
	defer putHeap(pq)

	pq.push(nnItem{dist: 0, id: uint64(t.root), isNode: true})
	for len(*pq) > 0 {
		it := pq.pop()
		if !it.isNode {
			if !visit(Neighbor{OID: it.id, Rect: it.rect, Dist: it.dist}) {
				return nil
			}
			continue
		}
		r, err := t.PinNode(pagestore.PageID(it.id))
		if err != nil {
			return err
		}
		v := r.v
		for i := 0; i < v.count; i++ {
			rect := v.rect(i)
			it := nnItem{dist: rect.MinDistPoint(p), id: v.id(i), isNode: v.level > 0}
			if !it.isNode {
				it.rect = rect
			}
			pq.push(it)
		}
		if err := r.Release(); err != nil {
			return err
		}
	}
	return nil
}

// heaps recycles NearestFunc's queues, for every tree: on a list that
// keeps them, so a read allocates the same on every call, and one list,
// so a reader visiting tree after tree (the shards of an index) reuses
// one queue.
var heaps scratch.List[nnHeap]

// maxIdleHeap is the most queue room, in items, a heap keeps between
// reads: a k-nearest read at the default page size uses a few hundred.
const maxIdleHeap = 1 << 10

func putHeap(pq *nnHeap) {
	*pq = scratch.KeepRoom(*pq, maxIdleHeap)
	heaps.Put(pq)
}

// nnItem is a queue element of the best-first traversal: a node still to
// be opened (id is its page) or a data entry (id is its object id).
type nnItem struct {
	dist   float64
	id     uint64
	rect   geom.Rect
	isNode bool
}

// nnHeap is a binary min-heap on dist. It performs exactly the element
// moves of container/heap (whose interface would box every item pushed),
// so entries at equal distance leave it in the order they always have.
type nnHeap []nnItem

func (h *nnHeap) push(it nnItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *nnHeap) pop() nnItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s[j2].dist < s[j1].dist {
			j = j2 // right child
		}
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}
