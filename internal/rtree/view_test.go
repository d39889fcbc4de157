package rtree

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"burtree/internal/geom"
	"burtree/internal/pagestore"
)

// refDecodeNode is the decoder every page access used before nodes were
// read in place, kept as the reference the view is checked against: it
// builds the whole Node, and rejects what it rejects. It reads both entry
// shapes — a leaf's id and point, an internal node's id and rectangle —
// each in its own loop.
func refDecodeNode(n *Node, buf []byte, parentPointers bool) error {
	if buf[0] != nodeMagic {
		return fmt.Errorf("rtree: page is not a node (magic %#x)", buf[0])
	}
	flags := buf[1]
	if got := flags&flagParent != 0; got != parentPointers {
		return fmt.Errorf("rtree: node parent-pointer layout mismatch (page has %v, tree wants %v)", got, parentPointers)
	}
	n.Level = int(binary.LittleEndian.Uint16(buf[2:]))
	count := int(binary.LittleEndian.Uint16(buf[4:]))
	if isLeaf := flags&flagLeaf != 0; isLeaf != (n.Level == 0) {
		return fmt.Errorf("rtree: leaf flag inconsistent with level %d", n.Level)
	}
	n.Self = getRect(buf[8:])
	off := baseHeaderSize
	n.Parent = pagestore.InvalidPage
	if parentPointers {
		n.Parent = pagestore.PageID(binary.LittleEndian.Uint64(buf[off:]))
		off += parentFieldSize
	}
	width := 8 + 4*8 // child + rect
	if n.Level == 0 {
		width = 8 + 2*8 // oid + x,y
	}
	if off+count*width > len(buf) {
		return fmt.Errorf("rtree: node count %d exceeds page capacity", count)
	}
	n.Entries = make([]Entry, count)
	for i := 0; i < count; i++ {
		id := binary.LittleEndian.Uint64(buf[off:])
		if n.Level == 0 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+16:]))
			n.Entries[i] = Entry{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}, OID: id}
		} else {
			n.Entries[i] = Entry{Rect: getRect(buf[off+8:]), Child: pagestore.PageID(id)}
		}
		off += width
	}
	return nil
}

// sameRect compares bit for bit: a fuzzed page may hold NaNs.
func sameRect(a, b geom.Rect) bool {
	return math.Float64bits(a.MinX) == math.Float64bits(b.MinX) &&
		math.Float64bits(a.MinY) == math.Float64bits(b.MinY) &&
		math.Float64bits(a.MaxX) == math.Float64bits(b.MaxX) &&
		math.Float64bits(a.MaxY) == math.Float64bits(b.MaxY)
}

func sameNode(a, b *Node) error {
	if a.Level != b.Level || a.Parent != b.Parent || !sameRect(a.Self, b.Self) || len(a.Entries) != len(b.Entries) {
		return fmt.Errorf("headers differ: %+v vs %+v", a, b)
	}
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		if x.OID != y.OID || x.Child != y.Child || !sameRect(x.Rect, y.Rect) {
			return fmt.Errorf("entry %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

// checkViewAgainstReference is the fuzz property: the view and the
// reference decoder accept and reject the same bytes, and on the bytes
// they accept every accessor, and the decode built on them, agree with
// the reference Node.
func checkViewAgainstReference(buf []byte, parentPointers bool) error {
	want := &Node{}
	refErr := refDecodeNode(want, buf, parentPointers)
	v, err := viewNode(buf, parentPointers)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("view says %v, reference decoder says %v", err, refErr)
	}
	if err != nil {
		if err.Error() != refErr.Error() {
			return fmt.Errorf("view rejects with %q, reference decoder with %q", err, refErr)
		}
		if derr := decodeNode(&Node{}, buf, parentPointers); derr == nil {
			return fmt.Errorf("decodeNode accepts what the view rejects (%v)", err)
		}
		return nil
	}
	if v.level != want.Level || v.count != len(want.Entries) || !sameRect(v.self(), want.Self) || v.parent() != want.Parent {
		return fmt.Errorf("view header (level %d count %d self %v parent %d) vs %+v", v.level, v.count, v.self(), v.parent(), want)
	}
	for i, e := range want.Entries {
		id := e.OID
		if want.Level > 0 {
			id = uint64(e.Child)
		}
		if v.id(i) != id || !sameRect(v.rect(i), e.Rect) {
			return fmt.Errorf("view entry %d = (%d, %v), reference %+v", i, v.id(i), v.rect(i), e)
		}
		if got := v.find(id); got < 0 || got > i {
			return fmt.Errorf("find(%d) = %d, want the first of its entries (<= %d)", id, got, i)
		}
	}
	// Decoded into a node with stale contents, as a borrowed one has.
	got := &Node{Level: 9, Parent: 77, Entries: make([]Entry, 3, 64)}
	got.Entries[0] = Entry{OID: 5, Child: 6}
	v.decode(got)
	return sameNode(got, want)
}

func FuzzNodeView(f *testing.F) {
	const fuzzPage = 256
	rng := rand.New(rand.NewSource(5))
	for _, pp := range []bool{false, true} {
		for _, level := range []int{0, 2} {
			n := &Node{Page: 3, Level: level, Parent: 12, Self: geom.NewRect(0.1, 0.2, 0.6, 0.9)}
			for i := 0; i < 1+rng.Intn(MaxEntriesFor(fuzzPage, pp, level)); i++ {
				p := uniformPoint(rng)
				n.Entries = append(n.Entries, Entry{Rect: geom.RectFromPoint(p), OID: OID(i + 1), Child: pagestore.PageID(i + 20)})
			}
			buf := make([]byte, fuzzPage)
			if err := encodeNode(n, buf, pp); err != nil {
				f.Fatal(err)
			}
			f.Add(buf, pp)
			f.Add(buf, !pp) // layout mismatch
			bad := bytes.Clone(buf)
			bad[0] ^= 0xff // magic
			f.Add(bad, pp)
			bad = bytes.Clone(buf)
			bad[1] ^= flagLeaf // leaf flag against level
			f.Add(bad, pp)
			bad = bytes.Clone(buf)
			binary.LittleEndian.PutUint16(bad[4:], 200) // count beyond the page
			f.Add(bad, pp)
			bad = bytes.Clone(buf)
			bad[1] ^= flagLeaf // the other entry shape, consistently flagged
			binary.LittleEndian.PutUint16(bad[2:], uint16(1-min(level, 1)))
			f.Add(bad, pp)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, parentPointers bool) {
		buf := make([]byte, fuzzPage)
		copy(buf, data)
		if err := checkViewAgainstReference(buf, parentPointers); err != nil {
			t.Fatal(err)
		}
	})
}

// randomTree builds a tree of n points and then moves, deletes and
// re-inserts some of them, so that nodes are unevenly filled, leaf MBRs
// are loose and pages have been freed and reused. Every seventh point
// lies on a coarse lattice, so some entries coincide.
func randomTree(t testing.TB, rng *rand.Rand, pageSize, bufferPages, n int, cfg Config) (*Tree, oracle) {
	t.Helper()
	tr := newTestTree(t, pageSize, bufferPages, cfg)
	o := oracle{}
	for i := 0; i < n; i++ {
		r := geom.RectFromPoint(uniformPoint(rng))
		if i%7 == 0 {
			r = geom.RectFromPoint(geom.Point{X: float64(rng.Intn(20)) / 20, Y: float64(rng.Intn(20)) / 20})
		}
		if err := tr.Insert(OID(i+1), r); err != nil {
			t.Fatal(err)
		}
		o[OID(i+1)] = r
	}
	for i := 0; i < n/3; i++ {
		oid := OID(1 + rng.Intn(n))
		old, ok := o[oid]
		if !ok {
			continue
		}
		if rng.Intn(4) == 0 {
			if err := tr.Delete(oid, old); err != nil {
				t.Fatal(err)
			}
			delete(o, oid)
			continue
		}
		nr := geom.RectFromPoint(uniformPoint(rng))
		if err := tr.Update(oid, old, nr); err != nil {
			t.Fatal(err)
		}
		o[oid] = nr
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr, o
}

// refSearch is the decoded window query the in-place one replaced.
func refSearch(t *Tree, q geom.Rect, visit func(OID, geom.Rect) bool) error {
	if t.root == pagestore.InvalidPage {
		return nil
	}
	stack := []pagestore.PageID{t.root}
	for len(stack) > 0 {
		page := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := t.ReadNode(page)
		if err != nil {
			return err
		}
		for _, e := range n.Entries {
			if !q.Intersects(e.Rect) {
				continue
			}
			if !n.IsLeaf() {
				stack = append(stack, e.Child)
			} else if !visit(e.OID, e.Rect) {
				return nil
			}
		}
	}
	return nil
}

type refItem struct {
	dist   float64
	page   pagestore.PageID
	oid    OID
	rect   geom.Rect
	isNode bool
}

type refHeap []refItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// refNearestK is the decoded best-first traversal over container/heap
// that the in-place one replaced.
func refNearestK(t *Tree, p geom.Point, k int) ([]Neighbor, error) {
	if t.root == pagestore.InvalidPage || k <= 0 {
		return nil, nil
	}
	pq := &refHeap{}
	heap.Push(pq, refItem{page: t.root, isNode: true})
	var out []Neighbor
	for pq.Len() > 0 && len(out) < k {
		it := heap.Pop(pq).(refItem)
		if !it.isNode {
			out = append(out, Neighbor{OID: it.oid, Rect: it.rect, Dist: it.dist})
			continue
		}
		n, err := t.ReadNode(it.page)
		if err != nil {
			return nil, err
		}
		for _, e := range n.Entries {
			d := e.Rect.MinDistPoint(p)
			if n.IsLeaf() {
				heap.Push(pq, refItem{dist: d, oid: e.OID, rect: e.Rect})
			} else {
				heap.Push(pq, refItem{dist: d, page: e.Child, isNode: true})
			}
		}
	}
	return out, nil
}

type visited struct {
	oid  OID
	rect geom.Rect
}

// TestInPlaceReadsMatchDecodedTraversal: on random trees of both header
// layouts, Search, NearestK and ScanNode return what the decoded
// traversals they replaced return — the same results in the same order,
// for the same number of logical page reads.
func TestInPlaceReadsMatchDecodedTraversal(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pageSize int
		cfg      Config
	}{
		{"plain-512", 512, Config{ReinsertFraction: 0.3}},
		{"parent-512", 512, Config{ParentPointers: true}},
		{"plain-2048", 2048, Config{}}, // 50 entries: outgrows the stack scratch
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.pageSize)))
			tr, _ := randomTree(t, rng, tc.pageSize, 64, 1500, tc.cfg)
			io := tr.IO()
			accesses := func() int64 { s := io.Snapshot(); return s.Reads + s.BufferHits }

			for i := 0; i < 200; i++ {
				c := uniformPoint(rng)
				side := 0.3 * rng.Float64()
				q := geom.NewRect(c.X, c.Y, c.X+side, c.Y+side)
				limit := -1 // visit everything, or stop early
				if i%5 == 0 {
					limit = rng.Intn(6)
				}
				collect := func(search func(geom.Rect, func(OID, geom.Rect) bool) error) ([]visited, int64) {
					var out []visited
					before := accesses()
					if err := search(q, func(oid OID, r geom.Rect) bool {
						out = append(out, visited{oid, r})
						return len(out) != limit
					}); err != nil {
						t.Fatal(err)
					}
					return out, accesses() - before
				}
				got, gotIO := collect(tr.Search)
				want, wantIO := collect(func(q geom.Rect, v func(OID, geom.Rect) bool) error { return refSearch(tr, q, v) })
				if !reflect.DeepEqual(got, want) || gotIO != wantIO {
					t.Fatalf("Search(%v, limit %d): %d results in %d page reads, decoded traversal %d in %d", q, limit, len(got), gotIO, len(want), wantIO)
				}

				k := 1 + rng.Intn(40)
				before := accesses()
				nn, err := tr.NearestK(c, k)
				if err != nil {
					t.Fatal(err)
				}
				nnIO := accesses() - before
				before = accesses()
				wantNN, err := refNearestK(tr, c, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(nn, wantNN) || nnIO != accesses()-before {
					t.Fatalf("NearestK(%v, %d) differs from the decoded traversal", c, k)
				}
			}

			// ScanNode against a decoded filter, on every node.
			var walk func(page pagestore.PageID)
			walk = func(page pagestore.PageID) {
				n, err := tr.ReadNode(page)
				if err != nil {
					t.Fatal(err)
				}
				c := uniformPoint(rng)
				q := geom.NewRect(c.X-0.2, c.Y-0.2, c.X+0.2, c.Y+0.2)
				var want []Entry
				for _, e := range n.Entries {
					if q.Intersects(e.Rect) {
						want = append(want, e)
					}
				}
				keep := Entry{OID: 424242}
				level, got, err := tr.ScanNode(page, q, []Entry{keep})
				if err != nil {
					t.Fatal(err)
				}
				if level != n.Level || got[0] != keep || !reflect.DeepEqual(got[1:], append([]Entry{}, want...)) {
					t.Fatalf("ScanNode(%d) = level %d %v, decoded filter gives level %d %v", page, level, got, n.Level, want)
				}
				for _, e := range n.Entries {
					if !n.IsLeaf() {
						walk(e.Child)
					}
				}
			}
			walk(tr.Root())
			if n := tr.Pool().Pinned(); n != 0 {
				t.Fatalf("%d pins leaked", n)
			}
		})
	}
}

// eventLog records every listener call with its arguments.
type eventLog struct{ events []string }

func (l *eventLog) NodeWritten(page PageID, level int, self geom.Rect, children []PageID, count int) {
	l.events = append(l.events, fmt.Sprintf("written %d level %d self %v children %v count %d", page, level, self, children, count))
}
func (l *eventLog) NodeFreed(page PageID, level int) {
	l.events = append(l.events, fmt.Sprintf("freed %d level %d", page, level))
}
func (l *eventLog) RootChanged(root PageID, height int) {
	l.events = append(l.events, fmt.Sprintf("root %d height %d", root, height))
}
func (l *eventLog) DataPlaced(oid OID, leaf PageID) {
	l.events = append(l.events, fmt.Sprintf("placed %d in %d", oid, leaf))
}
func (l *eventLog) DataRemoved(oid OID) {
	l.events = append(l.events, fmt.Sprintf("removed %d", oid))
}

// twinTrees builds the same tree twice, each with its own event log.
func twinTrees(t *testing.T, cfg Config) (a, b *Tree, la, lb *eventLog) {
	t.Helper()
	build := func() (*Tree, *eventLog) {
		tr := newTestTree(t, 512, 32, cfg)
		l := &eventLog{}
		tr.SetListener(l)
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 700; i++ {
			if err := tr.Insert(OID(i+1), geom.RectFromPoint(uniformPoint(rng))); err != nil {
				t.Fatal(err)
			}
		}
		l.events = nil
		return tr, l
	}
	a, la = build()
	b, lb = build()
	return a, b, la, lb
}

// assertTwins fails unless the two trees' pages are byte-for-byte equal
// (page tails included), they did the same logical and physical I/O, and
// their listeners heard the same calls.
func assertTwins(t *testing.T, what string, a, b *Tree, la, lb *eventLog) {
	t.Helper()
	if !reflect.DeepEqual(la.events, lb.events) {
		t.Fatalf("%s: listener heard\n%v\nafter the patch,\n%v\nafter read-mutate-write", what, la.events, lb.events)
	}
	if sa, sb := a.IO().Snapshot(), b.IO().Snapshot(); sa != sb {
		t.Fatalf("%s: counters %v after the patch, %v after read-mutate-write", what, sa, sb)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	_, pa, _ := a.Pool().Store().Dump()
	_, pb, _ := b.Pool().Store().Dump()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %d pages vs %d", what, len(pa), len(pb))
	}
	for i := range pa {
		if !bytes.Equal(pa[i], pb[i]) {
			t.Fatalf("%s: page %d differs between patch and read-mutate-write", what, i+1)
		}
	}
	if n := a.Pool().Pinned(); n != 0 {
		t.Fatalf("%s: %d pins leaked", what, n)
	}
}

// TestPatchesMatchReadMutateWrite: each single-entry patch leaves the
// bytes, the counters and the listener calls that ReadNode, a mutation of
// the decoded node and WriteNode leave.
func TestPatchesMatchReadMutateWrite(t *testing.T) {
	for _, pp := range []bool{false, true} {
		t.Run(fmt.Sprintf("parentPointers=%v", pp), func(t *testing.T) {
			a, b, la, lb := twinTrees(t, Config{ParentPointers: pp})
			// A level-1 node and a leaf below it, found by the same reads
			// on both twins so their pools stay in the same state.
			locate := func(tr *Tree) (parentPage, leafPage pagestore.PageID) {
				n, err := tr.ReadNode(tr.Root())
				if err != nil {
					t.Fatal(err)
				}
				for n.Level > 1 {
					if n, err = tr.ReadNode(n.Entries[1].Child); err != nil {
						t.Fatal(err)
					}
				}
				return n.Page, n.Entries[len(n.Entries)/2].Child
			}
			parentPage, leafPage := locate(a)
			if p2, l2 := locate(b); p2 != parentPage || l2 != leafPage {
				t.Fatalf("twins differ: (%d, %d) vs (%d, %d)", parentPage, leafPage, p2, l2)
			}

			// In-leaf move and ε-extension: one entry, then Self and an entry.
			moved := geom.RectFromPoint(geom.Point{X: 0.123, Y: 0.456})
			grown := geom.NewRect(-0.5, -0.5, 1.5, 1.5)
			ref, err := a.PinNodeForPatch(leafPage)
			if err != nil {
				t.Fatal(err)
			}
			oid := ref.v.id(1)
			li := ref.FindOID(oid)
			ref.SetRect(li, moved)
			if err := ref.Release(); err != nil {
				t.Fatal(err)
			}
			leaf, err := b.ReadNode(leafPage)
			if err != nil {
				t.Fatal(err)
			}
			leaf.Entries[leaf.FindOID(oid)].Rect = moved
			if err := b.WriteNode(leaf); err != nil {
				t.Fatal(err)
			}
			assertTwins(t, "in-leaf move", a, b, la, lb)

			if ref, err = a.PinNodeForPatch(leafPage); err != nil {
				t.Fatal(err)
			}
			ref.SetSelf(grown)
			ref.SetRect(0, moved)
			if err := ref.Release(); err != nil {
				t.Fatal(err)
			}
			if leaf, err = b.ReadNode(leafPage); err != nil {
				t.Fatal(err)
			}
			leaf.Self = grown
			leaf.Entries[0].Rect = moved
			if err := b.WriteNode(leaf); err != nil {
				t.Fatal(err)
			}
			assertTwins(t, "extension", a, b, la, lb)

			// Parent mirror: always written, the parent's own MBR untouched.
			if err := a.SetChildRect(parentPage, leafPage, grown); err != nil {
				t.Fatal(err)
			}
			parent, err := b.ReadNode(parentPage)
			if err != nil {
				t.Fatal(err)
			}
			parent.Entries[parent.FindChild(leafPage)].Rect = grown
			if err := b.WriteNode(parent); err != nil {
				t.Fatal(err)
			}
			assertTwins(t, "parent mirror", a, b, la, lb)
			if err := a.SetChildRect(parentPage, 999999, grown); err == nil {
				t.Fatal("SetChildRect found a child that is not there")
			}
			if _, err := b.ReadNode(parentPage); err != nil { // the failed patch still read the page
				t.Fatal(err)
			}
			assertTwins(t, "failed parent mirror", a, b, la, lb)

			// adjustUp's MBR-only propagation: mirror and recompute Self;
			// a mirror that is already exact writes nothing.
			for _, self := range []geom.Rect{geom.NewRect(0.2, 0.2, 0.3, 0.3), geom.NewRect(0.2, 0.2, 0.3, 0.3)} {
				changed, above, err := a.tighten(parentPage, written{leafPage, 0, self})
				if err != nil {
					t.Fatal(err)
				}
				if parent, err = b.ReadNode(parentPage); err != nil {
					t.Fatal(err)
				}
				idx := parent.FindChild(leafPage)
				if wantChanged := parent.Entries[idx].Rect != self; changed != wantChanged {
					t.Fatalf("tighten reports changed=%v, want %v", changed, wantChanged)
				}
				if changed {
					parent.Entries[idx].Rect = self
					parent.Self = parent.EntriesMBR()
					if err := b.WriteNode(parent); err != nil {
						t.Fatal(err)
					}
					if above != (written{parentPage, parent.Level, parent.Self}) {
						t.Fatalf("tighten hands up %+v, want page %d level %d self %v", above, parentPage, parent.Level, parent.Self)
					}
				}
				assertTwins(t, "MBR propagation", a, b, la, lb)
			}

			if pp {
				for _, to := range []pagestore.PageID{4242, 4242} { // the second call changes nothing
					if err := a.setParent(parentPage, to); err != nil {
						t.Fatal(err)
					}
					if parent, err = b.ReadNode(parentPage); err != nil {
						t.Fatal(err)
					}
					if parent.Parent != to {
						parent.Parent = to
						if err := b.WriteNode(parent); err != nil {
							t.Fatal(err)
						}
					}
					assertTwins(t, "setParent", a, b, la, lb)
				}
			}
		})
	}
}

// TestFailedEncodeLeavesPageIntact: WriteNode encodes into the frame, so a
// node that does not fit, or a leaf entry that is not a point, must be
// rejected before the first byte is stored.
func TestFailedEncodeLeavesPageIntact(t *testing.T) {
	for _, bad := range []struct {
		name  string
		spoil func(tr *Tree, n *Node)
	}{
		{"oversized", func(tr *Tree, n *Node) {
			for len(n.Entries) <= tr.MaxEntries(0)+1 {
				n.Entries = append(n.Entries, Entry{OID: OID(len(n.Entries) + 10)})
			}
		}},
		{"not a point", func(tr *Tree, n *Node) {
			n.Entries = append(n.Entries, Entry{OID: 10, Rect: geom.NewRect(0.1, 0.1, 0.2, 0.2)})
		}},
	} {
		t.Run(bad.name, func(t *testing.T) {
			tr := newTestTree(t, 512, 8, Config{})
			l := &eventLog{}
			tr.SetListener(l)
			if err := tr.Insert(1, geom.RectFromPoint(geom.Point{X: 0.5, Y: 0.5})); err != nil {
				t.Fatal(err)
			}
			before := make([]byte, 512)
			if err := tr.Pool().ReadPage(tr.Root(), before); err != nil {
				t.Fatal(err)
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			l.events = nil
			writes := tr.IO().Writes()

			n, err := tr.ReadNode(tr.Root())
			if err != nil {
				t.Fatal(err)
			}
			bad.spoil(tr, n)
			if err := tr.WriteNode(n); err == nil {
				t.Fatal("a node the page cannot hold was written")
			}
			after := make([]byte, 512)
			if err := tr.Pool().ReadPage(tr.Root(), after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("a failed encode changed the page")
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			if tr.IO().Writes() != writes || len(l.events) != 0 || tr.Pool().Pinned() != 0 {
				t.Fatalf("a failed encode dirtied the frame (%d writes), told the listener %v, or leaked a pin", tr.IO().Writes()-writes, l.events)
			}
		})
	}
}

// TestSearchAllocatesNothing: a window query over a resident tree reads
// every page where it lies.
func TestSearchAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr, _ := randomTree(t, rng, 1024, 4096, 5000, Config{ReinsertFraction: 0.3})
	q := geom.NewRect(0.4, 0.4, 0.5, 0.5)
	hits := 0
	visit := func(OID, geom.Rect) bool { hits++; return true }
	if err := tr.Search(q, visit); err != nil { // warm: every page resident
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("the window is empty")
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := tr.Search(q, visit); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Search allocates %v times per call", n)
	}
}

// TestBorrowedNodesAreRecycled: the update paths hand their decoded nodes
// back, so a top-down update on a warm tree allocates only what a split
// or a reinsertion needs.
func TestBorrowedNodesAreRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tr, o := randomTree(t, rng, 1024, 4096, 3000, Config{})
	oids := make([]OID, 0, len(o))
	for oid := range o {
		oids = append(oids, oid)
	}
	sortedIDs(oids)
	i := 0
	n := testing.AllocsPerRun(300, func() {
		oid := oids[i%len(oids)]
		i++
		// A move too small to split or condense anything.
		old := o[oid]
		nr := geom.RectFromPoint(geom.Point{X: old.MinX + 1e-9, Y: old.MinY + 1e-9})
		if err := tr.Update(oid, old, nr); err != nil {
			t.Fatal(err)
		}
		o[oid] = nr
	})
	// Decoding every node afresh would cost two allocations per node read,
	// a dozen and more per update. (Not zero: under the race detector
	// sync.Pool drops a quarter of what it is handed.)
	if n > 6 {
		t.Fatalf("a top-down update allocates %v times; its nodes should come from the free list", n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedNodesUnderConcurrentPatches runs what the DGL layer allows at
// once: window and nearest-neighbour queries on every goroutine's pages,
// while writers patch entries in place, each in leaves of its own. Every
// rectangle in the tree is a point and every patch writes a point, so a
// reader that saw half a patch would see a rectangle that is not one.
func TestPinnedNodesUnderConcurrentPatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := newTestTree(t, 512, 24, Config{}) // smaller than the tree: pages come and go
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(OID(i+1), geom.RectFromPoint(uniformPoint(rng))); err != nil {
			t.Fatal(err)
		}
	}
	var leaves []pagestore.PageID
	var walk func(page pagestore.PageID)
	walk = func(page pagestore.PageID) {
		n, err := tr.ReadNode(page)
		if err != nil {
			t.Fatal(err)
		}
		if n.IsLeaf() {
			leaves = append(leaves, page)
			return
		}
		for _, e := range n.Entries {
			walk(e.Child)
		}
	}
	walk(tr.Root())

	const writers, readers = 3, 3
	rounds := 3000
	if testing.Short() {
		rounds = 600
	}
	var stop atomic.Bool
	var wg, rwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				leaf := leaves[writers*rng.Intn(len(leaves)/writers)+w] // leaves ≡ w mod writers
				ref, err := tr.PinNodeForPatch(leaf)
				if err != nil {
					t.Error(err)
					return
				}
				self := ref.Self()
				p := geom.Point{X: self.MinX + rng.Float64()*(self.MaxX-self.MinX), Y: self.MinY + rng.Float64()*(self.MaxY-self.MinY)}
				ref.SetRect(rng.Intn(ref.Count()), geom.RectFromPoint(p))
				if err := ref.Release(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			isPoint := func(rect geom.Rect) bool { return rect.MinX == rect.MaxX && rect.MinY == rect.MaxY }
			for !stop.Load() {
				c := uniformPoint(rng)
				err := tr.Search(geom.NewRect(c.X, c.Y, c.X+0.2, c.Y+0.2), func(oid OID, rect geom.Rect) bool {
					if !isPoint(rect) {
						t.Errorf("Search saw a torn entry: oid %d at %v", oid, rect)
					}
					return true
				})
				if err != nil {
					t.Error(err)
					return
				}
				nn, err := tr.NearestK(c, 5)
				if err != nil {
					t.Error(err)
					return
				}
				for _, n := range nn {
					if !isPoint(n.Rect) {
						t.Errorf("NearestK saw a torn entry: oid %d at %v", n.OID, n.Rect)
					}
				}
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	rwg.Wait()
	if n := tr.Pool().Pinned(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
