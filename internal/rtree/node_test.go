package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"burtree/internal/geom"
	"burtree/internal/pagestore"
)

func TestMaxEntriesFor(t *testing.T) {
	// 1024-byte pages: a leaf holds (1024-40)/24 = 41 plain, (1024-48)/24
	// = 40 with parent pointers; an internal node (1024-40)/40 = 24 and
	// (1024-48)/40 = 24.
	for _, c := range []struct {
		pageSize   int
		parent     bool
		level, max int
	}{
		{1024, false, 0, 41}, {1024, true, 0, 40},
		{1024, false, 1, 24}, {1024, true, 3, 24},
		{4096, false, 0, 169}, {4096, false, 1, 101}, // (4096-40)/24, (4096-40)/40
	} {
		if got := MaxEntriesFor(c.pageSize, c.parent, c.level); got != c.max {
			t.Errorf("fanout(%d, parent %v, level %d) = %d, want %d", c.pageSize, c.parent, c.level, got, c.max)
		}
	}
	if DefaultLeafFanout != MaxEntriesFor(pagestore.DefaultPageSize, false, 0) {
		t.Errorf("DefaultLeafFanout = %d, want the default page's leaf fanout %d", DefaultLeafFanout, MaxEntriesFor(pagestore.DefaultPageSize, false, 0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("tiny page fanout did not panic")
		}
	}()
	MaxEntriesFor(128, false, 0)
}

func TestNodeEncodeDecodeLeaf(t *testing.T) {
	n := &Node{
		Page:  7,
		Level: 0,
		Self:  geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.3, MaxY: 0.4},
		Entries: []Entry{
			{Rect: geom.RectFromPoint(geom.Point{X: 0.1, Y: 0.25}), OID: 42},
			{Rect: geom.RectFromPoint(geom.Point{X: 0.3, Y: 0.2}), OID: 99},
		},
	}
	buf := make([]byte, 1024)
	if err := encodeNode(n, buf, false); err != nil {
		t.Fatal(err)
	}
	got := &Node{Page: 7}
	if err := decodeNode(got, buf, false); err != nil {
		t.Fatal(err)
	}
	if got.Level != 0 || got.Self != n.Self || len(got.Entries) != 2 {
		t.Fatalf("decoded node = %+v", got)
	}
	for i := range n.Entries {
		if got.Entries[i].OID != n.Entries[i].OID || got.Entries[i].Rect != n.Entries[i].Rect {
			t.Fatalf("entry %d = %+v, want %+v", i, got.Entries[i], n.Entries[i])
		}
	}
}

func TestNodeEncodeDecodeInternalWithParent(t *testing.T) {
	n := &Node{
		Page:   3,
		Level:  2,
		Self:   geom.Rect{MinX: -1, MinY: -2, MaxX: 3, MaxY: 4},
		Parent: pagestore.PageID(17),
		Entries: []Entry{
			{Rect: geom.Rect{MinX: -1, MinY: -2, MaxX: 0, MaxY: 0}, Child: 11},
			{Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 4}, Child: 12},
			{Rect: geom.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, Child: 13},
		},
	}
	buf := make([]byte, 1024)
	if err := encodeNode(n, buf, true); err != nil {
		t.Fatal(err)
	}
	got := &Node{Page: 3}
	if err := decodeNode(got, buf, true); err != nil {
		t.Fatal(err)
	}
	if got.Parent != 17 || got.Level != 2 || len(got.Entries) != 3 {
		t.Fatalf("decoded = %+v", got)
	}
	for i := range n.Entries {
		if got.Entries[i].Child != n.Entries[i].Child {
			t.Fatalf("child %d = %d, want %d", i, got.Entries[i].Child, n.Entries[i].Child)
		}
	}
}

func TestNodeDecodeLayoutMismatch(t *testing.T) {
	n := &Node{Page: 1, Level: 0, Entries: []Entry{{OID: 1}}}
	buf := make([]byte, 1024)
	if err := encodeNode(n, buf, false); err != nil {
		t.Fatal(err)
	}
	if err := decodeNode(&Node{}, buf, true); err == nil {
		t.Fatal("layout mismatch not detected")
	}
	buf[0] = 0 // corrupt magic
	if err := decodeNode(&Node{}, buf, false); err == nil {
		t.Fatal("bad magic not detected")
	}
}

func TestNodeEncodeOverflowRejected(t *testing.T) {
	n := &Node{Page: 1, Level: 0}
	for i := 0; i < 100; i++ {
		n.Entries = append(n.Entries, Entry{OID: OID(i)})
	}
	buf := make([]byte, 1024)
	if err := encodeNode(n, buf, false); err == nil {
		t.Fatal("oversized node encoded without error")
	}
}

func TestQuickNodeRoundTrip(t *testing.T) {
	f := func(seed int64, parentPtr bool) bool {
		rng := rand.New(rand.NewSource(seed))
		level := rng.Intn(4)
		count := 1 + rng.Intn(20)
		n := &Node{
			Page:   pagestore.PageID(1 + rng.Intn(1000)),
			Level:  level,
			Self:   geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()),
			Parent: pagestore.PageID(rng.Intn(100)),
		}
		if !parentPtr {
			n.Parent = pagestore.InvalidPage
		}
		for i := 0; i < count; i++ {
			e := Entry{Rect: geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())}
			if level == 0 {
				e.Rect = geom.RectFromPoint(e.Rect.Center()) // a leaf stores points
			}
			if level > 0 {
				e.Child = pagestore.PageID(1 + rng.Intn(1<<30))
			} else {
				e.OID = rng.Uint64()
			}
			n.Entries = append(n.Entries, e)
		}
		buf := make([]byte, 1024)
		if err := encodeNode(n, buf, parentPtr); err != nil {
			return false
		}
		got := &Node{Page: n.Page}
		if err := decodeNode(got, buf, parentPtr); err != nil {
			return false
		}
		if got.Level != n.Level || got.Self != n.Self || len(got.Entries) != len(n.Entries) {
			return false
		}
		if parentPtr && got.Parent != n.Parent {
			return false
		}
		for i := range n.Entries {
			if got.Entries[i] != n.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeHelpers(t *testing.T) {
	n := &Node{Level: 0, Entries: []Entry{
		{Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, OID: 1},
		{Rect: geom.Rect{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3}, OID: 2},
	}}
	if n.FindOID(2) != 1 || n.FindOID(5) != -1 {
		t.Fatal("FindOID wrong")
	}
	if got := n.EntriesMBR(); got != (geom.Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3}) {
		t.Fatalf("EntriesMBR = %v", got)
	}
	n.RemoveEntry(0)
	if len(n.Entries) != 1 || n.Entries[0].OID != 2 {
		t.Fatalf("RemoveEntry left %+v", n.Entries)
	}
	in := &Node{Level: 1, Entries: []Entry{{Child: 5}, {Child: 9}}}
	if in.FindChild(9) != 1 || in.FindChild(4) != -1 {
		t.Fatal("FindChild wrong")
	}
	if got := in.ChildPages(); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("ChildPages = %v", got)
	}
	if n.ChildPages() != nil {
		t.Fatal("leaf ChildPages should be nil")
	}
}

// decodeNode parses one page into n, as every read does: a validated view
// and a decode. The node's Page field is the caller's to set.
func decodeNode(n *Node, buf []byte, parentPointers bool) error {
	v, err := viewNode(buf, parentPointers)
	if err != nil {
		return err
	}
	v.decode(n)
	return nil
}
