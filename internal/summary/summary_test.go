package summary

import (
	"math/rand"
	"slices"
	"testing"

	"burtree/internal/buffer"
	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/stats"
)

func newTrackedTree(t testing.TB, pageSize int, cfg rtree.Config) (*rtree.Tree, *Structure) {
	t.Helper()
	store := pagestore.New(pageSize, &stats.IO{})
	pool := buffer.New(store, 0)
	tr := rtree.New(pool, cfg)
	s := New(tr.MaxEntries(0))
	tr.SetListener(s)
	return tr, s
}

func pt(rng *rand.Rand) geom.Point {
	return geom.Point{X: rng.Float64(), Y: rng.Float64()}
}

func TestSummaryTracksInserts(t *testing.T) {
	tr, s := newTrackedTree(t, 512, rtree.Config{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		if err := tr.Insert(rtree.OID(i), geom.RectFromPoint(pt(rng))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Validate(tr); err != nil {
		t.Fatal(err)
	}
	root, height := s.Root()
	if root != tr.Root() || height != tr.Height() {
		t.Fatalf("summary root/height (%d,%d) vs tree (%d,%d)", root, height, tr.Root(), tr.Height())
	}
	mbr, ok := s.RootMBR()
	if !ok {
		t.Fatal("RootMBR not available for multi-level tree")
	}
	want, err := tr.RootMBR()
	if err != nil {
		t.Fatal(err)
	}
	if mbr != want {
		t.Fatalf("summary root MBR %v, tree %v", mbr, want)
	}
}

func TestSummaryTracksDeletes(t *testing.T) {
	tr, s := newTrackedTree(t, 512, rtree.Config{})
	rng := rand.New(rand.NewSource(2))
	rects := map[rtree.OID]geom.Rect{}
	const n = 1000
	for i := 0; i < n; i++ {
		r := geom.RectFromPoint(pt(rng))
		if err := tr.Insert(rtree.OID(i), r); err != nil {
			t.Fatal(err)
		}
		rects[rtree.OID(i)] = r
	}
	order := rng.Perm(n)
	for k, idx := range order {
		oid := rtree.OID(idx)
		if err := tr.Delete(oid, rects[oid]); err != nil {
			t.Fatal(err)
		}
		if k%211 == 0 {
			if err := s.Validate(tr); err != nil {
				t.Fatalf("step %d: %v", k, err)
			}
		}
	}
	if err := s.Validate(tr); err != nil {
		t.Fatal(err)
	}
	if in, lf := s.Counts(); in != 0 || lf != 0 {
		t.Fatalf("counts after emptying = %d internal, %d leaves", in, lf)
	}
}

func TestSummaryWithReinsertAndUpdates(t *testing.T) {
	tr, s := newTrackedTree(t, 512, rtree.Config{ReinsertFraction: 0.3})
	rng := rand.New(rand.NewSource(3))
	rects := map[rtree.OID]geom.Rect{}
	const n = 800
	for i := 0; i < n; i++ {
		r := geom.RectFromPoint(pt(rng))
		if err := tr.Insert(rtree.OID(i), r); err != nil {
			t.Fatal(err)
		}
		rects[rtree.OID(i)] = r
	}
	for step := 0; step < 1500; step++ {
		oid := rtree.OID(rng.Intn(n))
		old := rects[oid]
		c := old.Center()
		nr := geom.RectFromPoint(geom.Point{X: c.X + (rng.Float64()-0.5)*0.08, Y: c.Y + (rng.Float64()-0.5)*0.08})
		if err := tr.Update(oid, old, nr); err != nil {
			t.Fatal(err)
		}
		rects[oid] = nr
		if step%307 == 0 {
			if err := s.Validate(tr); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := s.Validate(tr); err != nil {
		t.Fatal(err)
	}
}

func TestParentOfAndChainAbove(t *testing.T) {
	tr, s := newTrackedTree(t, 512, rtree.Config{})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1200; i++ {
		if err := tr.Insert(rtree.OID(i), geom.RectFromPoint(pt(rng))); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d", tr.Height())
	}
	// Verify ParentOf and the ancestor chain against a manual walk.
	root, err := tr.ReadNode(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	mid, err := tr.ReadNode(root.Entries[1].Child)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := s.ParentOf(mid.Page); !ok || p != root.Page {
		t.Fatalf("ParentOf(mid) = %d, %v; want %d", p, ok, root.Page)
	}
	leafPage := mid.Entries[0].Child
	for !midIsLeafParent(t, tr, mid) {
		// Descend until mid is a parent of leaves.
		mid, err = tr.ReadNode(mid.Entries[0].Child)
		if err != nil {
			t.Fatal(err)
		}
		leafPage = mid.Entries[0].Child
	}
	// The chain above the leaf, root first: what FindParent hands out
	// above the ancestor it names, and that ancestor — the leaf's parent
	// when the point lies inside it.
	res, err := s.FindParent(leafPage, mid.Self.Center(), tr.Height()-1)
	if err != nil {
		t.Fatal(err)
	}
	chain := append(slices.Clone(res.PathAbove()), res.Ancestor)
	if len(chain) != tr.Height()-1 {
		t.Fatalf("chain length = %d, want %d", len(chain), tr.Height()-1)
	}
	if chain[0] != tr.Root() {
		t.Fatalf("chain[0] = %d, want root %d", chain[0], tr.Root())
	}
	if chain[len(chain)-1] != mid.Page {
		t.Fatalf("chain tail = %d, want %d", chain[len(chain)-1], mid.Page)
	}
}

func midIsLeafParent(t *testing.T, tr *rtree.Tree, n *rtree.Node) bool {
	t.Helper()
	return n.Level == 1
}

func TestFindParentContainment(t *testing.T) {
	tr, s := newTrackedTree(t, 512, rtree.Config{})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1500; i++ {
		if err := tr.Insert(rtree.OID(i), geom.RectFromPoint(pt(rng))); err != nil {
			t.Fatal(err)
		}
	}
	h := tr.Height()
	if h < 3 {
		t.Fatalf("height = %d", h)
	}
	// Pick a random leaf by descending.
	n, err := tr.ReadNode(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	for !n.IsLeaf() {
		n, err = tr.ReadNode(n.Entries[rng.Intn(len(n.Entries))].Child)
		if err != nil {
			t.Fatal(err)
		}
	}
	leaf := n.Page

	// A point inside the leaf's parent MBR must resolve to the parent.
	parentPage, ok := s.ParentOf(leaf)
	if !ok {
		t.Fatal("leaf has no parent in summary")
	}
	pmbr, ok := s.MBROf(parentPage)
	if !ok {
		t.Fatal("parent MBR missing")
	}
	res, err := s.FindParent(leaf, pmbr.Center(), h-1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ancestor != parentPage || res.Level != 1 {
		t.Fatalf("FindParent = %+v, want parent %d at level 1", res, parentPage)
	}
	if len(res.PathAbove()) != h-2 {
		t.Fatalf("PathAbove length = %d, want %d", len(res.PathAbove()), h-2)
	}
	if h >= 3 && res.PathAbove()[0] != tr.Root() {
		t.Fatalf("PathAbove[0] = %d, want root", res.PathAbove()[0])
	}

	// A point far outside everything must fall through to the root.
	far := geom.Point{X: 50, Y: 50}
	res, err = s.FindParent(leaf, far, h-1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ancestor != tr.Root() {
		t.Fatalf("far point ancestor = %d, want root %d", res.Ancestor, tr.Root())
	}

	// Level threshold 0 forbids any ascent: even a contained point
	// resolves to the root fallback.
	res, err = s.FindParent(leaf, pmbr.Center(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ancestor != tr.Root() {
		t.Fatalf("λ=0 ancestor = %d, want root", res.Ancestor)
	}
}

func TestLeafFullBitVector(t *testing.T) {
	tr, s := newTrackedTree(t, 512, rtree.Config{})
	rng := rand.New(rand.NewSource(6))
	// Fill one tight cluster so some leaf fills completely.
	for i := 0; i < 60; i++ {
		p := geom.Point{X: 0.5 + rng.Float64()*0.001, Y: 0.5 + rng.Float64()*0.001}
		if err := tr.Insert(rtree.OID(i), geom.RectFromPoint(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Validate(tr); err != nil {
		t.Fatal(err)
	}
	// Unknown leaves read as full (conservative).
	if !s.IsLeafFull(pagestore.PageID(99999)) {
		t.Fatal("unknown leaf reported non-full")
	}
}

func TestOverlappingAtLevel(t *testing.T) {
	// The history mixes inserts with deletes, so level-1 nodes are freed
	// and their places in the level's array refilled.
	build := func() (*rtree.Tree, *Structure) {
		tr, s := newTrackedTree(t, 512, rtree.Config{})
		rng := rand.New(rand.NewSource(7))
		rects := make([]geom.Rect, 2500)
		for i := range rects {
			rects[i] = geom.RectFromPoint(pt(rng))
			if err := tr.Insert(rtree.OID(i), rects[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range rng.Perm(len(rects))[:1000] {
			if err := tr.Delete(rtree.OID(i), rects[i]); err != nil {
				t.Fatal(err)
			}
		}
		return tr, s
	}
	tr, s := build()
	q := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}
	got := s.OverlappingAtLevel(1, q, nil)
	// The order is a function of the history: a second structure fed the
	// same one answers in the same order.
	_, twin := build()
	if again := twin.OverlappingAtLevel(1, q, nil); !slices.Equal(got, again) {
		t.Fatalf("two structures with one history answer in different orders:\n%v\n%v", got, again)
	}
	everything := geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}
	if a, b := s.OverlappingAtLevel(1, everything, nil), twin.OverlappingAtLevel(1, everything, nil); !slices.Equal(a, b) || len(a) < 20 {
		t.Fatalf("level-1 arrays differ or are too short to tell:\n%v\n%v", a, b)
	}
	// Cross-check against a tree walk.
	want := map[pagestore.PageID]bool{}
	var walk func(page pagestore.PageID) error
	walk = func(page pagestore.PageID) error {
		n, err := tr.ReadNode(page)
		if err != nil {
			return err
		}
		if n.Level == 1 && n.Self.Intersects(q) {
			want[page] = true
		}
		if n.Level <= 1 {
			return nil
		}
		for _, e := range n.Entries {
			if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(tr.Root()); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("overlapping level-1 = %d nodes, want %d", len(got), len(want))
	}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("page %d not expected", p)
		}
	}
}

func TestSizeBytesRatio(t *testing.T) {
	// The paper reports the table consuming a tiny fraction of the tree
	// (0.16% at fanout 204). With our smaller fanout the ratio is larger
	// but must still be far below 10%.
	tr, s := newTrackedTree(t, 1024, rtree.Config{})
	rng := rand.New(rand.NewSource(8))
	const n = 20000
	for i := 0; i < n; i++ {
		if err := tr.Insert(rtree.OID(i), geom.RectFromPoint(pt(rng))); err != nil {
			t.Fatal(err)
		}
	}
	treeBytes := tr.Pool().Store().NumPages() * 1024
	ratio := float64(s.SizeBytes()) / float64(treeBytes)
	if ratio > 0.10 {
		t.Fatalf("summary/tree size ratio = %.4f, want < 0.10", ratio)
	}
	if s.SizeBytes() == 0 {
		t.Fatal("summary reports zero size")
	}
}

func TestBulkLoadPopulatesSummary(t *testing.T) {
	tr, s := newTrackedTree(t, 512, rtree.Config{})
	rng := rand.New(rand.NewSource(9))
	items := make([]rtree.Item, 3000)
	for i := range items {
		items[i] = rtree.Item{OID: rtree.OID(i), Rect: geom.RectFromPoint(pt(rng))}
	}
	if err := tr.BulkLoad(items, 0.66); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(tr); err != nil {
		t.Fatal(err)
	}
}

// TestMBROnlyWriteKeepsChildren: rewriting an internal node with the
// child list it already has moves only its MBR; a write that does change
// the list still re-derives the parent map.
func TestMBROnlyWriteKeepsChildren(t *testing.T) {
	s := New(8)
	kids := []pagestore.PageID{11, 12, 13}
	wide := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	s.NodeWritten(5, 1, geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.4, MaxY: 0.4}, kids, len(kids))
	s.NodeWritten(5, 1, wide, append([]pagestore.PageID(nil), kids...), len(kids))
	if mbr, ok := s.MBROf(5); !ok || mbr != wide {
		t.Fatalf("MBR after the rewrite = %v (ok=%v), want %v", mbr, ok, wide)
	}
	for _, c := range kids {
		if p, ok := s.ParentOf(c); !ok || p != 5 {
			t.Fatalf("parent of %d = %d (ok=%v), want 5", c, p, ok)
		}
	}
	s.NodeWritten(5, 1, wide, []pagestore.PageID{11, 14}, 2)
	if _, ok := s.ParentOf(12); ok {
		t.Fatal("child 12 left node 5 but kept its parent entry")
	}
	if p, ok := s.ParentOf(14); !ok || p != 5 {
		t.Fatalf("parent of new child 14 = %d (ok=%v), want 5", p, ok)
	}
}
