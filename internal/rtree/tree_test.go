package rtree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"burtree/internal/buffer"
	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/stats"
)

// newTestTree builds a tree over a fresh simulated disk. bufferPages == 0
// disables caching so I/O assertions are deterministic.
func newTestTree(t testing.TB, pageSize, bufferPages int, cfg Config) *Tree {
	t.Helper()
	store := pagestore.New(pageSize, &stats.IO{})
	pool := buffer.New(store, bufferPages)
	return New(pool, cfg)
}

// oracle is a brute-force mirror of the tree contents.
type oracle map[OID]geom.Rect

func (o oracle) search(q geom.Rect) []OID {
	var out []OID
	for oid, r := range o {
		if q.Intersects(r) {
			out = append(out, oid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedIDs(ids []OID) []OID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func checkAgainstOracle(t *testing.T, tr *Tree, o oracle, queries int, rng *rand.Rand) {
	t.Helper()
	for q := 0; q < queries; q++ {
		query := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		got, err := tr.SearchCollect(query)
		if err != nil {
			t.Fatal(err)
		}
		want := o.search(query)
		got = sortedIDs(got)
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d results, want %d", query, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %v: result %d = %d, want %d", query, i, got[i], want[i])
			}
		}
	}
}

func uniformPoint(rng *rand.Rand) geom.Point {
	return geom.Point{X: rng.Float64(), Y: rng.Float64()}
}

func TestEmptyTree(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	if tr.Height() != 0 || tr.Size() != 0 {
		t.Fatalf("fresh tree height=%d size=%d", tr.Height(), tr.Size())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ids, err := tr.SearchCollect(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if err != nil || ids != nil {
		t.Fatalf("search on empty tree = %v, %v", ids, err)
	}
	if _, err := tr.RootMBR(); !errors.Is(err, ErrEmptyTree) {
		t.Fatalf("RootMBR on empty tree err = %v", err)
	}
	if err := tr.Delete(1, geom.Rect{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete on empty tree err = %v", err)
	}
}

func TestSingleInsert(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	p := geom.Point{X: 0.5, Y: 0.5}
	if err := tr.Insert(1, geom.RectFromPoint(p)); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 || tr.Size() != 1 {
		t.Fatalf("height=%d size=%d", tr.Height(), tr.Size())
	}
	mbr, err := tr.RootMBR()
	if err != nil {
		t.Fatal(err)
	}
	if mbr != geom.RectFromPoint(p) {
		t.Fatalf("root MBR = %v", mbr)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertInvalidRect(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	if err := tr.Insert(1, geom.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}); err == nil {
		t.Fatal("invalid rect accepted")
	}
}

func TestManyInsertsInvariantsAndOracle(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{ReinsertFraction: 0.3},
		{ParentPointers: true},
		{ReinsertFraction: 0.3, ParentPointers: true},
	} {
		cfg := cfg
		t.Run("quadratic"+reinsertTag(cfg), func(t *testing.T) {
			tr := newTestTree(t, 512, 0, cfg)
			rng := rand.New(rand.NewSource(7))
			o := oracle{}
			const n = 1200
			for i := 0; i < n; i++ {
				p := uniformPoint(rng)
				r := geom.RectFromPoint(p)
				if err := tr.Insert(OID(i), r); err != nil {
					t.Fatal(err)
				}
				o[OID(i)] = r
			}
			if tr.Size() != n {
				t.Fatalf("size = %d, want %d", tr.Size(), n)
			}
			if tr.Height() < 3 {
				t.Fatalf("height = %d; expected a multi-level tree", tr.Height())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, tr, o, 30, rng)
		})
	}
}

func reinsertTag(cfg Config) string {
	tag := ""
	if cfg.ReinsertFraction > 0 {
		tag += "+reinsert"
	}
	if cfg.ParentPointers {
		tag += "+parent"
	}
	return tag
}

// TestRectDataInsertSearch: a leaf stores points, so rectangle data is
// refused with ErrNotPoint as it arrives, among points that go in; the
// tree then answers for the points alone.
func TestRectDataInsertSearch(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	rng := rand.New(rand.NewSource(11))
	o := oracle{}
	for i := 0; i < 600; i++ {
		c := uniformPoint(rng)
		r := geom.Rect{MinX: c.X, MinY: c.Y, MaxX: c.X + rng.Float64()*0.05, MaxY: c.Y + rng.Float64()*0.05}
		if err := tr.Insert(OID(i), r); !errors.Is(err, ErrNotPoint) {
			t.Fatalf("insert of rectangle %v: err = %v, want ErrNotPoint", r, err)
		}
		p := geom.RectFromPoint(r.Center())
		if err := tr.Insert(OID(i), p); err != nil {
			t.Fatal(err)
		}
		o[OID(i)] = p
	}
	if tr.Size() != len(o) {
		t.Fatalf("size = %d, want %d", tr.Size(), len(o))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, tr, o, 40, rng)
}

func TestDeleteAll(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	rng := rand.New(rand.NewSource(3))
	o := oracle{}
	const n = 800
	for i := 0; i < n; i++ {
		r := geom.RectFromPoint(uniformPoint(rng))
		if err := tr.Insert(OID(i), r); err != nil {
			t.Fatal(err)
		}
		o[OID(i)] = r
	}
	// Delete in random order, validating periodically.
	order := rng.Perm(n)
	for k, idx := range order {
		oid := OID(idx)
		if err := tr.Delete(oid, o[oid]); err != nil {
			t.Fatalf("delete %d (step %d): %v", oid, k, err)
		}
		delete(o, oid)
		if k%97 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", k, err)
			}
		}
	}
	if tr.Size() != 0 || tr.Height() != 0 {
		t.Fatalf("after delete-all: size=%d height=%d", tr.Size(), tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNotFound(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	r := geom.RectFromPoint(geom.Point{X: 0.5, Y: 0.5})
	if err := tr.Insert(1, r); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(2, r); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing oid delete err = %v", err)
	}
	// Wrong location hint: containment search cannot find it.
	if err := tr.Delete(1, geom.RectFromPoint(geom.Point{X: 0.1, Y: 0.1})); !errors.Is(err, ErrNotFound) {
		t.Fatalf("wrong-hint delete err = %v", err)
	}
	if tr.Size() != 1 {
		t.Fatalf("failed deletes changed size to %d", tr.Size())
	}
}

func TestMixedInsertDeleteRandomized(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{ReinsertFraction: 0.3},
		{ParentPointers: true},
	} {
		cfg := cfg
		t.Run("quadratic"+reinsertTag(cfg), func(t *testing.T) {
			tr := newTestTree(t, 512, 8, cfg)
			rng := rand.New(rand.NewSource(29))
			o := oracle{}
			next := OID(0)
			live := []OID{}
			for step := 0; step < 3000; step++ {
				if len(live) == 0 || rng.Float64() < 0.6 {
					r := geom.RectFromPoint(uniformPoint(rng))
					if err := tr.Insert(next, r); err != nil {
						t.Fatal(err)
					}
					o[next] = r
					live = append(live, next)
					next++
				} else {
					i := rng.Intn(len(live))
					oid := live[i]
					if err := tr.Delete(oid, o[oid]); err != nil {
						t.Fatalf("step %d delete %d: %v", step, oid, err)
					}
					delete(o, oid)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				if step%499 == 0 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tr.Size() != len(o) {
				t.Fatalf("size = %d, oracle has %d", tr.Size(), len(o))
			}
			checkAgainstOracle(t, tr, o, 25, rng)
		})
	}
}

func TestTopDownUpdate(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	rng := rand.New(rand.NewSource(5))
	o := oracle{}
	const n = 500
	for i := 0; i < n; i++ {
		r := geom.RectFromPoint(uniformPoint(rng))
		if err := tr.Insert(OID(i), r); err != nil {
			t.Fatal(err)
		}
		o[OID(i)] = r
	}
	for step := 0; step < 2000; step++ {
		oid := OID(rng.Intn(n))
		old := o[oid]
		c := old.Center()
		p := geom.Point{X: c.X + (rng.Float64()-0.5)*0.1, Y: c.Y + (rng.Float64()-0.5)*0.1}
		newRect := geom.RectFromPoint(p)
		if err := tr.Update(oid, old, newRect); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		o[oid] = newRect
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != n {
		t.Fatalf("size after updates = %d", tr.Size())
	}
	checkAgainstOracle(t, tr, o, 30, rng)
}

func TestContains(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	r := geom.RectFromPoint(geom.Point{X: 0.3, Y: 0.3})
	if err := tr.Insert(9, r); err != nil {
		t.Fatal(err)
	}
	if ok, err := tr.Contains(9, r); err != nil || !ok {
		t.Fatalf("Contains(9) = %v, %v", ok, err)
	}
	if ok, err := tr.Contains(8, r); err != nil || ok {
		t.Fatalf("Contains(8) = %v, %v", ok, err)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		if err := tr.Insert(OID(i), geom.RectFromPoint(uniformPoint(rng))); err != nil {
			t.Fatal(err)
		}
	}
	visits := 0
	err := tr.Search(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, func(OID, geom.Rect) bool {
		visits++
		return visits < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if visits != 5 {
		t.Fatalf("early stop visited %d, want 5", visits)
	}
}

func TestNearestK(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	rng := rand.New(rand.NewSource(17))
	o := oracle{}
	const n = 400
	for i := 0; i < n; i++ {
		r := geom.RectFromPoint(uniformPoint(rng))
		if err := tr.Insert(OID(i), r); err != nil {
			t.Fatal(err)
		}
		o[OID(i)] = r
	}
	for trial := 0; trial < 20; trial++ {
		p := uniformPoint(rng)
		k := 1 + rng.Intn(10)
		got, err := tr.NearestK(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("NearestK returned %d, want %d", len(got), k)
		}
		// Brute-force the k nearest.
		type cand struct {
			oid OID
			d   float64
		}
		var all []cand
		for oid, r := range o {
			all = append(all, cand{oid, r.MinDistPoint(p)})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		for i := 0; i < k; i++ {
			if got[i].Dist != all[i].d {
				t.Fatalf("neighbor %d dist = %v, want %v", i, got[i].Dist, all[i].d)
			}
		}
		// Results must be sorted.
		for i := 1; i < k; i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatalf("results not sorted at %d", i)
			}
		}
	}
	if res, err := tr.NearestK(geom.Point{}, 0); err != nil || res != nil {
		t.Fatalf("NearestK(k=0) = %v, %v", res, err)
	}
}

// TestNearestFunc checks the incremental stream against brute force on
// seeded trees whose points sit on a coarse lattice, so many lie at
// exactly the same distance from a query: the stream is the whole tree in
// non-decreasing distance, NearestK is its first k, and a visit that
// stops early leaves no frame pinned.
func TestNearestFunc(t *testing.T) {
	for _, seed := range []int64{3, 17, 101} {
		tr := newTestTree(t, 512, 8, Config{})
		rng := rand.New(rand.NewSource(seed))
		const n = 300
		var rects []geom.Rect
		for i := 0; i < n; i++ {
			r := geom.RectFromPoint(geom.Point{X: float64(rng.Intn(12)) / 12, Y: float64(rng.Intn(12)) / 12})
			if err := tr.Insert(OID(i), r); err != nil {
				t.Fatal(err)
			}
			rects = append(rects, r)
		}
		for trial := 0; trial < 10; trial++ {
			// Queries on the lattice too: whole rings of equidistant points.
			p := geom.Point{X: float64(rng.Intn(12)) / 12, Y: float64(rng.Intn(12)) / 12}
			want := make([]float64, n)
			for i, r := range rects {
				want[i] = r.MinDistPoint(p)
			}
			sort.Float64s(want)

			var stream []Neighbor
			if err := tr.NearestFunc(p, func(nb Neighbor) bool { stream = append(stream, nb); return true }); err != nil {
				t.Fatal(err)
			}
			if len(stream) != n {
				t.Fatalf("seed %d: stream of %d entries, tree holds %d", seed, len(stream), n)
			}
			seen := make(map[OID]bool, n)
			for i, nb := range stream {
				if nb.Dist != want[i] {
					t.Fatalf("seed %d: stream[%d] at distance %v, brute force %v", seed, i, nb.Dist, want[i])
				}
				if seen[nb.OID] || nb.Rect != rects[nb.OID] {
					t.Fatalf("seed %d: stream[%d] = object %d at %v (repeated: %v)", seed, i, nb.OID, nb.Rect, seen[nb.OID])
				}
				seen[nb.OID] = true
			}
			for _, k := range []int{1, 10, 100, n} {
				got, err := tr.NearestK(p, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != k {
					t.Fatalf("NearestK(%d) returned %d", k, len(got))
				}
				for i := range got {
					if got[i] != stream[i] {
						t.Fatalf("seed %d: NearestK(%d)[%d] = %+v, stream has %+v", seed, k, i, got[i], stream[i])
					}
				}
			}
			visits := 0
			if err := tr.NearestFunc(p, func(Neighbor) bool { visits++; return visits < 7 }); err != nil {
				t.Fatal(err)
			}
			if visits != 7 {
				t.Fatalf("early stop visited %d, want 7", visits)
			}
			if pinned := tr.Pool().Pinned(); pinned != 0 {
				t.Fatalf("%d frames pinned after an early stop", pinned)
			}
		}
	}
}

func TestSplitCountersAdvance(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{ReinsertFraction: 0.3})
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		if err := tr.Insert(OID(i), geom.RectFromPoint(uniformPoint(rng))); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.IO().Snapshot()
	if snap.Splits == 0 {
		t.Fatal("no splits recorded after 500 inserts on 512B pages")
	}
	if snap.Reinserts == 0 {
		t.Fatal("no reinserts recorded with ReinsertFraction 0.3")
	}
	if snap.Reads == 0 || snap.Writes == 0 {
		t.Fatalf("io counters not advancing: %v", snap)
	}
}

func TestComputeStats(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	rng := rand.New(rand.NewSource(31))
	const n = 600
	for i := 0; i < n; i++ {
		if err := tr.Insert(OID(i), geom.RectFromPoint(uniformPoint(rng))); err != nil {
			t.Fatal(err)
		}
	}
	s, err := tr.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Size != n || s.Height != tr.Height() || len(s.Levels) != tr.Height() {
		t.Fatalf("stats = %+v", s)
	}
	totalEntries := 0
	for _, l := range s.Levels {
		if l.Nodes == 0 {
			t.Fatalf("level %d has no nodes", l.Level)
		}
		if l.AvgFill <= 0 || l.AvgFill > 1 {
			t.Fatalf("level %d fill = %v", l.Level, l.AvgFill)
		}
		if l.Level == 0 {
			totalEntries = l.Entries
		}
	}
	if totalEntries != n {
		t.Fatalf("leaf entries = %d, want %d", totalEntries, n)
	}
}

func TestInsertEntryAtSubtree(t *testing.T) {
	// Build a 3-level tree, then insert directly below a level-1 node
	// using an explicit ancestor chain, as GBU does.
	tr := newTestTree(t, 512, 0, Config{})
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 900; i++ {
		if err := tr.Insert(OID(i), geom.RectFromPoint(uniformPoint(rng))); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d, want >= 3", tr.Height())
	}
	root, err := tr.ReadNode(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	mid, err := tr.ReadNode(root.Entries[0].Child)
	if err != nil {
		t.Fatal(err)
	}
	// Insert a point inside mid's MBR, starting at mid.
	c := mid.Self.Center()
	e := Entry{Rect: geom.RectFromPoint(c), OID: 99999}
	if err := tr.InsertEntryAt([]pagestore.PageID{tr.Root()}, mid.Page, e, 0); err != nil {
		t.Fatal(err)
	}
	tr.size++ // InsertEntryAt leaves accounting to the caller
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, err := tr.SearchCollect(geom.RectFromPoint(c))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, oid := range got {
		if oid == 99999 {
			found = true
		}
	}
	if !found {
		t.Fatal("entry inserted at subtree not found by search")
	}
}

func TestInsertEntryAtPropagatesSplitsThroughAbovePath(t *testing.T) {
	// Repeatedly insert into the same subtree until splits must propagate
	// through the supplied ancestor chain; the tree must stay valid.
	tr := newTestTree(t, 512, 0, Config{})
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 900; i++ {
		if err := tr.Insert(OID(i), geom.RectFromPoint(uniformPoint(rng))); err != nil {
			t.Fatal(err)
		}
	}
	base := tr.Size()
	root, err := tr.ReadNode(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	target := root.Entries[0].Child
	mid, err := tr.ReadNode(target)
	if err != nil {
		t.Fatal(err)
	}
	c := mid.Self.Center()
	added := 0
	for i := 0; i < 400; i++ {
		// Root page may change when the root splits; re-resolve the chain
		// each iteration like the summary structure would.
		root, err := tr.ReadNode(tr.Root())
		if err != nil {
			t.Fatal(err)
		}
		// Find the current ancestor chain of `target` by descent.
		chain, ok := findChain(t, tr, root, target, nil)
		if !ok {
			// The node may have been split away; pick a fresh target.
			target = root.Entries[0].Child
			chain = []pagestore.PageID{tr.Root()}
		}
		p := geom.Point{X: c.X + (rng.Float64()-0.5)*0.01, Y: c.Y + (rng.Float64()-0.5)*0.01}
		e := Entry{Rect: geom.RectFromPoint(p), OID: OID(100000 + i)}
		if err := tr.InsertEntryAt(chain, target, e, 0); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		tr.size++
		added++
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != base+added {
		t.Fatalf("size = %d, want %d", tr.Size(), base+added)
	}
}

// findChain returns the page-id chain from the root down to (but not
// including) target, or ok=false if target is not reachable.
func findChain(t *testing.T, tr *Tree, n *Node, target pagestore.PageID, acc []pagestore.PageID) ([]pagestore.PageID, bool) {
	t.Helper()
	acc = append(acc, n.Page)
	if n.IsLeaf() {
		return nil, false
	}
	for _, e := range n.Entries {
		if e.Child == target {
			out := make([]pagestore.PageID, len(acc))
			copy(out, acc)
			return out, true
		}
		child, err := tr.ReadNode(e.Child)
		if err != nil {
			t.Fatal(err)
		}
		if child.IsLeaf() {
			continue
		}
		if chain, ok := findChain(t, tr, child, target, acc); ok {
			return chain, true
		}
	}
	return nil, false
}

func TestSetListenerOnNonEmptyTreePanics(t *testing.T) {
	tr := newTestTree(t, 512, 0, Config{})
	if err := tr.Insert(1, geom.RectFromPoint(geom.Point{X: 0.5, Y: 0.5})); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetListener on non-empty tree did not panic")
		}
	}()
	tr.SetListener(nil)
}
