package core

import (
	"testing"

	"burtree/internal/geom"
	"burtree/internal/rtree"
)

// Edge paths of the per-object update path: UpdateAtLeaf handed a leaf
// that no longer holds the object, and Update led astray by a stale
// hash entry.

// locatorOf returns the locator of a bottom-up strategy.
func locatorOf(t *testing.T, u Updater) Locator {
	t.Helper()
	l, ok := u.(located)
	if !ok {
		t.Fatalf("%s keeps no locator", u.Name())
	}
	return l.locator()
}

// contents maps every object to its stored rectangle.
func contents(t *testing.T, u Updater) map[rtree.OID]geom.Rect {
	t.Helper()
	out := map[rtree.OID]geom.Rect{}
	all := geom.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}
	if err := u.Tree().Search(all, func(oid rtree.OID, r geom.Rect) bool {
		out[oid] = r
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// farFrom is a point inside the unit square across it from p, so that no
// local repair of p's leaf can reach it.
func farFrom(p geom.Point) geom.Point {
	far := geom.Point{X: 0.95, Y: 0.95}
	if p.X > 0.5 {
		far.X = 0.05
	}
	if p.Y > 0.5 {
		far.Y = 0.05
	}
	return far
}

func TestUpdateAtLeafEdgePaths(t *testing.T) {
	// Each state names the page UpdateAtLeaf is handed and the change.
	states := []struct {
		name  string
		setup func(t *testing.T, u Updater, ga GroupApplier, w *world) (rtree.PageID, BatchChange)
	}{
		{"in-leaf", func(t *testing.T, u Updater, ga GroupApplier, w *world) (rtree.PageID, BatchChange) {
			oid := w.ids[7]
			leaf, err := ga.LeafOf(oid)
			if err != nil {
				t.Fatal(err)
			}
			return leaf, BatchChange{OID: oid, Old: w.pos[oid], New: farFrom(w.pos[oid])}
		}},
		{"moved-away", func(t *testing.T, u Updater, ga GroupApplier, w *world) (rtree.PageID, BatchChange) {
			for _, oid := range w.ids {
				leaf, err := ga.LeafOf(oid)
				if err != nil {
					t.Fatal(err)
				}
				far := farFrom(w.pos[oid])
				if err := u.Update(oid, w.pos[oid], far); err != nil {
					t.Fatal(err)
				}
				w.pos[oid] = far
				now, err := ga.LeafOf(oid)
				if err != nil {
					t.Fatal(err)
				}
				if n, err := u.Tree().ReadNode(leaf); now == leaf || err != nil || !n.IsLeaf() {
					continue // still there, or its leaf did not survive the move
				}
				return leaf, BatchChange{OID: oid, Old: far, New: geom.Point{X: 0.5, Y: 0.5}}
			}
			t.Fatal("no object left a surviving leaf")
			return 0, BatchChange{}
		}},
		{"freed-page", func(t *testing.T, u Updater, ga GroupApplier, w *world) (rtree.PageID, BatchChange) {
			store := u.Tree().Pool().Store()
			page := store.Alloc()
			u.Tree().Pool().Discard(page)
			if err := store.Free(page); err != nil {
				t.Fatal(err)
			}
			oid := w.ids[11]
			return page, BatchChange{OID: oid, Old: w.pos[oid], New: farFrom(w.pos[oid])}
		}},
		{"internal-page", func(t *testing.T, u Updater, ga GroupApplier, w *world) (rtree.PageID, BatchChange) {
			root, err := u.Tree().ReadNode(u.Tree().Root())
			if err != nil {
				t.Fatal(err)
			}
			if root.IsLeaf() {
				t.Fatal("tree too small: the root is a leaf")
			}
			// An object whose id equals a child page id of the node: an
			// entry lookup that took the page for a leaf would match it.
			oid := rtree.OID(root.Entries[0].Child)
			if _, ok := w.pos[oid]; !ok {
				t.Fatalf("child page %d is not an object id", oid)
			}
			return root.Page, BatchChange{OID: oid, Old: w.pos[oid], New: farFrom(w.pos[oid])}
		}},
	}
	for _, opts := range []Options{
		{Strategy: LBU, Locator: paged(1500)},
		{Strategy: GBU, Locator: paged(1500)},
	} {
		for _, st := range states {
			for _, localOnly := range []bool{true, false} {
				name := opts.Strategy.String() + "/" + st.name + "/full"
				if localOnly {
					name = opts.Strategy.String() + "/" + st.name + "/local-only"
				}
				t.Run(name, func(t *testing.T) {
					u := newUpdater(t, 512, 0, opts)
					ga := u.(GroupApplier)
					w := newWorld(37)
					w.populate(t, u, 1200)
					leaf, c := st.setup(t, u, ga, w)

					before, io := contents(t, u), u.Tree().IO().Snapshot()
					outBefore := u.Outcomes()
					applied, err := ga.UpdateAtLeaf(leaf, c, localOnly)
					if err != nil {
						t.Fatalf("UpdateAtLeaf: %v", err)
					}
					if localOnly {
						if applied {
							t.Fatal("a local-only call applied a change that needs more than its leaf")
						}
						if d := u.Tree().IO().Snapshot().Sub(io); d.Writes != 0 {
							t.Fatalf("a declined call wrote %d pages", d.Writes)
						}
						if got := u.Outcomes(); got != outBefore {
							t.Fatalf("a declined call counted an outcome: %+v -> %+v", outBefore, got)
						}
						after := contents(t, u)
						if len(after) != len(before) {
							t.Fatalf("a declined call changed the object count: %d -> %d", len(before), len(after))
						}
						for oid, r := range before {
							if after[oid] != r {
								t.Fatalf("a declined call moved object %d: %v -> %v", oid, r, after[oid])
							}
						}
					} else {
						if !applied {
							t.Fatal("a full call declined")
						}
						w.pos[c.OID] = c.New
						if got := contents(t, u)[c.OID]; got != geom.RectFromPoint(c.New) {
							t.Fatalf("object %d stored at %v, want %v", c.OID, got, c.New)
						}
						if got, want := u.Outcomes().Total(), outBefore.Total()+1; got != want {
							t.Fatalf("outcomes total %d, want %d", got, want)
						}
					}
					validateAll(t, u)
					checkSearchMatches(t, u, w, 10)
				})
			}
		}
	}
}

// TestUpdateStaleHashEntry points an object's hash entry at a leaf that
// does not hold it: Update must fail and leave the tree as it was.
func TestUpdateStaleHashEntry(t *testing.T) {
	for _, opts := range []Options{
		{Strategy: Naive, Locator: paged(1500)},
		{Strategy: LBU, Locator: paged(1500)},
		{Strategy: GBU, Locator: paged(1500)},
	} {
		t.Run(opts.Strategy.String(), func(t *testing.T) {
			u := newUpdater(t, 512, 8, opts)
			w := newWorld(41)
			w.populate(t, u, 1200)
			h := locatorOf(t, u)
			oid := w.ids[3]
			home, err := h.Lookup(oid)
			if err != nil {
				t.Fatal(err)
			}
			var elsewhere rtree.PageID
			for _, other := range w.ids {
				if pg, err := h.Lookup(other); err == nil && pg != home {
					elsewhere = pg
					break
				}
			}
			if err := h.Set(oid, elsewhere); err != nil {
				t.Fatal(err)
			}
			before := contents(t, u)
			old := w.pos[oid]
			if err := u.Update(oid, old, geom.Point{X: old.X + 0.001, Y: old.Y}); err == nil {
				t.Fatal("update through a stale hash entry succeeded")
			}
			after := contents(t, u)
			if len(after) != len(before) || after[oid] != before[oid] {
				t.Fatalf("failed update changed the tree: object %d %v -> %v", oid, before[oid], after[oid])
			}
			if err := u.Tree().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := h.Set(oid, home); err != nil {
				t.Fatal(err)
			}
			validateAll(t, u)
			checkSearchMatches(t, u, w, 10)
		})
	}
}
