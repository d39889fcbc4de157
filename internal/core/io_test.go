package core

// I/O accounting tests: pin the per-path page-access costs of the
// bottom-up strategies against the paper's §4 cost analysis, with no
// buffer so every logical access is a physical one.

import (
	"math/rand"
	"testing"

	"burtree/internal/geom"
	"burtree/internal/rtree"
)

// findExtensionCandidate locates an object whose leaf MBR does not cover
// a point just outside it, but whose parent MBR does — so a directional
// ε-extension must succeed.
func findExtensionCandidate(t *testing.T, g *gbuStrategy) (rtree.OID, geom.Point, geom.Point) {
	t.Helper()
	tr := g.tree
	for oid := rtree.OID(0); oid < rtree.OID(tr.Size()); oid++ {
		leafPage, err := g.loc.Lookup(oid)
		if err != nil {
			continue
		}
		leaf, err := tr.ReadNode(leafPage)
		if err != nil {
			t.Fatal(err)
		}
		li := leaf.FindOID(oid)
		if li < 0 {
			continue
		}
		parentPage, ok := g.sum.ParentOf(leafPage)
		if !ok {
			continue
		}
		pmbr, _ := g.sum.MBROf(parentPage)
		// Step just east of the leaf MBR.
		target := geom.Point{X: leaf.Self.MaxX + 0.0005, Y: leaf.Self.Center().Y}
		if leaf.Self.ContainsPoint(target) || !pmbr.ContainsPoint(target) {
			continue
		}
		if len(leaf.Entries)-1 < tr.MinEntries(0) {
			continue
		}
		// A slow mover (within δ) extends before it tries a shift.
		old := leaf.Entries[li].Rect.Center()
		if geom.Dist(old, target) > g.opts.DistanceThreshold {
			continue
		}
		return oid, old, target
	}
	t.Skip("no extension candidate found at this seed")
	return 0, geom.Point{}, geom.Point{}
}

func TestGBUExtensionCostExact(t *testing.T) {
	u := newUpdater(t, 1024, 0, Options{Strategy: GBU, Epsilon: 0.01, Locator: paged(4000)})
	g := u.(*gbuStrategy)
	w := newWorld(999)
	w.populate(t, u, 4000)
	io := g.tree.IO()

	oid, old, target := findExtensionCandidate(t, g)
	outBefore := g.Outcomes()
	base := io.Snapshot()
	if err := u.Update(oid, old, target); err != nil {
		t.Fatal(err)
	}
	d := io.Snapshot().Sub(base)
	out := g.Outcomes()
	if out.Extended != outBefore.Extended+1 {
		t.Fatalf("update did not extend: %+v -> %+v", outBefore, out)
	}
	// Paper §4 case 2 charges 4 I/Os (hash + leaf R/W + parent R); our
	// implementation adds the parent write that keeps the parent entry
	// mirroring the extended MBR: 3 reads + 2 writes.
	if d.Reads != 3 || d.Writes != 2 {
		t.Fatalf("extension cost = %dR+%dW, want 3R+2W", d.Reads, d.Writes)
	}
	validateAll(t, u)
	w.pos[oid] = target
}

func TestLBUInPlaceCostExact(t *testing.T) {
	u := newUpdater(t, 1024, 0, Options{Strategy: LBU, Locator: paged(4000)})
	l := u.(*lbuStrategy)
	w := newWorld(888)
	w.populate(t, u, 4000)
	io := l.tree.IO()

	// Move an object to its own leaf's MBR center: guaranteed in place.
	oid := w.ids[17]
	leafPage, err := l.loc.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := l.tree.ReadNode(leafPage)
	if err != nil {
		t.Fatal(err)
	}
	target := leaf.Self.Center()
	base := io.Snapshot()
	if err := u.Update(oid, w.pos[oid], target); err != nil {
		t.Fatal(err)
	}
	d := io.Snapshot().Sub(base)
	// 1 hash read + leaf read + leaf write.
	if d.Reads != 2 || d.Writes != 1 {
		t.Fatalf("in-place cost = %dR+%dW, want 2R+1W", d.Reads, d.Writes)
	}
	w.pos[oid] = target
	validateAll(t, u)
}

func TestGBUOutsideRootFallsBackTopDown(t *testing.T) {
	u := newUpdater(t, 1024, 0, Options{Strategy: GBU, Locator: paged(1000)})
	w := newWorld(777)
	w.populate(t, u, 1000)
	g := u.(*gbuStrategy)
	before := g.Outcomes()
	oid := w.ids[0]
	// Far outside the unit square, hence outside the root MBR.
	target := geom.Point{X: 50, Y: 50}
	if err := u.Update(oid, w.pos[oid], target); err != nil {
		t.Fatal(err)
	}
	w.pos[oid] = target
	after := g.Outcomes()
	if after.TopDown != before.TopDown+1 {
		t.Fatalf("outside-root update not top-down: %+v -> %+v", before, after)
	}
	validateAll(t, u)
	// And the object is findable at its new position.
	found, err := g.tree.SearchCollect(geom.RectFromPoint(target))
	if err != nil || len(found) != 1 || found[0] != oid {
		t.Fatalf("object lost after outside-root update: %v, %v", found, err)
	}
}

func TestGBUShiftSkipsParentReadWhenOutsideParentMBR(t *testing.T) {
	// The summary-table check must prevent a parent read when the new
	// location lies outside the parent MBR entirely (fast-path ascends).
	u := newUpdater(t, 1024, 0, Options{Strategy: GBU, DistanceThreshold: 1e-12, Locator: paged(4000)})
	g := u.(*gbuStrategy)
	w := newWorld(666)
	w.populate(t, u, 4000)

	// Find an object and a target outside its parent's MBR but inside
	// the root MBR.
	rootMBR, _ := g.sum.RootMBR()
	var oid rtree.OID
	var target geom.Point
	found := false
	for _, id := range w.ids {
		leafPage, err := g.loc.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		parentPage, ok := g.sum.ParentOf(leafPage)
		if !ok {
			continue
		}
		pmbr, _ := g.sum.MBROf(parentPage)
		cand := geom.Point{X: pmbr.MaxX + 0.05, Y: pmbr.Center().Y}
		leaf, err := g.tree.ReadNode(leafPage)
		if err != nil {
			t.Fatal(err)
		}
		if len(leaf.Entries)-1 < g.tree.MinEntries(0) {
			continue
		}
		if rootMBR.ContainsPoint(cand) && !pmbr.ContainsPoint(cand) {
			oid, target, found = id, cand, true
			break
		}
	}
	if !found {
		t.Skip("no suitable candidate at this seed")
	}
	before := g.Outcomes()
	if err := u.Update(oid, w.pos[oid], target); err != nil {
		t.Fatal(err)
	}
	w.pos[oid] = target
	after := g.Outcomes()
	if after.Shifted != before.Shifted {
		t.Fatalf("shift happened despite target outside parent MBR")
	}
	if after.Ascended+after.TopDown+after.Extended == before.Ascended+before.TopDown+before.Extended {
		t.Fatalf("update unaccounted: %+v -> %+v", before, after)
	}
	validateAll(t, u)
}

func TestNaiveStrategyBasics(t *testing.T) {
	u := newUpdater(t, 512, 0, Options{Strategy: Naive, Locator: paged(1500)})
	w := newWorld(555)
	w.populate(t, u, 1200)
	for i := 0; i < 3000; i++ {
		w.move(t, u, 0.05)
	}
	validateAll(t, u)
	checkSearchMatches(t, u, w, 20)
	out := u.Outcomes()
	if out.InLeaf == 0 || out.TopDown == 0 {
		t.Fatalf("naive outcomes = %+v; expected both paths exercised", out)
	}
	if out.Extended+out.Shifted+out.Ascended != 0 {
		t.Fatalf("naive used repair paths it does not have: %+v", out)
	}
	if u.Name() != "NAIVE" {
		t.Fatalf("name = %q", u.Name())
	}
}

func TestParseKind(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Kind
	}{{"TD", TD}, {"td", TD}, {"LBU", LBU}, {"GBU", GBU}, {"gbu", GBU}, {"NAIVE", Naive}} {
		got, err := ParseKind(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseKind(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestGBUDeleteBottomUpCost(t *testing.T) {
	u := newUpdater(t, 1024, 0, Options{Strategy: GBU, Locator: paged(4000)})
	g := u.(*gbuStrategy)
	w := newWorld(444)
	w.populate(t, u, 4000)
	io := g.tree.IO()

	// Find an object in a leaf with slack (no underflow on removal).
	var oid rtree.OID
	found := false
	for _, id := range w.ids {
		leafPage, err := g.loc.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		leaf, err := g.tree.ReadNode(leafPage)
		if err != nil {
			t.Fatal(err)
		}
		if len(leaf.Entries)-1 >= g.tree.MinEntries(0) {
			oid, found = id, true
			break
		}
	}
	if !found {
		t.Skip("no slack leaf at this seed")
	}
	base := io.Snapshot()
	if err := u.Delete(oid, w.pos[oid]); err != nil {
		t.Fatal(err)
	}
	d := io.Snapshot().Sub(base)
	// hash read + leaf read + leaf write + hash write (mapping removal).
	if d.Reads > 3 || d.Writes > 2 {
		t.Fatalf("bottom-up delete cost = %dR+%dW, want <= 3R+2W", d.Reads, d.Writes)
	}
	delete(w.pos, oid)
	if g.tree.Size() != 3999 {
		t.Fatalf("size = %d", g.tree.Size())
	}
	if err := g.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSeedsSweepGBU(t *testing.T) {
	// Fuzz-style: several seeds, moderate workloads, full validation.
	for seed := int64(1); seed <= 5; seed++ {
		u := newUpdater(t, 512, 4, Options{Strategy: GBU, Locator: paged(800)})
		w := newWorld(seed)
		w.populate(t, u, 600)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1200; i++ {
			w.move(t, u, 0.02+0.2*rng.Float64())
		}
		validateAll(t, u)
	}
}
