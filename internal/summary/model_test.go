package summary

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"burtree/internal/buffer"
	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/stats"
)

// mapSummary is the reference the model test compares Structure with:
// the summary kept in hash maps keyed by page id, as Structure kept it
// before its tables became page-indexed arrays. It is an oracle, not a
// second implementation: it exists only here.
type mapSummary struct {
	max       int
	root      pagestore.PageID
	height    int
	level     map[pagestore.PageID]int
	mbr       map[pagestore.PageID]geom.Rect
	children  map[pagestore.PageID][]pagestore.PageID
	parent    map[pagestore.PageID]pagestore.PageID
	leafCount map[pagestore.PageID]int
}

func newMapSummary(maxLeafEntries int) *mapSummary {
	return &mapSummary{
		max:       maxLeafEntries,
		level:     map[pagestore.PageID]int{},
		mbr:       map[pagestore.PageID]geom.Rect{},
		children:  map[pagestore.PageID][]pagestore.PageID{},
		parent:    map[pagestore.PageID]pagestore.PageID{},
		leafCount: map[pagestore.PageID]int{},
	}
}

func (m *mapSummary) NodeWritten(page pagestore.PageID, level int, self geom.Rect, children []pagestore.PageID, count int) {
	if level == 0 {
		m.leafCount[page] = count
		return
	}
	m.level[page], m.mbr[page] = level, self
	old := m.children[page]
	m.children[page] = slices.Clone(children)
	for _, c := range children {
		m.parent[c] = page
	}
	for _, c := range old {
		if m.parent[c] == page && !slices.Contains(children, c) {
			delete(m.parent, c)
		}
	}
}

func (m *mapSummary) NodeFreed(page pagestore.PageID, level int) {
	delete(m.parent, page)
	if level == 0 {
		delete(m.leafCount, page)
		return
	}
	for _, c := range m.children[page] {
		if m.parent[c] == page {
			delete(m.parent, c)
		}
	}
	delete(m.level, page)
	delete(m.mbr, page)
	delete(m.children, page)
}

func (m *mapSummary) RootChanged(root pagestore.PageID, height int) {
	m.root, m.height = root, height
	delete(m.parent, root)
}

func (m *mapSummary) isLeafFull(page pagestore.PageID) bool {
	c, ok := m.leafCount[page]
	return !ok || c >= m.max
}

// findParent is Algorithm 3 over the maps: the ancestor, its level and
// the chain above it, root first.
func (m *mapSummary) findParent(leaf pagestore.PageID, p geom.Point, maxLevel int) (pagestore.PageID, int, []pagestore.PageID) {
	var chain []pagestore.PageID
	for cur := leaf; cur != m.root; cur = m.parent[cur] {
		chain = append(chain, m.parent[cur])
	}
	for i, page := range chain {
		if i+1 > maxLevel {
			break
		}
		if m.mbr[page].ContainsPoint(p) {
			above := slices.Clone(chain[i+1:])
			slices.Reverse(above)
			return page, i + 1, above
		}
	}
	return m.root, m.height - 1, nil
}

func (m *mapSummary) overlapping(level int, q geom.Rect) []pagestore.PageID {
	var out []pagestore.PageID
	for page, l := range m.level {
		if l == level && m.mbr[page].Intersects(q) {
			out = append(out, page)
		}
	}
	slices.Sort(out)
	return out
}

func (m *mapSummary) sizeBytes() int {
	bytes := 0
	for _, kids := range m.children {
		bytes += 8 + 2 + 32 + 8*len(kids)
	}
	return bytes + (len(m.leafCount)+7)/8
}

// modelHarness is one tree whose events reach a Structure and the map
// reference alike, plus the bookkeeping the test's own bottom-up updates
// and its role-recycling check need.
type modelHarness struct {
	t     *testing.T
	tree  *rtree.Tree
	store *pagestore.Store
	sum   *Structure
	ref   *mapSummary

	leafOf map[rtree.OID]pagestore.PageID
	// lastRole is the level a page id was last written at, kept across
	// frees; the two counters are the ids that came back in the other role.
	lastRole               map[pagestore.PageID]int
	leafToNode, nodeToLeaf int
}

func (h *modelHarness) NodeWritten(page pagestore.PageID, level int, self geom.Rect, children []pagestore.PageID, count int) {
	h.sum.NodeWritten(page, level, self, children, count)
	h.ref.NodeWritten(page, level, self, children, count)
	if was, ok := h.lastRole[page]; ok {
		switch {
		case was == 0 && level > 0:
			h.leafToNode++
		case was > 0 && level == 0:
			h.nodeToLeaf++
		}
	}
	h.lastRole[page] = level
}

func (h *modelHarness) NodeFreed(page pagestore.PageID, level int) {
	h.sum.NodeFreed(page, level)
	h.ref.NodeFreed(page, level)
}

func (h *modelHarness) RootChanged(root pagestore.PageID, height int) {
	h.sum.RootChanged(root, height)
	h.ref.RootChanged(root, height)
}

func (h *modelHarness) DataPlaced(oid rtree.OID, leaf pagestore.PageID) { h.leafOf[oid] = leaf }
func (h *modelHarness) DataRemoved(oid rtree.OID)                       { delete(h.leafOf, oid) }

func newModelHarness(t *testing.T, cfg rtree.Config) *modelHarness {
	store := pagestore.New(512, &stats.IO{})
	tr := rtree.New(buffer.New(store, 16), cfg)
	h := &modelHarness{
		t: t, tree: tr, store: store,
		sum:      New(tr.MaxEntries(0)),
		ref:      newMapSummary(tr.MaxEntries(0)),
		leafOf:   map[rtree.OID]pagestore.PageID{},
		lastRole: map[pagestore.PageID]int{},
	}
	tr.SetListener(h)
	return h
}

// compare checks every accessor of the Structure against the reference,
// over every page id the store has handed out and a few beyond; the
// ascents start from the leaves of the sample objects.
func (h *modelHarness) compare(step int, rng *rand.Rand, sample []rtree.OID) {
	t, s, m := h.t, h.sum, h.ref
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: %s", step, fmt.Sprintf(format, args...))
	}
	if root, height := s.Root(); root != m.root || height != m.height {
		fail("Root = (%d,%d), reference (%d,%d)", root, height, m.root, m.height)
	}
	gotMBR, gotOK := s.RootMBR()
	if wantMBR, wantOK := m.mbr[m.root]; gotOK != wantOK || gotMBR != wantMBR {
		fail("RootMBR = %v,%v, reference %v,%v", gotMBR, gotOK, wantMBR, wantOK)
	}
	if in, lf := s.Counts(); in != len(m.level) || lf != len(m.leafCount) {
		fail("Counts = (%d,%d), reference (%d,%d)", in, lf, len(m.level), len(m.leafCount))
	}
	if got, want := s.SizeBytes(), m.sizeBytes(); got != want {
		fail("SizeBytes = %d, reference %d", got, want)
	}
	ids := []pagestore.PageID{pagestore.PageID(h.store.NumAllocated()) + growStep + 2, 1 << 40}
	for id := pagestore.PageID(0); id <= pagestore.PageID(h.store.NumAllocated())+2; id++ {
		ids = append(ids, id)
	}
	for _, id := range ids {
		gotP, gotOK := s.ParentOf(id)
		if wantP, wantOK := m.parent[id]; gotOK != wantOK || gotP != wantP {
			fail("ParentOf(%d) = %d,%v, reference %d,%v", id, gotP, gotOK, wantP, wantOK)
		}
		gotMBR, gotOK := s.MBROf(id)
		if wantMBR, wantOK := m.mbr[id]; gotOK != wantOK || gotMBR != wantMBR {
			fail("MBROf(%d) = %v,%v, reference %v,%v", id, gotMBR, gotOK, wantMBR, wantOK)
		}
		gotC, gotOK := s.LeafCount(id)
		if wantC, wantOK := m.leafCount[id]; gotOK != wantOK || gotC != wantC {
			fail("LeafCount(%d) = %d,%v, reference %d,%v", id, gotC, gotOK, wantC, wantOK)
		}
		if got, want := s.IsLeafFull(id), m.isLeafFull(id); got != want {
			fail("IsLeafFull(%d) = %v, reference %v", id, got, want)
		}
	}
	c := pt(rng)
	q := geom.Rect{MinX: c.X - 0.15, MinY: c.Y - 0.15, MaxX: c.X + 0.15, MaxY: c.Y + 0.15}
	for level := 0; level <= m.height; level++ {
		got := s.OverlappingAtLevel(level, q, nil)
		slices.Sort(got)
		if want := m.overlapping(level, q); !slices.Equal(got, want) {
			fail("OverlappingAtLevel(%d) = %v, reference %v", level, got, want)
		}
	}
	if m.height < 2 {
		return
	}
	for _, oid := range sample {
		leaf := h.leafOf[oid]
		p := pt(rng)
		if oid%2 == 0 {
			// Near the leaf, so low ancestors qualify too.
			pm := m.mbr[m.parent[leaf]].Center()
			p = geom.Point{X: pm.X + (rng.Float64()-0.5)*0.2, Y: pm.Y + (rng.Float64()-0.5)*0.2}
		}
		for maxLevel := 0; maxLevel <= m.height; maxLevel++ {
			res, err := s.FindParent(leaf, p, maxLevel)
			if err != nil {
				fail("FindParent(%d): %v", leaf, err)
			}
			anc, lvl, above := m.findParent(leaf, p, maxLevel)
			if res.Ancestor != anc || res.Level != lvl || !slices.Equal(res.PathAbove(), above) {
				fail("FindParent(%d, %v, %d) = %d at level %d above %v, reference %d at level %d above %v",
					leaf, p, maxLevel, res.Ancestor, res.Level, res.PathAbove(), anc, lvl, above)
			}
		}
	}
}

// bottomUp moves oid the way GBU's ascent does: the entry leaves its
// leaf, and is re-inserted below the ancestor FindParent names, with the
// chain above it for split propagation.
func (h *modelHarness) bottomUp(oid rtree.OID, to geom.Rect, maxLevel int) error {
	tr := h.tree
	leaf, err := tr.ReadNode(h.leafOf[oid])
	if err != nil {
		return err
	}
	li := leaf.FindOID(oid)
	if li < 0 {
		return fmt.Errorf("object %d is not in leaf %d", oid, leaf.Page)
	}
	if tr.Height() < 2 || len(leaf.Entries)-1 < tr.MinEntries(0) {
		return tr.Update(oid, leaf.Entries[li].Rect, to)
	}
	fp, err := h.sum.FindParent(leaf.Page, to.Center(), maxLevel)
	if err != nil {
		return err
	}
	leaf.RemoveEntry(li)
	if err := tr.WriteNode(leaf); err != nil {
		return err
	}
	return tr.InsertEntryAt(fp.PathAbove(), fp.Ancestor, rtree.Entry{Rect: to, OID: oid}, 0)
}

// TestModelAgainstMapSummary drives one tree through growth, churn and
// shrinkage — inserts, deletes with condensing, top-down and bottom-up
// updates, splits, forced reinsertion, root growth and collapse, down to
// empty and up again, so freed page ids come back in the other role —
// and after every step compares every accessor of the Structure with the
// map-keyed reference.
func TestModelAgainstMapSummary(t *testing.T) {
	for _, cfg := range []rtree.Config{{}, {ReinsertFraction: 0.3}} {
		h := newModelHarness(t, cfg)
		rng := rand.New(rand.NewSource(20030909))
		rects := map[rtree.OID]geom.Rect{}
		var live []rtree.OID
		next := rtree.OID(0)
		step := 0
		check := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			var sample []rtree.OID
			for i := 0; i < 3 && len(live) > 0; i++ {
				sample = append(sample, live[rng.Intn(len(live))])
			}
			h.compare(step, rng, sample)
			if step%97 == 0 {
				if err := h.sum.Validate(h.tree); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			step++
		}
		insert := func() {
			r := geom.RectFromPoint(pt(rng))
			rects[next] = r
			live = append(live, next)
			check(h.tree.Insert(next, r))
			next++
		}
		remove := func() {
			i := rng.Intn(len(live))
			oid := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			check(h.tree.Delete(oid, rects[oid]))
			delete(rects, oid)
		}
		move := func() {
			oid := live[rng.Intn(len(live))]
			c := rects[oid].Center()
			to := geom.RectFromPoint(geom.Point{X: c.X + (rng.Float64()-0.5)*0.2, Y: c.Y + (rng.Float64()-0.5)*0.2})
			if rng.Intn(4) == 0 {
				check(h.tree.Update(oid, rects[oid], to))
			} else {
				check(h.bottomUp(oid, to, rng.Intn(h.tree.Height()+1)))
			}
			rects[oid] = to
		}
		// Three waves: grow to a few levels, churn, shrink to nothing.
		for wave := 0; wave < 3; wave++ {
			for len(live) < 700 {
				insert()
			}
			for i := 0; i < 500; i++ {
				switch r := rng.Intn(10); {
				case r < 6:
					move()
				case r < 8:
					insert()
				default:
					remove()
				}
			}
			for len(live) > 0 {
				remove()
			}
		}
		if err := h.sum.Validate(h.tree); err != nil {
			t.Fatal(err)
		}
		if h.leafToNode == 0 || h.nodeToLeaf == 0 {
			t.Fatalf("page ids recycled leaf→internal %d times, internal→leaf %d times: the history does not cover role changes", h.leafToNode, h.nodeToLeaf)
		}
		if h.tree.Height() != 0 {
			t.Fatalf("tree not emptied: height %d", h.tree.Height())
		}
	}
}

// TestReadersRaceWriter runs every read accessor from several goroutines
// while a single writer changes the structure under them. In the first
// leg the writer is a tree that grows and shrinks — the table grows and
// the level arrays are appended to and swap-deleted — and the race
// detector is the judge: the answers only have to be well-formed. In the
// second the writer is the test itself and every answer is checked: each
// node alternates between two known rectangles, each leaf between two
// known parents and two known counts, some page ids between the leaf and
// the internal role, and the table grows chunk by chunk all the while, so
// a reader that saw half of a write, or lost one to the table's growth,
// holds a value nobody ever stored.
func TestReadersRaceWriter(t *testing.T) {
	t.Run("tree", func(t *testing.T) {
		tr, s := newTrackedTree(t, 512, rtree.Config{})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				var buf []pagestore.PageID
				for {
					select {
					case <-stop:
						return
					default:
					}
					id := pagestore.PageID(rng.Intn(400))
					s.ParentOf(id)
					s.MBROf(id)
					s.IsLeafFull(id)
					s.LeafCount(id)
					s.RootMBR()
					s.Counts()
					s.SizeBytes()
					buf = s.OverlappingAtLevel(1, geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.7, MaxY: 0.7}, buf[:0])
					// The chain may be cut mid-restructuring; an error is fine.
					if res, err := s.FindParent(id, pt(rng), 8); err == nil && len(res.PathAbove()) > maxPath {
						t.Errorf("PathAbove of %d entries", len(res.PathAbove()))
						return
					}
				}
			}(r)
		}
		rng := rand.New(rand.NewSource(99))
		rects := map[rtree.OID]geom.Rect{}
		for wave := 0; wave < 2; wave++ {
			for i := 0; i < 1500; i++ {
				oid := rtree.OID(wave*10000 + i)
				rects[oid] = geom.RectFromPoint(pt(rng))
				if err := tr.Insert(oid, rects[oid]); err != nil {
					t.Fatal(err)
				}
			}
			for oid, r := range rects {
				if err := tr.Delete(oid, r); err != nil {
					t.Fatal(err)
				}
				delete(rects, oid)
			}
		}
		close(stop)
		wg.Wait()
		if err := s.Validate(tr); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("known values", func(t *testing.T) {
		// Page 1 is the root, at level 2. The ids from 16 on come in groups
		// of 16: two level-1 nodes, eight leaves that change hands between
		// the two, and one id that is a leaf, then nothing, then a level-1
		// node, then nothing again. No coordinate of one rectangle occurs in
		// the other, and no count of one kind in the other.
		const (
			root      = pagestore.PageID(1)
			groups    = 5 * growStep / 16 // five chunks' worth of ids
			leavesPer = 8
			rounds    = groups + groups/2 // at least
		)
		rectOf := [2]geom.Rect{{MinX: 0.1, MinY: 0.2, MaxX: 0.6, MaxY: 0.7}, {MinX: 0.3, MinY: 0.4, MaxX: 0.8, MaxY: 0.9}}
		countOf := [2]int{3, 7}
		inside := geom.Point{X: 0.5, Y: 0.5} // in both rectangles
		base := func(g int) pagestore.PageID { return pagestore.PageID(16 + 16*g) }
		known := func(r geom.Rect) bool { return r == rectOf[0] || r == rectOf[1] }

		s := New(8)
		var active atomic.Int64 // groups the writer has reached: ids below base(active) may be anything
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					if mbr, ok := s.RootMBR(); ok && !known(mbr) {
						t.Errorf("RootMBR = %v, which nobody stored", mbr)
						return
					}
					// Half the probes go to the groups already there, half
					// anywhere up to the table's final size and a little beyond.
					g := rng.Intn(groups + 2)
					if n := int(active.Load()); n > 0 && rng.Intn(2) == 0 {
						g = rng.Intn(n)
					}
					off := pagestore.PageID(rng.Intn(11))
					id, pa, pb := base(g)+off, base(g), base(g)+1
					mbr, isNode := s.MBROf(id)
					parent, hasParent := s.ParentOf(id)
					count, isLeaf := s.LeafCount(id)
					full := s.IsLeafFull(id)
					if isNode && !known(mbr) {
						t.Errorf("MBROf(%d) = %v, which nobody stored", id, mbr)
						return
					}
					if isLeaf && count != countOf[0] && count != countOf[1] {
						t.Errorf("LeafCount(%d) = %d, which nobody stored", id, count)
						return
					}
					switch {
					case off < 2: // a level-1 node: below the root or not linked yet
						if isLeaf || !full || hasParent && parent != root {
							t.Errorf("node %d: leaf=%v full=%v parent=%d,%v", id, isLeaf, full, parent, hasParent)
							return
						}
					case off < 2+leavesPer: // a leaf: below one of its two parents
						if isNode || hasParent && parent != pa && parent != pb {
							t.Errorf("leaf %d: node=%v parent=%d,%v, want %d or %d", id, isNode, parent, hasParent, pa, pb)
							return
						}
						res, err := s.FindParent(id, inside, 8)
						if err == nil && res.Ancestor != pa && res.Ancestor != pb && res.Ancestor != root {
							t.Errorf("FindParent(%d) = node %d at level %d, want %d, %d or the root", id, res.Ancestor, res.Level, pa, pb)
							return
						}
					default: // the id that changes roles: never anybody's child
						if hasParent || isLeaf && count != countOf[0] {
							t.Errorf("recycled id %d: parent=%d,%v count=%d,%v", id, parent, hasParent, count, isLeaf)
							return
						}
					}
				}
			}(r)
		}

		s.RootChanged(root, 3)
		var below []pagestore.PageID // the root's children
		leaves := make([]pagestore.PageID, leavesPer)
		// Every group is in after groups rounds; the writer then keeps the
		// values changing for a while longer, always ending on a full round.
		last := 0
		for deadline := time.Now().Add(200 * time.Millisecond); !t.Failed() && (last < rounds || time.Now().Before(deadline)); last++ {
			round := last
			// One more group per round until all are in, so the table keeps
			// growing while the groups already there keep changing.
			n := min(round+1, groups)
			if n > len(below)/2 {
				below = append(below, base(n-1), base(n-1)+1)
			}
			for g := 0; g < n; g++ {
				turn := (round + g) % 2
				rect := rectOf[turn]
				winner, loser := base(g)+pagestore.PageID(turn), base(g)+pagestore.PageID(1-turn)
				for i := range leaves {
					leaves[i] = base(g) + 2 + pagestore.PageID(i)
					s.NodeWritten(leaves[i], 0, geom.Rect{}, nil, countOf[turn])
				}
				s.NodeWritten(loser, 1, rect, nil, 0)
				s.NodeWritten(winner, 1, rect, leaves, leavesPer)
				switch x := base(g) + 2 + leavesPer; (round + g) % 4 {
				case 0:
					s.NodeWritten(x, 0, geom.Rect{}, nil, countOf[0])
				case 1:
					s.NodeFreed(x, 0)
				case 2:
					s.NodeWritten(x, 1, rect, nil, 0)
				case 3:
					s.NodeFreed(x, 1)
				}
				// The root, which every reader asks about every time, changes
				// rectangles with every group.
				s.NodeWritten(root, 2, rect, below, len(below))
			}
			active.Store(int64(n))
		}
		close(stop)
		wg.Wait()
		if t.Failed() {
			return // the writer stopped where a reader failed
		}
		s.mu.RLock()
		err := s.validateLevels()
		s.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		// Quiescent, every answer is the last one written.
		for g := 0; g < groups; g++ {
			turn := (last - 1 + g) % 2
			winner := base(g) + pagestore.PageID(turn)
			if mbr, ok := s.MBROf(winner); !ok || mbr != rectOf[turn] {
				t.Fatalf("MBROf(%d) = %v,%v after the run, want %v", winner, mbr, ok, rectOf[turn])
			}
			for i := 0; i < leavesPer; i++ {
				leaf := base(g) + 2 + pagestore.PageID(i)
				if p, ok := s.ParentOf(leaf); !ok || p != winner {
					t.Fatalf("ParentOf(%d) = %d,%v after the run, want %d", leaf, p, ok, winner)
				}
				if c, ok := s.LeafCount(leaf); !ok || c != countOf[turn] {
					t.Fatalf("LeafCount(%d) = %d,%v after the run, want %d", leaf, c, ok, countOf[turn])
				}
			}
		}
	})
}

// TestReadsNeedNoLock: the point reads of the update path return while
// a writer holds the structure's mutex.
func TestReadsNeedNoLock(t *testing.T) {
	s := New(8)
	wide := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	s.RootChanged(5, 2)
	s.NodeWritten(5, 1, wide, []pagestore.PageID{11, 12}, 2)
	s.NodeWritten(11, 0, geom.Rect{}, nil, 8)
	s.NodeWritten(12, 0, geom.Rect{}, nil, 3)

	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan string, 1)
	go func() {
		switch {
		case func() bool { p, ok := s.ParentOf(11); return !ok || p != 5 }():
			done <- "ParentOf"
		case func() bool { r, ok := s.MBROf(5); return !ok || r != wide }():
			done <- "MBROf"
		case func() bool { r, ok := s.RootMBR(); return !ok || r != wide }():
			done <- "RootMBR"
		case !s.IsLeafFull(11) || s.IsLeafFull(12):
			done <- "IsLeafFull"
		case func() bool { c, ok := s.LeafCount(12); return !ok || c != 3 }():
			done <- "LeafCount"
		case func() bool {
			res, err := s.FindParent(12, geom.Point{X: 0.5, Y: 0.5}, 1)
			return err != nil || res.Ancestor != 5
		}():
			done <- "FindParent"
		default:
			done <- ""
		}
	}()
	select {
	case wrong := <-done:
		if wrong != "" {
			t.Fatalf("%s answered wrongly with the mutex held", wrong)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a point read is waiting for the structure's mutex")
	}
}
