package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"burtree/internal/buffer"
	"burtree/internal/geom"
	"burtree/internal/hashindex"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/stats"
)

func newUpdater(t testing.TB, pageSize, bufferPages int, opts Options) Updater {
	t.Helper()
	store := pagestore.New(pageSize, &stats.IO{})
	pool := buffer.New(store, bufferPages)
	u, err := New(pool, bind(pool, opts))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// pagedHash is a test row's request for the paper's paged hash index
// (Figure 2) sized for n objects, the locator whose page accesses the
// exact-I/O tests count. It is a placeholder with no working methods:
// bind replaces it with a hash index over the pool the row's strategy is
// built on.
type pagedHash struct {
	Locator
	n int
}

func paged(n int) Locator { return pagedHash{n: n} }

// bind returns opts with a pagedHash placeholder replaced by
// hashindex.New over pool.
func bind(pool *buffer.Pool, opts Options) Options {
	if p, ok := opts.Locator.(pagedHash); ok {
		opts.Locator = hashindex.New(pool, p.n)
	}
	return opts
}

// world tracks object positions and drives random movement.
type world struct {
	rng *rand.Rand
	pos map[rtree.OID]geom.Point
	ids []rtree.OID
}

func newWorld(seed int64) *world {
	return &world{rng: rand.New(rand.NewSource(seed)), pos: map[rtree.OID]geom.Point{}}
}

func (w *world) populate(t *testing.T, u Updater, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := geom.Point{X: w.rng.Float64(), Y: w.rng.Float64()}
		oid := rtree.OID(i)
		if err := u.Insert(oid, p); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		w.pos[oid] = p
		w.ids = append(w.ids, oid)
	}
}

// move performs one random bounded move of a random object.
func (w *world) move(t *testing.T, u Updater, maxDist float64) {
	t.Helper()
	oid := w.ids[w.rng.Intn(len(w.ids))]
	old := w.pos[oid]
	np := geom.Point{
		X: old.X + (w.rng.Float64()*2-1)*maxDist,
		Y: old.Y + (w.rng.Float64()*2-1)*maxDist,
	}
	if err := u.Update(oid, old, np); err != nil {
		t.Fatalf("update %d %v -> %v: %v", oid, old, np, err)
	}
	w.pos[oid] = np
}

func (w *world) searchOracle(q geom.Rect) []rtree.OID {
	var out []rtree.OID
	for oid, p := range w.pos {
		if q.ContainsPoint(p) {
			out = append(out, oid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func checkSearchMatches(t *testing.T, u Updater, w *world, queries int) {
	t.Helper()
	for i := 0; i < queries; i++ {
		c := geom.Point{X: w.rng.Float64(), Y: w.rng.Float64()}
		size := w.rng.Float64() * 0.1
		q := geom.Rect{MinX: c.X, MinY: c.Y, MaxX: c.X + size, MaxY: c.Y + size}
		var got []rtree.OID
		if err := u.Search(q, func(oid rtree.OID, _ geom.Rect) bool {
			got = append(got, oid)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		want := w.searchOracle(q)
		if len(got) != len(want) {
			t.Fatalf("%s query %v: got %d results, want %d", u.Name(), q, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s query %v: result %d = %d, want %d", u.Name(), q, j, got[j], want[j])
			}
		}
	}
}

func validateAll(t *testing.T, u Updater) {
	t.Helper()
	if err := u.Err(); err != nil {
		t.Fatalf("%s sticky error: %v", u.Name(), err)
	}
	if err := u.Tree().CheckInvariants(); err != nil {
		t.Fatalf("%s invariants: %v", u.Name(), err)
	}
	if err := checkLocator(u); err != nil {
		t.Fatalf("%s locator: %v", u.Name(), err)
	}
	if g, ok := u.(*gbuStrategy); ok {
		if err := g.sum.Validate(g.tree); err != nil {
			t.Fatalf("GBU summary: %v", err)
		}
	}
}

func allStrategies() []Options {
	return []Options{
		{Strategy: TD, Tree: rtree.Config{ReinsertFraction: 0.3}},
		{Strategy: LBU, Tree: rtree.Config{ReinsertFraction: 0.3}, Locator: paged(2000)},
		{Strategy: GBU, Tree: rtree.Config{ReinsertFraction: 0.3}, Locator: paged(2000)},
	}
}

func TestStrategiesRandomMovement(t *testing.T) {
	for _, opts := range allStrategies() {
		opts := opts
		t.Run(opts.Strategy.String(), func(t *testing.T) {
			u := newUpdater(t, 512, 16, opts)
			w := newWorld(101)
			const n = 1000
			w.populate(t, u, n)
			validateAll(t, u)
			for step := 0; step < 4000; step++ {
				w.move(t, u, 0.03)
				if step%971 == 0 {
					validateAll(t, u)
				}
			}
			validateAll(t, u)
			if u.Tree().Size() != n {
				t.Fatalf("size = %d, want %d", u.Tree().Size(), n)
			}
			checkSearchMatches(t, u, w, 40)
			out := u.Outcomes()
			if out.Total() != 4000 {
				t.Fatalf("outcomes total = %d, want 4000 (%+v)", out.Total(), out)
			}
		})
	}
}

func TestStrategiesFastMovement(t *testing.T) {
	// Large moves force the non-local paths: ascents and top-down
	// fallbacks must still preserve all invariants.
	for _, opts := range allStrategies() {
		opts := opts
		t.Run(opts.Strategy.String(), func(t *testing.T) {
			u := newUpdater(t, 512, 0, opts)
			w := newWorld(202)
			w.populate(t, u, 600)
			for step := 0; step < 2500; step++ {
				w.move(t, u, 0.3)
				if step%733 == 0 {
					validateAll(t, u)
				}
			}
			validateAll(t, u)
			checkSearchMatches(t, u, w, 30)
		})
	}
}

func TestGBUOutcomeMixUnderLocality(t *testing.T) {
	u := newUpdater(t, 512, 0, Options{Strategy: GBU, Locator: paged(2000)})
	w := newWorld(303)
	w.populate(t, u, 1500)
	const moves = 5000
	for step := 0; step < moves; step++ {
		w.move(t, u, 0.01) // strong locality
	}
	validateAll(t, u)
	out := u.Outcomes()
	local := out.InLeaf + out.Extended + out.Shifted
	if frac := float64(local) / float64(moves); frac < 0.7 {
		t.Fatalf("local resolutions = %.2f of updates, want >= 0.7 (%+v)", frac, out)
	}
	if out.TopDown > moves/10 {
		t.Fatalf("top-down fallbacks = %d, want < 10%% (%+v)", out.TopDown, out)
	}
}

func TestGBULevelThresholdZero(t *testing.T) {
	// λ = 0 disables ascent: no update may resolve as "ascended" below
	// the root... ascents still count, but they must all target the root.
	u := newUpdater(t, 512, 0, Options{Strategy: GBU, LevelThreshold: LevelThresholdZero, Locator: paged(1000)})
	w := newWorld(404)
	w.populate(t, u, 800)
	for step := 0; step < 3000; step++ {
		w.move(t, u, 0.1)
	}
	validateAll(t, u)
	checkSearchMatches(t, u, w, 20)
}

func TestGBULevelThresholdSweepStaysValid(t *testing.T) {
	for _, lambda := range []int{LevelThresholdZero, 1, 2, 3, UnrestrictedLevels} {
		u := newUpdater(t, 512, 0, Options{Strategy: GBU, LevelThreshold: lambda, Locator: paged(1000)})
		w := newWorld(505)
		w.populate(t, u, 700)
		for step := 0; step < 1500; step++ {
			w.move(t, u, 0.08)
		}
		validateAll(t, u)
		checkSearchMatches(t, u, w, 10)
	}
}

func TestGBUDistanceThresholdOrdersPaths(t *testing.T) {
	// δ = 3 (larger than any possible move) forces extend-first; δ = 0
	// forces shift-first. Both must remain correct; the shift-first run
	// should resolve at least as many updates by shifting.
	shiftFirst := newUpdater(t, 512, 0, Options{Strategy: GBU, DistanceThreshold: 1e-12, Locator: paged(1000)})
	extendFirst := newUpdater(t, 512, 0, Options{Strategy: GBU, DistanceThreshold: 3, Locator: paged(1000)})
	for _, u := range []Updater{shiftFirst, extendFirst} {
		w := newWorld(606)
		w.populate(t, u, 800)
		for step := 0; step < 2500; step++ {
			w.move(t, u, 0.05)
		}
		validateAll(t, u)
	}
	sf, ef := shiftFirst.Outcomes(), extendFirst.Outcomes()
	if sf.Shifted < ef.Shifted {
		t.Fatalf("shift-first shifted %d < extend-first %d", sf.Shifted, ef.Shifted)
	}
	if ef.Extended < sf.Extended {
		t.Fatalf("extend-first extended %d < shift-first %d", ef.Extended, sf.Extended)
	}
}

func TestGBUPiggybackAblation(t *testing.T) {
	with := newUpdater(t, 512, 0, Options{Strategy: GBU, Locator: paged(1000)})
	without := newUpdater(t, 512, 0, Options{Strategy: GBU, NoPiggyback: true, Locator: paged(1000)})
	for _, u := range []Updater{with, without} {
		w := newWorld(707)
		w.populate(t, u, 800)
		for step := 0; step < 2500; step++ {
			w.move(t, u, 0.05)
		}
		validateAll(t, u)
	}
	if without.Outcomes().Piggyback != 0 {
		t.Fatalf("NoPiggyback still carried %d passengers", without.Outcomes().Piggyback)
	}
	if with.Outcomes().Shifted > 0 && with.Outcomes().Piggyback == 0 {
		t.Log("note: no piggyback passengers occurred despite shifts (workload-dependent)")
	}
}

func TestGBUSummaryQueryMatchesPlain(t *testing.T) {
	u := newUpdater(t, 512, 0, Options{Strategy: GBU, Locator: paged(1500)})
	g := u.(*gbuStrategy)
	w := newWorld(808)
	w.populate(t, u, 1200)
	for step := 0; step < 2000; step++ {
		w.move(t, u, 0.05)
	}
	validateAll(t, u)
	for i := 0; i < 50; i++ {
		c := geom.Point{X: w.rng.Float64(), Y: w.rng.Float64()}
		size := w.rng.Float64() * 0.15
		q := geom.Rect{MinX: c.X, MinY: c.Y, MaxX: c.X + size, MaxY: c.Y + size}
		var viaSummary, viaPlain []rtree.OID
		if err := g.Search(q, func(oid rtree.OID, _ geom.Rect) bool {
			viaSummary = append(viaSummary, oid)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := g.tree.Search(q, func(oid rtree.OID, _ geom.Rect) bool {
			viaPlain = append(viaPlain, oid)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(viaSummary, func(i, j int) bool { return viaSummary[i] < viaSummary[j] })
		sort.Slice(viaPlain, func(i, j int) bool { return viaPlain[i] < viaPlain[j] })
		if len(viaSummary) != len(viaPlain) {
			t.Fatalf("query %v: summary %d results, plain %d", q, len(viaSummary), len(viaPlain))
		}
		for j := range viaPlain {
			if viaSummary[j] != viaPlain[j] {
				t.Fatalf("query %v: result %d differs", q, j)
			}
		}
	}
}

func TestGBUSummaryQuerySavesInternalReads(t *testing.T) {
	u := newUpdater(t, 512, 0, Options{Strategy: GBU, Locator: paged(3000)})
	g := u.(*gbuStrategy)
	w := newWorld(909)
	w.populate(t, u, 2500)
	if g.tree.Height() < 3 {
		t.Fatalf("height = %d, want >= 3 for this test", g.tree.Height())
	}
	io := g.tree.IO()
	q := geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.5, MaxY: 0.5}

	base := io.Snapshot()
	if err := g.tree.Search(q, func(rtree.OID, geom.Rect) bool { return true }); err != nil {
		t.Fatal(err)
	}
	plain := io.Snapshot().Sub(base).Reads

	base = io.Snapshot()
	if err := g.Search(q, func(rtree.OID, geom.Rect) bool { return true }); err != nil {
		t.Fatal(err)
	}
	assisted := io.Snapshot().Sub(base).Reads

	if assisted >= plain {
		t.Fatalf("summary-assisted query reads %d >= plain %d", assisted, plain)
	}
}

func TestGBUUpdateBeatsTDOnIO(t *testing.T) {
	// The headline claim: on a locality-preserving workload without a
	// buffer, GBU's average update I/O must be well below TD's.
	// Locality is relative to leaf extent: with 3000 points a leaf spans
	// roughly 0.07 of the unit square, so moves of 0.01 mostly stay local,
	// mirroring the paper's default (moves of 0.03 against 1M points).
	run := func(opts Options) float64 {
		u := newUpdater(t, 1024, 0, opts)
		w := newWorld(111)
		w.populate(t, u, 3000)
		io := u.Tree().IO()
		base := io.Snapshot()
		const moves = 3000
		for i := 0; i < moves; i++ {
			w.move(t, u, 0.01)
		}
		validateAll(t, u)
		return float64(io.Snapshot().Sub(base).Total()) / moves
	}
	td := run(Options{Strategy: TD, Tree: rtree.Config{ReinsertFraction: 0.3}})
	gbu := run(Options{Strategy: GBU, Tree: rtree.Config{ReinsertFraction: 0.3}, Locator: paged(3000)})
	if gbu >= td*0.7 {
		t.Fatalf("GBU avg update I/O %.2f not clearly below TD %.2f", gbu, td)
	}
}

func TestStrategyInsertDeleteLifecycle(t *testing.T) {
	for _, opts := range allStrategies() {
		opts := opts
		t.Run(opts.Strategy.String(), func(t *testing.T) {
			u := newUpdater(t, 512, 8, opts)
			w := newWorld(121)
			w.populate(t, u, 600)
			// Delete half, move the rest, re-insert new ones.
			for i := 0; i < 300; i++ {
				oid := rtree.OID(i)
				if err := u.Delete(oid, w.pos[oid]); err != nil {
					t.Fatalf("delete %d: %v", i, err)
				}
				delete(w.pos, oid)
			}
			w.ids = w.ids[300:]
			for step := 0; step < 1000; step++ {
				w.move(t, u, 0.05)
			}
			for i := 600; i < 900; i++ {
				p := geom.Point{X: w.rng.Float64(), Y: w.rng.Float64()}
				if err := u.Insert(rtree.OID(i), p); err != nil {
					t.Fatal(err)
				}
				w.pos[rtree.OID(i)] = p
				w.ids = append(w.ids, rtree.OID(i))
			}
			validateAll(t, u)
			if u.Tree().Size() != 600 {
				t.Fatalf("size = %d, want 600", u.Tree().Size())
			}
			checkSearchMatches(t, u, w, 20)
		})
	}
}

func TestUpdateUnknownObject(t *testing.T) {
	for _, opts := range allStrategies() {
		u := newUpdater(t, 512, 0, opts)
		w := newWorld(131)
		w.populate(t, u, 50)
		err := u.Update(9999, geom.Point{X: 0.5, Y: 0.5}, geom.Point{X: 0.6, Y: 0.6})
		if err == nil {
			t.Fatalf("%s: update of unknown object succeeded", u.Name())
		}
	}
}

func TestKindString(t *testing.T) {
	if TD.String() != "TD" || LBU.String() != "LBU" || GBU.String() != "GBU" {
		t.Fatal("kind names wrong")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestNewUnknownStrategy(t *testing.T) {
	store := pagestore.New(512, &stats.IO{})
	pool := buffer.New(store, 0)
	if _, err := New(pool, Options{Strategy: Kind(99)}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestLBUUsesParentPointers(t *testing.T) {
	u := newUpdater(t, 512, 0, Options{Strategy: LBU, Locator: paged(500)})
	if !u.Tree().Config().ParentPointers {
		t.Fatal("LBU tree must have parent pointers")
	}
	// TD and GBU must not pay for them.
	td := newUpdater(t, 512, 0, Options{Strategy: TD})
	gbu := newUpdater(t, 512, 0, Options{Strategy: GBU})
	if td.Tree().Config().ParentPointers || gbu.Tree().Config().ParentPointers {
		t.Fatal("TD/GBU trees must not have parent pointers")
	}
}

func TestGBUInLeafUpdateCost(t *testing.T) {
	// Paper cost analysis, case 1: an in-leaf update costs exactly 3 I/O
	// with no buffer — one hash-index read, one leaf read, one leaf
	// write. The in-memory locator drops the hash read. Move an object to
	// the center of its own leaf MBR so the in-leaf path is guaranteed.
	for _, memory := range []bool{false, true} {
		opts := Options{Strategy: GBU}
		if !memory {
			opts.Locator = paged(4000)
		}
		u := newUpdater(t, 1024, 0, opts)
		g := u.(*gbuStrategy)
		w := newWorld(141)
		w.populate(t, u, 4000)
		io := g.tree.IO()
		wantReads := int64(2)
		if memory {
			wantReads = 1
		}

		for trial := 0; trial < 25; trial++ {
			oid := w.ids[w.rng.Intn(len(w.ids))]
			leafPage, err := g.loc.Lookup(oid)
			if err != nil {
				t.Fatal(err)
			}
			leaf, err := g.tree.ReadNode(leafPage)
			if err != nil {
				t.Fatal(err)
			}
			target := leaf.Self.Center()
			base := io.Snapshot()
			if err := u.Update(oid, w.pos[oid], target); err != nil {
				t.Fatal(err)
			}
			w.pos[oid] = target
			d := io.Snapshot().Sub(base)
			if d.Reads != wantReads || d.Writes != 1 {
				t.Fatalf("memory locator %v: in-leaf update cost = %dR+%dW, want %dR+1W", memory, d.Reads, d.Writes, wantReads)
			}
		}
		validateAll(t, u)
	}
}

// checkLocator verifies a bottom-up strategy's locator against its tree
// with one walk over the leaves: every leaf entry's locator entry names
// that leaf, and the locator holds no other id. Strategies without a
// locator (TD) pass. It is only meaningful at a quiescent point.
func checkLocator(u Updater) error {
	l, ok := u.(located)
	if !ok {
		return nil
	}
	loc, mapped := l.locator(), 0
	err := ForEachLeafEntry(u.Tree(), func(leaf pagestore.PageID, e rtree.Entry) error {
		oid := e.OID
		at, err := loc.Lookup(oid)
		switch {
		case err != nil:
			return fmt.Errorf("core: object %d in leaf %d has no locator entry: %w", oid, leaf, err)
		case at != leaf:
			return fmt.Errorf("core: object %d is in leaf %d, its locator entry names %d", oid, leaf, at)
		}
		mapped++
		return nil
	})
	if err != nil {
		return err
	}
	if n := loc.Size(); n != mapped {
		return fmt.Errorf("core: locator maps %d ids, the tree's leaves hold %d", n, mapped)
	}
	return nil
}
