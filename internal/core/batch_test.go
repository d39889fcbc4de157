package core

import (
	"slices"
	"testing"

	"burtree/internal/geom"
	"burtree/internal/rtree"
)

func TestCoalesce(t *testing.T) {
	p := func(x float64) geom.Point { return geom.Point{X: x, Y: x} }
	in := []BatchChange{
		{OID: 1, Old: p(0.1), New: p(0.2)},
		{OID: 2, Old: p(0.5), New: p(0.6)},
		{OID: 1, Old: p(0.2), New: p(0.3)},
		{OID: 1, Old: p(0.3), New: p(0.4)},
	}
	out, dropped := Coalesce(in)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if len(out) != 2 {
		t.Fatalf("len = %d, want 2", len(out))
	}
	// First-occurrence order, first Old, last New.
	if out[0].OID != 1 || out[0].Old != p(0.1) || out[0].New != p(0.4) {
		t.Fatalf("coalesced change 0 = %+v", out[0])
	}
	if out[1].OID != 2 || out[1].Old != p(0.5) || out[1].New != p(0.6) {
		t.Fatalf("coalesced change 1 = %+v", out[1])
	}
	if len(in) != 4 || in[0].New != p(0.2) {
		t.Fatal("Coalesce modified its input")
	}
	if out2, d2 := Coalesce(nil); len(out2) != 0 || d2 != 0 {
		t.Fatalf("Coalesce(nil) = %v, %d", out2, d2)
	}
}

// batchMoves draws one batch of random bounded moves (with intentional
// object repeats), returning the raw change list; the world's positions
// are NOT advanced — the caller applies via done.
func (w *world) batchMoves(size int, maxDist float64) []BatchChange {
	shadow := make(map[rtree.OID]geom.Point, size)
	changes := make([]BatchChange, 0, size)
	for i := 0; i < size; i++ {
		oid := w.ids[w.rng.Intn(len(w.ids))]
		old, ok := shadow[oid]
		if !ok {
			old = w.pos[oid]
		}
		np := geom.Point{
			X: old.X + (w.rng.Float64()*2-1)*maxDist,
			Y: old.Y + (w.rng.Float64()*2-1)*maxDist,
		}
		changes = append(changes, BatchChange{OID: oid, Old: old, New: np})
		shadow[oid] = np
	}
	return changes
}

// TestApplyBatchMatchesOracle drives every strategy through the batch
// pipeline with randomized workloads (including repeated moves of the
// same object within a batch) and checks invariants, hash and summary
// consistency, and query results against a positional oracle after
// every batch.
func TestApplyBatchMatchesOracle(t *testing.T) {
	for _, opts := range append(allStrategies(), Options{Strategy: Naive, Locator: paged(2000)}) {
		opts := opts
		t.Run(opts.Strategy.String(), func(t *testing.T) {
			u := newUpdater(t, 1024, 16, opts)
			w := newWorld(int64(500 + int(opts.Strategy)))
			w.populate(t, u, 1200)
			for round := 0; round < 12; round++ {
				maxDist := 0.01
				if round%3 == 2 {
					maxDist = 0.2 // force shifts, ascents and top-down work
				}
				raw := w.batchMoves(150, maxDist)
				changes, _ := Coalesce(raw)
				st, err := ApplyBatch(u, changes, func(c BatchChange) {
					w.pos[c.OID] = c.New
				})
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if st.Changes != len(changes) {
					t.Fatalf("round %d: applied %d of %d changes", round, st.Changes, len(changes))
				}
				if got := st.GroupResolved + st.LocalFallback + st.Sequential; got != st.Changes {
					t.Fatalf("round %d: resolution counts %d do not sum to %d (%+v)", round, got, st.Changes, st)
				}
				validateAll(t, u)
				checkSearchMatches(t, u, w, 10)
			}
		})
	}
}

// TestApplyBatchStats checks the resolution accounting: bottom-up
// strategies must resolve tiny-move batches through the group pass,
// while TD (no GroupApplier) runs everything sequentially.
func TestApplyBatchStats(t *testing.T) {
	for _, opts := range allStrategies() {
		opts := opts
		t.Run(opts.Strategy.String(), func(t *testing.T) {
			u := newUpdater(t, 1024, 16, opts)
			w := newWorld(7)
			w.populate(t, u, 1500)
			changes, _ := Coalesce(w.batchMoves(400, 0.002))
			st, err := ApplyBatch(u, changes, func(c BatchChange) { w.pos[c.OID] = c.New })
			if err != nil {
				t.Fatal(err)
			}
			if opts.Strategy == TD {
				if st.Groups != 0 || st.GroupResolved != 0 || st.Sequential != st.Changes {
					t.Fatalf("TD stats = %+v", st)
				}
				return
			}
			if st.Groups == 0 || st.Groups > len(changes) {
				t.Fatalf("groups = %d for %d changes", st.Groups, len(changes))
			}
			if st.GroupResolved == 0 {
				t.Fatalf("no changes resolved by the group pass: %+v", st)
			}
			if st.Sequential != 0 {
				t.Fatalf("bottom-up strategy fell back to the plain path: %+v", st)
			}
			out := u.Outcomes()
			if out.InLeaf == 0 {
				t.Fatalf("tiny moves recorded no in-leaf outcomes: %+v", out)
			}
		})
	}
}

// TestBatchSharesLeafAccesses is the pipeline's reason to exist: two
// updates landing in the same leaf must cost fewer page accesses
// batched than sequential. A height-2 tree with co-located objects
// makes the sharing deterministic.
func TestBatchSharesLeafAccesses(t *testing.T) {
	build := func() (Updater, *world) {
		u := newUpdater(t, 1024, 0, Options{Strategy: GBU, Locator: paged(256)})
		w := newWorld(11)
		w.populate(t, u, 200)
		return u, w
	}

	// Pick two objects stored in the same leaf.
	u, w := build()
	g := u.(*gbuStrategy)
	leafA, err := g.LeafOf(0)
	if err != nil {
		t.Fatal(err)
	}
	var partner rtree.OID
	found := false
	for oid := rtree.OID(1); oid < 200; oid++ {
		pg, err := g.LeafOf(oid)
		if err != nil {
			t.Fatal(err)
		}
		if pg == leafA {
			partner, found = oid, true
			break
		}
	}
	if !found {
		t.Skip("no co-located pair (degenerate layout)")
	}
	mkChanges := func(w *world) []BatchChange {
		return []BatchChange{
			{OID: 0, Old: w.pos[0], New: w.pos[0]},
			{OID: partner, Old: w.pos[partner], New: w.pos[partner]},
		}
	}

	io := u.Tree().IO()
	before := io.Snapshot()
	if _, err := ApplyBatch(u, mkChanges(w), nil); err != nil {
		t.Fatal(err)
	}
	batched := io.Snapshot().Sub(before).Total()

	u2, w2 := build()
	io2 := u2.Tree().IO()
	before = io2.Snapshot()
	for _, c := range mkChanges(w2) {
		if err := u2.Update(c.OID, c.Old, c.New); err != nil {
			t.Fatal(err)
		}
	}
	sequential := io2.Snapshot().Sub(before).Total()

	if batched >= sequential {
		t.Fatalf("batched same-leaf pair cost %d accesses, sequential cost %d", batched, sequential)
	}
}

// raceEnabled is set under the race detector (race_test.go), which makes
// sync.Pool drop a quarter of what it is handed: an allocation count is
// then a matter of chance.
var raceEnabled bool

// TestLBUBatchAllocatesNothing: once warm, LBU's batch pass over the
// in-memory map allocates nothing — plan, group passes, ε-enlargements,
// sibling shifts and top-down fallbacks alike. The batches are drawn and
// coalesced before the count, one window of 256 moves each.
func TestLBUBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are a matter of chance under the race detector")
	}
	u := newUpdater(t, 1024, 256, Options{Strategy: LBU, Tree: rtree.Config{ReinsertFraction: 0.3}})
	w := newWorld(7)
	w.populate(t, u, 4096)
	const warm, runs = 8, 20
	batches := make([][]BatchChange, warm+runs+1)
	for i := range batches {
		batches[i], _ = Coalesce(w.batchMoves(256, 0.03))
		for _, c := range batches[i] {
			w.pos[c.OID] = c.New
		}
	}
	next := 0
	apply := func() {
		if _, err := ApplyBatch(u, batches[next], nil); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range warm {
		apply()
	}
	before := u.Outcomes()
	allocs := testing.AllocsPerRun(runs, apply)
	if after := u.Outcomes(); after.Extended == before.Extended || after.Shifted == before.Shifted || after.TopDown == before.TopDown {
		t.Fatalf("the batches extended %d leaves, shifted %d objects and went top-down %d times: a path went unexercised",
			after.Extended-before.Extended, after.Shifted-before.Shifted, after.TopDown-before.TopDown)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per LBU batch of %d moves; want 0", allocs, len(batches[warm]))
	}
	validateAll(t, u)
	checkSearchMatches(t, u, w, 10)
}

// TestPlanningReusesItsBuffers: coalescing and planning batch after batch
// through one Coalescer and one Plan allocates nothing once their buffers
// have grown to a batch, and gives what the fresh forms give.
func TestPlanningReusesItsBuffers(t *testing.T) {
	u := newUpdater(t, 1024, 16, Options{Strategy: GBU})
	w := newWorld(11)
	w.populate(t, u, 1500)
	ga := u.(GroupApplier)
	raw := w.batchMoves(256, 0.01)

	var co Coalescer
	var plan Plan
	changes, _ := co.Coalesce(raw)
	PlanBatch(&plan, u, ga, changes)
	allocs := testing.AllocsPerRun(20, func() {
		changes, _ = co.Coalesce(raw)
		PlanBatch(&plan, u, ga, changes)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per coalesce and plan of %d changes into reused buffers; want 0", allocs, len(raw))
	}

	want, wantDropped := Coalesce(raw)
	got, dropped := co.Coalesce(raw)
	if !slices.Equal(got, want) || dropped != wantDropped {
		t.Fatalf("Coalescer gives %d changes (%d dropped), Coalesce %d (%d dropped)", len(got), dropped, len(want), wantDropped)
	}
	var fresh Plan
	PlanBatch(&fresh, u, ga, want)
	PlanBatch(&plan, u, ga, got)
	if len(plan.Runs) != len(fresh.Runs) || len(plan.Loose) != len(fresh.Loose) || len(plan.Residue) != 0 {
		t.Fatalf("reused plan: %d runs, %d loose, %d residue; fresh plan: %d runs, %d loose",
			len(plan.Runs), len(plan.Loose), len(plan.Residue), len(fresh.Runs), len(fresh.Loose))
	}
	for i, r := range plan.Runs {
		if f := fresh.Runs[i]; r.Leaf != f.Leaf || r.first != f.first || !slices.Equal(r.Changes, f.Changes) {
			t.Fatalf("run %d: reused plan has leaf %d with %d changes, fresh plan leaf %d with %d", i, r.Leaf, len(r.Changes), f.Leaf, len(f.Changes))
		}
	}
}
