package concurrent

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"burtree/internal/buffer"
	"burtree/internal/core"
	"burtree/internal/dgl"
	"burtree/internal/geom"
	"burtree/internal/hashindex"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/stats"
)

// refuseEveryTry makes newDB build databases whose optimistic lock
// attempts are all refused: TestBlockingProtocolAlone sets it to run the
// package's concurrency tests on the fallback protocol alone.
var refuseEveryTry bool

func newDB(t testing.TB, kind core.Kind, n int) (*DB, []geom.Point) {
	t.Helper()
	store := pagestore.New(1024, &stats.IO{})
	pool := buffer.New(store, 64)
	// The bottom-up kinds run over the paper's paged hash index, as the
	// experiments' throughput study does.
	var loc core.Locator
	if kind != core.TD {
		loc = hashindex.New(pool, n)
	}
	u, err := core.New(pool, core.Options{Strategy: kind, Locator: loc, Tree: rtree.Config{ReinsertFraction: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	db := New(u, 16)
	db.refuseTry = refuseEveryTry
	rng := rand.New(rand.NewSource(5))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		if err := db.Insert(rtree.OID(i), pos[i]); err != nil {
			t.Fatal(err)
		}
	}
	return db, pos
}

func TestCellMapping(t *testing.T) {
	db := New(nil, 4)
	if c := db.cellOf(geom.Point{X: 0, Y: 0}); c != 1 {
		t.Fatalf("cell(0,0) = %d, want 1", c)
	}
	if c := db.cellOf(geom.Point{X: 0.99, Y: 0.99}); int(c) != 1+3*4+3 {
		t.Fatalf("cell(.99,.99) = %d", c)
	}
	// Out-of-square positions clamp to edge cells.
	if c := db.cellOf(geom.Point{X: -5, Y: 2}); int(c) != 1+3*4+0 {
		t.Fatalf("cell(-5,2) = %d", c)
	}
	// The rect spans x cells 0-1 and y cells 0-1 at N=4: four granules,
	// each read in S, and nothing on the tree.
	set := db.readSet(nil, geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.4, MaxY: 0.3})
	if len(set) != 4 {
		t.Fatalf("lock set of rect = %v", set)
	}
	for i, r := range set {
		if r.Mode != dgl.S || r.G == TreeGranule || (i > 0 && r.G <= set[i-1].G) {
			t.Fatalf("lock set not S on ascending cells: %v", set)
		}
	}
}

// TestConcurrentMixedLoad races local writers, exclusive sections (an
// insert of a fresh id and its delete) and window reads, then checks the
// size, the invariants and every position against the model.
func TestConcurrentMixedLoad(t *testing.T) {
	for _, kind := range []core.Kind{core.TD, core.GBU} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const n = 1500
			db, pos := newDB(t, kind, n)
			var oidLocks [64]sync.Mutex
			var wg sync.WaitGroup
			const workers, rounds = 8, 150
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + w)))
					for i := 0; i < rounds; i++ {
						switch r := rng.Float64(); {
						case r < 0.1:
							// A fresh id, inserted and deleted again:
							// two exclusive sections.
							oid := n + w*rounds + i
							lk := &oidLocks[oid%len(oidLocks)]
							lk.Lock()
							p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
							err := db.Insert(rtree.OID(oid), p)
							if err == nil {
								err = db.Delete(rtree.OID(oid), p)
							}
							lk.Unlock()
							if err != nil {
								t.Error(err)
								return
							}
						case r < 0.55:
							oid := rng.Intn(n)
							lk := &oidLocks[oid%len(oidLocks)]
							lk.Lock()
							old := pos[oid]
							np := geom.Point{X: old.X + (rng.Float64()-0.5)*0.05, Y: old.Y + (rng.Float64()-0.5)*0.05}
							if err := db.Update(rtree.OID(oid), old, np); err != nil {
								t.Error(err)
								lk.Unlock()
								return
							}
							pos[oid] = np
							lk.Unlock()
						default:
							x, y := rng.Float64(), rng.Float64()
							q := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.05, MaxY: y + 0.05}
							if _, err := db.Query(q); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if db.Updater().Tree().Size() != n {
				t.Fatalf("size = %d, want %d", db.Updater().Tree().Size(), n)
			}
			checkAgainstModel(t, db, pos)
			s := db.Stats()
			if s.Updates == 0 || s.Queries == 0 {
				t.Fatalf("stats = %+v", s)
			}
			if s.Timeouts > s.Updates/10 {
				t.Fatalf("excessive lock timeouts: %+v", s)
			}
		})
	}
}

func TestQueryCountsMatchAfterQuiescence(t *testing.T) {
	const n = 800
	db, pos := newDB(t, core.GBU, n)
	// Serial correctness check through the locked interface.
	q := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6}
	want := 0
	for _, p := range pos {
		if q.ContainsPoint(p) {
			want++
		}
	}
	got, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("query = %d, want %d", got, want)
	}
}

func TestInsertDeleteUnderLocks(t *testing.T) {
	db, _ := newDB(t, core.GBU, 200)
	p := geom.Point{X: 0.5, Y: 0.5}
	if err := db.Insert(9999, p); err != nil {
		t.Fatal(err)
	}
	if db.Updater().Tree().Size() != 201 {
		t.Fatalf("size after insert = %d", db.Updater().Tree().Size())
	}
	if err := db.Delete(9999, p); err != nil {
		t.Fatal(err)
	}
	if db.Updater().Tree().Size() != 200 {
		t.Fatalf("size after delete = %d", db.Updater().Tree().Size())
	}
}

func TestTDAlwaysEscalates(t *testing.T) {
	db, pos := newDB(t, core.TD, 300)
	for i := 0; i < 50; i++ {
		old := pos[i]
		np := geom.Point{X: old.X + 0.01, Y: old.Y}
		if err := db.Update(rtree.OID(i), old, np); err != nil {
			t.Fatal(err)
		}
		pos[i] = np
	}
	s := db.Stats()
	if s.Local != 0 || s.Escalated != 50 {
		t.Fatalf("TD stats = %+v; every update must escalate", s)
	}
}

func TestGBUMostlyLocalUnderLocality(t *testing.T) {
	db, pos := newDB(t, core.GBU, 2000)
	for i := 0; i < 400; i++ {
		old := pos[i]
		np := geom.Point{X: old.X + 0.001, Y: old.Y + 0.001}
		if err := db.Update(rtree.OID(i), old, np); err != nil {
			t.Fatal(err)
		}
		pos[i] = np
	}
	s := db.Stats()
	if s.Local < 300 {
		t.Fatalf("GBU local = %d of 400 tiny moves; want most local (%+v)", s.Local, s)
	}
	if err := db.Updater().Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchUpdateUnderConcurrency mixes batched updates, per-object
// updates and queries from many goroutines, then checks invariants and
// the batched-resolution accounting after quiescence.
func TestBatchUpdateUnderConcurrency(t *testing.T) {
	for _, kind := range []core.Kind{core.TD, core.LBU, core.GBU} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const n = 2000
			db, pos := newDB(t, kind, n)
			var mu sync.Mutex // guards pos

			const workers = 8
			var wg sync.WaitGroup
			var firstErr error
			var errOnce sync.Once
			fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(900 + w)))
					for round := 0; round < 10; round++ {
						switch {
						case w%4 == 3: // one in four workers queries
							c := geom.Point{X: rng.Float64(), Y: rng.Float64()}
							if _, err := db.Query(geom.Rect{MinX: c.X, MinY: c.Y, MaxX: c.X + 0.05, MaxY: c.Y + 0.05}); err != nil {
								fail(err)
								return
							}
						default:
							// Each worker owns a disjoint id range: as with
							// Update, concurrent moves of the same object
							// require caller-side serialization.
							lo, hi := w*n/workers, (w+1)*n/workers
							batch := make([]core.BatchChange, 0, 40)
							mu.Lock()
							seen := map[rtree.OID]bool{}
							for len(batch) < 40 {
								oid := rtree.OID(lo + rng.Intn(hi-lo))
								if seen[oid] {
									continue // UpdateBatch expects coalesced input
								}
								seen[oid] = true
								old := pos[oid]
								np := geom.Point{
									X: old.X + (rng.Float64()*2-1)*0.02,
									Y: old.Y + (rng.Float64()*2-1)*0.02,
								}
								batch = append(batch, core.BatchChange{OID: oid, Old: old, New: np})
							}
							mu.Unlock()
							st, err := db.UpdateBatch(batch, func(c core.BatchChange) {
								mu.Lock()
								pos[c.OID] = c.New
								mu.Unlock()
							})
							if err != nil {
								fail(err)
								return
							}
							if st.Changes != len(batch) {
								fail(fmt.Errorf("%v: batch applied %d of %d", kind, st.Changes, len(batch)))
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			if firstErr != nil {
				t.Fatal(firstErr)
			}

			u := db.Updater()
			if err := u.Err(); err != nil {
				t.Fatalf("sticky error: %v", err)
			}
			if err := u.Tree().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if u.Tree().Size() != n {
				t.Fatalf("tree size %d, want %d", u.Tree().Size(), n)
			}
			// Every tracked position must be findable where we think it is.
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < 50; i++ {
				p := pos[rtree.OID(i)]
				got, err := db.Query(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
				if err != nil {
					t.Fatal(err)
				}
				if got == 0 {
					t.Fatalf("object %d not found at %v", i, p)
				}
			}
			st := db.Stats()
			if kind == core.TD {
				if st.Batched != 0 {
					t.Fatalf("TD reported %d batched resolutions", st.Batched)
				}
			} else if st.Batched == 0 {
				t.Fatalf("%v resolved nothing under leaf-group locks: %+v", kind, st)
			}
		})
	}
}

// positions reads every stored object back through a whole-space Search.
func positions(t *testing.T, db *DB) map[rtree.OID]geom.Point {
	t.Helper()
	got := map[rtree.OID]geom.Point{}
	all := geom.Rect{MinX: -100, MinY: -100, MaxX: 100, MaxY: 100}
	err := db.Search(all, func(oid rtree.OID, r geom.Rect) bool {
		if _, dup := got[oid]; dup {
			t.Errorf("object %d stored twice", oid)
		}
		got[oid] = geom.Point{X: r.MinX, Y: r.MinY}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func checkAgainstModel(t *testing.T, db *DB, model []geom.Point) {
	t.Helper()
	if err := db.Updater().Err(); err != nil {
		t.Fatalf("sticky error: %v", err)
	}
	if err := db.Updater().Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := positions(t, db)
	if len(got) != len(model) {
		t.Fatalf("index holds %d objects, model %d", len(got), len(model))
	}
	for oid, want := range model {
		if got[rtree.OID(oid)] != want {
			t.Fatalf("object %d at %v, model says %v", oid, got[rtree.OID(oid)], want)
		}
	}
}

// TestBatchWritersOverlappingLeaves runs two UpdateBatch callers whose
// ids interleave — every leaf holds objects of both, so their leaf runs
// contend for the same page granules — beside Search and Nearest
// readers, and checks the final positions against a sequential model.
// Lock waits are short (a run, or one residue section), so no request
// may come near its timeout.
func TestBatchWritersOverlappingLeaves(t *testing.T) {
	for _, kind := range []core.Kind{core.LBU, core.GBU} {
		t.Run(kind.String(), func(t *testing.T) {
			const n, writers, rounds, size = 1200, 2, 6, 96
			db, model := newDB(t, kind, n)

			stop := make(chan struct{})
			var readers, wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					rng := rand.New(rand.NewSource(int64(40 + r)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						c := geom.Point{X: rng.Float64(), Y: rng.Float64()}
						if _, err := db.Query(geom.Rect{MinX: c.X, MinY: c.Y, MaxX: c.X + 0.1, MaxY: c.Y + 0.1}); err != nil {
							t.Error(err)
							return
						}
						if _, err := db.Nearest(c, 5); err != nil {
							t.Error(err)
							return
						}
					}
				}(r)
			}
			// Writer w owns the ids congruent to w: model entries are
			// written by one goroutine each and read after the join.
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(70 + w)))
					for round := 0; round < rounds; round++ {
						batch := make([]core.BatchChange, 0, size)
						for _, i := range rng.Perm(n / writers)[:size] {
							oid := i*writers + w
							old, step := model[oid], 0.02
							if rng.Intn(8) == 0 {
								step = 0.5 // far enough to need an ascent
							}
							batch = append(batch, core.BatchChange{OID: rtree.OID(oid), Old: old, New: geom.Point{
								X: old.X + (rng.Float64()*2-1)*step,
								Y: old.Y + (rng.Float64()*2-1)*step,
							}})
						}
						applied := 0
						st, err := db.UpdateBatch(batch, func(c core.BatchChange) {
							model[c.OID] = c.New
							applied++
						})
						if err != nil {
							t.Error(err)
							return
						}
						if st.Changes != len(batch) || applied != len(batch) {
							t.Errorf("batch of %d: stats report %d applied, done ran %d times", len(batch), st.Changes, applied)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			readers.Wait()
			if t.Failed() {
				return
			}
			checkAgainstModel(t, db, model)
			s := db.Stats()
			if s.Timeouts != 0 {
				t.Fatalf("lock requests timed out: %+v", s)
			}
			if s.Updates != writers*rounds*size || s.Local+s.Escalated != s.Updates || s.Batched != s.Local {
				t.Fatalf("update accounting does not add up: %+v", s)
			}
		})
	}
}

// TestBatchOfFarJumpsIsAllResidue: no leaf run can hold a jump out of
// the root MBR, so every change is declined by its run and applied in
// the exclusive sections — several of them, the batch being larger than
// one — while the leaf groups are still formed and counted.
func TestBatchOfFarJumpsIsAllResidue(t *testing.T) {
	const n = 600
	db, model := newDB(t, core.GBU, n)
	rng := rand.New(rand.NewSource(3))
	batch := make([]core.BatchChange, 0, 3*residueSection)
	for _, oid := range rng.Perm(n)[:cap(batch)] {
		batch = append(batch, core.BatchChange{OID: rtree.OID(oid), Old: model[oid],
			New: geom.Point{X: 2 + rng.Float64(), Y: 2 + rng.Float64()}})
	}
	ga := db.Updater().(core.GroupApplier)
	var plan core.Plan
	core.PlanBatch(&plan, db.Updater(), ga, batch)
	groups := len(plan.Runs)

	before := db.Stats()
	st, err := db.UpdateBatch(batch, func(c core.BatchChange) { model[c.OID] = c.New })
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != groups || st.Changes != len(batch) || st.Sequential != len(batch) || st.GroupResolved+st.LocalFallback != 0 {
		t.Fatalf("batch stats %+v, want %d groups and all %d changes sequential", st, groups, len(batch))
	}
	after := db.Stats()
	if got := after.Escalated - before.Escalated; got != int64(len(batch)) || after.Batched != before.Batched || after.Local != before.Local {
		t.Fatalf("escalated %d of %d (stats %+v)", got, len(batch), after)
	}
	checkAgainstModel(t, db, model)
}

// TestStaleRunMemberJoinsResidue: an object that leaves its leaf after
// the batch was planned, before its run's locks are granted, is declined
// by the run (its entry is gone from the leaf) and applied with the
// residue, re-resolved through the locator.
func TestStaleRunMemberJoinsResidue(t *testing.T) {
	for _, kind := range []core.Kind{core.LBU, core.GBU} {
		t.Run(kind.String(), func(t *testing.T) {
			const n = 600
			db, model := newDB(t, kind, n)
			ga := db.Updater().(core.GroupApplier)
			batch := make([]core.BatchChange, n/2)
			for i := range batch {
				old := model[i]
				batch[i] = core.BatchChange{OID: rtree.OID(i), Old: old, New: geom.Point{X: old.X + 0.001, Y: old.Y + 0.001}}
			}
			var plan core.Plan
			core.PlanBatch(&plan, db.Updater(), ga, batch)
			var run core.LeafRun
			for _, r := range plan.Runs {
				if len(r.Changes) > len(run.Changes) {
					run = r
				}
			}
			if len(run.Changes) < 2 {
				t.Fatalf("no leaf run with two members among %d runs", len(plan.Runs))
			}

			// Another writer moves one member far away in the meantime.
			stale := run.Changes[0]
			away := geom.Point{X: 3, Y: 3}
			if err := db.Update(stale.OID, stale.Old, away); err != nil {
				t.Fatal(err)
			}
			if leaf, err := ga.LeafOf(stale.OID); err != nil || leaf == run.Leaf {
				t.Fatalf("object %d still resolves to leaf %d (err %v); the jump did not move it", stale.OID, run.Leaf, err)
			}

			var st core.BatchStats
			done := func(c core.BatchChange) { model[c.OID] = c.New }
			txn := db.begin()
			residue, err := db.applyGroup(ga, txn, run, nil, &st, done)
			db.end(txn)
			if err != nil {
				t.Fatal(err)
			}
			if len(residue) != 1 || residue[0] != stale {
				t.Fatalf("residue = %v, want only the stale member %v", residue, stale)
			}
			if st.Changes != len(run.Changes)-1 {
				t.Fatalf("run resolved %d of %d members", st.Changes, len(run.Changes))
			}
			if err := db.applyResidue(residue, &st, done); err != nil {
				t.Fatal(err)
			}
			if st.Changes != len(run.Changes) || st.Sequential != 1 {
				t.Fatalf("after the residue: %+v", st)
			}
			checkAgainstModel(t, db, model)
		})
	}
}

// TestRefusedTryFallsBack: a leaf run whose optimistic attempt is turned
// away — one of its cells is held by a reader, or a Nearest's shared
// request for the tree is queued ahead of it — waits its turn on the
// blocking protocol and is then applied exactly once, and the refusal is
// counted as a retry.
func TestRefusedTryFallsBack(t *testing.T) {
	obstacles := []struct {
		name string
		// put stands in the run's way and returns what steps aside again;
		// queued is the number of requests it leaves waiting in the table.
		put func(t *testing.T, db *DB, run core.LeafRun) (queued int, undo func())
	}{
		{"cell held", func(t *testing.T, db *DB, run core.LeafRun) (int, func()) {
			reader := db.lm.Begin()
			if err := db.lm.Acquire(reader, db.cellOf(run.Changes[0].Old), dgl.S, 0); err != nil {
				t.Fatal(err)
			}
			return 0, func() { db.lm.ReleaseAll(reader) }
		}},
		{"S(tree) queued", func(t *testing.T, db *DB, run core.LeafRun) (int, func()) {
			// A local writer's IX admits the run's IX; the Nearest parked
			// behind the writer — the one request the library queues on
			// the tree granule — is what the try may not overtake.
			writer := db.lm.Begin()
			if err := db.lm.Acquire(writer, TreeGranule, dgl.IX, 0); err != nil {
				t.Fatal(err)
			}
			parked := make(chan error, 1)
			go func() {
				_, err := db.Nearest(run.Changes[0].Old, 1)
				parked <- err
			}()
			waitForWaiters(t, db, 1)
			return 1, func() {
				db.lm.ReleaseAll(writer)
				if err := <-parked; err != nil {
					t.Error(err)
				}
			}
		}},
	}
	for _, kind := range []core.Kind{core.LBU, core.GBU} {
		for _, ob := range obstacles {
			t.Run(kind.String()+"/"+ob.name, func(t *testing.T) {
				const n = 600
				db, model := newDB(t, kind, n)
				ga := db.Updater().(core.GroupApplier)
				batch := make([]core.BatchChange, n/2)
				for i := range batch {
					old := model[i]
					batch[i] = core.BatchChange{OID: rtree.OID(i), Old: old, New: geom.Point{X: old.X + 0.001, Y: old.Y + 0.001}}
				}
				var run core.LeafRun
				var plan core.Plan
				core.PlanBatch(&plan, db.Updater(), ga, batch)
				for _, r := range plan.Runs {
					if len(r.Changes) > len(run.Changes) {
						run = r
					}
				}
				if len(run.Changes) < 2 {
					t.Fatal("no leaf run with two members")
				}

				queued, undo := ob.put(t, db, run)
				before := db.Stats()
				applied := map[rtree.OID]int{}
				var st core.BatchStats
				var residue []core.BatchChange
				finished := make(chan error, 1)
				done := func(c core.BatchChange) {
					applied[c.OID]++
					model[c.OID] = c.New
				}
				go func() {
					txn := db.begin()
					defer db.end(txn)
					var err error
					residue, err = db.applyGroup(ga, txn, run, nil, &st, done)
					finished <- err
				}()
				// The run is waiting in a queue now, not applied and not failed.
				waitForWaiters(t, db, queued+1)
				select {
				case err := <-finished:
					t.Fatalf("the run got past the obstacle (err %v)", err)
				default:
				}
				undo()
				if err := <-finished; err != nil {
					t.Fatal(err)
				}

				// Most of the tiny moves stay in the leaf; whatever does not is
				// the residue's, and no change is anybody's twice.
				if st.Changes == 0 || st.Changes+len(residue) != len(run.Changes) {
					t.Fatalf("run of %d tiny moves: %d resolved, residue %v", len(run.Changes), st.Changes, residue)
				}
				if err := db.applyResidue(residue, &st, done); err != nil {
					t.Fatal(err)
				}
				for _, c := range run.Changes {
					if applied[c.OID] != 1 {
						t.Fatalf("change of object %d reported done %d times", c.OID, applied[c.OID])
					}
				}
				after := db.Stats()
				if got := after.Retries - before.Retries; got != 1 || after.Timeouts != before.Timeouts {
					t.Fatalf("retries went up by %d, timeouts by %d; want the one refusal and no timeout", got, after.Timeouts-before.Timeouts)
				}
				checkAgainstModel(t, db, model)
				if s := db.lm.Stats(); s.Granules != 0 || s.Waiters != 0 {
					t.Fatalf("lock table not empty after the run: %+v", s)
				}
			})
		}
	}
}

// TestBlockedWaitsHoldNoLatch parks each operation's blocking
// acquisition behind a granule another owner holds, and requires the
// latch to be free while the operation waits: a waiter holding the
// latch, shared or exclusive, keeps the holder of its granule out of the
// exclusive section that holder may be about to enter, and the two wait
// for each other. Every optimistic try is refused, so each operation
// runs the blocking protocol. The obstacle is X on the tree, or X on the
// object's cell or on its leaf page beside an IX on the tree. Only the
// operations that take granules are parked, and only behind a granule
// they take: the reads on their cell, and all but Search on the tree;
// and the updates of a kind that applies at the leaf (GBU), which alone
// lock pages. TD's updates, Insert, Delete and Exclusive are exclusive
// sections and wait for no granule (TestExclusiveSectionsTakeNoGranule).
func TestBlockedWaitsHoldNoLatch(t *testing.T) {
	const n = 200
	const oid = rtree.OID(0)
	ops := []struct {
		name  string
		write bool // an update: it locks the object's leaf page, and only on GBU
		tree  bool // it locks the tree granule: all but a window read
		run   func(db *DB, at geom.Point) error
	}{
		{"Update", true, true, func(db *DB, at geom.Point) error { return db.Update(oid, at, nudge(at)) }},
		{"UpdateBatch", true, true, func(db *DB, at geom.Point) error {
			_, err := db.UpdateBatch([]core.BatchChange{{OID: oid, Old: at, New: nudge(at)}}, nil)
			return err
		}},
		{"Search", false, false, func(db *DB, at geom.Point) error {
			return db.Search(geom.Rect{MinX: at.X, MinY: at.Y, MaxX: at.X, MaxY: at.Y}, func(rtree.OID, geom.Rect) bool { return true })
		}},
		{"Nearest", false, true, func(db *DB, at geom.Point) error {
			_, err := db.Nearest(at, 1)
			return err
		}},
		{"NearestFunc", false, true, func(db *DB, at geom.Point) error {
			return db.NearestFunc(at, func(rtree.Neighbor) bool { return false })
		}},
	}
	obstacles := []struct {
		name    string
		tree    bool // stops only the operations that lock the tree
		pages   bool // stops only the operations that lock pages
		granule func(t *testing.T, db *DB, at geom.Point) dgl.GranuleID
	}{
		{"X(tree)", true, false, func(*testing.T, *DB, geom.Point) dgl.GranuleID { return TreeGranule }},
		{"X(cell)", false, false, func(_ *testing.T, db *DB, at geom.Point) dgl.GranuleID { return db.cellOf(at) }},
		{"X(leaf page)", false, true, func(t *testing.T, db *DB, _ geom.Point) dgl.GranuleID {
			leaf, err := db.Updater().(core.GroupApplier).LeafOf(oid)
			if err != nil {
				t.Fatal(err)
			}
			return db.pageGranule(leaf)
		}},
	}
	for _, kind := range []core.Kind{core.TD, core.GBU} {
		for _, ob := range obstacles {
			for _, op := range ops {
				if (op.write && kind == core.TD) || (ob.tree && !op.tree) || (ob.pages && !op.write) {
					continue
				}
				t.Run(kind.String()+"/"+ob.name+"/"+op.name, func(t *testing.T) {
					db, pos := newDB(t, kind, n)
					db.refuseTry = true
					at := pos[oid]
					holder := hold(t, db, ob.granule(t, db, at))
					done := make(chan error, 1)
					go func() { done <- op.run(db, at) }()
					waitForWaiters(t, db, 1)
					if db.latch.TryLock() {
						db.latch.Unlock()
					} else {
						t.Errorf("%s waits for a granule with the latch held", op.name)
					}
					db.lm.ReleaseAll(holder)
					if err := <-done; err != nil {
						t.Fatal(err)
					}
					if s := db.lm.Stats(); s.Granules != 0 || s.Waiters != 0 {
						t.Fatalf("lock table not empty after the run: %+v", s)
					}
				})
			}
		}
	}
}

// TestSearchPassesAQueuedNearest: a window read asks for S on its cells
// and nothing on the tree, so it does not queue behind a Nearest that is
// itself queued for S on the tree. A local writer holds IX on the tree
// and X on the cell at (0.05, 0.05); a Nearest waits for the tree behind
// it; a Search of [0.8, 0.9]², far from the writer's cell, must return
// its objects at once, tried or waited for, with the Nearest still
// parked. Were the read to ask for the tree, it would queue behind the
// Nearest until the Nearest timed out, lockTimeout later.
func TestSearchPassesAQueuedNearest(t *testing.T) {
	q := geom.Rect{MinX: 0.8, MinY: 0.8, MaxX: 0.9, MaxY: 0.9}
	for _, kind := range []core.Kind{core.TD, core.GBU} {
		for _, refuse := range []bool{false, true} {
			name := kind.String() + "/tried"
			if refuse {
				name = kind.String() + "/blocking"
			}
			t.Run(name, func(t *testing.T) {
				db, pos := newDB(t, kind, 400)
				db.refuseTry = refuse
				want := 0
				for _, p := range pos {
					if q.ContainsPoint(p) {
						want++
					}
				}
				writer := hold(t, db, db.cellOf(geom.Point{X: 0.05, Y: 0.05}))
				parked := make(chan error, 1)
				go func() {
					_, err := db.Nearest(geom.Point{X: 0.5, Y: 0.5}, 1)
					parked <- err
				}()
				waitForWaiters(t, db, 1)

				start := time.Now()
				got, err := db.Query(q)
				elapsed := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				if elapsed > lockTimeout/4 {
					t.Errorf("Search returned after %v behind a queued Nearest, want well inside lockTimeout %v", elapsed, lockTimeout)
				}
				t.Logf("Search returned in %v", elapsed)
				if got != want {
					t.Errorf("Search found %d objects, want %d", got, want)
				}
				select {
				case err := <-parked:
					t.Fatalf("the Nearest returned (err %v) with the writer's IX(tree) still held", err)
				default:
				}
				if s := db.lm.Stats(); s.Waiters != 1 {
					t.Fatalf("lock table %+v after the Search, want the Nearest still queued", s)
				}
				db.lm.ReleaseAll(writer)
				if err := <-parked; err != nil {
					t.Fatal(err)
				}
				if s := db.lm.Stats(); s.Granules != 0 || s.Waiters != 0 {
					t.Fatalf("lock table not empty after the run: %+v", s)
				}
			})
		}
	}
}

// TestExclusiveSectionsTakeNoGranule: Insert, Delete, Exclusive and the
// residue (all of TD's updates) take the exclusive latch alone. With
// another owner holding X on the tree, or IX on the tree and X on the
// object's cell, each returns before a deadline without asking the lock
// table for anything, and the holder's granules are as it left them.
func TestExclusiveSectionsTakeNoGranule(t *testing.T) {
	const n = 200
	const oid = rtree.OID(0)
	ops := []struct {
		name   string
		tdOnly bool // an update: an exclusive section on TD alone
		run    func(db *DB, at geom.Point) error
	}{
		{"Insert", false, func(db *DB, at geom.Point) error { return db.Insert(n, at) }},
		{"Delete", false, func(db *DB, at geom.Point) error { return db.Delete(oid, at) }},
		{"Exclusive", false, func(db *DB, _ geom.Point) error {
			return db.Exclusive(func(core.Updater) error { return nil })
		}},
		{"Update", true, func(db *DB, at geom.Point) error { return db.Update(oid, at, nudge(at)) }},
		{"UpdateBatch", true, func(db *DB, at geom.Point) error {
			_, err := db.UpdateBatch([]core.BatchChange{{OID: oid, Old: at, New: nudge(at)}}, nil)
			return err
		}},
	}
	obstacles := []struct {
		name    string
		granule func(db *DB, at geom.Point) dgl.GranuleID
	}{
		{"X(tree)", func(*DB, geom.Point) dgl.GranuleID { return TreeGranule }},
		{"X(cell)", func(db *DB, at geom.Point) dgl.GranuleID { return db.cellOf(at) }},
	}
	for _, kind := range []core.Kind{core.TD, core.GBU} {
		for _, ob := range obstacles {
			for _, op := range ops {
				if op.tdOnly && kind != core.TD {
					continue
				}
				t.Run(kind.String()+"/"+ob.name+"/"+op.name, func(t *testing.T) {
					db, pos := newDB(t, kind, n)
					db.refuseTry = true
					at := pos[oid]
					g := ob.granule(db, at)
					holder := hold(t, db, g)
					held := db.lm.Stats()
					done := make(chan error, 1)
					go func() { done <- op.run(db, at) }()
					select {
					case err := <-done:
						if err != nil {
							t.Fatal(err)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("%s still waits 5 s behind %s, which it does not need", op.name, ob.name)
					}
					if s := db.lm.Stats(); s != held {
						t.Fatalf("lock table %+v after the section, %+v before", s, held)
					}
					if m, ok := holder.Held(g); !ok || m != dgl.X {
						t.Fatalf("holder's %s is now %v (held %v)", ob.name, m, ok)
					}
					if g != TreeGranule {
						if m, ok := holder.Held(TreeGranule); !ok || m != dgl.IX {
							t.Fatalf("holder's IX(tree) is now %v (held %v)", m, ok)
						}
					}
					db.lm.ReleaseAll(holder)
					if err := db.Updater().Tree().CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func nudge(p geom.Point) geom.Point { return geom.Point{X: p.X + 0.001, Y: p.Y + 0.001} }

// hold makes another lock owner take X on g, beside IX on the tree when g
// is not the tree, and returns it.
func hold(t *testing.T, db *DB, g dgl.GranuleID) *dgl.Txn {
	t.Helper()
	holder := db.lm.Begin()
	if g != TreeGranule {
		if err := db.lm.Acquire(holder, TreeGranule, dgl.IX, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.lm.Acquire(holder, g, dgl.X, 0); err != nil {
		t.Fatal(err)
	}
	return holder
}

func waitForWaiters(t *testing.T, db *DB, waiters int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); db.lm.Stats().Waiters != waiters; {
		if time.Now().After(deadline) {
			t.Fatalf("lock table never reached %d waiters: %+v", waiters, db.lm.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBlockingProtocolAlone runs the package's concurrency tests with
// every optimistic attempt refused: the fallback is the whole protocol
// then, as it was before there was a try, and has to carry them alone.
func TestBlockingProtocolAlone(t *testing.T) {
	refuseEveryTry = true
	defer func() { refuseEveryTry = false }()
	t.Run("MixedLoad", TestConcurrentMixedLoad)
	t.Run("BatchUpdate", TestBatchUpdateUnderConcurrency)
	t.Run("OverlappingLeaves", TestBatchWritersOverlappingLeaves)
	t.Run("StaleRunMember", TestStaleRunMemberJoinsResidue)
	t.Run("FarJumps", TestBatchOfFarJumpsIsAllResidue)
	t.Run("MostlyLocal", TestGBUMostlyLocalUnderLocality)
}
