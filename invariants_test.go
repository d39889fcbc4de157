package burtree

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"burtree/internal/core"
	"burtree/internal/rtree"
	"burtree/internal/wal"
)

// TestCheckInvariantsCatchesStaleEntry moves objects in the tree behind
// the object table's back, so that every size still matches: the one
// invariant walk under all three front-ends compares the leaf entries
// with the table one by one and must fail. (A size-only comparison
// passes every row.) The Map rows leave the tree and the positions alone
// and plant a stale placement through a stack's view of the table, by the
// tree's own placement events: a record naming the wrong leaf, an id the
// tree does not hold, and a lost placement. The Record rows write a record
// directly: a wrong leaf, and — on four shards — a wrong stack, which
// names a tree that does not hold the object and leaves the one that does
// with a copy no record and no delta accounts for.
func TestCheckInvariantsCatchesStaleEntry(t *testing.T) {
	quadrants := ShardOptions{Shards: 4}
	// (0.1,0.1) and (0.2,0.2) share the first of the four uniform ranges
	// (the lower-left quadrant); (0.9,0.9) lies in another.
	a, near, far := Point{X: 0.1, Y: 0.1}, Point{X: 0.2, Y: 0.2}, Point{X: 0.9, Y: 0.9}
	// plant reports a placement to s's view that the tree did not make.
	plant := func(s *treeStack, event func(*rtree.Tree)) func() error {
		return func() error {
			return s.tree.Exclusive(func(u core.Updater) error { event(u.Tree()); return nil })
		}
	}
	// edit rewrites object 1's record in x's table.
	edit := func(x *index, change func(*record)) func() error {
		return func() error {
			st := x.stripe(1)
			st.mu.Lock()
			r := st.records[1]
			change(&r)
			st.records[1] = r
			st.mu.Unlock()
			return nil
		}
	}
	rows := []struct {
		name  string
		open  func(t *testing.T) (idx walFailureIndex, stale func() error)
		wants string
	}{
		{"Index", func(t *testing.T) (walFailureIndex, func() error) {
			x := openTest(t, GeneralizedBottomUp)
			return x, func() error { return x.shards[0].tree.Update(1, a, near) }
		}, "the object table says"},
		{"ConcurrentIndex", func(t *testing.T) (walFailureIndex, func() error) {
			x := openConcurrentTest(t, GeneralizedBottomUp)
			return x, func() error { return x.shards[0].tree.Update(1, a, near) }
		}, "the object table says"},
		{"ShardedSameShard", func(t *testing.T) (walFailureIndex, func() error) {
			x := openShardedTest(t, GeneralizedBottomUp, quadrants)
			return x, func() error { return x.shards[x.router.ShardOf(a)].tree.Update(1, a, near) }
		}, "the object table says"},
		{"ShardedSwapped", func(t *testing.T) (walFailureIndex, func() error) {
			x := openShardedTest(t, GeneralizedBottomUp, quadrants)
			// Objects 1 and 2 trade shards, each keeping the position the
			// table has for it: every stack's size is what it was.
			return x, func() error {
				sa, sb := x.shards[x.router.ShardOf(a)], x.shards[x.router.ShardOf(far)]
				if err := relocate(sa, sb, 1, a, a); err != nil {
					return err
				}
				return relocate(sb, sa, 2, far, far)
			}
		}, "does not route to"},
		{"MapWrongLeaf", func(t *testing.T) (walFailureIndex, func() error) {
			x := openTest(t, GeneralizedBottomUp)
			return x, plant(x.shards[0], func(tr *rtree.Tree) { tr.NotifyDataPlaced(1, tr.Root()+1000) })
		}, "its locator entry names"},
		{"MapExtraID", func(t *testing.T) (walFailureIndex, func() error) {
			x := openConcurrentTest(t, GeneralizedBottomUp)
			return x, plant(x.shards[0], func(tr *rtree.Tree) { tr.NotifyDataPlaced(3, tr.Root()) })
		}, "locator maps 3 ids"},
		{"MapLostEntry", func(t *testing.T) (walFailureIndex, func() error) {
			x := openShardedTest(t, GeneralizedBottomUp, quadrants)
			return x, plant(x.shards[x.router.ShardOf(a)], func(tr *rtree.Tree) { tr.NotifyDataRemoved(1) })
		}, "has no locator entry"},
		{"RecordWrongLeaf", func(t *testing.T) (walFailureIndex, func() error) {
			x := openConcurrentTest(t, GeneralizedBottomUp)
			return x, edit(x.index, func(r *record) { r.leaf++ })
		}, "its locator entry names"},
		{"RecordWrongStack", func(t *testing.T) (walFailureIndex, func() error) {
			x := openShardedTest(t, GeneralizedBottomUp, quadrants)
			return x, edit(x.index, func(r *record) { r.stack = uint16(x.router.ShardOf(far)) + 1 })
		}, "its record names stack"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			x, stale := row.open(t)
			defer x.Close()
			if err := x.Insert(1, a); err != nil {
				t.Fatal(err)
			}
			if err := x.Insert(2, far); err != nil {
				t.Fatal(err)
			}
			if err := x.CheckInvariants(); err != nil {
				t.Fatalf("before: %v", err)
			}
			if err := stale(); err != nil {
				t.Fatal(err)
			}
			if err := x.CheckInvariants(); err == nil || !strings.Contains(err.Error(), row.wants) {
				t.Fatalf("CheckInvariants with a stale entry: %v, want an error containing %q", err, row.wants)
			}
		})
	}
}

// TestShardedWriteRunsPipelineOnce counts, through stageProbe, how often a
// call enters the pipeline, on every front-end and tier: every write —
// Insert, Update and Delete, whichever shards they touch, and a batch,
// however many shards it spreads over — is one index.write. Routing is a
// stage of the one pipeline, not a second pipeline nested in the first;
// and there is no second table for one to run on: a tree stack holds no
// object table, no gate and no log.
func TestShardedWriteRunsPipelineOnce(t *testing.T) {
	stack := reflect.TypeOf(treeStack{})
	for i := 0; i < stack.NumField(); i++ {
		switch f := stack.Field(i); f.Type {
		case reflect.TypeOf(objectTable{}), reflect.TypeOf(sync.RWMutex{}), reflect.TypeOf((*wal.Log)(nil)):
			t.Errorf("treeStack.%s is a %v: table, gate and log exist once per index, above the stacks", f.Name, f.Type)
		}
	}

	counts := map[string]int{}
	stageProbe = func(stage string) { counts[stage]++ } // calls below are sequential
	defer func() { stageProbe = nil }()
	// Quadrants of the four shards, and a second point in the first.
	corners := []Point{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.1}, {X: 0.1, Y: 0.9}, {X: 0.9, Y: 0.9}}
	near := Point{X: 0.2, Y: 0.2}
	for _, fe := range walFailureFrontEnds[:3] {
		for _, tier := range []Memtable{{}, {Enabled: true, MaxObjects: 1 << 20}} {
			x, err := fe.open(Options{Strategy: GeneralizedBottomUp, BufferPages: 64, ExpectedObjects: 256, Memtable: tier})
			if err != nil {
				t.Fatal(err)
			}
			ix := indexOf(x)
			defer x.Close()
			owners := map[int]bool{}
			for _, p := range corners {
				owners[ix.router.ShardOf(p)] = true
			}
			if len(owners) != len(ix.shards) || ix.router.ShardOf(near) != ix.router.ShardOf(corners[0]) {
				t.Fatalf("%s: the test's points do not fall one corner per shard, with %v beside %v", fe.name, near, corners[0])
			}
			crossShard := min(len(ix.shards)-1, 1) // the batch's one move out of a third shard, when there is one
			calls := []struct {
				name string
				call func() error
			}{
				{"Insert", func() error { return x.Insert(1, corners[0]) }},
				{"Insert2", func() error { return x.Insert(2, corners[1]) }},
				{"Insert3", func() error { return x.Insert(3, corners[2]) }},
				{"UpdateSameShard", func() error { return x.Update(1, near) }},
				{"UpdateCrossShard", func() error { return x.Update(1, corners[3]) }},
				{"UpdateBatch", func() error {
					// In-shard moves in two shards, a cross-shard move out of a
					// third, and a repeated id for the coalesce to drop.
					res, err := x.UpdateBatch([]Change{
						{ID: 2, To: Point{X: 0.8, Y: 0.2}}, {ID: 3, To: Point{X: 0.2, Y: 0.8}},
						{ID: 1, To: near}, {ID: 1, To: corners[0]},
					})
					if err == nil && (res.Applied != 3 || res.Coalesced != 1 || res.CrossShard != crossShard) {
						t.Errorf("%s: UpdateBatch result %+v, want 3 applied, 1 coalesced, %d cross-shard", fe.name, res, crossShard)
					}
					return err
				}},
				{"Delete", func() error { return x.Delete(1) }},
			}
			for _, c := range calls {
				clear(counts)
				if err := c.call(); err != nil {
					t.Fatalf("%s: %s: %v", fe.name, c.name, err)
				}
				if len(counts) != 1 || counts["write"] != 1 {
					t.Errorf("%s, memtable %v: %s entered the pipeline as %v, want exactly one \"write\"", fe.name, tier.Enabled, c.name, counts)
				}
			}
			if err := x.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRacingSameIDWritesStayConsistent races writes on the same few ids
// from several goroutines — single writers and two UpdateBatch writers
// whose 4-change batches move the same ids: every write holds the stripes
// of its ids, so whatever order they ran in, the tree(s) and the delta
// tier end where the object table says — which the entry-by-entry
// CheckInvariants verifies. (Ordered by the table lock alone, two racing
// moves can both succeed and leave the tree at the position the table has
// already replaced.)
func TestRacingSameIDWritesStayConsistent(t *testing.T) {
	rows := []struct {
		name string
		open func(t *testing.T) walFailureIndex
	}{
		{"ConcurrentIndex", func(t *testing.T) walFailureIndex { return openConcurrentTest(t, GeneralizedBottomUp) }},
		{"ShardedIndex", func(t *testing.T) walFailureIndex {
			return openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4})
		}},
		{"ShardedIndexMemtable", func(t *testing.T) walFailureIndex {
			x, err := OpenSharded(Options{Strategy: GeneralizedBottomUp, PageSize: 256, ExpectedObjects: 256,
				Memtable: Memtable{Enabled: true, MaxObjects: 64}}, ShardOptions{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			return x
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			x := row.open(t)
			defer x.Close()
			const ids = 8
			for id := uint64(0); id < ids; id++ {
				if err := x.Insert(id, Point{X: 0.5, Y: 0.5}); err != nil {
					t.Fatal(err)
				}
			}
			anywhere := func(r *rand.Rand) Point { return Point{X: r.Float64(), Y: r.Float64()} } // most moves cross shards
			var wg sync.WaitGroup
			errs := make([]error, 6)
			for w := range errs {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 300 && errs[w] == nil; i++ {
						if w >= 4 {
							// A batch writer, over ids that were present a moment
							// ago: a racing delete may have taken one since, which
							// fails the batch whole.
							batch := make([]Change, 0, 4)
							for tries := 0; len(batch) < cap(batch) && tries < 64; tries++ {
								if id := uint64(r.Intn(ids)); func() bool { _, ok := x.Location(id); return ok }() {
									batch = append(batch, Change{ID: id, To: anywhere(r)})
								}
							}
							if _, err := x.UpdateBatch(batch); err != nil && !errors.Is(err, ErrUnknownObject) {
								errs[w] = err
							}
							continue
						}
						id := uint64(r.Intn(ids))
						switch err := error(nil); r.Intn(8) {
						case 0:
							// A racing delete or insert of the id may have won.
							if err = x.Delete(id); err != nil && !errors.Is(err, ErrUnknownObject) {
								errs[w] = err
							}
						case 1:
							if err = x.Insert(id, anywhere(r)); err != nil && !errors.Is(err, ErrDuplicateObject) {
								errs[w] = err
							}
						default:
							if err = x.Update(id, anywhere(r)); err != nil && !errors.Is(err, ErrUnknownObject) {
								errs[w] = err
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			if err := x.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedBulkInsertFailureKeepsIOLatency: a bulk load that fails in
// one shard replaces every shard with a fresh one, and the fresh shards
// must keep paying the simulated latency SetIOLatency asked for.
func TestShardedBulkInsertFailureKeepsIOLatency(t *testing.T) {
	x, err := OpenSharded(Options{Strategy: GeneralizedBottomUp, ExpectedObjects: 256},
		ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	const latency = 2 * time.Millisecond
	x.SetIOLatency(latency)
	// An object planted in one stack's tree behind the table's back makes
	// that stack's bulk load fail (its tree is not empty) after the others
	// succeeded.
	if err := x.shards[0].tree.Insert(99, Point{X: 0.1, Y: 0.1}); err != nil {
		t.Fatal(err)
	}
	ids, pts := randomPoints(200, 5)
	if err := x.BulkInsert(ids, pts, PackSTR); err == nil {
		t.Fatal("BulkInsert over a non-empty shard tree succeeded")
	}
	if n := x.Len(); n != 0 {
		t.Fatalf("failed BulkInsert left %d objects", n)
	}
	// No buffer pool: the insert reads and writes pages, each at full price.
	start := time.Now()
	if err := x.Insert(1, Point{X: 0.1, Y: 0.1}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < latency {
		t.Fatalf("an insert after the failed bulk load took %v: the rebuilt shards dropped the %v page latency", took, latency)
	}
}
