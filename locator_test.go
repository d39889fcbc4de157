package burtree

import (
	"math/rand"
	"sync"
	"testing"
)

// randomMoves returns n seeded moves of ids, each at most step from the
// object's position before it in either coordinate, starting from pts.
func randomMoves(ids []uint64, pts []Point, n int, step float64, seed int64) []Change {
	rng := rand.New(rand.NewSource(seed))
	at := make(map[uint64]Point, len(ids))
	for i, id := range ids {
		at[id] = pts[i]
	}
	moves := make([]Change, n)
	for i := range moves {
		id := ids[rng.Intn(len(ids))]
		p := at[id]
		p.X += (2*rng.Float64() - 1) * step
		p.Y += (2*rng.Float64() - 1) * step
		at[id] = p
		moves[i] = Change{ID: id, To: p}
	}
	return moves
}

// TestLocatorNeedsNoSizing: an index reaches each object's leaf through
// its in-memory object table, so ExpectedObjects is a capacity hint and
// nothing else. An index opened without it must read and write exactly
// the pages of one sized for its data. (A paged hash sized by the hint's
// old default of 1 024 read and wrote 41.3 pages per update here,
// against 7.27 sized.) A four-shard index must match too, bulk-loaded
// and filled by Insert, whose trees grow by splits to a size no hint
// named. The sharded rows hold fewer objects, the Insert-filled one
// fewest, to keep the test quick under the race detector.
func TestLocatorNeedsNoSizing(t *testing.T) {
	openSharded := func(expected int) (*index, error) {
		x, err := OpenSharded(Options{Strategy: GeneralizedBottomUp, BufferPages: 100, ExpectedObjects: expected},
			ShardOptions{Shards: 4})
		if err != nil {
			return nil, err
		}
		return x.index, nil
	}
	rows := []struct {
		name    string
		objects int
		open    func(expected int) (*index, error)
		// insert fills the index by Insert instead of BulkInsert.
		insert bool
	}{
		{"Index", 100_000, func(expected int) (*index, error) {
			x, err := Open(Options{Strategy: GeneralizedBottomUp, BufferPages: 100, ExpectedObjects: expected})
			if err != nil {
				return nil, err
			}
			return x.index, nil
		}, false},
		{"ShardedBulkLoaded", 50_000, openSharded, false},
		{"ShardedInserted", 10_000, openSharded, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ids, pts := randomPoints(row.objects, 91)
			moves := randomMoves(ids, pts, row.objects/5, 0.03, 92)
			var pages [2][2]int64 // reads and writes over the moves, for hints 0 and objects
			for i, expected := range []int{0, row.objects} {
				x, err := row.open(expected)
				if err != nil {
					t.Fatal(err)
				}
				defer x.Close()
				if row.insert {
					insertEach(t, x, ids, pts)
				} else if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
					t.Fatal(err)
				}
				x.ResetStats()
				for _, m := range moves {
					if err := x.Update(m.ID, m.To); err != nil {
						t.Fatal(err)
					}
				}
				st, _ := x.stats()
				pages[i] = [2]int64{st.DiskReads, st.DiskWrites}
				if err := x.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			if pages[0] != pages[1] {
				t.Fatalf("%d moves read and wrote %v pages opened with no ExpectedObjects, %v with %d", len(moves), pages[0], pages[1], row.objects)
			}
		})
	}
}

// TestLocatorUnderConcurrentWriters races every writer of the leaf
// placements in a ConcurrentIndex's object table: single updates on the
// fine-grained path, UpdateBatch calls whose plans look leaves up in the
// table, and small fast moves in a crowded tree that shift objects — with
// piggybacked passengers — to sibling leaves. Afterwards every leaf entry
// must be placed at its leaf and no record may name another, which
// CheckInvariants verifies.
func TestLocatorUnderConcurrentWriters(t *testing.T) {
	const objects, writers, rounds = 4000, 4, 150
	x, err := OpenConcurrent(Options{Strategy: GeneralizedBottomUp, PageSize: 256, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	ids, pts := randomPoints(objects, 94)
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(95 + w)))
			// Writer w owns the ids ≡ w (mod writers), so its moves never
			// race another writer's on one object.
			own := func() uint64 { return uint64(rng.Intn(objects/writers)*writers + w) }
			move := func(id uint64) Point {
				p, _ := x.Location(id)
				return Point{X: p.X + (2*rng.Float64()-1)*0.04, Y: p.Y + (2*rng.Float64()-1)*0.04}
			}
			for range rounds {
				id := own()
				if err := x.Update(id, move(id)); err != nil {
					t.Error(err)
					return
				}
				batch := make([]Change, 16)
				for i := range batch {
					id := own()
					batch[i] = Change{ID: id, To: move(id)}
				}
				if _, err := x.UpdateBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st, cs := x.Stats()
	if cs.Local == 0 || cs.Batched == 0 || st.Outcomes.Shifted == 0 || st.Outcomes.Piggyback == 0 {
		t.Fatalf("not every map writer ran: %d local updates, %d batched, %d shifts, %d piggybacked passengers",
			cs.Local, cs.Batched, st.Outcomes.Shifted, st.Outcomes.Piggyback)
	}
}
