package burtree

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"burtree/internal/geom"
)

// FuzzUpdateSequence decodes arbitrary bytes into an operation sequence
// — inserts, updates, deletes, batched updates, window and k-NN queries
// — and runs it on every route of the one write pipeline: a GBU Index,
// a 4-shard grid ShardedIndex (so single moves and batch changes cross
// shards) and an Index with a small memtable tier (so inline merge-downs
// trigger), all with small pages (so splits, merges, ε-extensions and
// ascents trigger quickly). After every operation it validates the
// complete invariants and cross-checks every answer against a
// brute-force map-and-slice oracle.
//
// Encoding: each operation consumes 4 bytes [op, id, x, y]:
//
//	op % 8 == 0,1  insert id at (x, y)
//	op % 8 == 2,3  update id to (x, y)
//	op % 8 == 4    delete id
//	op % 8 == 5    window query centered near (x, y), side from id byte
//	op % 8 == 6    k-NN query at (x, y), k = id%8 + 1
//	op % 8 == 7    UpdateBatch of the next id%4+1 chunks (as moves)
//
// ids come from a small space (id % 48) so collisions — duplicate
// inserts, updates of deleted objects — happen constantly; those must
// fail with the documented errors and leave the index untouched.
func FuzzUpdateSequence(f *testing.F) {
	// Build-then-query, churn, and batch-heavy seeds.
	f.Add([]byte{0, 1, 10, 20, 0, 2, 200, 30, 0, 3, 40, 240, 5, 255, 100, 100, 6, 3, 50, 50})
	f.Add([]byte{0, 1, 10, 20, 2, 1, 240, 240, 4, 1, 0, 0, 2, 1, 9, 9, 0, 1, 7, 7})
	f.Add([]byte{0, 1, 1, 1, 0, 2, 2, 2, 0, 3, 3, 3, 7, 3, 128, 128, 1, 2, 3, 4, 0, 9, 9, 9, 5, 9, 9, 9})
	f.Add([]byte{})
	opts := Options{
		Strategy:        GeneralizedBottomUp,
		PageSize:        256, // tiny fanout: structural churn on few objects
		BufferPages:     4,
		ExpectedObjects: 64,
	}
	tiered := opts
	tiered.Memtable = Memtable{Enabled: true, MaxObjects: 8}
	targets := []struct {
		name string
		open func() (fuzzIndex, error)
	}{
		{"Index", func() (fuzzIndex, error) { return Open(opts) }},
		{"ShardedIndex", func() (fuzzIndex, error) {
			return OpenSharded(opts, ShardOptions{Shards: 4, Partition: ShardGrid})
		}},
		{"IndexMemtable", func() (fuzzIndex, error) { return Open(tiered) }},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, target := range targets {
			idx, err := target.open()
			if err != nil {
				t.Fatal(err)
			}
			runUpdateSequence(t, target.name, idx, data)
			if err := idx.Close(); err != nil {
				t.Fatalf("%s: close: %v", target.name, err)
			}
		}
	})
}

// fuzzIndex is what FuzzUpdateSequence drives on each front-end.
type fuzzIndex interface {
	walFailureIndex
	Search(q Rect) ([]uint64, error)
	Nearest(p Point, k int) ([]Neighbor, error)
}

// runUpdateSequence runs one decoded sequence of FuzzUpdateSequence on
// idx, the target called name.
func runUpdateSequence(t *testing.T, name string, idx fuzzIndex, data []byte) {
	t.Helper()
	const maxOps = 192
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf(name+": "+format, args...)
	}
	oracle := make(map[uint64]Point)

	decodePoint := func(xb, yb byte) Point {
		// Coordinates span slightly beyond the unit square so drift
		// beyond the root MBR is exercised too.
		return Point{
			X: float64(xb)/255*1.3 - 0.15,
			Y: float64(yb)/255*1.3 - 0.15,
		}
	}

	ops := 0
	for i := 0; i+4 <= len(data) && ops < maxOps; ops++ {
		op, idb, xb, yb := data[i]%8, data[i+1], data[i+2], data[i+3]
		i += 4
		id := uint64(idb % 48)
		p := decodePoint(xb, yb)
		switch op {
		case 0, 1:
			err := idx.Insert(id, p)
			if _, exists := oracle[id]; exists {
				if !errors.Is(err, ErrDuplicateObject) {
					fail("op %d: duplicate insert %d: got %v, want ErrDuplicateObject", ops, id, err)
				}
			} else {
				if err != nil {
					fail("op %d: insert %d at %v: %v", ops, id, p, err)
				}
				oracle[id] = p
			}
		case 2, 3:
			err := idx.Update(id, p)
			if _, exists := oracle[id]; exists {
				if err != nil {
					fail("op %d: update %d to %v: %v", ops, id, p, err)
				}
				oracle[id] = p
			} else if !errors.Is(err, ErrUnknownObject) {
				fail("op %d: update of unknown %d: got %v, want ErrUnknownObject", ops, id, err)
			}
		case 4:
			err := idx.Delete(id)
			if _, exists := oracle[id]; exists {
				if err != nil {
					fail("op %d: delete %d: %v", ops, id, err)
				}
				delete(oracle, id)
			} else if !errors.Is(err, ErrUnknownObject) {
				fail("op %d: delete of unknown %d: got %v, want ErrUnknownObject", ops, id, err)
			}
		case 5:
			c := decodePoint(xb, yb)
			side := float64(idb) / 255 * 0.8
			q := NewRect(c.X-side/2, c.Y-side/2, c.X+side/2, c.Y+side/2)
			got, err := idx.Search(q)
			if err != nil {
				fail("op %d: search %v: %v", ops, q, err)
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			var want []uint64
			for oid, op := range oracle {
				if q.ContainsPoint(op) {
					want = append(want, oid)
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if fmt.Sprint(got) != fmt.Sprint(want) {
				fail("op %d: window %v: got %v, oracle %v", ops, q, got, want)
			}
		case 6:
			k := int(idb%8) + 1
			ns, err := idx.Nearest(p, k)
			if err != nil {
				fail("op %d: nearest %v k=%d: %v", ops, p, k, err)
			}
			var dists []float64
			for _, op := range oracle {
				dists = append(dists, geom.Dist(p, op))
			}
			sort.Float64s(dists)
			if len(dists) > k {
				dists = dists[:k]
			}
			if len(ns) != len(dists) {
				fail("op %d: nearest %v k=%d: %d results, oracle %d", ops, p, k, len(ns), len(dists))
			}
			for j := range ns {
				if ns[j].Dist != dists[j] {
					fail("op %d: nearest %v k=%d: dist[%d] = %g, oracle %g", ops, p, k, j, ns[j].Dist, dists[j])
				}
			}
		case 7:
			nc := int(idb%4) + 1
			var batch []Change
			allKnown := true
			for j := 0; j < nc && i+4 <= len(data); j++ {
				bid := uint64(data[i+1] % 48)
				bp := decodePoint(data[i+2], data[i+3])
				i += 4
				batch = append(batch, Change{ID: bid, To: bp})
				if _, exists := oracle[bid]; !exists {
					allKnown = false
				}
			}
			if len(batch) == 0 {
				continue
			}
			_, err := idx.UpdateBatch(batch)
			if allKnown {
				if err != nil {
					fail("op %d: batch %v: %v", ops, batch, err)
				}
				for _, c := range batch {
					oracle[c.ID] = c.To
				}
			} else if !errors.Is(err, ErrUnknownObject) {
				fail("op %d: batch with unknown id: got %v, want ErrUnknownObject", ops, err)
			}
		}
		if err := idx.CheckInvariants(); err != nil {
			fail("op %d: invariants: %v", ops, err)
		}
		if idx.Len() != len(oracle) {
			fail("op %d: Len %d, oracle %d", ops, idx.Len(), len(oracle))
		}
	}
}

// FuzzLoadSnapshot feeds arbitrary bytes — seeded with a saved snapshot of
// one stack and of three per strategy — to every loader, and drives what
// loads: CheckInvariants, a window query, a k-NN query and a few writes.
// Each may fail, as a snapshot is outside input, but none may panic.
func FuzzLoadSnapshot(f *testing.F) {
	for _, s := range allFacadeStrategies() {
		for _, shards := range []int{1, 3} {
			x, err := OpenSharded(Options{Strategy: s, PageSize: 256, ExpectedObjects: 64}, ShardOptions{Shards: shards})
			if err != nil {
				f.Fatal(err)
			}
			ids, pts := randomPoints(150, int64(shards))
			if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
				f.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if err := x.Update(ids[i], Point{X: pts[i].Y, Y: pts[i].X}); err != nil {
					f.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := x.Save(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, load := range []func() (walFailureIndex, error){
			func() (walFailureIndex, error) { return Load(bytes.NewReader(data)) },
			func() (walFailureIndex, error) { return LoadConcurrent(bytes.NewReader(data)) },
			func() (walFailureIndex, error) { return LoadSharded(bytes.NewReader(data)) },
		} {
			x, err := load()
			if err != nil {
				continue
			}
			_ = x.CheckInvariants()
			var ids []uint64
			_ = x.SearchFunc(NewRect(-1, -1, 2, 2), func(id uint64, _ Point) bool {
				ids = append(ids, id)
				return len(ids) < 8
			})
			_, _ = indexOf(x).Nearest(Point{X: 0.5, Y: 0.5}, 4)
			for i, id := range ids {
				_ = x.Update(id, Point{X: float64(i) / 8, Y: 0.5})
			}
			_ = x.Insert(1<<40, Point{X: 0.25, Y: 0.75})
			if len(ids) > 0 {
				_ = x.Delete(ids[0])
			}
			_, _ = x.UpdateBatch([]Change{{ID: 1 << 40, To: Point{X: 0.75, Y: 0.25}}})
			_ = x.Close()
		}
	})
}
