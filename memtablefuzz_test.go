package burtree

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"burtree/internal/geom"
)

// FuzzMemtableMerge decodes arbitrary bytes into an operation sequence
// against a memtable-enabled GBU index with a tiny delta-tier budget,
// so size-triggered merge-downs trip constantly — and one opcode
// forces a drain outright, landing merges at adversarial points in the
// sequence. After every operation the complete invariants (including
// the memtable overlay accounting) are validated and the full object
// set observed through Search is compared against a map oracle, so any
// divergence between the buffered deltas and the tree is caught at the
// operation that introduced it.
//
// Encoding: each operation consumes 4 bytes [op, id, x, y]:
//
//	op % 8 == 0,7  insert id at (x, y)
//	op % 8 == 1    update id to (x, y)
//	op % 8 == 2    delete id
//	op % 8 == 3    window query centered near (x, y), side from id byte
//	op % 8 == 4    k-NN query at (x, y), k = id%8 + 1
//	op % 8 == 5    UpdateBatch of the next id%4+1 chunks (as moves)
//	op % 8 == 6    force a merge-down of the delta tier
//
// ids come from a small space (id % 48) so duplicate inserts, updates
// of deleted objects and tombstone revivals happen constantly.
func FuzzMemtableMerge(f *testing.F) {
	// Churn with forced drains between mutations.
	f.Add([]byte{0, 1, 10, 20, 0, 2, 30, 40, 1, 1, 200, 200, 6, 0, 0, 0, 2, 1, 0, 0, 6, 0, 0, 0})
	// Batch absorb then queries.
	f.Add([]byte{0, 1, 1, 1, 0, 2, 2, 2, 5, 3, 128, 128, 1, 2, 3, 4, 3, 9, 9, 9, 4, 3, 50, 50})
	// Delete/re-insert cycling (tombstone revival) across a drain.
	f.Add([]byte{0, 5, 100, 100, 6, 0, 0, 0, 2, 5, 0, 0, 0, 5, 60, 60, 2, 5, 0, 0, 6, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 160
		idx, err := Open(Options{
			Strategy:        GeneralizedBottomUp,
			PageSize:        256, // tiny fanout: structural churn on few objects
			BufferPages:     4,
			ExpectedObjects: 64,
			Memtable:        Memtable{Enabled: true, MaxObjects: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle := make(map[uint64]Point)

		decodePoint := func(xb, yb byte) Point {
			return Point{
				X: float64(xb)/255*1.3 - 0.15,
				Y: float64(yb)/255*1.3 - 0.15,
			}
		}
		everything := NewRect(-1, -1, 2, 2) // covers the whole coordinate domain

		ops := 0
		for i := 0; i+4 <= len(data) && ops < maxOps; ops++ {
			op, idb, xb, yb := data[i]%8, data[i+1], data[i+2], data[i+3]
			i += 4
			id := uint64(idb % 48)
			p := decodePoint(xb, yb)
			switch op {
			case 0, 7:
				err := idx.Insert(id, p)
				if _, exists := oracle[id]; exists {
					if !errors.Is(err, ErrDuplicateObject) {
						t.Fatalf("op %d: duplicate insert %d: got %v, want ErrDuplicateObject", ops, id, err)
					}
				} else {
					if err != nil {
						t.Fatalf("op %d: insert %d at %v: %v", ops, id, p, err)
					}
					oracle[id] = p
				}
			case 1:
				err := idx.Update(id, p)
				if _, exists := oracle[id]; exists {
					if err != nil {
						t.Fatalf("op %d: update %d to %v: %v", ops, id, p, err)
					}
					oracle[id] = p
				} else if !errors.Is(err, ErrUnknownObject) {
					t.Fatalf("op %d: update of unknown %d: got %v, want ErrUnknownObject", ops, id, err)
				}
			case 2:
				err := idx.Delete(id)
				if _, exists := oracle[id]; exists {
					if err != nil {
						t.Fatalf("op %d: delete %d: %v", ops, id, err)
					}
					delete(oracle, id)
				} else if !errors.Is(err, ErrUnknownObject) {
					t.Fatalf("op %d: delete of unknown %d: got %v, want ErrUnknownObject", ops, id, err)
				}
			case 3:
				c := decodePoint(xb, yb)
				side := float64(idb) / 255 * 0.8
				q := NewRect(c.X-side/2, c.Y-side/2, c.X+side/2, c.Y+side/2)
				got, err := idx.Search(q)
				if err != nil {
					t.Fatalf("op %d: search %v: %v", ops, q, err)
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
					t.Fatalf("op %d: window %v: got %v, oracle %v", ops, q, got, want)
				}
			case 4:
				k := int(idb%8) + 1
				ns, err := idx.Nearest(p, k)
				if err != nil {
					t.Fatalf("op %d: nearest %v k=%d: %v", ops, p, k, err)
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
					t.Fatalf("op %d: nearest %v k=%d: %d results, oracle %d", ops, p, k, len(ns), len(dists))
				}
				for j := range ns {
					if ns[j].Dist != dists[j] {
						t.Fatalf("op %d: nearest %v k=%d: dist[%d] = %g, oracle %g", ops, p, k, j, ns[j].Dist, dists[j])
					}
				}
			case 5:
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
				res, err := idx.UpdateBatch(batch)
				if allKnown {
					if err != nil {
						t.Fatalf("op %d: batch %v: %v", ops, batch, err)
					}
					if res.Absorbed == 0 {
						t.Fatalf("op %d: batch %v: absorbed 0 with memtable enabled", ops, batch)
					}
					for _, c := range batch {
						oracle[c.ID] = c.To
					}
				} else if !errors.Is(err, ErrUnknownObject) {
					t.Fatalf("op %d: batch with unknown id: got %v, want ErrUnknownObject", ops, err)
				}
			case 6:
				if err := idx.shards[0].drainMemtable(); err != nil {
					t.Fatalf("op %d: forced drain: %v", ops, err)
				}
			}
			if err := idx.CheckInvariants(); err != nil {
				t.Fatalf("op %d: invariants: %v", ops, err)
			}
			if idx.Len() != len(oracle) {
				t.Fatalf("op %d: Len %d, oracle %d", ops, idx.Len(), len(oracle))
			}
			// Oracle equality after every op: the merged view (overlay
			// plus tree) must hold exactly the oracle's object set.
			got, err := idx.Search(everything)
			if err != nil {
				t.Fatalf("op %d: full sweep: %v", ops, err)
			}
			if len(got) != len(oracle) {
				t.Fatalf("op %d: full sweep saw %d objects, oracle %d", ops, len(got), len(oracle))
			}
			for _, oid := range got {
				if _, ok := oracle[oid]; !ok {
					t.Fatalf("op %d: full sweep surfaced unknown id %d", ops, oid)
				}
			}
			for oid, want := range oracle {
				pos, ok := idx.Location(oid)
				if !ok || pos != want {
					t.Fatalf("op %d: Location(%d) = %v,%v, oracle %v", ops, oid, pos, ok, want)
				}
			}
		}
	})
}
