package burtree

// Batch/sequential equivalence: UpdateBatch must leave the index in a
// state where Search, Count and Nearest agree with applying the same
// changes one by one, across all three strategies and both Index and
// ConcurrentIndex, with invariants checked after every batch.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

var equivalenceStrategies = []Strategy{TopDown, GeneralizedBottomUp}

// buildPair populates two identical indexes (batch target, sequential
// reference) plus the driving RNG.
func buildPair(t *testing.T, s Strategy, n int, seed int64) (*Index, *Index, *rand.Rand) {
	t.Helper()
	opts := Options{Strategy: s, ExpectedObjects: n, BufferPages: 32}
	a, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		p := Point{X: rng.Float64(), Y: rng.Float64()}
		if err := a.Insert(uint64(i), p); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert(uint64(i), p); err != nil {
			t.Fatal(err)
		}
	}
	return a, b, rng
}

// randomBatch draws a batch of moves with intentional repeated ids, so
// coalescing is exercised. Positions derive from the reference index's
// current state plus the shadow of earlier moves in this batch.
func randomBatch(rng *rand.Rand, ref *Index, n, size int, maxDist float64) []Change {
	shadow := make(map[uint64]Point, size)
	out := make([]Change, 0, size)
	for len(out) < size {
		id := uint64(rng.Intn(n))
		p, ok := shadow[id]
		if !ok {
			p, _ = ref.Location(id)
		}
		np := Point{
			X: p.X + (rng.Float64()*2-1)*maxDist,
			Y: p.Y + (rng.Float64()*2-1)*maxDist,
		}
		out = append(out, Change{ID: id, To: np})
		shadow[id] = np
	}
	return out
}

func sortedIDs(t *testing.T, x *Index, q Rect) []uint64 {
	t.Helper()
	ids, err := x.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestUpdateBatchEquivalence(t *testing.T) {
	const n = 1500
	for _, s := range equivalenceStrategies {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			batched, seq, rng := buildPair(t, s, n, 42+int64(s))
			for round := 0; round < 10; round++ {
				maxDist := 0.01
				if round%3 == 2 {
					maxDist = 0.25 // force shifts, ascents, top-down work
				}
				changes := randomBatch(rng, seq, n, 120, maxDist)
				res, err := batched.UpdateBatch(changes)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if res.Applied+res.Coalesced != len(changes) {
					t.Fatalf("round %d: applied %d + coalesced %d != %d", round, res.Applied, res.Coalesced, len(changes))
				}
				for _, c := range changes {
					if err := seq.Update(c.ID, c.To); err != nil {
						t.Fatalf("round %d: sequential: %v", round, err)
					}
				}
				if err := batched.CheckInvariants(); err != nil {
					t.Fatalf("round %d: batched invariants: %v", round, err)
				}
				if err := seq.CheckInvariants(); err != nil {
					t.Fatalf("round %d: sequential invariants: %v", round, err)
				}

				// Every object's tracked position must agree.
				for id := uint64(0); id < n; id++ {
					pa, _ := batched.Location(id)
					pb, _ := seq.Location(id)
					if pa != pb {
						t.Fatalf("round %d: object %d at %v batched, %v sequential", round, id, pa, pb)
					}
				}
				// Window queries, counts and nearest neighbours agree.
				for i := 0; i < 12; i++ {
					cx, cy := rng.Float64(), rng.Float64()
					side := rng.Float64() * 0.15
					q := NewRect(cx, cy, cx+side, cy+side)
					ga, gb := sortedIDs(t, batched, q), sortedIDs(t, seq, q)
					if len(ga) != len(gb) {
						t.Fatalf("round %d query %v: %d vs %d results", round, q, len(ga), len(gb))
					}
					for j := range ga {
						if ga[j] != gb[j] {
							t.Fatalf("round %d query %v: result %d is %d vs %d", round, q, j, ga[j], gb[j])
						}
					}
					ca, err := batched.Count(q)
					if err != nil {
						t.Fatal(err)
					}
					if ca != len(gb) {
						t.Fatalf("round %d: Count %d != Search %d", round, ca, len(gb))
					}
				}
				for i := 0; i < 5; i++ {
					p := Point{X: rng.Float64(), Y: rng.Float64()}
					na, err := batched.Nearest(p, 4)
					if err != nil {
						t.Fatal(err)
					}
					nb, err := seq.Nearest(p, 4)
					if err != nil {
						t.Fatal(err)
					}
					if len(na) != len(nb) {
						t.Fatalf("round %d: nearest lengths %d vs %d", round, len(na), len(nb))
					}
					for j := range na {
						if math.Abs(na[j].Dist-nb[j].Dist) > 1e-12 {
							t.Fatalf("round %d: nearest %d dist %v vs %v", round, j, na[j].Dist, nb[j].Dist)
						}
					}
				}
			}
		})
	}
}

func TestUpdateBatchEquivalenceConcurrentIndex(t *testing.T) {
	const n = 1200
	for _, s := range equivalenceStrategies {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			opts := Options{Strategy: s, ExpectedObjects: n, BufferPages: 32}
			batched, err := OpenConcurrent(opts)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < n; i++ {
				p := Point{X: rng.Float64(), Y: rng.Float64()}
				if err := batched.Insert(uint64(i), p); err != nil {
					t.Fatal(err)
				}
				if err := seq.Insert(uint64(i), p); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 8; round++ {
				maxDist := 0.01
				if round%2 == 1 {
					maxDist = 0.2
				}
				changes := randomBatch(rng, seq, n, 100, maxDist)
				if _, err := batched.UpdateBatch(changes); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for _, c := range changes {
					if err := seq.Update(c.ID, c.To); err != nil {
						t.Fatalf("round %d: sequential: %v", round, err)
					}
				}
				if err := batched.CheckInvariants(); err != nil {
					t.Fatalf("round %d: invariants: %v", round, err)
				}
				for i := 0; i < 12; i++ {
					cx, cy := rng.Float64(), rng.Float64()
					side := rng.Float64() * 0.15
					q := NewRect(cx, cy, cx+side, cy+side)
					ca, err := batched.Count(q)
					if err != nil {
						t.Fatal(err)
					}
					cb, err := seq.Count(q)
					if err != nil {
						t.Fatal(err)
					}
					if ca != cb {
						t.Fatalf("round %d query %v: count %d vs %d", round, q, ca, cb)
					}
				}
			}
		})
	}
}

func TestUpdateBatchErrors(t *testing.T) {
	x, err := Open(Options{Strategy: GeneralizedBottomUp})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := x.Insert(i, Point{X: float64(i) / 10, Y: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	// Unknown id fails the whole batch before anything is applied.
	before, _ := x.Location(3)
	res, err := x.UpdateBatch([]Change{
		{ID: 3, To: Point{X: 0.9, Y: 0.9}},
		{ID: 999, To: Point{X: 0.1, Y: 0.1}},
	})
	if err == nil {
		t.Fatal("batch with unknown id succeeded")
	}
	if res.Applied != 0 {
		t.Fatalf("applied %d changes despite validation failure", res.Applied)
	}
	if after, _ := x.Location(3); after != before {
		t.Fatalf("object 3 moved to %v despite failed batch", after)
	}
	// Empty batches are fine.
	if res, err := x.UpdateBatch(nil); err != nil || res.Applied != 0 {
		t.Fatalf("empty batch: %+v, %v", res, err)
	}
	// Coalescing keeps only the final position.
	res, err = x.UpdateBatch([]Change{
		{ID: 5, To: Point{X: 0.2, Y: 0.2}},
		{ID: 5, To: Point{X: 0.3, Y: 0.3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Coalesced != 1 {
		t.Fatalf("coalescing result %+v", res)
	}
	if p, _ := x.Location(5); p != (Point{X: 0.3, Y: 0.3}) {
		t.Fatalf("object 5 at %v", p)
	}
}
