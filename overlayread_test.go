package burtree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Reads against a delta tier in constant motion. A resident set of
// objects only ever moves inside a window W, so at every instant W holds
// exactly the residents, whichever of tree, draining generation and
// mutable generation each one's latest position sits in; everything else
// churns outside W. With a 16-delta tier the generations swap every few
// writes, so reads keep catching drains begun, applied and ended between
// their view and their tree scan. Any id the overlay reports twice or
// drops shows as a wrong result, not just as a race report.

func TestOverlayReadsUnderMotion(t *testing.T) {
	opts := Options{
		Strategy:        GeneralizedBottomUp,
		BufferPages:     64,
		ExpectedObjects: 1000,
		Memtable:        Memtable{Enabled: true, MaxObjects: 16},
	}
	t.Run("ConcurrentIndex", func(t *testing.T) {
		idx, err := OpenConcurrent(opts)
		if err != nil {
			t.Fatal(err)
		}
		overlayReadsUnderMotion(t, idx)
	})
	t.Run("ShardedIndex", func(t *testing.T) {
		// W must lie inside one shard's range: a scatter over several
		// shards is not one snapshot, and may miss a resident caught
		// changing shards. The lower-left quadrant holds fewer than a
		// quarter of the objects, so the balanced cut gives it all to
		// shard 0.
		idx, err := OpenSharded(opts, ShardOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		overlayReadsUnderMotion(t, idx)
		if got := idx.router.ShardsFor(NewRect(0.05, 0.05, 0.45, 0.45)); len(got) != 1 {
			t.Fatalf("the window spans shards %v", got)
		}
	})
}

func overlayReadsUnderMotion(t *testing.T, idx raceFrontEnd) {
	const (
		numObjects   = 1000
		numResidents = 120
		numWriters   = 4 // two on the residents, two on the rest
		k            = 10
	)
	iters := 2000
	if testing.Short() {
		iters = 500
	}
	w := NewRect(0.05, 0.05, 0.45, 0.45)
	inside := func(rng *rand.Rand) Point {
		return Point{X: 0.06 + 0.38*rng.Float64(), Y: 0.06 + 0.38*rng.Float64()}
	}
	outside := func(rng *rand.Rand) Point {
		for {
			if p := (Point{X: rng.Float64(), Y: rng.Float64()}); p.X > 0.46 || p.Y > 0.46 {
				return p
			}
		}
	}

	seed := rand.New(rand.NewSource(11))
	ids, pts := make([]uint64, numObjects), make([]Point, numObjects)
	for i := range ids {
		ids[i] = uint64(i)
		if i < numResidents {
			pts[i] = inside(seed)
		} else {
			pts[i] = outside(seed)
		}
	}
	if err := idx.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, numWriters+2)
	var writers, readers sync.WaitGroup
	for wr := 0; wr < numWriters; wr++ {
		// Disjoint id ranges per writer: half the residents each, or half
		// of everything else.
		lo, n, place := wr*numResidents/2, numResidents/2, inside
		if wr >= 2 {
			n = (numObjects - numResidents) / 2
			lo, place = numResidents+(wr-2)*n, outside
		}
		writers.Add(1)
		go func(wr int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(300 + wr)))
			for i := 0; i < iters; i++ {
				var err error
				if rng.Intn(4) == 0 {
					batch := make([]Change, 2+rng.Intn(6))
					for j := range batch {
						batch[j] = Change{ID: uint64(lo + rng.Intn(n)), To: place(rng)}
					}
					_, err = idx.UpdateBatch(batch)
				} else {
					err = idx.Update(uint64(lo+rng.Intn(n)), place(rng))
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", wr, err)
					return
				}
			}
		}(wr)
	}

	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(400 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := checkOverlayReads(idx, w, numResidents, inside(rng), k); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}

	writers.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := checkOverlayReads(idx, w, numResidents, Point{X: 0.25, Y: 0.25}, k); err != nil {
		t.Fatalf("at rest: %v", err)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkOverlayReads runs one round of reads: the window holds every
// resident exactly once and nothing else, by Search and by Count, and
// Nearest returns k distinct objects in non-decreasing distance.
func checkOverlayReads(idx raceFrontEnd, w Rect, residents int, p Point, k int) error {
	got, err := idx.Search(w)
	if err != nil {
		return err
	}
	seen := make(map[uint64]bool, len(got))
	for _, id := range got {
		if id >= uint64(residents) || seen[id] {
			return fmt.Errorf("Search(W) reports object %d (repeated: %v)", id, seen[id])
		}
		seen[id] = true
	}
	if len(got) != residents {
		return fmt.Errorf("Search(W) reports %d of %d residents", len(got), residents)
	}
	if n, err := idx.Count(w); err != nil || n != residents {
		return fmt.Errorf("Count(W) = %d, %v; want %d", n, err, residents)
	}
	ns, err := idx.Nearest(p, k)
	if err != nil {
		return err
	}
	if len(ns) != k {
		return fmt.Errorf("Nearest returns %d neighbours, want %d", len(ns), k)
	}
	clear(seen)
	for i, n := range ns {
		if seen[n.ID] || i > 0 && n.Dist < ns[i-1].Dist {
			return fmt.Errorf("Nearest result %d: object %d at %g after %g (repeated: %v)", i, n.ID, n.Dist, ns[i-1].Dist, seen[n.ID])
		}
		seen[n.ID] = true
	}
	return nil
}
