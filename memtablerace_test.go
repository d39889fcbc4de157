package burtree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Race stress for the memtable tier: concurrent writers (single
// updates and batches on disjoint id ranges), readers (window, k-NN
// and count queries) and a checkpointer all run against a durable,
// memtable-enabled index while the background merger drains, kicked by
// the writers' size trips — the test
// exists to be run under -race, and finishes with an invariant check
// plus an exact per-object position check against each writer's last
// write.

// raceFrontEnd is the surface the stress exercises; both concurrent
// front-ends implement it.
type raceFrontEnd interface {
	BulkInsert(ids []uint64, pts []Point, method PackMethod) error
	Update(id uint64, p Point) error
	UpdateBatch(changes []Change) (BatchResult, error)
	Search(q Rect) ([]uint64, error)
	Count(q Rect) (int, error)
	Nearest(p Point, k int) ([]Neighbor, error)
	Checkpoint() error
	CheckInvariants() error
	Location(id uint64) (Point, bool)
	Len() int
	Close() error
	stats() (Stats, []ConcurrencyStats)
}

func memtableStress(t *testing.T, idx raceFrontEnd) {
	const (
		numObjects = 2000
		numWriters = 8
	)
	iters := 600
	if testing.Short() {
		iters = 150
	}

	ids := make([]uint64, numObjects)
	pts := make([]Point, numObjects)
	seedRng := rand.New(rand.NewSource(7))
	for i := range ids {
		ids[i] = uint64(i)
		pts[i] = Point{X: seedRng.Float64(), Y: seedRng.Float64()}
	}
	if err := idx.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}

	var writers, aux sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, numWriters+4)

	// Writers: each owns a disjoint id range, mixing single updates
	// with batches; the final position of every id is recorded for the
	// post-run exactness check.
	finals := make([]map[uint64]Point, numWriters)
	per := numObjects / numWriters
	for w := 0; w < numWriters; w++ {
		w := w
		finals[w] = make(map[uint64]Point, per)
		lo := uint64(w * per)
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < iters; i++ {
				if rng.Intn(4) == 0 {
					n := rng.Intn(8) + 2
					batch := make([]Change, n)
					for j := range batch {
						id := lo + uint64(rng.Intn(per))
						p := Point{X: rng.Float64(), Y: rng.Float64()}
						batch[j] = Change{ID: id, To: p}
					}
					if _, err := idx.UpdateBatch(batch); err != nil {
						errs <- fmt.Errorf("writer %d batch: %w", w, err)
						return
					}
					for _, c := range batch {
						finals[w][c.ID] = c.To
					}
				} else {
					id := lo + uint64(rng.Intn(per))
					p := Point{X: rng.Float64(), Y: rng.Float64()}
					if err := idx.Update(id, p); err != nil {
						errs <- fmt.Errorf("writer %d update: %w", w, err)
						return
					}
					finals[w][id] = p
				}
			}
		}()
	}

	// Readers: window scans, counts and k-NN against the moving state;
	// only liveness and error-freedom are checked here (exactness is
	// the replay suite's job; under concurrent writes there is no
	// stable oracle).
	for r := 0; r < 2; r++ {
		r := r
		aux.Add(1)
		go func() {
			defer aux.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				c := Point{X: rng.Float64(), Y: rng.Float64()}
				q := NewRect(c.X-0.1, c.Y-0.1, c.X+0.1, c.Y+0.1)
				if _, err := idx.Search(q); err != nil {
					errs <- fmt.Errorf("reader %d search: %w", r, err)
					return
				}
				if _, err := idx.Count(q); err != nil {
					errs <- fmt.Errorf("reader %d count: %w", r, err)
					return
				}
				if _, err := idx.Nearest(c, 5); err != nil {
					errs <- fmt.Errorf("reader %d nearest: %w", r, err)
					return
				}
			}
		}()
	}

	// Checkpointer: drains the memtable and truncates the log under
	// the exclusive gate, racing the background merger and the writers.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if err := idx.Checkpoint(); err != nil {
				errs <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
	}()

	// Wait for the writers, then stop the readers and checkpointer.
	writerDone := make(chan struct{})
	go func() {
		writers.Wait()
		close(writerDone)
	}()
	select {
	case err := <-errs:
		close(stop)
		t.Fatal(err)
	case <-time.After(2 * time.Minute):
		close(stop)
		t.Fatal("stress did not finish in time")
	case <-writerDone:
	}
	// The merge-downs the writers tripped ran while the readers did: they
	// are still running now.
	if st, _ := idx.stats(); st.Memtable.Merges == 0 {
		close(stop)
		t.Fatal("no merge-down ran during the stress")
	}
	close(stop)
	aux.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := idx.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stress: %v", err)
	}
	if idx.Len() != numObjects {
		t.Fatalf("Len = %d, want %d", idx.Len(), numObjects)
	}
	// Writers own disjoint ranges, so every id's final position is the
	// owner's last write — whether it is still buffered, mid-merge or
	// already in the tree.
	for w := range finals {
		for id, want := range finals[w] {
			got, ok := idx.Location(id)
			if !ok || got != want {
				t.Fatalf("object %d: got %v,%v want %v", id, got, ok, want)
			}
		}
	}
	if err := idx.Close(); err != nil {
		t.Fatalf("close after stress: %v", err)
	}
}

func stressOpts(dir string) Options {
	return Options{
		Strategy:        GeneralizedBottomUp,
		BufferPages:     64,
		ExpectedObjects: 2000,
		Durability:      Durability{Mode: DurabilityBatch, Dir: dir},
		// Small enough that the writers trip a background merge-down every
		// few dozen writes (every 16 per shard on the sharded index).
		Memtable: Memtable{Enabled: true, MaxObjects: 64},
	}
}

func TestMemtableRaceConcurrent(t *testing.T) {
	idx, err := OpenConcurrent(stressOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	memtableStress(t, idx)
}

func TestMemtableRaceSharded(t *testing.T) {
	idx, err := OpenSharded(stressOpts(t.TempDir()), ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	memtableStress(t, idx)
}
