package burtree

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func openConcurrentTest(t testing.TB, s Strategy) *ConcurrentIndex {
	t.Helper()
	x, err := OpenConcurrent(Options{Strategy: s, ExpectedObjects: 4000, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// bulkLoadConcurrent fills a concurrent index with n deterministic
// uniform points and returns them.
func bulkLoadConcurrent(t testing.TB, x *ConcurrentIndex, n int, seed int64) []Point {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]uint64, n)
	pts := make([]Point, n)
	for i := range ids {
		ids[i] = uint64(i)
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestConcurrentReadWriteStress mixes every operation the index offers
// from many goroutines; it exists to run under -race. Correctness of
// the surviving state is checked after quiescence.
func TestConcurrentReadWriteStress(t *testing.T) {
	for _, s := range []Strategy{TopDown, GeneralizedBottomUp} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			const n = 1200
			x := openConcurrentTest(t, s)
			bulkLoadConcurrent(t, x, n, 7)

			var wg sync.WaitGroup
			errCh := make(chan error, 16)
			fail := func(err error) {
				select {
				case errCh <- err:
				default:
				}
			}

			// Updaters: single moves, each worker on a disjoint id range
			// (the index's contract: per-object ordering is the caller's).
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + w)))
					for i := 0; i < 250; i++ {
						id := uint64(w*300 + rng.Intn(300))
						p, ok := x.Location(id)
						if !ok {
							continue
						}
						np := Point{X: p.X + (rng.Float64()-0.5)*0.02, Y: p.Y + (rng.Float64()-0.5)*0.02}
						if err := x.Update(id, np); err != nil {
							fail(err)
							return
						}
					}
				}(w)
			}

			// Batch updater, on its own id range for the same reason.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(200))
				for b := 0; b < 20; b++ {
					changes := make([]Change, 0, 32)
					for i := 0; i < 32; i++ {
						id := uint64(900 + rng.Intn(n-900))
						p, ok := x.Location(id)
						if !ok {
							continue
						}
						changes = append(changes, Change{ID: id, To: Point{
							X: p.X + (rng.Float64()-0.5)*0.02, Y: p.Y + (rng.Float64()-0.5)*0.02}})
					}
					if _, err := x.UpdateBatch(changes); err != nil {
						fail(err)
						return
					}
				}
			}()

			// Window searches + counts.
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(300 + w)))
					for i := 0; i < 150; i++ {
						cx, cy := rng.Float64(), rng.Float64()
						win := NewRect(cx, cy, cx+0.05, cy+0.05)
						if i%2 == 0 {
							if _, err := x.Search(win); err != nil {
								fail(err)
								return
							}
						} else if _, err := x.Count(win); err != nil {
							fail(err)
							return
						}
					}
				}(w)
			}

			// Nearest-neighbour queries.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(400))
				for i := 0; i < 80; i++ {
					res, err := x.Nearest(Point{X: rng.Float64(), Y: rng.Float64()}, 5)
					if err != nil {
						fail(err)
						return
					}
					for j := 1; j < len(res); j++ {
						if res[j].Dist < res[j-1].Dist {
							fail(errors.New("nearest results out of order"))
							return
						}
					}
				}
			}()

			// Insert/delete churn on a dedicated high id range: every
			// object inserted here is deleted again, so the final size
			// is the bulk-loaded n.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(500))
				for i := 0; i < 120; i++ {
					id := uint64(10_000 + i)
					p := Point{X: rng.Float64(), Y: rng.Float64()}
					if err := x.Insert(id, p); err != nil {
						fail(err)
						return
					}
					if err := x.Update(id, Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
						fail(err)
						return
					}
					if err := x.Delete(id); err != nil {
						fail(err)
						return
					}
				}
			}()

			// Stats poller (the §5.4 monitoring thread).
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					st, cs := x.Stats()
					if st.Size < 0 || cs.Updates < 0 {
						fail(errors.New("implausible stats"))
						return
					}
					x.Len()
				}
			}()

			wg.Wait()
			select {
			case err := <-errCh:
				t.Fatal(err)
			default:
			}
			if x.Len() != n {
				t.Fatalf("Len = %d, want %d", x.Len(), n)
			}
			if err := x.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentBulkInsertErrors(t *testing.T) {
	x := openConcurrentTest(t, GeneralizedBottomUp)
	if err := x.BulkInsert([]uint64{1, 2}, []Point{{X: 0.1, Y: 0.1}}, PackSTR); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := x.BulkInsert([]uint64{1, 1}, []Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}}, PackSTR); !errors.Is(err, ErrDuplicateObject) {
		t.Fatalf("duplicate ids err = %v", err)
	}
	if err := x.BulkInsert([]uint64{1, 2}, []Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}}, PackSTR); err != nil {
		t.Fatal(err)
	}
	if err := x.BulkInsert([]uint64{3}, []Point{{X: 0.3, Y: 0.3}}, PackSTR); err == nil {
		t.Fatal("BulkInsert on non-empty index accepted")
	}
	if x.Len() != 2 {
		t.Fatalf("Len = %d", x.Len())
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentFlushAndResetStats(t *testing.T) {
	x := openConcurrentTest(t, GeneralizedBottomUp)
	bulkLoadConcurrent(t, x, 500, 5)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		id := uint64(rng.Intn(500))
		p, _ := x.Location(id)
		if err := x.Update(id, Point{X: p.X + 0.001, Y: p.Y + 0.001}); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Flush(); err != nil {
		t.Fatal(err)
	}
	st, _ := x.Stats()
	if st.DiskWrites == 0 {
		t.Fatalf("no writes recorded before reset: %+v", st)
	}
	x.ResetStats()
	st, _ = x.Stats()
	if st.DiskReads != 0 || st.DiskWrites != 0 {
		t.Fatalf("counters not reset: %+v", st)
	}
	if st.Size != 500 {
		t.Fatalf("tree shape lost on reset: %+v", st)
	}
}
