package burtree_test

// The scaling instrument behind `make scale`: what a second batch writer
// costs on one ConcurrentIndex, beside what two writers cost when they
// share nothing. Not gated — the reference box moves ±10 % between
// minutes — but its three figures go into CHANGES.md with every PR that
// touches the batch path's synchronisation.

import (
	"math/rand"
	"sync"
	"syscall"
	"testing"
	"time"

	"burtree"
)

// cpuTime is the process's user plus system time so far.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkTwoWriters applies 1 200 batches of 256 small moves per writer
// to ConcurrentIndexes of 100 000 uniform objects that fit their buffer
// pools, in three legs: one writer; two writers on one index, writer w
// owning the ids congruent to w; and the same two writers on an index
// each. It reports wall-clock and CPU microseconds per move. The third
// leg is the bar: whatever the second leg loses against it, the writers
// lose to each other, not to the work.
func BenchmarkTwoWriters(b *testing.B) {
	const (
		objects = 100_000
		batches = 1200
		size    = 256
		maxMove = 0.03
	)
	// Every index starts from the same positions. A writer keeps the
	// positions of the ids it owns itself: asking the index (Location)
	// would put the harness's own reads on the object table's lock.
	rng := rand.New(rand.NewSource(1))
	ids, start := make([]uint64, objects), make([]burtree.Point, objects)
	for i := range ids {
		ids[i], start[i] = uint64(i), burtree.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	open := func(b *testing.B) *burtree.ConcurrentIndex {
		x, err := burtree.OpenConcurrent(burtree.Options{
			Strategy:        burtree.GeneralizedBottomUp,
			ExpectedObjects: objects,
			BufferPages:     20_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := x.BulkInsert(ids, start, burtree.PackSTR); err != nil {
			b.Fatal(err)
		}
		return x
	}
	// write is writer w of g: its batches move ids congruent to w mod g.
	write := func(x *burtree.ConcurrentIndex, w, g int) error {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		pos := append([]burtree.Point(nil), start...)
		changes := make([]burtree.Change, size)
		for i := 0; i < batches; i++ {
			for j := range changes {
				id := rng.Intn(objects/g)*g + w
				pos[id] = burtree.Point{
					X: min(max(pos[id].X+(rng.Float64()*2-1)*maxMove, 0), 1),
					Y: min(max(pos[id].Y+(rng.Float64()*2-1)*maxMove, 0), 1),
				}
				changes[j] = burtree.Change{ID: uint64(id), To: pos[id]}
			}
			if _, err := x.UpdateBatch(changes); err != nil {
				return err
			}
		}
		return nil
	}
	for _, leg := range []struct {
		name             string
		writers, indexes int
	}{
		{"1writer", 1, 1},
		{"2writers-1index", 2, 1},
		{"2writers-2indexes", 2, 2},
	} {
		b.Run(leg.name, func(b *testing.B) {
			var wall, cpu time.Duration
			for i := 0; i < b.N; i++ {
				xs := make([]*burtree.ConcurrentIndex, leg.indexes)
				for k := range xs {
					xs[k] = open(b)
				}
				errs := make([]error, leg.writers)
				var wg sync.WaitGroup
				t0, c0 := time.Now(), cpuTime(b)
				for w := 0; w < leg.writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						errs[w] = write(xs[w%leg.indexes], w, leg.writers)
					}(w)
				}
				wg.Wait()
				wall, cpu = wall+time.Since(t0), cpu+cpuTime(b)-c0
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, x := range xs {
					if err := x.CheckInvariants(); err != nil {
						b.Fatal(err)
					}
					if err := x.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
			moves := float64(b.N * leg.writers * batches * size)
			b.ReportMetric(float64(wall.Microseconds())/moves, "wall-µs/move")
			b.ReportMetric(float64(cpu.Microseconds())/moves, "cpu-µs/move")
		})
	}
}
