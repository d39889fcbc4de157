package burtree

import (
	"math/rand"
	"testing"
	"time"
)

// TestSearchFuncVisitorMayCallBack: SearchFunc visits after its read has
// released every lock, so its visitor may call back into the index. The
// visitor moves an object of the window while an Insert elsewhere in the
// same stack is queued; every call must return within the deadline. When
// the visitor ran under the read's shared latch, its Update queued behind
// the Insert waiting for that latch, and none of the three returned.
func TestSearchFuncVisitorMayCallBack(t *testing.T) {
	for _, fe := range []struct {
		name string
		open func(Options) (walFailureIndex, error)
	}{
		{"ConcurrentIndex", func(o Options) (walFailureIndex, error) { return OpenConcurrent(o) }},
		{"Sharded4", func(o Options) (walFailureIndex, error) { return OpenSharded(o, ShardOptions{Shards: 4}) }},
	} {
		t.Run(fe.name, func(t *testing.T) {
			idx, err := fe.open(Options{Strategy: GeneralizedBottomUp})
			if err != nil {
				t.Fatal(err)
			}
			// 200 objects in the lower-left quadrant: one shard of four.
			rng := rand.New(rand.NewSource(1))
			for id := uint64(1); id <= 200; id++ {
				if err := idx.Insert(id, Point{X: 0.45 * rng.Float64(), Y: 0.45 * rng.Float64()}); err != nil {
					t.Fatal(err)
				}
			}
			window := NewRect(0, 0, 0.2, 0.2)
			var moved uint64
			to := Point{X: 0.01, Y: 0.01}
			started := make(chan struct{})
			search, insert := make(chan error, 1), make(chan error, 1)
			go func() {
				search <- idx.SearchFunc(window, func(id uint64, _ Point) bool {
					if moved != 0 {
						return true
					}
					moved = id
					close(started)
					time.Sleep(100 * time.Millisecond) // the Insert queues meanwhile
					if err := idx.Update(id, to); err != nil {
						t.Errorf("Update from the visitor: %v", err)
					}
					return true
				})
			}()
			go func() {
				<-started
				insert <- idx.Insert(1000, Point{X: 0.44, Y: 0.44})
			}()
			deadline := time.After(5 * time.Second)
			for _, ch := range []chan error{search, insert} {
				select {
				case err := <-ch:
					if err != nil {
						t.Fatal(err)
					}
				case <-deadline:
					t.Fatal("SearchFunc with a visitor that updates, and an Insert queued beside it, did not return within 5 s")
				}
			}
			if p, ok := idx.Location(moved); !ok || p != to {
				t.Fatalf("object %d is at %v (present %v), want %v", moved, p, ok, to)
			}
			if err := idx.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
