package buffer

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"burtree/internal/pagestore"
	"burtree/internal/stats"
)

const pageSize = 128

func newPool(t *testing.T, capacity, pages int) (*Pool, []pagestore.PageID, *stats.IO) {
	t.Helper()
	io := &stats.IO{}
	store := pagestore.New(pageSize, io)
	ids := make([]pagestore.PageID, pages)
	for i := range ids {
		ids[i] = store.Alloc()
	}
	return New(store, capacity), ids, io
}

func page(fill byte) []byte {
	p := make([]byte, pageSize)
	for i := range p {
		p[i] = fill
	}
	return p
}

func TestReadMissThenHit(t *testing.T) {
	p, ids, io := newPool(t, 4, 1)
	if err := p.Store().Write(ids[0], page(7)); err != nil {
		t.Fatal(err)
	}
	base := io.Snapshot()
	buf := make([]byte, pageSize)
	if err := p.ReadPage(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Fatalf("read wrong data: %d", buf[0])
	}
	d := io.Snapshot().Sub(base)
	if d.Reads != 1 || d.BufferHits != 0 {
		t.Fatalf("first read: %v; want 1 physical read", d)
	}
	if err := p.ReadPage(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	d = io.Snapshot().Sub(base)
	if d.Reads != 1 || d.BufferHits != 1 {
		t.Fatalf("second read: %v; want buffer hit", d)
	}
}

func TestWriteBackOnEvict(t *testing.T) {
	p, ids, io := newPool(t, 2, 3)
	base := io.Snapshot()
	// Fill pool with dirty pages A, B.
	if err := p.WritePage(ids[0], page(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(ids[1], page(2)); err != nil {
		t.Fatal(err)
	}
	if d := io.Snapshot().Sub(base); d.Writes != 0 {
		t.Fatalf("writes before eviction: %v", d)
	}
	// Touch C: evicts A (LRU) with one physical write.
	if err := p.WritePage(ids[2], page(3)); err != nil {
		t.Fatal(err)
	}
	if d := io.Snapshot().Sub(base); d.Writes != 1 {
		t.Fatalf("after eviction: %v; want 1 write", d)
	}
	// A's data must be on disk now.
	buf := make([]byte, pageSize)
	if err := p.Store().ReadInto(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatalf("evicted page content = %d, want 1", buf[0])
	}
}

func TestLRUOrderRespectsReads(t *testing.T) {
	p, ids, _ := newPool(t, 2, 3)
	if err := p.WritePage(ids[0], page(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(ids[1], page(2)); err != nil {
		t.Fatal(err)
	}
	// Touch A so that B becomes LRU.
	buf := make([]byte, pageSize)
	if err := p.ReadPage(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(ids[2], page(3)); err != nil {
		t.Fatal(err)
	}
	if !p.Cached(ids[0]) || p.Cached(ids[1]) || !p.Cached(ids[2]) {
		t.Fatalf("residency after eviction: A=%v B=%v C=%v; want A,C cached",
			p.Cached(ids[0]), p.Cached(ids[1]), p.Cached(ids[2]))
	}
}

func TestZeroCapacityPassesThrough(t *testing.T) {
	p, ids, io := newPool(t, 0, 1)
	base := io.Snapshot()
	if err := p.WritePage(ids[0], page(9)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pageSize)
	if err := p.ReadPage(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	d := io.Snapshot().Sub(base)
	if d.Writes != 1 || d.Reads != 1 || d.BufferHits != 0 {
		t.Fatalf("pass-through io = %v; want direct 1R/1W", d)
	}
	if p.Len() != 0 {
		t.Fatalf("zero-cap pool holds %d frames", p.Len())
	}
}

func TestFlush(t *testing.T) {
	p, ids, io := newPool(t, 4, 2)
	if err := p.WritePage(ids[0], page(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(ids[1], page(2)); err != nil {
		t.Fatal(err)
	}
	base := io.Snapshot()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := io.Snapshot().Sub(base); d.Writes != 2 {
		t.Fatalf("flush wrote %d pages, want 2", d.Writes)
	}
	// Second flush is a no-op: frames now clean.
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := io.Snapshot().Sub(base); d.Writes != 2 {
		t.Fatalf("idempotent flush wrote extra pages: %v", d)
	}
	buf := make([]byte, pageSize)
	if err := p.Store().ReadInto(ids[1], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("flushed content = %d, want 2", buf[0])
	}
}

func TestDiscardDropsDirtyData(t *testing.T) {
	p, ids, io := newPool(t, 4, 1)
	if err := p.WritePage(ids[0], page(5)); err != nil {
		t.Fatal(err)
	}
	p.Discard(ids[0])
	base := io.Snapshot()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := io.Snapshot().Sub(base); d.Writes != 0 {
		t.Fatalf("discarded page still flushed: %v", d)
	}
	if p.Cached(ids[0]) {
		t.Fatal("discarded page still cached")
	}
}

func TestInvalidate(t *testing.T) {
	p, ids, io := newPool(t, 4, 2)
	if err := p.WritePage(ids[0], page(1)); err != nil {
		t.Fatal(err)
	}
	p.Invalidate()
	if p.Len() != 0 {
		t.Fatalf("after invalidate Len = %d", p.Len())
	}
	// Reading again must go to disk (and see stale disk data, since the
	// dirty frame was dropped).
	base := io.Snapshot()
	buf := make([]byte, pageSize)
	if err := p.ReadPage(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if d := io.Snapshot().Sub(base); d.Reads != 1 {
		t.Fatalf("read after invalidate: %v", d)
	}
}

func TestReadWriteConsistencyThroughPool(t *testing.T) {
	// The pool must always return the most recent logical write,
	// regardless of eviction pattern.
	p, ids, _ := newPool(t, 3, 8)
	rng := rand.New(rand.NewSource(42))
	shadow := make(map[pagestore.PageID]byte)
	buf := make([]byte, pageSize)
	for i := 0; i < 2000; i++ {
		id := ids[rng.Intn(len(ids))]
		if rng.Intn(2) == 0 {
			v := byte(rng.Intn(256))
			if err := p.WritePage(id, page(v)); err != nil {
				t.Fatal(err)
			}
			shadow[id] = v
		} else {
			if err := p.ReadPage(id, buf); err != nil {
				t.Fatal(err)
			}
			if want, ok := shadow[id]; ok && buf[0] != want {
				t.Fatalf("iteration %d: page %d = %d, want %d", i, id, buf[0], want)
			}
		}
	}
}

func TestConcurrentPoolAccess(t *testing.T) {
	p, ids, _ := newPool(t, 4, 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, pageSize)
			for i := 0; i < 300; i++ {
				id := ids[(w*7+i)%len(ids)]
				if i%3 == 0 {
					if err := p.WritePage(id, page(byte(w))); err != nil {
						t.Error(err)
						return
					}
				} else if err := p.ReadPage(id, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestQuickPoolMatchesDirectStore(t *testing.T) {
	// Property: a pool-mediated database has the same observable contents
	// as a directly written store after Flush.
	f := func(ops []uint16, capacity uint8) bool {
		io := &stats.IO{}
		store := pagestore.New(pageSize, io)
		mirror := pagestore.New(pageSize, &stats.IO{})
		const n = 6
		ids := make([]pagestore.PageID, n)
		mids := make([]pagestore.PageID, n)
		for i := range ids {
			ids[i] = store.Alloc()
			mids[i] = mirror.Alloc()
		}
		pool := New(store, int(capacity%5))
		for _, op := range ops {
			slot := int(op) % n
			val := byte(op >> 8)
			if err := pool.WritePage(ids[slot], page(val)); err != nil {
				return false
			}
			if err := mirror.Write(mids[slot], page(val)); err != nil {
				return false
			}
		}
		if err := pool.Flush(); err != nil {
			return false
		}
		got := make([]byte, pageSize)
		want := make([]byte, pageSize)
		for i := range ids {
			if err := store.ReadInto(ids[i], got); err != nil {
				return false
			}
			if err := mirror.ReadInto(mids[i], want); err != nil {
				return false
			}
			if !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentEvictionConsistency(t *testing.T) {
	// Hammer a tiny pool from many goroutines with disjoint page sets so
	// each page has one writer; every read must observe that writer's
	// latest value even while evictions stream pages to disk. Exercises
	// the in-flight write-back protocol under simulated latency.
	io := &stats.IO{}
	store := pagestore.New(pageSize, io)
	store.SetLatency(50 * time.Microsecond)
	const (
		workers        = 8
		pagesPerWorker = 6
	)
	ids := make([]pagestore.PageID, workers*pagesPerWorker)
	for i := range ids {
		ids[i] = store.Alloc()
	}
	pool := New(store, 4) // tiny: constant eviction churn
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := ids[w*pagesPerWorker : (w+1)*pagesPerWorker]
			last := make(map[pagestore.PageID]byte)
			buf := make([]byte, pageSize)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				id := mine[rng.Intn(len(mine))]
				if rng.Intn(2) == 0 {
					v := byte(rng.Intn(256))
					if err := pool.WritePage(id, page(v)); err != nil {
						t.Error(err)
						return
					}
					last[id] = v
				} else {
					if err := pool.ReadPage(id, buf); err != nil {
						t.Error(err)
						return
					}
					if want, ok := last[id]; ok && buf[0] != want {
						t.Errorf("worker %d: page %d = %d, want %d", w, id, buf[0], want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	store.SetLatency(0)
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	// After a drained flush, disk state must match the pool view.
	buf := make([]byte, pageSize)
	disk := make([]byte, pageSize)
	for _, id := range ids {
		if err := pool.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if err := store.ReadInto(id, disk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, disk) {
			t.Fatalf("page %d: pool and disk disagree after flush", id)
		}
	}
}

func TestInflightServesLatestData(t *testing.T) {
	// A page evicted dirty must be readable (with its newest contents)
	// while its write-back is still in flight.
	io := &stats.IO{}
	store := pagestore.New(pageSize, io)
	store.SetLatency(2 * time.Millisecond) // slow disk: wide in-flight window
	a := store.Alloc()
	b := store.Alloc()
	c := store.Alloc()
	pool := New(store, 2)
	if err := pool.WritePage(a, page(1)); err != nil {
		t.Fatal(err)
	}
	if err := pool.WritePage(b, page(2)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Evicts a (LRU, dirty): its write-back sleeps 2ms.
		done <- pool.WritePage(c, page(3))
	}()
	// Concurrent read of a must return 1 whether it hits the frame, the
	// in-flight entry, or the post-write disk state.
	buf := make([]byte, pageSize)
	for i := 0; i < 20; i++ {
		if err := pool.ReadPage(a, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 1 {
			t.Fatalf("iteration %d: page a = %d, want 1", i, buf[0])
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
