package buffer

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand"
	"testing"

	"burtree/internal/pagestore"
	"burtree/internal/stats"
)

// traceAccess is the pool surface the replacement-parity trace drives:
// a logical read, a logical whole-page write and a read-modify-write of
// one page.
type traceAccess interface {
	read(id pagestore.PageID, dst []byte) error
	write(id pagestore.PageID, src []byte) error
	patch(id pagestore.PageID, off int, val uint64) error
}

// traceResult is what a trace leaves behind: the counters the paper's
// metric is made of, and a hash of every store page after Flush.
type traceResult struct {
	Reads, Writes, BufferHits int64
	StoreHash                 uint64
}

// traceShape is what a trace does beside its seeded mix.
type traceShape struct {
	// pages is the number of pages allocated before the first access.
	pages int
	// growing lets the store grow: a retirement sometimes allocates a
	// second page, whose id lies beyond every table sized so far.
	growing bool
	// midFlight stages, every so many accesses, an eviction that is still
	// in flight while the trace goes on (0: never); see stageEviction.
	midFlight int
}

// steadyShape is the trace the copying pool was recorded on.
var steadyShape = traceShape{pages: 400}

// growingShape starts small and grows about tenfold, past several table
// sizes, with evictions caught mid-flight all along.
var growingShape = traceShape{pages: 120, growing: true, midFlight: 500}

// runTrace replays a seeded mix of reads, writes, patches, discards (with
// free and reallocation) and reads of freed pages against a pool of the
// given capacity, through mk's access functions.
func runTrace(t *testing.T, capacity, accesses int, shape traceShape, mk func(*Pool) traceAccess) traceResult {
	t.Helper()
	const tracePage = 256
	io := &stats.IO{}
	store := pagestore.New(tracePage, io)
	pool := New(store, capacity)
	acc := mk(pool)
	rng := rand.New(rand.NewSource(20030909))

	live := make([]pagestore.PageID, shape.pages)
	for i := range live {
		live[i] = store.Alloc()
	}
	var freed []pagestore.PageID
	buf := make([]byte, tracePage)
	// Skewed choice: a hot tenth of the pages takes half of the accesses,
	// so every capacity sees hits, misses and dirty evictions.
	pick := func() int {
		if rng.Intn(2) == 0 {
			return rng.Intn(len(live) / 10)
		}
		return rng.Intn(len(live))
	}
	for i := 0; i < accesses; i++ {
		if shape.midFlight > 0 && i%shape.midFlight == shape.midFlight-1 {
			n := i / shape.midFlight
			stageEviction(t, pool, acc, live[n*7%len(live)], n%2 == 0, buf)
		}
		switch r := rng.Intn(100); {
		case r < 45:
			if err := acc.read(live[pick()], buf); err != nil {
				t.Fatalf("access %d: read: %v", i, err)
			}
		case r < 65:
			for j := 0; j < tracePage; j += 8 {
				binary.LittleEndian.PutUint64(buf[j:], rng.Uint64())
			}
			if err := acc.write(live[pick()], buf); err != nil {
				t.Fatalf("access %d: write: %v", i, err)
			}
		case r < 90:
			if err := acc.patch(live[pick()], 8*rng.Intn(tracePage/8), rng.Uint64()); err != nil {
				t.Fatalf("access %d: patch: %v", i, err)
			}
		case r < 95:
			// Retire a page, as a node merge does, and take a page from
			// the allocator, as a split does (the one just freed, or an
			// older one).
			k := pick()
			pool.Discard(live[k])
			if err := store.Free(live[k]); err != nil {
				t.Fatalf("access %d: free: %v", i, err)
			}
			freed = append(freed, live[k])
			live[k] = store.Alloc()
			for j, id := range freed {
				if id == live[k] {
					freed = append(freed[:j], freed[j+1:]...)
					break
				}
			}
			if shape.growing && rng.Intn(4) == 0 {
				live = append(live, store.Alloc())
			}
		default:
			// A read that fails (the batch path reads leaves an earlier
			// change freed) must leave the pool as it was.
			if len(freed) == 0 {
				continue
			}
			if err := acc.read(freed[rng.Intn(len(freed))], buf); !errors.Is(err, pagestore.ErrPageFreed) {
				t.Fatalf("access %d: read of freed page: %v", i, err)
			}
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	s := io.Snapshot()
	_, pages, _ := store.Dump()
	h := fnv.New64a()
	for _, pg := range pages {
		h.Write(pg)
	}
	return traceResult{s.Reads, s.Writes, s.BufferHits, h.Sum64()}
}

// stageEviction does by hand what a second goroutine's miss would do to
// the pool — evict a dirty frame and leave it in flight — lets the
// trace's goroutine act on that page while the write-back has not run,
// and then runs it. The page is written first, so that it has a dirty
// frame to evict. With retire it is then discarded, freed, reallocated
// under the same id and rewritten mid-flight (the write-back must be
// skipped and the new contents reach the disk); without, it is read
// mid-flight (served from the frame in flight and cached again) and
// patched, so the late write-back lands under a newer cached version.
// A pool of capacity zero has no frame to evict and sees the same
// accesses without the flight.
func stageEviction(t *testing.T, p *Pool, acc traceAccess, id pagestore.PageID, retire bool, buf []byte) {
	t.Helper()
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("staged eviction of page %d: %s: %v", id, what, err)
		}
	}
	fill := func(salt byte) {
		for j := range buf {
			buf[j] = byte(id) + byte(j) + salt
		}
	}
	fill(1)
	must("write", acc.write(id, buf))
	p.mu.Lock()
	v := p.cachedLocked(id)
	if v != nil {
		v = p.evictLocked(v)
	}
	p.mu.Unlock()

	if retire {
		p.Discard(id)
		must("free", p.Store().Free(id))
		if again := p.Store().Alloc(); again != id {
			t.Fatalf("allocator handed out %d, not the page just freed (%d)", again, id)
		}
		fill(2)
		must("rewrite", acc.write(id, buf))
	} else {
		must("read", acc.read(id, buf))
		if buf[0] != byte(id)+1 {
			t.Fatalf("page %d read mid-flight starts with %d, not the byte just written", id, buf[0])
		}
		must("patch", acc.patch(id, 8, uint64(id)))
	}
	if v != nil {
		must("write-back", p.writeBack(v))
	}
}

// pinAccess drives the trace through the pin primitives and, on every
// other access, through the copying wrappers over them.
type pinAccess struct {
	p   *Pool
	n   int
	buf []byte
}

func (a *pinAccess) read(id pagestore.PageID, dst []byte) error {
	if a.n++; a.n%2 == 0 {
		return a.p.ReadPage(id, dst)
	}
	h, err := a.p.Pin(id)
	if err != nil {
		return err
	}
	copy(dst, h.Bytes())
	return h.Release()
}

func (a *pinAccess) write(id pagestore.PageID, src []byte) error {
	if a.n++; a.n%2 == 0 {
		return a.p.WritePage(id, src)
	}
	h, err := a.p.PinOverwrite(id)
	if err != nil {
		return err
	}
	copy(h.Bytes(), src)
	h.MarkDirty()
	return h.Release()
}

func (a *pinAccess) patch(id pagestore.PageID, off int, val uint64) error {
	if a.n++; a.n%2 == 0 {
		// The pair a patch replaces: nothing lies between the two.
		if err := a.p.ReadPage(id, a.buf); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(a.buf[off:], val)
		return a.p.WritePage(id, a.buf)
	}
	h, err := a.p.PinExclusive(id)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(h.Bytes()[off:], val)
	h.MarkDirty()
	return h.Release()
}

// TestTraceMatchesCopyingPool is the proof that replacement order and
// accounting did not move when frames became pinnable, nor when the frame
// table became an array: the steady constants were recorded by replaying
// the same trace against the pool the pinnable one replaced
// (container/list LRU, copy-in/copy-out, ReadPage+WritePage for a patch),
// the growing ones against the pool that found its frames through maps.
func TestTraceMatchesCopyingPool(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape traceShape
		want  map[int]traceResult
	}{
		{"steady", steadyShape, map[int]traceResult{
			0:   {139942, 89913, 0, 0x5e8c5fdcc0ff91c0},
			1:   {138837, 89504, 1105, 0x5e8c5fdcc0ff91c0},
			8:   {131040, 86559, 8902, 0x5e8c5fdcc0ff91c0},
			100: {62686, 44157, 77256, 0x5e8c5fdcc0ff91c0},
		}},
		{"growing", growingShape, map[int]traceResult{
			0:   {140126, 90618, 0, 0x6d6311d2ee78c38a},
			1:   {139154, 90184, 972, 0x6d6311d2ee78c38a},
			8:   {135205, 88659, 4921, 0x6d6311d2ee78c38a},
			100: {99500, 69970, 40626, 0x6d6311d2ee78c38a},
		}},
	} {
		for _, capacity := range []int{0, 1, 8, 100} {
			var pool *Pool
			got := runTrace(t, capacity, 200000, tc.shape, func(p *Pool) traceAccess {
				pool = p
				return &pinAccess{p: p, buf: make([]byte, 256)}
			})
			if got != tc.want[capacity] {
				t.Errorf("%s, capacity %d: trace left %+v, the reference pool left %+v", tc.name, capacity, got, tc.want[capacity])
			}
			if n := pool.Pinned(); n != 0 {
				t.Errorf("%s, capacity %d: %d pins leaked", tc.name, capacity, n)
			}
			if tc.shape.growing && capacity > 0 && len(pool.table) < 4*(tc.shape.pages+tableSlack) {
				t.Errorf("%s, capacity %d: the table ended at %d slots; the trace did not make it grow", tc.name, capacity, len(pool.table))
			}
		}
	}
}
