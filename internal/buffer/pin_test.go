package buffer

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"burtree/internal/pagestore"
	"burtree/internal/stats"
)

// mustPin pins id through pin and fails the test on error.
func mustPin(t *testing.T, pin func(pagestore.PageID) (Handle, error), id pagestore.PageID) Handle {
	t.Helper()
	h, err := pin(id)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustRelease(t *testing.T, h Handle) {
	t.Helper()
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedFrameSurvivesEvictionPressure(t *testing.T) {
	p, ids, _ := newPool(t, 2, 10)
	if err := p.WritePage(ids[0], page(7)); err != nil {
		t.Fatal(err)
	}
	h := mustPin(t, p.Pin, ids[0])
	buf := make([]byte, pageSize)
	for round := 0; round < 3; round++ {
		for _, id := range ids[1:] {
			if err := p.ReadPage(id, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !p.Cached(ids[0]) {
		t.Fatal("pinned page was evicted")
	}
	if h.Bytes()[0] != 7 {
		t.Fatalf("pinned bytes changed under the pin: %d", h.Bytes()[0])
	}
	if n := p.Pinned(); n != 1 {
		t.Fatalf("Pinned() = %d with one pin held", n)
	}
	mustRelease(t, h)
	if n := p.Pinned(); n != 0 {
		t.Fatalf("Pinned() = %d after release", n)
	}
	// Unpinned, it is the least recently used frame again.
	if err := p.ReadPage(ids[1], buf); err != nil {
		t.Fatal(err)
	}
	if err := p.ReadPage(ids[2], buf); err != nil {
		t.Fatal(err)
	}
	if p.Cached(ids[0]) {
		t.Fatal("released page survived two misses in a pool of two")
	}
}

func TestEveryFramePinnedFallsBackToTransientFrame(t *testing.T) {
	p, ids, io := newPool(t, 2, 3)
	if err := p.Store().Write(ids[2], page(3)); err != nil {
		t.Fatal(err)
	}
	a := mustPin(t, p.Pin, ids[0])
	b := mustPin(t, p.Pin, ids[1])
	base := io.Snapshot()

	// A read: one physical read, nothing cached, nothing evicted.
	h := mustPin(t, p.Pin, ids[2])
	if h.Bytes()[0] != 3 {
		t.Fatalf("transient read returned %d", h.Bytes()[0])
	}
	mustRelease(t, h)
	if d := io.Snapshot().Sub(base); d.Reads != 1 || d.Writes != 0 || d.BufferHits != 0 || d.PinFallbacks != 1 || d.Evictions != 0 {
		t.Fatalf("transient read: %v", d)
	}
	if p.Cached(ids[2]) || p.Len() != 2 {
		t.Fatal("transient frame entered the table")
	}

	// A patch: one read, and one write when released dirty.
	h = mustPin(t, p.PinExclusive, ids[2])
	h.Bytes()[0] = 4
	h.MarkDirty()
	mustRelease(t, h)
	if d := io.Snapshot().Sub(base); d.Reads != 2 || d.Writes != 1 || d.PinFallbacks != 2 {
		t.Fatalf("transient patch: %v", d)
	}
	buf := make([]byte, pageSize)
	if err := p.Store().ReadInto(ids[2], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 4 {
		t.Fatalf("store holds %d after a transient patch, want 4", buf[0])
	}

	// An overwrite: no read, written through when there is still no room.
	h = mustPin(t, p.PinOverwrite, ids[2])
	copy(h.Bytes(), page(5))
	h.MarkDirty()
	mustRelease(t, h)
	if d := io.Snapshot().Sub(base); d.Reads != 3 || d.Writes != 2 {
		t.Fatalf("transient overwrite: %v", d)
	}

	mustRelease(t, a)
	mustRelease(t, b)
	if err := p.ReadPage(ids[2], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 || !p.Cached(ids[2]) {
		t.Fatalf("after the pins are gone: read %d, cached %v", buf[0], p.Cached(ids[2]))
	}
	if n := p.Pinned(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
}

func TestZeroCapacityPinsDoDirectIO(t *testing.T) {
	p, ids, io := newPool(t, 0, 1)
	base := io.Snapshot()
	h := mustPin(t, p.PinOverwrite, ids[0])
	copy(h.Bytes(), page(9))
	h.MarkDirty()
	mustRelease(t, h)
	if d := io.Snapshot().Sub(base); d.Reads != 0 || d.Writes != 1 {
		t.Fatalf("overwrite: %v; want 0R/1W", d)
	}
	h = mustPin(t, p.Pin, ids[0])
	if h.Bytes()[0] != 9 {
		t.Fatalf("read %d, want 9", h.Bytes()[0])
	}
	mustRelease(t, h)
	if d := io.Snapshot().Sub(base); d.Reads != 1 || d.Writes != 1 {
		t.Fatalf("read: %v; want 1R/1W", d)
	}
	h = mustPin(t, p.PinExclusive, ids[0])
	h.Bytes()[1] = 1
	h.MarkDirty()
	mustRelease(t, h)
	d := io.Snapshot().Sub(base)
	if d.Reads != 2 || d.Writes != 2 || d.BufferHits != 0 || d.PinFallbacks != 0 {
		t.Fatalf("patch: %v; want 2R/2W and no fallback counted", d)
	}
	if p.Len() != 0 || p.Pinned() != 0 {
		t.Fatalf("zero-cap pool holds %d frames, %d pins", p.Len(), p.Pinned())
	}
}

// A patch or an encode that fails stores nothing and releases without
// MarkDirty: the frame must stay as it was, clean frames clean.
func TestAbandonedPatchLeavesFrameCleanAndUnchanged(t *testing.T) {
	p, ids, io := newPool(t, 2, 4)
	for i, id := range ids {
		if err := p.Store().Write(id, page(byte(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	base := io.Snapshot()

	h := mustPin(t, p.PinExclusive, ids[0]) // miss
	mustRelease(t, h)
	h = mustPin(t, p.PinOverwrite, ids[0]) // hit
	if h.Bytes()[0] != 10 {
		t.Fatalf("overwrite pin of a cached page shows %d, want its contents (10)", h.Bytes()[0])
	}
	mustRelease(t, h)
	h = mustPin(t, p.PinOverwrite, ids[1]) // miss: garbage, abandoned
	mustRelease(t, h)
	if p.Cached(ids[1]) {
		t.Fatal("an abandoned overwrite made its page cached")
	}

	// Evict everything: a clean frame costs no write.
	buf := make([]byte, pageSize)
	for _, id := range ids[1:] {
		if err := p.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := io.Snapshot().Sub(base); d.Writes != 0 || d.DirtyWriteBacks != 0 {
		t.Fatalf("abandoned patches wrote pages: %v", d)
	}
	for i, id := range ids {
		if err := p.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(10+i) {
			t.Fatalf("page %d reads %d, want %d", id, buf[0], 10+i)
		}
	}
}

func TestEvictionCounters(t *testing.T) {
	p, ids, io := newPool(t, 1, 3)
	if err := p.WritePage(ids[0], page(1)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pageSize)
	if err := p.ReadPage(ids[1], buf); err != nil { // evicts ids[0], dirty
		t.Fatal(err)
	}
	if err := p.ReadPage(ids[2], buf); err != nil { // evicts ids[1], clean
		t.Fatal(err)
	}
	if s := io.Snapshot(); s.Evictions != 2 || s.DirtyWriteBacks != 1 || s.Writes != 1 {
		t.Fatalf("counters = %v; want 2 evictions, 1 dirty write-back", s)
	}
}

// TestPinAccessAllocatesNothing is the point of recycled frames: once the
// pool is warm, neither a hit nor a miss allocates — not with a clean
// victim, and not with a dirty one going through the in-flight table.
func TestPinAccessAllocatesNothing(t *testing.T) {
	p, ids, _ := newPool(t, 4, 16)
	buf := make([]byte, pageSize)
	for _, id := range ids { // warm: every frame the pool will use exists
		if err := p.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	hot := ids[len(ids)-1]
	if n := testing.AllocsPerRun(200, func() {
		h, err := p.Pin(hot)
		if err != nil {
			t.Fatal(err)
		}
		_ = h.Bytes()[0]
		_ = h.Release()
	}); n != 0 {
		t.Errorf("a hit allocates %v times", n)
	}

	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	next := 0
	if n := testing.AllocsPerRun(200, func() {
		h, err := p.Pin(ids[next%len(ids)]) // cycling over 16 pages in a pool of 4: always a miss
		next++
		if err != nil {
			t.Fatal(err)
		}
		_ = h.Release()
	}); n != 0 {
		t.Errorf("a miss with a clean victim allocates %v times", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		h, err := p.PinExclusive(ids[next%len(ids)]) // every victim was patched four misses ago
		next++
		if err != nil {
			t.Fatal(err)
		}
		h.Bytes()[0]++
		h.MarkDirty()
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a miss with a dirty victim allocates %v times", n)
	}
}

// TestTornPagesNeverObserved: writers patch a counter and its mirror in a
// second field of the same page under an exclusive pin, readers assert
// under a shared pin that the two always agree — on a pool small enough
// that pages are evicted, written back and re-read all the while.
func TestTornPagesNeverObserved(t *testing.T) {
	io := &stats.IO{}
	store := pagestore.New(pageSize, io)
	const pages, writers, readers, rounds = 8, 4, 4, 2000
	ids := make([]pagestore.PageID, pages)
	for i := range ids {
		ids[i] = store.Alloc()
	}
	p := New(store, 3)

	var stop atomic.Bool
	var wg, rwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each page has one writer, as the DGL page granules ensure.
			mine := []pagestore.PageID{ids[2*w], ids[2*w+1]}
			for i := 0; i < rounds; i++ {
				h, err := p.PinExclusive(mine[i%2])
				if err != nil {
					t.Error(err)
					return
				}
				b := h.Bytes()
				v := binary.LittleEndian.Uint64(b) + 1
				binary.LittleEndian.PutUint64(b, v)
				binary.LittleEndian.PutUint64(b[pageSize-8:], v)
				h.MarkDirty()
				if err := h.Release(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := r; !stop.Load(); i++ {
				h, err := p.Pin(ids[i%pages])
				if err != nil {
					t.Error(err)
					return
				}
				b := h.Bytes()
				head, tail := binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[pageSize-8:])
				_ = h.Release()
				if head != tail {
					t.Errorf("torn page %d: entry %d, mirror %d", ids[i%pages], head, tail)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	rwg.Wait()

	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := p.Pinned(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
	buf := make([]byte, pageSize)
	for _, id := range ids {
		if err := store.ReadInto(id, buf); err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint64(buf); v != rounds/2 {
			t.Fatalf("page %d counts %d patches, want %d (a patch was lost)", id, v, rounds/2)
		}
	}
}
