package buffer

import (
	"encoding/binary"
	"sync"
	"testing"

	"burtree/internal/pagestore"
	"burtree/internal/stats"
)

// The resident class in these tests is every page whose first byte has
// the high bit set; page(fill) builds one with fill ≥ 0x80.
const residentFill, leafFill = 0x90, 0x10

func highByte(b []byte) bool { return b[0]&0x80 != 0 }

func newResidentPool(t *testing.T, capacity, pages int) (*Pool, []pagestore.PageID, *stats.IO) {
	t.Helper()
	io := &stats.IO{}
	store := pagestore.New(pageSize, io)
	ids := make([]pagestore.PageID, pages)
	for i := range ids {
		ids[i] = store.Alloc()
	}
	return NewResident(store, capacity, highByte), ids, io
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestResidentFramesSurviveLeafPressure: resident pages, admitted by a
// write or by a read miss, outlive any amount of LRU traffic, cost no
// capacity, and a hit on one leaves the LRU order alone.
func TestResidentFramesSurviveLeafPressure(t *testing.T) {
	p, ids, io := newResidentPool(t, 2, 10)
	must(t, p.WritePage(ids[0], page(residentFill)))       // admitted on a dirty release
	must(t, p.Store().Write(ids[1], page(residentFill+1))) // admitted on a read miss below
	buf := make([]byte, pageSize)
	must(t, p.ReadPage(ids[1], buf))
	for round := 0; round < 3; round++ {
		for _, id := range ids[2:] {
			must(t, p.WritePage(id, page(leafFill)))
			must(t, p.ReadPage(id, buf))
		}
	}
	if !p.Cached(ids[0]) || !p.Cached(ids[1]) {
		t.Fatal("a resident page was evicted")
	}
	if got := p.ResidentPages(); got != 2 {
		t.Fatalf("ResidentPages = %d, want 2", got)
	}
	if got := p.Len(); got != 4 {
		t.Fatalf("Len = %d, want 2 LRU frames + 2 resident", got)
	}
	base := io.Snapshot()
	for _, id := range ids[:2] {
		must(t, p.ReadPage(id, buf))
	}
	if d := io.Snapshot().Sub(base); d.Reads != 0 || d.BufferHits != 2 {
		t.Fatalf("reading the resident pages: %v; want two hits", d)
	}
	// ids[8] is the least recently used leaf; the resident hits above did
	// not move it, so the next miss evicts it and keeps ids[9].
	must(t, p.ReadPage(ids[2], buf))
	if p.Cached(ids[8]) || !p.Cached(ids[9]) {
		t.Fatalf("after a leaf miss: ids[8] cached %v, ids[9] cached %v; want the LRU leaf evicted", p.Cached(ids[8]), p.Cached(ids[9]))
	}
	// Flush leaves every frame cached, resident ones included.
	must(t, p.Flush())
	if d := io.Snapshot().Sub(base); d.Evictions != 1 {
		t.Fatalf("evictions %d, want the one leaf", d.Evictions)
	}
}

// TestResidentFlushWritesDirtyFrames: a dirty resident frame reaches the
// disk on Flush, once, and stays cached.
func TestResidentFlushWritesDirtyFrames(t *testing.T) {
	p, ids, io := newResidentPool(t, 1, 3)
	for i, id := range ids {
		must(t, p.WritePage(id, page(residentFill+byte(i))))
	}
	base := io.Snapshot()
	must(t, p.Flush())
	if d := io.Snapshot().Sub(base); d.Writes != 3 {
		t.Fatalf("flush: %v; want 3 writes", d)
	}
	buf := make([]byte, pageSize)
	for i, id := range ids {
		must(t, p.Store().ReadInto(id, buf))
		if buf[0] != residentFill+byte(i) {
			t.Fatalf("page %d on disk holds %#x, want %#x", id, buf[0], residentFill+byte(i))
		}
		if !p.Cached(id) {
			t.Fatalf("page %d left the pool on Flush", id)
		}
	}
	base = io.Snapshot()
	must(t, p.Flush())
	if d := io.Snapshot().Sub(base); d.Writes != 0 {
		t.Fatalf("second flush: %v; want nothing written", d)
	}
}

// TestResidentDiscardAndInvalidate: Discard and Invalidate drop resident
// frames without writing them, and a freed page id allocated again is
// classified afresh — reused as a leaf, it is an ordinary LRU frame.
func TestResidentDiscardAndInvalidate(t *testing.T) {
	p, ids, io := newResidentPool(t, 1, 4)
	must(t, p.WritePage(ids[0], page(residentFill)))
	base := io.Snapshot()
	p.Discard(ids[0])
	if p.Cached(ids[0]) || p.ResidentPages() != 0 {
		t.Fatalf("after Discard: cached %v, ResidentPages %d", p.Cached(ids[0]), p.ResidentPages())
	}
	must(t, p.Store().Free(ids[0]))
	if id := p.Store().Alloc(); id != ids[0] {
		t.Fatalf("allocator did not recycle page %d (got %d)", ids[0], id)
	}
	must(t, p.WritePage(ids[0], page(leafFill)))
	if p.ResidentPages() != 0 {
		t.Fatal("a page reused as a leaf kept its resident class")
	}
	must(t, p.WritePage(ids[1], page(leafFill))) // the one LRU frame goes to ids[1]
	if p.Cached(ids[0]) {
		t.Fatal("a page reused as a leaf was not evicted")
	}
	if d := io.Snapshot().Sub(base); d.Writes != 1 {
		t.Fatalf("writes %d, want only the reused leaf's eviction", d.Writes)
	}

	must(t, p.WritePage(ids[2], page(residentFill)))
	must(t, p.WritePage(ids[3], page(residentFill)))
	base = io.Snapshot()
	p.Invalidate()
	if p.Len() != 0 || p.ResidentPages() != 0 {
		t.Fatalf("after Invalidate: Len %d, ResidentPages %d", p.Len(), p.ResidentPages())
	}
	must(t, p.Flush())
	if d := io.Snapshot().Sub(base); d.Writes != 0 {
		t.Fatalf("Invalidate then Flush wrote %d pages", d.Writes)
	}
}

// TestResidentPinnedCountsPins: Pinned sees the pins of resident frames.
func TestResidentPinnedCountsPins(t *testing.T) {
	p, ids, _ := newResidentPool(t, 1, 2)
	must(t, p.WritePage(ids[0], page(residentFill)))
	must(t, p.WritePage(ids[1], page(leafFill)))
	h0 := mustPin(t, p.Pin, ids[0])
	h1 := mustPin(t, p.Pin, ids[0])
	h2 := mustPin(t, p.PinExclusive, ids[1])
	if n := p.Pinned(); n != 3 {
		t.Fatalf("Pinned() = %d with three pins held", n)
	}
	mustRelease(t, h0)
	mustRelease(t, h1)
	mustRelease(t, h2)
	if n := p.Pinned(); n != 0 {
		t.Fatalf("Pinned() = %d after release", n)
	}
}

// TestResidentOverwriteMissOnRelease: a PinOverwrite miss of a resident
// page joins the class when its dirty handle is released — even with
// every LRU frame pinned — and an abandoned one leaves nothing cached.
func TestResidentOverwriteMissOnRelease(t *testing.T) {
	p, ids, io := newResidentPool(t, 1, 3)
	must(t, p.WritePage(ids[2], page(leafFill)))
	leaf := mustPin(t, p.Pin, ids[2]) // the only LRU frame, pinned
	base := io.Snapshot()

	h := mustPin(t, p.PinOverwrite, ids[0])
	mustRelease(t, h) // abandoned: nothing stored
	if p.Cached(ids[0]) {
		t.Fatal("an abandoned overwrite cached its page")
	}
	h = mustPin(t, p.PinOverwrite, ids[0])
	copy(h.Bytes(), page(residentFill))
	h.MarkDirty()
	mustRelease(t, h)
	if !p.Cached(ids[0]) || p.ResidentPages() != 1 {
		t.Fatalf("after the overwrite: cached %v, ResidentPages %d", p.Cached(ids[0]), p.ResidentPages())
	}
	if d := io.Snapshot().Sub(base); d.Reads != 0 || d.Writes != 0 || d.PinFallbacks != 0 {
		t.Fatalf("overwrite miss: %v; want no physical I/O and no fallback", d)
	}
	mustRelease(t, leaf)
}

// TestResidentZeroCapacityIsDirectIO: at capacity zero the predicate is
// ignored — a NewResident pool does exactly the I/O of a New one.
func TestResidentZeroCapacityIsDirectIO(t *testing.T) {
	run := func(mk func(*pagestore.Store) *Pool) (stats.Snapshot, int) {
		io := &stats.IO{}
		store := pagestore.New(pageSize, io)
		ids := []pagestore.PageID{store.Alloc(), store.Alloc()}
		p := mk(store)
		buf := make([]byte, pageSize)
		for i := 0; i < 3; i++ {
			must(t, p.WritePage(ids[0], page(residentFill)))
			must(t, p.ReadPage(ids[0], buf))
			h := mustPin(t, p.PinOverwrite, ids[1])
			copy(h.Bytes(), page(residentFill))
			h.MarkDirty()
			mustRelease(t, h)
			h = mustPin(t, p.PinExclusive, ids[1])
			mustRelease(t, h)
		}
		must(t, p.Flush())
		return io.Snapshot(), p.Len() + p.ResidentPages() + p.Pinned()
	}
	plain, held := run(func(s *pagestore.Store) *Pool { return New(s, 0) })
	if held != 0 {
		t.Fatalf("zero-capacity New pool holds %d frames or pins", held)
	}
	res, held := run(func(s *pagestore.Store) *Pool { return NewResident(s, 0, highByte) })
	if held != 0 {
		t.Fatalf("zero-capacity NewResident pool holds %d frames or pins", held)
	}
	if res != plain {
		t.Fatalf("zero capacity: NewResident did %v, New did %v", res, plain)
	}
}

// TestResidentPinsRaceEvictions: writers patch resident and LRU pages
// while readers churn the small LRU ring; no patch may be lost to an
// eviction racing a pin, and no page may be seen torn.
func TestResidentPinsRaceEvictions(t *testing.T) {
	const writers, readers, rounds, leaves = 4, 3, 1500, 12
	p, ids, _ := newResidentPool(t, 2, writers+leaves)
	for i, id := range ids {
		fill := byte(leafFill)
		if i < writers {
			fill = residentFill
		}
		must(t, p.WritePage(id, page(fill)))
		b := page(fill)
		binary.LittleEndian.PutUint64(b[8:], 0)
		binary.LittleEndian.PutUint64(b[pageSize-8:], 0)
		must(t, p.WritePage(id, b))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One resident page and three leaves per writer, one writer
			// per page, as the DGL granules ensure.
			mine := []pagestore.PageID{ids[w], ids[writers+3*w], ids[writers+3*w+1], ids[writers+3*w+2]}
			for i := 0; i < rounds; i++ {
				h, err := p.PinExclusive(mine[i%len(mine)])
				if err != nil {
					t.Error(err)
					return
				}
				b := h.Bytes()
				v := binary.LittleEndian.Uint64(b[8:]) + 1
				binary.LittleEndian.PutUint64(b[8:], v)
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
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; i < rounds; i++ {
				id := ids[i%len(ids)]
				h, err := p.Pin(id)
				if err != nil {
					t.Error(err)
					return
				}
				b := h.Bytes()
				head, tail := binary.LittleEndian.Uint64(b[8:]), binary.LittleEndian.Uint64(b[pageSize-8:])
				_ = h.Release()
				if head != tail {
					t.Errorf("torn page %d: %d vs %d", id, head, tail)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	must(t, p.Flush())
	if n := p.Pinned(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
	if got := p.ResidentPages(); got != writers {
		t.Fatalf("ResidentPages = %d, want %d", got, writers)
	}
	buf := make([]byte, pageSize)
	for i, id := range ids {
		must(t, p.Store().ReadInto(id, buf))
		want := uint64(rounds / 4)
		if v := binary.LittleEndian.Uint64(buf[8:]); v != want {
			t.Fatalf("page %d (#%d) counts %d patches, want %d (a patch was lost)", id, i, v, want)
		}
	}
}
