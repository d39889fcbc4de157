package hashindex

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"burtree/internal/buffer"
	"burtree/internal/pagestore"
	"burtree/internal/stats"
)

func newIndex(t testing.TB, pageSize, bufferPages, expected int) (*Index, *stats.IO) {
	t.Helper()
	io := &stats.IO{}
	store := pagestore.New(pageSize, io)
	pool := buffer.New(store, bufferPages)
	return New(pool, expected), io
}

func TestSetLookupDelete(t *testing.T) {
	x, _ := newIndex(t, 256, 0, 100)
	if err := x.Set(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := x.Set(2, 20); err != nil {
		t.Fatal(err)
	}
	if got, err := x.Lookup(1); err != nil || got != 10 {
		t.Fatalf("Lookup(1) = %d, %v", got, err)
	}
	if got, err := x.Lookup(2); err != nil || got != 20 {
		t.Fatalf("Lookup(2) = %d, %v", got, err)
	}
	if _, err := x.Lookup(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Lookup(3) err = %v", err)
	}
	if x.Size() != 2 {
		t.Fatalf("size = %d", x.Size())
	}
	if err := x.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Lookup(1); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted oid still mapped")
	}
	if err := x.Delete(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
	if x.Size() != 1 {
		t.Fatalf("size after delete = %d", x.Size())
	}
}

func TestUpdateInPlace(t *testing.T) {
	x, io := newIndex(t, 256, 0, 10)
	if err := x.Set(5, 50); err != nil {
		t.Fatal(err)
	}
	if err := x.Set(5, 51); err != nil {
		t.Fatal(err)
	}
	if got, _ := x.Lookup(5); got != 51 {
		t.Fatalf("updated mapping = %d", got)
	}
	if x.Size() != 1 {
		t.Fatalf("size = %d, update must not grow", x.Size())
	}
	// No-op update performs no write.
	base := io.Snapshot()
	if err := x.Set(5, 51); err != nil {
		t.Fatal(err)
	}
	if d := io.Snapshot().Sub(base); d.Writes != 0 {
		t.Fatalf("no-op set wrote pages: %v", d)
	}
}

func TestSetInvalidLeafRejected(t *testing.T) {
	x, _ := newIndex(t, 256, 0, 10)
	if err := x.Set(1, pagestore.InvalidPage); err == nil {
		t.Fatal("invalid leaf accepted")
	}
}

func TestOverflowChains(t *testing.T) {
	// Single bucket forces long chains: 256B pages hold 15 slots.
	x, _ := newIndex(t, 256, 0, 1)
	if x.Buckets() != 1 {
		t.Fatalf("buckets = %d, want 1", x.Buckets())
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := x.Set(uint64(i), pagestore.PageID(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := x.Lookup(uint64(i))
		if err != nil || got != pagestore.PageID(1000+i) {
			t.Fatalf("Lookup(%d) = %d, %v", i, got, err)
		}
	}
	s, err := x.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxChainPages < 2 {
		t.Fatalf("expected overflow chains, stats = %+v", s)
	}
	// Deleting from the middle of a chain keeps the rest reachable.
	for i := 0; i < n; i += 3 {
		if err := x.Delete(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		_, err := x.Lookup(uint64(i))
		if i%3 == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("Lookup(%d) after delete err = %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("Lookup(%d) = %v", i, err)
		}
	}
}

func TestLookupCostIsOnePageTypical(t *testing.T) {
	// With a properly sized directory and no buffer, a lookup should cost
	// ~1 physical read — the paper charges exactly 1 I/O for it.
	const n = 5000
	x, io := newIndex(t, 1024, 0, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if err := x.Set(uint64(i), pagestore.PageID(1+rng.Intn(1<<20))); err != nil {
			t.Fatal(err)
		}
	}
	base := io.Snapshot()
	const probes = 2000
	for i := 0; i < probes; i++ {
		if _, err := x.Lookup(uint64(rng.Intn(n))); err != nil {
			t.Fatal(err)
		}
	}
	d := io.Snapshot().Sub(base)
	avg := float64(d.Reads) / probes
	if avg > 1.2 {
		t.Fatalf("avg lookup reads = %.3f, want ~1", avg)
	}
}

func TestManyEntriesRandomized(t *testing.T) {
	x, _ := newIndex(t, 512, 16, 2000)
	rng := rand.New(rand.NewSource(2))
	shadow := map[uint64]pagestore.PageID{}
	for step := 0; step < 10000; step++ {
		oid := uint64(rng.Intn(3000))
		switch rng.Intn(3) {
		case 0, 1:
			leaf := pagestore.PageID(1 + rng.Intn(1<<16))
			if err := x.Set(oid, leaf); err != nil {
				t.Fatal(err)
			}
			shadow[oid] = leaf
		case 2:
			err := x.Delete(oid)
			if _, ok := shadow[oid]; ok {
				if err != nil {
					t.Fatalf("delete mapped oid %d: %v", oid, err)
				}
				delete(shadow, oid)
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("delete unmapped oid %d err = %v", oid, err)
			}
		}
	}
	if x.Size() != len(shadow) {
		t.Fatalf("size = %d, shadow = %d", x.Size(), len(shadow))
	}
	for oid, want := range shadow {
		got, err := x.Lookup(oid)
		if err != nil || got != want {
			t.Fatalf("Lookup(%d) = %d, %v; want %d", oid, got, err, want)
		}
	}
}

func TestQuickIndexMatchesMap(t *testing.T) {
	type op struct {
		OID  uint16
		Leaf uint16
		Del  bool
	}
	f := func(ops []op) bool {
		x, _ := newIndex(t, 256, 4, 64)
		shadow := map[uint64]pagestore.PageID{}
		for _, o := range ops {
			oid := uint64(o.OID % 64)
			if o.Del {
				err := x.Delete(oid)
				if _, ok := shadow[oid]; ok {
					if err != nil {
						return false
					}
					delete(shadow, oid)
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
				continue
			}
			leaf := pagestore.PageID(uint64(o.Leaf) + 1)
			if err := x.Set(oid, leaf); err != nil {
				return false
			}
			shadow[oid] = leaf
		}
		if x.Size() != len(shadow) {
			return false
		}
		for oid, want := range shadow {
			got, err := x.Lookup(oid)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	x, _ := newIndex(t, 256, 0, 100)
	s, err := x.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Pages != 0 || s.Entries != 0 || s.MaxChainPages != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

// chainOf returns the page ids of bucket b's chain and the slot count
// of each page.
func chainOf(t *testing.T, x *Index, b int) (pages []pagestore.PageID, counts []int) {
	t.Helper()
	for pid := x.buckets[b]; pid != pagestore.InvalidPage; {
		pg, err := x.pin(pid, false)
		if err != nil {
			t.Fatal(err)
		}
		pages, counts = append(pages, pid), append(counts, pg.count)
		pid = pg.next()
		if err := pg.release(); err != nil {
			t.Fatal(err)
		}
	}
	return pages, counts
}

// chained builds a single-bucket index over 256-byte pages (15 slots)
// holding oids 0..n-1, oid i mapped to leaf 1000+i.
func chained(t *testing.T, n int) *Index {
	t.Helper()
	x, _ := newIndex(t, 256, 0, 1)
	for i := 0; i < n; i++ {
		if err := x.Set(uint64(i), pagestore.PageID(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

func checkMappings(t *testing.T, x *Index, want map[uint64]pagestore.PageID) {
	t.Helper()
	if x.Size() != len(want) {
		t.Fatalf("size = %d, want %d", x.Size(), len(want))
	}
	for oid, leaf := range want {
		if got, err := x.Lookup(oid); err != nil || got != leaf {
			t.Fatalf("Lookup(%d) = %d, %v; want %d", oid, got, err, leaf)
		}
	}
}

// TestChainedSetFillsEarlierPage: Set finds its free slot on the first
// page only after scanning the later ones, by which time that page is no
// longer pinned. The new slot must land on the first page
// and the later pages must come through untouched.
func TestChainedSetFillsEarlierPage(t *testing.T) {
	x := chained(t, 40) // pages of 15, 15 and 10 slots
	want := map[uint64]pagestore.PageID{}
	for i := 0; i < 40; i++ {
		want[uint64(i)] = pagestore.PageID(1000 + i)
	}
	if err := x.Delete(3); err != nil { // a hole on the first page
		t.Fatal(err)
	}
	delete(want, 3)
	if err := x.Set(500, 77); err != nil {
		t.Fatal(err)
	}
	want[500] = 77
	// An oid living on the last page is re-mapped in place.
	if err := x.Set(39, 88); err != nil {
		t.Fatal(err)
	}
	want[39] = 88
	checkMappings(t, x, want)
	if _, counts := chainOf(t, x, 0); len(counts) != 3 || counts[0] != 15 || counts[1] != 15 || counts[2] != 10 {
		t.Fatalf("slot counts along the chain = %v, want [15 15 10]", counts)
	}

	// A full chain grows by one linked page, reachable from the old tail.
	for i := 0; i < 5; i++ {
		if err := x.Set(uint64(600+i), pagestore.PageID(60+i)); err != nil {
			t.Fatal(err)
		}
		want[uint64(600+i)] = pagestore.PageID(60 + i)
	}
	if err := x.Set(700, 70); err != nil {
		t.Fatal(err)
	}
	want[700] = 70
	checkMappings(t, x, want)
	if _, counts := chainOf(t, x, 0); len(counts) != 4 || counts[2] != 15 || counts[3] != 1 {
		t.Fatalf("slot counts after growth = %v, want [15 15 15 1]", counts)
	}
}

// TestChainedDeleteFromOverflowPage removes a slot from the middle of
// the last page: the page's tail slot fills the hole, the vacated slot
// is zeroed and the earlier pages are not written.
func TestChainedDeleteFromOverflowPage(t *testing.T) {
	x := chained(t, 40)
	pages, _ := chainOf(t, x, 0)
	if err := x.Delete(32); err != nil { // third page, slot 2 of 10
		t.Fatal(err)
	}
	want := map[uint64]pagestore.PageID{}
	for i := 0; i < 40; i++ {
		if i != 32 {
			want[uint64(i)] = pagestore.PageID(1000 + i)
		}
	}
	checkMappings(t, x, want)
	if _, counts := chainOf(t, x, 0); counts[0] != 15 || counts[1] != 15 || counts[2] != 9 {
		t.Fatalf("slot counts along the chain = %v, want [15 15 9]", counts)
	}
	buf := make([]byte, 256)
	if err := x.pool.ReadPage(pages[2], buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf[headerSize+9*slotSize:] {
		if b != 0 {
			t.Fatalf("byte %d past the last live slot is %#x, want the vacated slot zeroed", i, b)
		}
	}
	if err := x.Delete(32); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
}

// TestCorruptPagesRejected: the in-place probes keep the page checks. A
// page that is not a hash page, or claims more slots than fit, fails
// every operation instead of being scanned.
func TestCorruptPagesRejected(t *testing.T) {
	for name, corrupt := range map[string]func(b []byte){
		"magic": func(b []byte) { b[0] = 0x00 },
		"count": func(b []byte) { b[2], b[3] = 0xff, 0xff },
	} {
		t.Run(name, func(t *testing.T) {
			x := chained(t, 40)
			pages, _ := chainOf(t, x, 0)
			buf := make([]byte, 256)
			if err := x.pool.ReadPage(pages[1], buf); err != nil {
				t.Fatal(err)
			}
			corrupt(buf)
			if err := x.pool.WritePage(pages[1], buf); err != nil {
				t.Fatal(err)
			}
			// oid 2 sits on the intact first page; everything behind the
			// corrupt page is cut off.
			if got, err := x.Lookup(2); err != nil || got != 1002 {
				t.Fatalf("Lookup(2) = %d, %v", got, err)
			}
			if _, err := x.Lookup(35); err == nil || errors.Is(err, ErrNotFound) {
				t.Fatalf("Lookup past a corrupt page: err = %v", err)
			}
			if err := x.Set(35, 9); err == nil {
				t.Fatal("Set past a corrupt page succeeded")
			}
			if err := x.Set(900, 9); err == nil {
				t.Fatal("Set of a new oid scanned a corrupt page")
			}
			if err := x.Delete(35); err == nil || errors.Is(err, ErrNotFound) {
				t.Fatalf("Delete past a corrupt page: err = %v", err)
			}
			if _, err := x.ComputeStats(); err == nil {
				t.Fatal("ComputeStats walked a corrupt page")
			}
		})
	}
}

// TestStrayOverflowPointerFailsCleanly: a page id stored in a hash page is
// outside input once the pages come from a file. An overflow pointer the
// store never allocated must fail every operation that follows it with
// ErrPageBounds — no panic, and no table sized by the pointer — with or
// without a buffer pool in front of the store. The pages before it keep
// answering.
func TestStrayOverflowPointerFailsCleanly(t *testing.T) {
	// The first would panic in makeslice if it sized a table, the second
	// would quietly allocate hundreds of megabytes, and the third is
	// negative as an int.
	for _, stray := range []uint64{1 << 40, 1 << 24, 1 << 63} {
		for _, bufferPages := range []int{0, 32} {
			x, _ := newIndex(t, 256, bufferPages, 1)
			for i := 0; i < 40; i++ { // pages of 15, 15 and 10 slots
				if err := x.Set(uint64(i), pagestore.PageID(1000+i)); err != nil {
					t.Fatal(err)
				}
			}
			pages, _ := chainOf(t, x, 0)
			buf := make([]byte, 256)
			if err := x.pool.ReadPage(pages[0], buf); err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(buf[8:], stray)
			if err := x.pool.WritePage(pages[0], buf); err != nil {
				t.Fatal(err)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if got, err := x.Lookup(2); err != nil || got != 1002 {
				t.Fatalf("overflow pointer %d, pool %d: Lookup(2) on the first page = %d, %v", stray, bufferPages, got, err)
			}
			ops := map[string]error{}
			_, ops["Lookup behind the pointer"] = x.Lookup(35)
			ops["Set behind the pointer"] = x.Set(35, 9)
			ops["Set of a new oid"] = x.Set(900, 9)
			ops["Delete behind the pointer"] = x.Delete(35)
			runtime.ReadMemStats(&after)
			for op, err := range ops {
				if !errors.Is(err, pagestore.ErrPageBounds) {
					t.Errorf("overflow pointer %d, pool %d: %s: %v, want ErrPageBounds", stray, bufferPages, op, err)
				}
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("overflow pointer %d, pool %d: five operations allocated %d bytes", stray, bufferPages, got)
			}
		}
	}
}
