package pagestore

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"burtree/internal/stats"
)

func TestAllocReadWrite(t *testing.T) {
	io := &stats.IO{}
	s := New(256, io)
	id := s.Alloc()
	if id == InvalidPage {
		t.Fatal("Alloc returned InvalidPage")
	}
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	if err := s.Write(id, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 256)
	if err := s.ReadInto(id, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("read data differs from written data")
	}
	if io.Reads() != 1 || io.Writes() != 1 {
		t.Fatalf("io counters = %d reads, %d writes; want 1,1", io.Reads(), io.Writes())
	}
}

func TestAllocZeroed(t *testing.T) {
	s := New(128, nil)
	id := s.Alloc()
	buf := make([]byte, 128)
	if err := s.ReadInto(id, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("fresh page byte %d = %d, want 0", i, b)
		}
	}
}

func TestFreeAndRecycle(t *testing.T) {
	s := New(128, nil)
	a := s.Alloc()
	dirty := make([]byte, 128)
	dirty[5] = 42
	if err := s.Write(a, dirty); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	// Access to freed page fails.
	buf := make([]byte, 128)
	if err := s.ReadInto(a, buf); !errors.Is(err, ErrPageFreed) {
		t.Fatalf("read freed page: err = %v, want ErrPageFreed", err)
	}
	if err := s.Write(a, buf); !errors.Is(err, ErrPageFreed) {
		t.Fatalf("write freed page: err = %v, want ErrPageFreed", err)
	}
	// Double free fails.
	if err := s.Free(a); !errors.Is(err, ErrPageFreed) {
		t.Fatalf("double free: err = %v, want ErrPageFreed", err)
	}
	// Recycled page is the same id, zeroed again.
	b := s.Alloc()
	if b != a {
		t.Fatalf("recycled id = %d, want %d", b, a)
	}
	if err := s.ReadInto(b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[5] != 0 {
		t.Fatal("recycled page not zeroed")
	}
}

// TestBoundsChecks: an id the store never allocated is out of bounds,
// including one at or above 2^63, which is negative as an int.
func TestBoundsChecks(t *testing.T) {
	s := New(128, nil)
	s.Alloc()
	buf := make([]byte, 128)
	if err := s.ReadInto(InvalidPage, buf); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("invalid page read err = %v", err)
	}
	for _, id := range []PageID{99, 1 << 63, 1<<63 + 3, math.MaxUint64} {
		if err := s.ReadInto(id, buf); !errors.Is(err, ErrPageBounds) {
			t.Errorf("ReadInto(%d): err = %v, want ErrPageBounds", id, err)
		}
		if err := s.Write(id, buf); !errors.Is(err, ErrPageBounds) {
			t.Errorf("Write(%d): err = %v, want ErrPageBounds", id, err)
		}
		if err := s.Free(id); !errors.Is(err, ErrPageBounds) {
			t.Errorf("Free(%d): err = %v, want ErrPageBounds", id, err)
		}
		if _, err := NewFromDump(128, [][]byte{buf}, []PageID{id}, nil); !errors.Is(err, ErrPageBounds) {
			t.Errorf("NewFromDump with freed id %d: err = %v, want ErrPageBounds", id, err)
		}
	}
}

func TestBufferSizeMismatch(t *testing.T) {
	s := New(128, nil)
	id := s.Alloc()
	if err := s.ReadInto(id, make([]byte, 64)); !errors.Is(err, ErrPageSize) {
		t.Fatalf("short read buffer err = %v", err)
	}
	if err := s.Write(id, make([]byte, 256)); !errors.Is(err, ErrPageSize) {
		t.Fatalf("long write buffer err = %v", err)
	}
}

func TestNumPages(t *testing.T) {
	s := New(128, nil)
	if s.NumPages() != 0 {
		t.Fatalf("empty store NumPages = %d", s.NumPages())
	}
	ids := make([]PageID, 5)
	for i := range ids {
		ids[i] = s.Alloc()
	}
	if s.NumPages() != 5 || s.NumAllocated() != 5 {
		t.Fatalf("NumPages = %d, NumAllocated = %d; want 5,5", s.NumPages(), s.NumAllocated())
	}
	if err := s.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	if s.NumPages() != 4 {
		t.Fatalf("after free NumPages = %d, want 4", s.NumPages())
	}
	if s.NumAllocated() != 5 {
		t.Fatalf("after free NumAllocated = %d, want 5", s.NumAllocated())
	}
}

func TestTinyPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with tiny page size did not panic")
		}
	}()
	New(16, nil)
}

func TestConcurrentAccess(t *testing.T) {
	s := New(128, nil)
	const pages = 32
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = s.Alloc()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 128)
			for i := 0; i < 200; i++ {
				id := ids[(w*31+i)%pages]
				buf[0] = byte(w)
				if err := s.Write(id, buf); err != nil {
					t.Error(err)
					return
				}
				if err := s.ReadInto(id, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.IO().Total(); got != 8*200*2 {
		t.Fatalf("total io = %d, want %d", got, 8*200*2)
	}
}

func TestQuickWriteReadRoundTrip(t *testing.T) {
	s := New(MinPageSize, nil)
	id := s.Alloc()
	f := func(data []byte) bool {
		page := make([]byte, MinPageSize)
		copy(page, data)
		if err := s.Write(id, page); err != nil {
			return false
		}
		got := make([]byte, MinPageSize)
		if err := s.ReadInto(id, got); err != nil {
			return false
		}
		return bytes.Equal(page, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
