// Package pagestore simulates the disk that the paper's experiments
// measure: a flat array of fixed-size pages (1024 bytes in the paper)
// with an access counter for physical reads and writes.
//
// The store is deliberately simple — the evaluation metric of the paper is
// the number of page accesses, not device behaviour — but it enforces the
// discipline a real disk would: whole-page transfers only, pages must be
// allocated before use, and an optional per-access latency can be charged
// to make throughput runs (paper §5.4) I/O-bound rather than CPU-bound.
package pagestore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"burtree/internal/stats"
)

// PageID identifies one page. Page 0 is reserved as the invalid/nil page
// so that zero-valued references never alias real data.
type PageID uint64

// InvalidPage is the reserved nil page id.
const InvalidPage PageID = 0

// DefaultPageSize is the page size used throughout the paper's
// experiments.
const DefaultPageSize = 1024

// MinPageSize is the smallest page the store accepts. It bounds the store
// alone: a tree needs a larger page to reach its minimum fanout
// (rtree.MinPageSize), and callers check that before building a store.
const MinPageSize = 128

var (
	// ErrPageBounds reports an access to an unallocated page.
	ErrPageBounds = errors.New("pagestore: page id out of bounds")
	// ErrPageFreed reports an access to a freed page. It is returned
	// bare, with no page id: a batch whose plan names a leaf an earlier
	// change freed meets it routinely and moves on, so building a
	// message for it would cost the batch an allocation.
	ErrPageFreed = errors.New("pagestore: page is freed")
	// ErrPageSize reports a buffer whose length does not match the page size.
	ErrPageSize = errors.New("pagestore: buffer length != page size")
)

// Store is an in-memory simulated disk. It is safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	pageSize int
	pages    [][]byte
	freed    []bool // parallel to pages: the page is on the free list
	freeList []PageID
	io       *stats.IO
	latency  time.Duration
}

// New creates a store with the given page size, recording physical
// accesses into io. A nil io allocates a private counter set.
func New(pageSize int, io *stats.IO) *Store {
	if pageSize < MinPageSize {
		panic(fmt.Sprintf("pagestore: page size %d below minimum %d", pageSize, MinPageSize))
	}
	if io == nil {
		io = &stats.IO{}
	}
	return &Store{
		pageSize: pageSize,
		pages:    make([][]byte, 1), // index 0 reserved for InvalidPage
		freed:    make([]bool, 1),
		io:       io,
	}
}

// PageSize returns the page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// IO returns the counter set physical accesses are charged to.
func (s *Store) IO() *stats.IO { return s.io }

// SetLatency sets a simulated per-access latency; zero disables it.
// The delay is applied outside the store lock so concurrent accesses
// overlap, as they would on a disk array.
func (s *Store) SetLatency(d time.Duration) {
	s.mu.Lock()
	s.latency = d
	s.mu.Unlock()
}

// Alloc returns a zeroed page. Freed pages are recycled before the store
// grows.
func (s *Store) Alloc() PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.freeList); n > 0 {
		id := s.freeList[n-1]
		s.freeList = s.freeList[:n-1]
		s.freed[id] = false
		clearPage(s.pages[id])
		return id
	}
	s.pages = append(s.pages, make([]byte, s.pageSize))
	s.freed = append(s.freed, false)
	return PageID(len(s.pages) - 1)
}

// Free returns a page to the allocator. Accessing a freed page is an
// error until it is re-allocated.
func (s *Store) Free(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(id); err != nil {
		return err
	}
	s.freed[id] = true
	s.freeList = append(s.freeList, id)
	return nil
}

// ReadInto copies page id into dst (which must be exactly one page long)
// and charges one physical read.
func (s *Store) ReadInto(id PageID, dst []byte) error {
	if len(dst) != s.pageSize {
		return ErrPageSize
	}
	s.mu.RLock()
	if err := s.checkLocked(id); err != nil {
		s.mu.RUnlock()
		return err
	}
	copy(dst, s.pages[id])
	lat := s.latency
	s.mu.RUnlock()
	s.io.CountRead()
	simulate(lat)
	return nil
}

// Write copies src (exactly one page) into page id and charges one
// physical write.
func (s *Store) Write(id PageID, src []byte) error {
	if len(src) != s.pageSize {
		return ErrPageSize
	}
	s.mu.Lock()
	if err := s.checkLocked(id); err != nil {
		s.mu.Unlock()
		return err
	}
	copy(s.pages[id], src)
	lat := s.latency
	s.mu.Unlock()
	s.io.CountWrite()
	simulate(lat)
	return nil
}

// NumPages returns the number of live (allocated, not freed) pages —
// the paper's "database size" used to dimension the buffer pool.
func (s *Store) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages) - 1 - len(s.freeList)
}

// NumAllocated returns the high-water number of pages ever allocated.
func (s *Store) NumAllocated() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages) - 1
}

// checkLocked compares in PageID: a page id is outside input (snapshots
// carry them), and one at or above 2^63 converts to a negative int.
func (s *Store) checkLocked(id PageID) error {
	if id == InvalidPage || id >= PageID(len(s.pages)) {
		return fmt.Errorf("%w: %d", ErrPageBounds, id)
	}
	if s.freed[id] {
		return ErrPageFreed
	}
	return nil
}

func clearPage(p []byte) {
	for i := range p {
		p[i] = 0
	}
}

// Dump returns a deep copy of the store contents for persistence: every
// allocated page in id order (index 0 = page id 1) plus the free list.
func (s *Store) Dump() (pageSize int, pages [][]byte, freed []PageID) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pages = make([][]byte, len(s.pages)-1)
	for i := 1; i < len(s.pages); i++ {
		pages[i-1] = append([]byte(nil), s.pages[i]...)
	}
	freed = append([]PageID(nil), s.freeList...)
	return s.pageSize, pages, freed
}

// NewFromDump reconstructs a store from Dump output.
func NewFromDump(pageSize int, pages [][]byte, freed []PageID, io *stats.IO) (*Store, error) {
	s := New(pageSize, io)
	s.pages = make([][]byte, len(pages)+1)
	s.freed = make([]bool, len(pages)+1)
	for i, p := range pages {
		if len(p) != pageSize {
			return nil, fmt.Errorf("pagestore: dump page %d has %d bytes, want %d", i+1, len(p), pageSize)
		}
		s.pages[i+1] = append([]byte(nil), p...)
	}
	for _, id := range freed {
		if id == InvalidPage || id >= PageID(len(s.pages)) {
			return nil, fmt.Errorf("%w: freed id %d", ErrPageBounds, id)
		}
		s.freed[id] = true
		s.freeList = append(s.freeList, id)
	}
	return s, nil
}

// simulate models the page service time. Latencies of 20µs and above
// use the OS timer (they sleep, so many goroutines can overlap their
// "disk" waits, as on a disk array); shorter latencies busy-wait because
// timer granularity would distort them.
func simulate(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= 20*time.Microsecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}
