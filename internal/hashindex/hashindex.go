// Package hashindex implements the secondary object-id index of the paper
// (Figure 2): a disk-resident hash table mapping object ids to the leaf
// page currently holding their entry. Bottom-up updates start here —
// "Locate via the secondary object-ID index (e.g., hash table) the leaf
// node with the object" — at a cost of roughly one page access, which is
// exactly how the paper's cost analysis charges it.
//
// The table is a static-directory chained hash: a fixed array of bucket
// head pages, each a chain of slot pages. All traffic flows through the
// buffer pool, so hot buckets may be cached just like hot tree nodes, and
// the slots are scanned and patched where they lie, in the pinned frame
// (one pin at a time: a chained bucket releases a page before it pins the
// next, and pins an earlier page again if it has to come back to it).
package hashindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"burtree/internal/buffer"
	"burtree/internal/pagestore"
)

// ErrNotFound reports a lookup of an unmapped object id.
var ErrNotFound = errors.New("hashindex: oid not mapped")

const (
	pageMagic  = 0xB3
	headerSize = 16 // magic, pad, count u16, pad, next page u64
	slotSize   = 16 // oid u64 + leaf page u64
)

// Index is the oid → leaf-page map. Buckets are guarded by striped
// latches so operations on different buckets — including their (possibly
// simulated-latency) page I/O — proceed in parallel; the index is safe
// for concurrent use. Logical consistency across index and tree remains
// the caller's job (DGL).
type Index struct {
	pool     *buffer.Pool
	buckets  []pagestore.PageID
	slotsPer int
	size     atomic.Int64
	stripes  [64]sync.Mutex
}

// New creates an index with capacity sized for expectedSize entries at
// roughly 70% slot occupancy. The directory is allocated eagerly; bucket
// chains grow on demand.
func New(pool *buffer.Pool, expectedSize int) *Index {
	ps := pool.Store().PageSize()
	slots := (ps - headerSize) / slotSize
	if slots < 1 {
		panic(fmt.Sprintf("hashindex: page size %d too small", ps))
	}
	nb := expectedSize / (slots * 7 / 10)
	if nb < 1 {
		nb = 1
	}
	// Bucket heads are created lazily (InvalidPage marks an empty bucket)
	// so small indexes stay small.
	return &Index{
		pool:     pool,
		buckets:  make([]pagestore.PageID, nb),
		slotsPer: slots,
	}
}

// Size returns the number of mapped object ids.
func (x *Index) Size() int { return int(x.size.Load()) }

// Buckets returns the directory width (for tests and sizing reports).
func (x *Index) Buckets() int { return len(x.buckets) }

// bucketFor hashes the oid into a directory slot. Fibonacci hashing gives
// good spread for sequential oids, which the workloads use.
func (x *Index) bucketFor(oid uint64) int {
	h := oid * 0x9E3779B97F4A7C15
	return int(h % uint64(len(x.buckets)))
}

// Bucket returns the directory slot oid hashes to. The batch pipeline
// clusters its lookup phase by bucket so that lookups landing on the
// same hash page run back to back and hit the buffer instead of paying
// one page read each.
func (x *Index) Bucket(oid uint64) int { return x.bucketFor(oid) }

// Lookup returns the leaf page currently holding oid.
//
//burlint:hotpath
func (x *Index) Lookup(oid uint64) (pagestore.PageID, error) {
	b := x.bucketFor(oid)
	st := &x.stripes[b%len(x.stripes)]
	st.Lock()
	defer st.Unlock()
	for pid := x.buckets[b]; pid != pagestore.InvalidPage; {
		pg, err := x.pin(pid, false)
		if err != nil {
			return pagestore.InvalidPage, err
		}
		i, next := pg.find(oid), pg.next()
		leaf := pagestore.InvalidPage
		if i >= 0 {
			leaf = pg.leafAt(i)
		}
		if err := pg.release(); err != nil {
			return pagestore.InvalidPage, err
		}
		if i >= 0 {
			return leaf, nil
		}
		pid = next
	}
	return pagestore.InvalidPage, fmt.Errorf("%w: %d", ErrNotFound, oid)
}

// Set maps oid to leaf, inserting or updating as needed. Updating an
// entry to the leaf it already maps to performs no write.
//
//burlint:hotpath
func (x *Index) Set(oid uint64, leaf pagestore.PageID) error {
	if leaf == pagestore.InvalidPage {
		return fmt.Errorf("hashindex: mapping oid %d to invalid page", oid)
	}
	b := x.bucketFor(oid)
	st := &x.stripes[b%len(x.stripes)]
	st.Lock()
	defer st.Unlock()

	// spacious is the first page of the chain with a free slot, slot its
	// first free slot; last is the chain's last page.
	spacious, last, slot := pagestore.InvalidPage, pagestore.InvalidPage, 0
	for pid := x.buckets[b]; pid != pagestore.InvalidPage; {
		pg, err := x.pin(pid, true)
		if err != nil {
			return err
		}
		if i := pg.find(oid); i >= 0 {
			if pg.leafAt(i) != leaf {
				pg.putSlot(i, oid, leaf)
			}
			return pg.release()
		}
		if spacious == pagestore.InvalidPage && pg.count < x.slotsPer {
			spacious, slot = pid, pg.count
		}
		next := pg.next()
		if next == pagestore.InvalidPage && spacious == pid {
			// The free slot is on the page in hand.
			pg.putSlot(slot, oid, leaf)
			pg.setCount(slot + 1)
			x.size.Add(1)
			return pg.release()
		}
		if err := pg.release(); err != nil {
			return err
		}
		last, pid = pid, next
	}
	x.size.Add(1)
	if spacious != pagestore.InvalidPage {
		// An earlier page of the chain: pinned again, one more page access.
		pg, err := x.pin(spacious, true)
		if err != nil {
			return err
		}
		pg.putSlot(slot, oid, leaf)
		pg.setCount(slot + 1)
		return pg.release()
	}
	// Allocate a new page: either a new bucket head or an overflow page.
	// It is written before the chain links to it, so a failed write
	// leaves the chain intact.
	np := x.pool.Store().Alloc()
	h, err := x.pool.PinOverwrite(np)
	if err != nil {
		return fmt.Errorf("hashindex: writing page %d: %w", np, err)
	}
	pg := page{h: h, id: np}
	clear(h.Bytes())
	h.Bytes()[0] = pageMagic
	pg.putSlot(0, oid, leaf)
	pg.setCount(1)
	if err := pg.release(); err != nil {
		return err
	}
	if last == pagestore.InvalidPage {
		x.buckets[b] = np
		return nil
	}
	if pg, err = x.pin(last, true); err != nil {
		return err
	}
	pg.setNext(np)
	return pg.release()
}

// Delete removes the mapping for oid.
func (x *Index) Delete(oid uint64) error {
	b := x.bucketFor(oid)
	st := &x.stripes[b%len(x.stripes)]
	st.Lock()
	defer st.Unlock()
	for pid := x.buckets[b]; pid != pagestore.InvalidPage; {
		pg, err := x.pin(pid, true)
		if err != nil {
			return err
		}
		if i := pg.find(oid); i >= 0 {
			// The last slot fills the hole and is zeroed, so a page's
			// bytes depend only on the slots it holds.
			last := pg.count - 1
			pg.putSlot(i, pg.oidAt(last), pg.leafAt(last))
			pg.putSlot(last, 0, 0)
			pg.setCount(last)
			x.size.Add(-1)
			return pg.release()
		}
		next := pg.next()
		if err := pg.release(); err != nil {
			return err
		}
		pid = next
	}
	return fmt.Errorf("%w: %d", ErrNotFound, oid)
}

// page is a pinned hash page with its header validated. Its accessors
// read and patch the frame's own bytes; a patch marks the page dirty.
type page struct {
	h     buffer.Handle
	id    pagestore.PageID
	count int
}

// pin pins hash page id — for patching when write is set — and validates
// its header. Each call is one logical page read.
func (x *Index) pin(id pagestore.PageID, write bool) (page, error) {
	var h buffer.Handle
	var err error
	if write {
		h, err = x.pool.PinExclusive(id)
	} else {
		h, err = x.pool.Pin(id)
	}
	if err != nil {
		return page{}, fmt.Errorf("hashindex: reading page %d: %w", id, err)
	}
	b := h.Bytes()
	if b[0] != pageMagic {
		_ = h.Release() // nothing was stored
		return page{}, fmt.Errorf("hashindex: page %d is not a hash page (magic %#x)", id, b[0])
	}
	count := int(binary.LittleEndian.Uint16(b[2:]))
	if count > x.slotsPer {
		_ = h.Release() // nothing was stored
		return page{}, fmt.Errorf("hashindex: page %d count %d exceeds capacity %d", id, count, x.slotsPer)
	}
	return page{h: h, id: id, count: count}, nil
}

func (pg *page) release() error {
	if err := pg.h.Release(); err != nil {
		return fmt.Errorf("hashindex: writing page %d: %w", pg.id, err)
	}
	return nil
}

// next returns the next page of the chain.
func (pg *page) next() pagestore.PageID {
	return pagestore.PageID(binary.LittleEndian.Uint64(pg.h.Bytes()[8:]))
}

// find returns the slot holding oid, or -1.
func (pg *page) find(oid uint64) int {
	b := pg.h.Bytes()[headerSize : headerSize+pg.count*slotSize]
	for i := 0; i < pg.count; i++ {
		if binary.LittleEndian.Uint64(b[i*slotSize:]) == oid {
			return i
		}
	}
	return -1
}

func (pg *page) oidAt(i int) uint64 {
	return binary.LittleEndian.Uint64(pg.h.Bytes()[headerSize+i*slotSize:])
}

func (pg *page) leafAt(i int) pagestore.PageID {
	return pagestore.PageID(binary.LittleEndian.Uint64(pg.h.Bytes()[headerSize+i*slotSize+8:]))
}

func (pg *page) putSlot(i int, oid uint64, leaf pagestore.PageID) {
	b := pg.h.Bytes()[headerSize+i*slotSize:]
	binary.LittleEndian.PutUint64(b, oid)
	binary.LittleEndian.PutUint64(b[8:], uint64(leaf))
	pg.h.MarkDirty()
}

func (pg *page) setCount(n int) {
	binary.LittleEndian.PutUint16(pg.h.Bytes()[2:], uint16(n))
	pg.count = n
	pg.h.MarkDirty()
}

func (pg *page) setNext(id pagestore.PageID) {
	binary.LittleEndian.PutUint64(pg.h.Bytes()[8:], uint64(id))
	pg.h.MarkDirty()
}

// Stats summarizes the physical shape of the index.
type Stats struct {
	Buckets       int
	Pages         int
	Entries       int
	MaxChainPages int
	AvgChainPages float64
}

// ComputeStats scans every bucket chain.
func (x *Index) ComputeStats() (Stats, error) {
	s := Stats{Buckets: len(x.buckets), Entries: x.Size()}
	used := 0
	for b, head := range x.buckets {
		st := &x.stripes[b%len(x.stripes)]
		st.Lock()
		chain := 0
		for pid := head; pid != pagestore.InvalidPage; {
			pg, err := x.pin(pid, false)
			if err != nil {
				st.Unlock()
				return s, err
			}
			chain++
			pid = pg.next()
			if err := pg.release(); err != nil {
				st.Unlock()
				return s, err
			}
		}
		st.Unlock()
		if chain > 0 {
			used++
			s.Pages += chain
			if chain > s.MaxChainPages {
				s.MaxChainPages = chain
			}
		}
	}
	if used > 0 {
		s.AvgChainPages = float64(s.Pages) / float64(used)
	}
	return s, nil
}
