// Package hashindex implements the secondary object-id index of the paper
// (Figure 2): a disk-resident hash table mapping object ids to the leaf
// page currently holding their entry. Bottom-up updates start here —
// "Locate via the secondary object-ID index (e.g., hash table) the leaf
// node with the object" — at a cost of roughly one page access, which is
// exactly how the paper's cost analysis charges it.
//
// The table is a static-directory chained hash: a fixed array of bucket
// head pages, each a chain of slot pages. All traffic flows through the
// buffer pool, so hot buckets may be cached just like hot tree nodes.
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
	stripes  [64]stripe
}

// stripe is one latch plus its private scratch page. Operations scan
// and patch hash pages directly in the scratch: it holds a view of the
// page most recently loaded on the stripe and of nothing else, so
// whatever a chained bucket needs from an earlier page is re-loaded.
type stripe struct {
	mu      sync.Mutex
	pageBuf []byte
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
	idx := &Index{
		pool:     pool,
		buckets:  make([]pagestore.PageID, nb),
		slotsPer: slots,
	}
	for i := range idx.stripes {
		idx.stripes[i].pageBuf = make([]byte, ps)
	}
	// Bucket heads are created lazily (InvalidPage marks an empty bucket)
	// so small indexes stay small.
	return idx
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
	st.mu.Lock()
	defer st.mu.Unlock()
	for pid := x.buckets[b]; pid != pagestore.InvalidPage; {
		count, next, err := x.load(st, pid)
		if err != nil {
			return pagestore.InvalidPage, err
		}
		if i := st.find(count, oid); i >= 0 {
			return st.leafAt(i), nil
		}
		pid = next
	}
	return pagestore.InvalidPage, fmt.Errorf("%w: %d", ErrNotFound, oid)
}

// Set maps oid to leaf, inserting or updating as needed. Updating an
// entry to the leaf it already maps to performs no write.
func (x *Index) Set(oid uint64, leaf pagestore.PageID) error {
	if leaf == pagestore.InvalidPage {
		return fmt.Errorf("hashindex: mapping oid %d to invalid page", oid)
	}
	b := x.bucketFor(oid)
	st := &x.stripes[b%len(x.stripes)]
	st.mu.Lock()
	defer st.mu.Unlock()

	// spacious is the first page of the chain with a free slot, slot its
	// first free slot; loaded is the page the scratch holds, the chain's
	// last once the scan ends.
	spacious, loaded, slot := pagestore.InvalidPage, pagestore.InvalidPage, 0
	for pid := x.buckets[b]; pid != pagestore.InvalidPage; {
		count, next, err := x.load(st, pid)
		if err != nil {
			return err
		}
		if i := st.find(count, oid); i >= 0 {
			if st.leafAt(i) == leaf {
				return nil
			}
			st.putSlot(i, oid, leaf)
			return x.store(st, pid)
		}
		if spacious == pagestore.InvalidPage && count < x.slotsPer {
			spacious, slot = pid, count
		}
		loaded, pid = pid, next
	}
	x.size.Add(1)
	if spacious != pagestore.InvalidPage {
		if spacious != loaded {
			if _, _, err := x.load(st, spacious); err != nil {
				return err
			}
		}
		st.putSlot(slot, oid, leaf)
		st.setCount(slot + 1)
		return x.store(st, spacious)
	}
	// Allocate a new page: either a new bucket head or an overflow page.
	// It is written before the chain links to it, so a failed write
	// leaves the chain intact.
	np := x.pool.Store().Alloc()
	clear(st.pageBuf)
	st.pageBuf[0] = pageMagic
	st.setNext(pagestore.InvalidPage)
	st.putSlot(0, oid, leaf)
	st.setCount(1)
	if err := x.store(st, np); err != nil {
		return err
	}
	if loaded == pagestore.InvalidPage {
		x.buckets[b] = np
		return nil
	}
	if _, _, err := x.load(st, loaded); err != nil {
		return err
	}
	st.setNext(np)
	return x.store(st, loaded)
}

// Delete removes the mapping for oid.
func (x *Index) Delete(oid uint64) error {
	b := x.bucketFor(oid)
	st := &x.stripes[b%len(x.stripes)]
	st.mu.Lock()
	defer st.mu.Unlock()
	for pid := x.buckets[b]; pid != pagestore.InvalidPage; {
		count, next, err := x.load(st, pid)
		if err != nil {
			return err
		}
		if i := st.find(count, oid); i >= 0 {
			// The last slot fills the hole and is zeroed, so a page's
			// bytes depend only on the slots it holds.
			last := count - 1
			st.putSlot(i, st.oidAt(last), st.leafAt(last))
			st.putSlot(last, 0, 0)
			st.setCount(last)
			x.size.Add(-1)
			return x.store(st, pid)
		}
		pid = next
	}
	return fmt.Errorf("%w: %d", ErrNotFound, oid)
}

// load reads hash page id into the stripe's scratch and validates its
// header, returning the slot count and the next page of the chain.
func (x *Index) load(st *stripe, id pagestore.PageID) (count int, next pagestore.PageID, err error) {
	if err := x.pool.ReadPage(id, st.pageBuf); err != nil {
		return 0, pagestore.InvalidPage, fmt.Errorf("hashindex: reading page %d: %w", id, err)
	}
	b := st.pageBuf
	if b[0] != pageMagic {
		return 0, pagestore.InvalidPage, fmt.Errorf("hashindex: page %d is not a hash page (magic %#x)", id, b[0])
	}
	count = int(binary.LittleEndian.Uint16(b[2:]))
	if count > x.slotsPer {
		return 0, pagestore.InvalidPage, fmt.Errorf("hashindex: page %d count %d exceeds capacity %d", id, count, x.slotsPer)
	}
	return count, pagestore.PageID(binary.LittleEndian.Uint64(b[8:])), nil
}

// store writes the scratch out as page id.
func (x *Index) store(st *stripe, id pagestore.PageID) error {
	if err := x.pool.WritePage(id, st.pageBuf); err != nil {
		return fmt.Errorf("hashindex: writing page %d: %w", id, err)
	}
	return nil
}

// find returns the slot of the scratch page holding oid among its first
// count slots, or -1.
func (st *stripe) find(count int, oid uint64) int {
	b := st.pageBuf[headerSize : headerSize+count*slotSize]
	for i := 0; i < count; i++ {
		if binary.LittleEndian.Uint64(b[i*slotSize:]) == oid {
			return i
		}
	}
	return -1
}

func (st *stripe) oidAt(i int) uint64 {
	return binary.LittleEndian.Uint64(st.pageBuf[headerSize+i*slotSize:])
}

func (st *stripe) leafAt(i int) pagestore.PageID {
	return pagestore.PageID(binary.LittleEndian.Uint64(st.pageBuf[headerSize+i*slotSize+8:]))
}

func (st *stripe) putSlot(i int, oid uint64, leaf pagestore.PageID) {
	off := headerSize + i*slotSize
	binary.LittleEndian.PutUint64(st.pageBuf[off:], oid)
	binary.LittleEndian.PutUint64(st.pageBuf[off+8:], uint64(leaf))
}

func (st *stripe) setCount(n int) {
	binary.LittleEndian.PutUint16(st.pageBuf[2:], uint16(n))
}

func (st *stripe) setNext(id pagestore.PageID) {
	binary.LittleEndian.PutUint64(st.pageBuf[8:], uint64(id))
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
		st.mu.Lock()
		chain := 0
		for pid := head; pid != pagestore.InvalidPage; {
			_, next, err := x.load(st, pid)
			if err != nil {
				st.mu.Unlock()
				return s, err
			}
			chain++
			pid = next
		}
		st.mu.Unlock()
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

// Directory returns a copy of the bucket-head page directory, for
// persistence alongside the page store.
func (x *Index) Directory() []pagestore.PageID {
	return append([]pagestore.PageID(nil), x.buckets...)
}

// RestoreDirectory replaces the directory and entry count after the
// backing pages have been reloaded. The index must not have been used.
func (x *Index) RestoreDirectory(dir []pagestore.PageID, size int) error {
	if x.Size() != 0 {
		return errors.New("hashindex: RestoreDirectory on non-empty index")
	}
	if len(dir) == 0 {
		return errors.New("hashindex: empty directory")
	}
	x.buckets = append([]pagestore.PageID(nil), dir...)
	x.size.Store(int64(size))
	return nil
}
