// Package buffer implements the LRU buffer pool that sits between the
// R-tree and the simulated disk. The paper (§5, following Leutenegger &
// Lopez) runs every experiment with a buffer sized as a percentage of the
// database, so all page traffic in this library flows through a Pool.
//
// The pool is a classic write-back cache: logical reads that hit a frame
// cost no disk access; misses read the page and may evict the
// least-recently-used frame, writing it out first if dirty. Logical writes
// dirty the frame and cost nothing until eviction or Flush. With capacity
// zero the pool degrades to direct disk access, which reproduces the
// paper's 0 %-buffer configuration.
//
// # Two page classes: LRU and resident
//
// A pool built with NewResident has a second class of frame. The
// caller's predicate judges a page on its bytes when its frame is
// admitted — a read miss, or the release of a dirty PinOverwrite miss —
// and a page it accepts is resident: never an eviction victim, not
// counted against the capacity, and kept on a ring of its own, so a hit
// on it moves no LRU link. Flush still writes it, Discard and Invalidate
// still drop it, and Pinned counts its pins. The capacity then bounds the
// LRU class alone. A page keeps its class while it is cached; a page
// discarded and allocated again is judged afresh. The library passes
// rtree.InternalPage, so the levels above the leaves stay in memory, as
// the paper's §3.2 assumes; pools built with New — the §5 harness's —
// are the paper's pure LRU.
//
// # Access protocol: pin, look, release
//
// A caller does not copy a page out of the pool; it pins the frame and
// works on the frame's bytes:
//
//	h, err := pool.Pin(id)          // shared: read the bytes
//	h, err := pool.PinExclusive(id) // read, patch some bytes, MarkDirty
//	h, err := pool.PinOverwrite(id) // replace the whole page, MarkDirty
//	... h.Bytes() ...
//	err = h.Release()
//
// A pinned frame is never evicted, and its latch (shared for Pin,
// exclusive for the other two) makes page access atomic: a concurrent
// reader sees a page entirely before or entirely after a patch. The rule
// that keeps frame latches deadlock-free and pinned frames few is that a
// goroutine holds at most one pin at a time — pin one page, extract or
// patch, release, then pin the next.
//
// Pin and PinExclusive are logical reads: a hit is charged as a buffer
// hit, a miss costs one physical read straight into the frame (the only
// copy made). PinOverwrite is a logical write: it never reads the disk,
// so on a miss Bytes holds garbage that the caller must overwrite in
// full, and the page enters the pool when a dirty handle is released.
// ReadPage and WritePage are the same accesses with a copy out of or
// into the frame.
//
// When the pool has no frame to give — capacity zero, or every frame
// pinned by other goroutines — the access runs on a transient frame
// outside the pool with the physical I/O a pool of capacity zero would
// do: one read, and one write when the handle is released dirty.
//
// A page's frame is found through a table indexed by page id — ids are
// dense, the store appends or recycles — so a lookup is an array load.
// The table follows the store's page count; a page id the store never
// allocated is refused before the table sees it, so a pointer read from a
// corrupt page cannot size it.
//
// Frames are recycled, never reallocated: a frame keeps its page buffer
// for life and moves between the page table with its two rings, the
// in-flight write-back list and a free list, so a steady-state access
// allocates nothing. Frames are created on demand, at most a few more
// than the capacity plus the resident pages.
//
// The pool latch is never held across physical I/O: misses read the disk
// after releasing it, and dirty evictions move the victim to an in-flight
// list that readers consult, so concurrent operations overlap their disk
// time — essential for the multi-threaded throughput study, where page
// latency is simulated.
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"burtree/internal/pagestore"
	"burtree/internal/stats"
)

// Pool is an LRU write-back buffer pool over a pagestore.Store. It is safe
// for concurrent use; the mutex plays the role of a buffer-manager latch
// while higher-level consistency is the job of the DGL lock manager.
type Pool struct {
	mu    sync.Mutex
	store *pagestore.Store
	io    *stats.IO
	cap   int
	// isResident classifies a page when its frame is admitted; nil when
	// the pool has no resident class.
	isResident func(page []byte) bool

	// table is indexed by page id. It is grown to the store's page count
	// (coverLocked) before a page is lent a frame, so the id of every
	// cached, lent or in-flight frame lies within it.
	table  []slot
	cached int   // frames on the LRU ring, the ones the capacity bounds
	lru    frame // ring sentinel: lru.next is the most, lru.prev the least recently used
	res    frame // ring sentinel of the resident frames, nres of them, in no order
	nres   int
	free   *frame // recycled frames, linked through next; nfree of them
	nfree  int
	// lent counts frames handed to a caller outside the table (a read in
	// progress, a transient frame, a PinOverwrite miss).
	lent int

	// inflight holds, per page, the latest dirty victim on its way to
	// disk — one entry per goroutine in the middle of an eviction, so a
	// handful, scanned linearly. Readers serve from it; a newer eviction
	// of the same page chains behind it (frame.earlier) so disk writes of
	// one page are totally ordered. wbDone is signalled whenever a
	// write-back ends.
	inflight []*frame
	wbDone   sync.Cond
}

// slot is the table's entry for one page.
type slot struct {
	f *frame // the cached frame, nil when the page is not cached
	// version counts disk-content events of the page (write-back
	// completions and discards). A read miss snapshots it before its
	// unlatched disk read and re-checks after: a bump means the disk may
	// have changed under the read, so caching it could serve stale bytes
	// forever.
	version uint32
}

// tableSlack is how many slots the table grows beyond the store's page
// count, so that a growing store costs one table copy per that many
// allocations and the table never exceeds the store by more.
const tableSlack = 256

// frame is one page buffer. Its role changes, its buffer never does:
// cached (in the table, and on the LRU ring or the resident ring), in
// flight (a dirty victim being written back), lent to a caller, or on the
// free list.
type frame struct {
	id       pagestore.PageID
	data     []byte
	resident bool // cached on the resident ring: never evicted, not counted against the capacity

	prev, next *frame // LRU or resident ring; next alone links the free list

	// latch orders access to data and dirty while the frame is cached:
	// shared for readers, exclusive for a patch or an overwrite. It is
	// taken only after pins was raised under p.mu, and released before
	// pins drops.
	latch sync.RWMutex
	// pins counts handles on the cached frame. Raised under p.mu,
	// dropped without it; the evictor reads zero under p.mu, and nobody
	// can raise it again without p.mu.
	pins  atomic.Int32
	dirty bool

	// In-flight state, guarded by p.mu. The entry stays in the in-flight
	// list until its write-back completes — even when canceled by
	// Discard — so Flush's drain and later evictions of the same page
	// keep their ordering against it.
	earlier  *frame // earlier write of the same page, while it is still running
	canceled bool   // the page was discarded; skip the disk write
}

// New creates a pool of at most capacity pages over store. Physical
// accesses are charged to the store's counters; buffer hits are charged to
// the same counter set. Capacity zero disables caching entirely.
func New(store *pagestore.Store, capacity int) *Pool {
	return NewResident(store, capacity, nil)
}

// NewResident creates a pool like New with a resident class: a page
// isResident accepts, judged on its bytes when its frame is admitted, is
// cached beyond the capacity and never evicted. Capacity zero still
// disables caching entirely, of both classes.
func NewResident(store *pagestore.Store, capacity int, isResident func(page []byte) bool) *Pool {
	if capacity <= 0 {
		capacity, isResident = 0, nil
	}
	p := &Pool{store: store, io: store.IO(), cap: capacity, isResident: isResident}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	p.res.prev, p.res.next = &p.res, &p.res
	p.wbDone.L = &p.mu
	return p
}

// Capacity returns the configured frame count.
func (p *Pool) Capacity() int { return p.cap }

// Len returns the number of cached frames, of both classes.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cached + p.nres
}

// ResidentPages returns the number of frames of the resident class: the
// frames the pool holds beyond its capacity.
func (p *Pool) ResidentPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nres
}

// Pinned returns the number of handles not yet released. At a quiescent
// point it is zero; anything else is a leaked pin.
func (p *Pool) Pinned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.lent
	for _, ring := range p.rings() {
		for f := ring.next; f != ring; f = f.next {
			n += int(f.pins.Load())
		}
	}
	return n
}

// rings returns the sentinels of the two rings every cached frame is on
// one of: the LRU ring and the resident ring.
func (p *Pool) rings() [2]*frame { return [2]*frame{&p.lru, &p.res} }

// Store returns the underlying page store.
func (p *Pool) Store() *pagestore.Store { return p.store }

type pinMode uint8

const (
	pinShared pinMode = iota
	pinExclusive
	pinOverwrite
)

// Handle is a pinned page. The zero Handle is not valid; a Handle must
// be released exactly once and not used afterwards.
type Handle struct {
	p    *Pool
	f    *frame
	mode pinMode
	lent bool // f is outside the table: transient, or a PinOverwrite miss
}

// Bytes returns the page, exactly one page long. It is the frame's own
// buffer: valid until Release, read-only under Pin.
func (h Handle) Bytes() []byte { return h.f.data }

// MarkDirty records that the caller changed Bytes. Only a PinExclusive
// or PinOverwrite handle may be patched; a change that is not marked is
// lost (and, on a cached frame, visible until eviction) — release
// without marking only when nothing was stored.
func (h Handle) MarkDirty() {
	if h.mode == pinShared {
		panic("buffer: MarkDirty on a shared pin")
	}
	h.f.dirty = true
}

// Release unpins the page. It reports the failure of physical I/O the
// release had to perform: the write of a dirty transient frame, or of the
// victim a PinOverwrite miss evicted. A shared pin never fails to release.
func (h Handle) Release() error {
	f := h.f
	if h.lent {
		return h.p.releaseLent(f, h.mode)
	}
	if h.mode == pinShared {
		f.latch.RUnlock()
	} else {
		f.latch.Unlock()
	}
	f.pins.Add(-1)
	return nil
}

// Pin pins the page for reading. Each call is one logical page read: a
// buffer hit or a physical read.
//
//burlint:hotpath
func (p *Pool) Pin(id pagestore.PageID) (Handle, error) { return p.pin(id, pinShared) }

// PinExclusive pins the page for a read-modify-write: one logical page
// read, after which the caller may patch Bytes and MarkDirty.
//
//burlint:hotpath
func (p *Pool) PinExclusive(id pagestore.PageID) (Handle, error) { return p.pin(id, pinExclusive) }

// PinOverwrite pins the page for a whole-page write. It performs no
// logical read: a cached page is handed over as it is, a page that is
// not cached as a frame of garbage, so the caller must either store all
// of Bytes and MarkDirty, or store nothing.
//
//burlint:hotpath
func (p *Pool) PinOverwrite(id pagestore.PageID) (Handle, error) {
	p.mu.Lock()
	if f := p.cachedLocked(id); f != nil {
		return p.pinCachedLocked(f, pinOverwrite), nil
	}
	if p.cap > 0 && !p.coverLocked(id) {
		p.mu.Unlock()
		return Handle{}, fmt.Errorf("%w: %d", pagestore.ErrPageBounds, id)
	}
	f := p.lendLocked(id)
	p.mu.Unlock()
	return Handle{p: p, f: f, mode: pinOverwrite, lent: true}, nil
}

// ReadPage copies the page into dst, serving from the buffer when
// possible. dst must be exactly one page long.
func (p *Pool) ReadPage(id pagestore.PageID, dst []byte) error {
	if p.cap == 0 {
		return p.store.ReadInto(id, dst)
	}
	if len(dst) != p.store.PageSize() {
		return pagestore.ErrPageSize
	}
	h, err := p.Pin(id)
	if err != nil {
		return err
	}
	copy(dst, h.Bytes())
	return h.Release()
}

// WritePage stores the page contents in the buffer, deferring the
// physical write until eviction or Flush. src must be exactly one page
// long.
func (p *Pool) WritePage(id pagestore.PageID, src []byte) error {
	if p.cap == 0 {
		return p.store.Write(id, src)
	}
	if len(src) != p.store.PageSize() {
		return pagestore.ErrPageSize
	}
	h, err := p.PinOverwrite(id)
	if err != nil {
		return err
	}
	copy(h.Bytes(), src)
	h.MarkDirty()
	return h.Release()
}

// pin is Pin and PinExclusive.
//
//burlint:hotpath
func (p *Pool) pin(id pagestore.PageID, mode pinMode) (Handle, error) {
	p.mu.Lock()
	if r := p.cachedLocked(id); r != nil {
		h := p.pinCachedLocked(r, mode)
		p.io.CountBufferHit()
		return h, nil
	}
	if p.cap > 0 && !p.coverLocked(id) {
		// The read below would fail the same way.
		p.mu.Unlock()
		return Handle{}, fmt.Errorf("%w: %d", pagestore.ErrPageBounds, id)
	}
	f := p.lendLocked(id)
	if p.cap == 0 {
		// Nothing is ever cached, so nothing can go stale.
		p.mu.Unlock()
		if err := p.store.ReadInto(id, f.data); err != nil {
			p.unlend(f)
			return Handle{}, err
		}
		return Handle{p: p, f: f, mode: mode, lent: true}, nil
	}
	return p.loadLocked(f, mode)
}

// loadLocked fills the lent frame f with the current contents of its
// page, which is not cached, and installs it. It is entered with p.mu
// held and returns without it.
func (p *Pool) loadLocked(f *frame, mode pinMode) (Handle, error) {
	id := f.id
	for attempt := 0; ; attempt++ {
		if iw := p.inflightLocked(id); iw != nil && !iw.canceled {
			// The latest contents are on their way to disk; serve them and
			// re-cache without any physical read. (A canceled write holds
			// discarded data and must never resurface.)
			copy(f.data, iw.data)
			h, err := p.installLocked(f, mode)
			p.io.CountBufferHit()
			return h, err
		}
		ver := p.table[id].version
		if attempt >= 2 {
			// Repeated disk-content changes raced the unlatched reads
			// below; read under the latch, which is totally ordered
			// against write-back completions. Rare, so the lost overlap
			// does not matter.
			if err := p.store.ReadInto(id, f.data); err != nil {
				p.unlendLocked(f)
				p.mu.Unlock()
				return Handle{}, err
			}
			return p.installLocked(f, mode)
		}
		p.mu.Unlock()

		// Miss: fetch from disk with no latch held.
		if err := p.store.ReadInto(id, f.data); err != nil {
			p.unlend(f)
			return Handle{}, err
		}

		p.mu.Lock()
		if r := p.table[id].f; r != nil {
			// Another thread cached the page meanwhile; its copy may be
			// newer (a logical write could have landed), so prefer it.
			p.unlendLocked(f)
			return p.pinCachedLocked(r, mode), nil
		}
		if iw := p.inflightLocked(id); iw != nil && !iw.canceled {
			copy(f.data, iw.data)
		} else if p.table[id].version != ver {
			// A write-back or discard completed during the unlatched
			// read: the bytes read may predate it. Caching them would
			// serve stale data until the next eviction; read again.
			continue
		}
		return p.installLocked(f, mode)
	}
}

// pinCachedLocked pins cached frame f — an LRU frame as the most
// recently used — releases p.mu and takes the frame latch.
func (p *Pool) pinCachedLocked(f *frame, mode pinMode) Handle {
	if !f.resident {
		p.touchLocked(f)
	}
	f.pins.Add(1)
	p.mu.Unlock()
	if mode == pinShared {
		f.latch.RLock()
	} else {
		f.latch.Lock()
	}
	return Handle{p: p, f: f, mode: mode}
}

// installLocked makes the lent frame f, which holds the current contents
// of its page, cached and pinned for the caller, evicting the LRU frame
// if the pool is full; when every frame is pinned (or the capacity is
// zero) f stays lent as a transient frame. It releases p.mu and writes a
// dirty victim back.
func (p *Pool) installLocked(f *frame, mode pinMode) (Handle, error) {
	victim, ok := p.admitLocked(f)
	if !ok {
		if p.cap > 0 {
			p.io.CountPinFallback()
		}
		p.mu.Unlock()
		return Handle{p: p, f: f, mode: mode, lent: true}, nil
	}
	// Nobody else can hold the latch of a frame that was not in the table.
	h := p.pinCachedLocked(f, mode)
	if err := p.writeBack(victim); err != nil {
		_ = h.Release() // a cached frame's release cannot fail
		return Handle{}, err
	}
	return h, nil
}

// admitLocked adds the lent frame f to the table: to the resident ring
// when its bytes are of the resident class, else as the most recently
// used frame. If the LRU ring is full it first evicts its least recently
// used frame that is not pinned, and returns it when it is dirty: the
// caller writes it back after the latch is released. It reports false,
// with nothing changed, when there is no room and no victim.
func (p *Pool) admitLocked(f *frame) (victim *frame, ok bool) {
	f.resident = p.isResident != nil && p.isResident(f.data)
	if !f.resident && p.cached >= p.cap {
		v := p.lru.prev
		for v != &p.lru && v.pins.Load() != 0 {
			v = v.prev
		}
		if v == &p.lru {
			return nil, false
		}
		victim = p.evictLocked(v)
	}
	p.lent--
	p.table[f.id].f = f
	if f.resident {
		p.nres++
		linkAfter(&p.res, f)
	} else {
		p.cached++
		linkAfter(&p.lru, f)
	}
	return victim, true
}

// evictLocked takes the cached frame v, which nobody pins, out of the
// table: a clean frame goes to the free list, a dirty one is published
// to the in-flight list and returned for physical write-back.
func (p *Pool) evictLocked(v *frame) (victim *frame) {
	p.detachLocked(v)
	p.io.CountEviction(v.dirty)
	if !v.dirty {
		p.freeLocked(v)
		return nil
	}
	p.publishLocked(v)
	return v
}

// detachLocked removes cached frame f from the table and its ring.
func (p *Pool) detachLocked(f *frame) {
	unlink(f)
	p.table[f.id].f = nil
	if f.resident {
		p.nres--
	} else {
		p.cached--
	}
}

// inflightLocked returns the latest write of page id still in flight.
func (p *Pool) inflightLocked(id pagestore.PageID) *frame {
	for _, w := range p.inflight {
		if w.id == id {
			return w
		}
	}
	return nil
}

// publishLocked enters the dirty, uncached frame v into the in-flight
// list, behind any write of the same page still running.
func (p *Pool) publishLocked(v *frame) {
	for i, w := range p.inflight {
		if w.id == v.id {
			v.earlier, p.inflight[i] = w, v
			return
		}
	}
	v.earlier = nil
	p.inflight = append(p.inflight, v)
}

// releaseLent ends a handle on a frame outside the table. A clean frame
// is just recycled. A dirty one carries the newest contents of its page:
// it replaces the contents of the page's cached frame when another
// goroutine cached the page meanwhile, else it is cached, else —
// no room — it is written through. A pool of capacity zero writes
// straight to the store.
func (p *Pool) releaseLent(f *frame, mode pinMode) error {
	if !f.dirty {
		p.unlend(f)
		return nil
	}
	if p.cap == 0 {
		err := p.store.Write(f.id, f.data)
		p.unlend(f)
		return err
	}
	p.mu.Lock()
	if r := p.table[f.id].f; r != nil {
		h := p.pinCachedLocked(r, pinExclusive)
		copy(r.data, f.data)
		r.dirty = true
		err := h.Release() // before p.mu is taken again: Flush latches frames under it
		p.unlend(f)
		return err
	}
	victim, ok := p.admitLocked(f)
	if !ok {
		// Written through the in-flight list, like an eviction, so a
		// concurrent miss of the page is served these bytes rather than
		// caching the ones on disk.
		if mode == pinOverwrite {
			p.io.CountPinFallback() // the other modes were counted when they pinned
		}
		p.lent--
		p.publishLocked(f)
		victim = f
	}
	p.mu.Unlock()
	return p.writeBack(victim)
}

// writeBack performs the physical write of an evicted dirty frame with
// no latch held, after any earlier write of the same page completes, and
// recycles the frame. A write canceled by Discard skips the disk
// entirely — its data belongs to a freed page that may since have been
// reallocated, and landing it late would clobber the new page behind
// Flush's back.
func (p *Pool) writeBack(iw *frame) error {
	if iw == nil {
		return nil
	}
	p.mu.Lock()
	for iw.earlier != nil {
		p.wbDone.Wait()
	}
	canceled := iw.canceled
	p.mu.Unlock()
	var err error
	if !canceled {
		err = p.store.Write(iw.id, iw.data)
	}
	id := iw.id
	p.mu.Lock()
	// iw was the oldest running write of its page: unlink it from its
	// successor, or from the list when it is also the latest.
	for i, w := range p.inflight {
		if w.id != id {
			continue
		}
		if w == iw {
			last := len(p.inflight) - 1
			p.inflight[i], p.inflight[last] = p.inflight[last], nil
			p.inflight = p.inflight[:last]
			break
		}
		for w.earlier != nil && w.earlier != iw {
			w = w.earlier
		}
		w.earlier = nil
		break
	}
	p.table[id].version++
	p.freeLocked(iw)
	p.wbDone.Broadcast()
	p.mu.Unlock()
	if err != nil && !errors.Is(err, pagestore.ErrPageFreed) {
		// A freed page means the node was released while its last
		// eviction was in flight; the contents are irrelevant.
		return fmt.Errorf("buffer: evicting page %d: %w", id, err)
	}
	return nil
}

// lendLocked takes a frame off the free list, or creates one, for page id.
func (p *Pool) lendLocked(id pagestore.PageID) *frame {
	f := p.free
	if f != nil {
		p.free, f.next = f.next, nil
		p.nfree--
	} else {
		f = &frame{data: make([]byte, p.store.PageSize())}
	}
	f.id, f.dirty, f.canceled = id, false, false
	p.lent++
	return f
}

// unlendLocked returns a lent frame to the free list.
func (p *Pool) unlendLocked(f *frame) {
	p.lent--
	p.freeLocked(f)
}

func (p *Pool) unlend(f *frame) {
	p.mu.Lock()
	p.unlendLocked(f)
	p.mu.Unlock()
}

// maxFree bounds the free list. A miss takes one frame and, once the pool
// is full, gives its victim's back, so a few spares serve any steady
// state; frames beyond that (pages discarded for good) go to the
// collector rather than count against the heap forever.
const maxFree = 64

// freeLocked puts a frame nobody references on the free list.
func (p *Pool) freeLocked(f *frame) {
	f.prev, f.next = nil, nil
	if p.nfree == maxFree {
		return
	}
	f.next = p.free
	p.free = f
	p.nfree++
}

// linkAfter links f into a ring right after its sentinel: on the LRU
// ring, as the most recently used frame.
func linkAfter(ring, f *frame) {
	f.prev, f.next = ring, ring.next
	f.prev.next, f.next.prev = f, f
}

func unlink(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// touchLocked makes LRU frame f the most recently used.
func (p *Pool) touchLocked(f *frame) {
	if p.lru.next != f {
		unlink(f)
		linkAfter(&p.lru, f)
	}
}

// cachedLocked returns the frame page id occupies, nil when it is not
// cached.
func (p *Pool) cachedLocked(id pagestore.PageID) *frame {
	if uint64(id) < uint64(len(p.table)) {
		return p.table[id].f
	}
	return nil
}

// coverLocked makes the table hold page id, growing it to the store's
// page count when the id lies beyond it. It reports false for an id the
// store never allocated, which no read or write of the store can serve.
func (p *Pool) coverLocked(id pagestore.PageID) bool {
	if uint64(id) < uint64(len(p.table)) {
		return true
	}
	n := p.store.NumAllocated() + 1 // ids run from 1 to NumAllocated
	if uint64(id) >= uint64(n) {
		return false
	}
	p.growLocked(n + tableSlack)
	return true
}

// growLocked lengthens the table to n slots.
func (p *Pool) growLocked(n int) {
	t := make([]slot, n)
	copy(t, p.table)
	p.table = t
}

// dropLocked removes cached frame f from the table without writing it
// back. An unpinned frame is recycled; a pinned one is left to its
// holders and then to the collector.
func (p *Pool) dropLocked(f *frame) {
	p.detachLocked(f)
	if f.pins.Load() == 0 {
		p.freeLocked(f)
	}
}

// cancelLocked marks every running write of the chain ending in iw as
// canceled.
func cancelLocked(iw *frame) {
	for w := iw; w != nil; w = w.earlier {
		w.canceled = true
	}
}

// Discard drops the page from the pool without writing it back. Used when
// a page is freed: its contents must not resurface.
//
// An in-flight eviction of the page is canceled, not forgotten: the
// entry stays in the list until its write-back completes, so Flush
// still drains it and a later eviction of a reallocated page with the
// same id still orders behind it — but the discarded bytes themselves
// never reach the disk. (Dropping the entry instead would let the
// stale write land after the page is reallocated and rewritten,
// invisible to Flush: a snapshot taken then would miss the newest
// version of the page.)
func (p *Pool) Discard(id pagestore.PageID) {
	if p.cap == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.coverLocked(id) {
		return // never allocated, so never cached and never read
	}
	if f := p.table[id].f; f != nil {
		p.dropLocked(f)
	}
	cancelLocked(p.inflightLocked(id))
	p.table[id].version++
}

// Flush writes all dirty frames to disk. Frames stay cached (clean).
// Any in-flight eviction writes are drained first so the flushed
// contents are the final disk state.
func (p *Pool) Flush() error {
	if p.cap == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.inflight) > 0 {
		p.wbDone.Wait()
	}
	for _, ring := range p.rings() {
		for f := ring.next; f != ring; f = f.next {
			// A patch in progress finishes first: its holder needs no pool
			// latch to release.
			f.latch.RLock()
			var err error
			if f.dirty {
				if err = p.store.Write(f.id, f.data); err == nil {
					f.dirty = false
				}
			}
			f.latch.RUnlock()
			if err != nil {
				return fmt.Errorf("buffer: flushing page %d: %w", f.id, err)
			}
		}
	}
	return nil
}

// Invalidate drops every frame without writing anything back. Tests use it
// to force cold-cache behaviour.
func (p *Pool) Invalidate() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ring := range p.rings() {
		for ring.next != ring {
			p.dropLocked(ring.next)
		}
	}
	// Cancel (rather than drop) in-flight evictions so their stale data
	// cannot land after the invalidation point.
	for _, iw := range p.inflight {
		cancelLocked(iw)
	}
}

// Cached reports whether the page currently occupies a frame.
func (p *Pool) Cached(id pagestore.PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cachedLocked(id) != nil
}
