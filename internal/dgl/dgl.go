// Package dgl implements a Dynamic-Granular-Locking style lock manager
// (after Chakrabarti & Mehrotra, cited by the paper for concurrency
// control in R-trees): multi-granularity locks with per-granule FIFO
// wait queues and wait timeouts.
//
// Granules are opaque 64-bit ids. In the throughput experiment (paper
// §5.4) a writer locks a tree-level granule in intention mode plus fine
// leaf-region granules, exactly the two-tier shape DGL prescribes
// (external granules + leaf granules). Bottom-up updates acquire their
// granules directly at the fine level, which is why they "fit naturally
// into DGL": top-down operations meet their locks on the way down.
//
// Of the five modes of Gray et al.'s lattice the protocol uses three: IX
// for a writer on the tree, S for a read (on the tree for a nearest
// neighbour query, on cells for a window) and X for a writer on cells
// and pages. The intention-shared mode and shared-plus-intention-
// exclusive have no user: nothing takes X on the tree, so a window read
// has nothing to announce there. A lock cycle asks for each of its
// granules once, in one mode, so there is no conversion: a granule is
// granted once per cycle, and asking again for one already held is an
// error.
//
// There are two ways in. Acquire takes one granule and waits for it, in
// FIFO order behind whoever asked first. TryAcquireAll takes a whole lock
// set in one visit to the table, or nothing: it never waits and never
// queues, so it may be called where waiting is forbidden, and it is
// refused behind any queued request, so it cannot overtake one. The
// bottom-up paths know their few granules up front and nearly always
// find them free, so they try first and fall back to Acquire, granule by
// granule, only when refused. A Txn is reset by ReleaseAll and may then
// be used again: a batch runs all its lock cycles on one descriptor.
//
// Waits are deadlock-free as long as every transaction waits for its
// granules in one global order, ascending id, into which the caller lays
// out its granule tiers (tree, then cells, then pages). Acquire enforces
// the order: asking for a granule at or below the highest one the
// transaction holds is a programmer error and panics. With the order
// kept, a timeout bounds only a wait behind a holder that does not let
// go, such as an owner that calls back into the index while it holds its
// granules.
package dgl

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Mode is a multi-granularity lock mode.
type Mode int

const (
	// IX is intention-exclusive.
	IX Mode = iota
	// S is shared.
	S
	// X is exclusive.
	X
)

func (m Mode) String() string {
	switch m {
	case IX:
		return "IX"
	case S:
		return "S"
	case X:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// compat[a][b] reports whether a holder in mode a is compatible with a
// requester in mode b.
var compat = [3][3]bool{
	IX: {IX: true, S: false, X: false},
	S:  {IX: false, S: true, X: false},
	X:  {IX: false, S: false, X: false},
}

// Compatible reports whether the two modes may be held simultaneously by
// different transactions.
func Compatible(a, b Mode) bool { return compat[a][b] }

// GranuleID identifies a lockable granule. The meaning of ids is up to
// the caller (tree granule, grid cells, leaf pages, ...).
type GranuleID uint64

// ErrTimeout reports that a lock request waited past its deadline; the
// caller should release everything and retry.
var ErrTimeout = errors.New("dgl: lock wait timed out")

// lock is one granule held in a mode. The table keeps a granule's entry
// for as long as anybody holds it, so the holder's pointer to it stays
// good until the release, which then needs no lookup.
type lock struct {
	g    GranuleID
	mode Mode
	gr   *granule
}

// Txn is one lock owner. A transaction holds a handful of granules (a
// leaf group takes the tree, a few cells, the leaf and its parent), so
// the held set is a slice scanned linearly, backed by the descriptor
// itself until it outgrows it. A Txn has one owner at a time — the
// goroutine acquiring and releasing through it; the manager only ever
// compares the pointer — so the held set needs no lock of its own. It is
// handled by pointer only — a copy would make ReleaseAll unlock a ghost
// owner — and the noCopy marker is what lets go vet's copylocks reject a
// copy.
//
// Its owner waits for one granule at a time, so a Txn also carries the
// one request it can have queued, w, and the timer that bounds the wait:
// a blocking Acquire reuses both and allocates nothing.
type Txn struct {
	_     noCopy
	held  []lock
	buf   [8]lock
	top   GranuleID // the highest granule held; 0 when none is
	w     waiter
	timer *time.Timer // Acquire's deadline, stopped between waits
}

// noCopy makes go vet's copylocks check flag copies of the struct that
// embeds it; it takes no space and does nothing.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// cover notes that the transaction holds g, the table's gr, in mode. It
// held nothing on g before: a cycle asks for each granule once.
func (t *Txn) cover(g GranuleID, mode Mode, gr *granule) {
	t.held = append(t.held, lock{g, mode, gr})
	t.top = max(t.top, g)
}

// Manager is the lock table. Like Txn it must not be copied; its
// by-value sync.Mutex makes go vet's copylocks say so.
type Manager struct {
	mu       sync.Mutex
	granules map[GranuleID]*granule
	free     []*granule // emptied granules, reused so a lock cycle allocates nothing
}

// waiter is a queued request. A grant sets granted and signals ready,
// under the table's lock; ready holds one signal, so the grant never
// blocks, and the waiter takes the signal before its next wait.
type waiter struct {
	txn     *Txn
	mode    Mode
	ready   chan struct{}
	granted bool
}

// holder is one transaction's grant on a granule.
type holder struct {
	txn  *Txn
	mode Mode
}

type granule struct {
	holders []holder
	queue   []*waiter
}

// grant records txn, which holds nothing on gr, as holding mode.
func (gr *granule) grant(txn *Txn, mode Mode) {
	gr.holders = append(gr.holders, holder{txn, mode})
}

// drop removes txn's grant.
func (gr *granule) drop(txn *Txn) {
	for i := range gr.holders {
		if gr.holders[i].txn == txn {
			last := len(gr.holders) - 1
			gr.holders[i] = gr.holders[last]
			gr.holders[last] = holder{}
			gr.holders = gr.holders[:last]
			return
		}
	}
}

// NewManager creates an empty lock table.
func NewManager() *Manager {
	return &Manager{granules: make(map[GranuleID]*granule)}
}

// Begin starts a new lock owner. The descriptor holds nothing, and holds
// nothing again after each ReleaseAll: one Begin serves any number of
// lock cycles.
func (m *Manager) Begin() *Txn {
	t := &Txn{}
	t.held = t.buf[:0]
	t.w = waiter{txn: t, ready: make(chan struct{}, 1)}
	return t
}

// Held returns the mode txn holds on g (and whether it holds anything).
func (t *Txn) Held(g GranuleID) (Mode, bool) {
	for _, l := range t.held {
		if l.g == g {
			return l.mode, true
		}
	}
	return 0, false
}

// HeldCount returns the number of granules the transaction holds.
func (t *Txn) HeldCount() int { return len(t.held) }

// Acquire obtains the given mode on granule g, waiting up to timeout (0
// means wait forever) behind the holders it conflicts with and behind
// every request queued before it. On ErrTimeout, returned as is, the
// request is withdrawn; locks already held are untouched. It panics when
// txn asks for a granule at or below one it holds: a transaction waits
// for granules in ascending order, each once.
func (m *Manager) Acquire(txn *Txn, g GranuleID, mode Mode, timeout time.Duration) error {
	if len(txn.held) > 0 && g <= txn.top {
		panic(fmt.Sprintf("dgl: Acquire of granule %d while holding granule %d: granules are waited for in ascending order, each once", g, txn.top))
	}

	m.mu.Lock()
	gr := m.granuleLocked(g)
	if len(gr.queue) == 0 && gr.compatible(mode) {
		gr.grant(txn, mode)
		m.mu.Unlock()
		txn.cover(g, mode, gr)
		return nil
	}
	w := &txn.w
	w.mode, w.granted = mode, false
	gr.queue = append(gr.queue, w)
	m.mu.Unlock()

	var timeoutC <-chan time.Time
	if timeout > 0 {
		if txn.timer == nil {
			txn.timer = time.NewTimer(timeout)
		} else {
			txn.timer.Reset(timeout)
		}
		// Since Go 1.23 a stopped timer's channel holds no stale tick, so
		// the next wait's Reset starts clean.
		defer txn.timer.Stop()
		timeoutC = txn.timer.C
	}
	select {
	case <-w.ready:
		txn.cover(g, mode, gr)
		return nil
	case <-timeoutC:
		m.mu.Lock()
		if w.granted {
			// Lost the race: the grant landed before the withdrawal, and
			// its signal is waiting in ready.
			m.mu.Unlock()
			<-w.ready
			txn.cover(g, mode, gr)
			return nil
		}
		gr.queue = slices.DeleteFunc(gr.queue, func(q *waiter) bool { return q == w })
		// The withdrawn request may have been the only thing standing
		// between the waiters queued behind it and the current holders.
		m.wakeLocked(g, gr)
		m.mu.Unlock()
		return ErrTimeout
	}
}

// granuleLocked returns g's entry in the table, entering a recycled or a
// new one when the granule has neither holder nor waiter.
func (m *Manager) granuleLocked(g GranuleID) *granule {
	gr := m.granules[g]
	if gr == nil {
		if n := len(m.free); n > 0 {
			gr, m.free = m.free[n-1], m.free[:n-1]
		} else {
			gr = &granule{}
		}
		m.granules[g] = gr
	}
	return gr
}

// Req is one granule of a lock set, with the mode it is wanted in.
type Req struct {
	G    GranuleID
	Mode Mode
}

// TryAcquireAll takes every granule of reqs in its mode, or none of
// them, in one visit to the lock table. It never waits and never queues:
// when any of the granules is held in a conflicting mode, or has a
// request queued on it — even one the modes would admit, so that FIFO
// holds and a queued exclusive request is not starved by a stream of
// try-ers — it reports false and the table is as it was, with no entry
// made for a granule nobody holds. txn holds nothing, and reqs names
// each granule once. Since it never waits, reqs may come in any order;
// what it grants counts towards the order a later Acquire on txn must
// keep.
func (m *Manager) TryAcquireAll(txn *Txn, reqs []Req) bool {
	if len(txn.held) > 0 {
		panic(fmt.Sprintf("dgl: TryAcquireAll while holding granule %d: a try takes a whole lock set", txn.top))
	}
	m.mu.Lock()
	for _, r := range reqs {
		if gr := m.granules[r.G]; gr != nil && (len(gr.queue) > 0 || !gr.compatible(r.Mode)) {
			m.mu.Unlock()
			return false
		}
	}
	for _, r := range reqs {
		gr := m.granuleLocked(r.G)
		gr.grant(txn, r.Mode)
		txn.cover(r.G, r.Mode, gr)
	}
	m.mu.Unlock()
	return true
}

// compatible reports whether mode is compatible with every grant on gr.
func (gr *granule) compatible(mode Mode) bool {
	for _, h := range gr.holders {
		if !Compatible(h.mode, mode) {
			return false
		}
	}
	return true
}

// ReleaseAll drops every lock txn holds and resets the descriptor: it
// holds nothing, keeps the room its held set grew to, and is ready for
// the next lock cycle.
func (m *Manager) ReleaseAll(txn *Txn) {
	if len(txn.held) == 0 {
		return
	}
	m.mu.Lock()
	for _, l := range txn.held {
		l.gr.drop(txn)
		m.wakeLocked(l.g, l.gr)
	}
	m.mu.Unlock()
	clear(txn.held) // an idle descriptor keeps no granule alive
	txn.held = txn.held[:0]
	txn.top = 0
}

// wakeLocked grants the longest compatible prefix of the wait queue.
func (m *Manager) wakeLocked(g GranuleID, gr *granule) {
	granted := 0
	for _, w := range gr.queue {
		if !gr.compatible(w.mode) {
			break
		}
		gr.grant(w.txn, w.mode)
		w.granted = true
		w.ready <- struct{}{}
		granted++
	}
	// Shifted down, not resliced, so the queue keeps its room.
	gr.queue = slices.Delete(gr.queue, 0, granted)
	if len(gr.holders) == 0 && len(gr.queue) == 0 {
		delete(m.granules, g)
		m.free = append(m.free, gr)
	}
}

// Stats reports the current lock table occupancy.
type Stats struct {
	Granules int
	Waiters  int
}

// Stats returns a snapshot of table occupancy.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{Granules: len(m.granules)}
	for _, gr := range m.granules {
		s.Waiters += len(gr.queue)
	}
	return s
}
