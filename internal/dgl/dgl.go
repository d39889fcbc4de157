// Package dgl implements a Dynamic-Granular-Locking style lock manager
// (after Chakrabarti & Mehrotra, cited by the paper for concurrency
// control in R-trees): multi-granularity locks with the standard
// IS/IX/S/SIX/X mode lattice, per-granule FIFO wait queues, lock
// upgrades, and timeouts for deadlock recovery.
//
// Granules are opaque 64-bit ids. The throughput experiment (paper §5.4)
// locks a tree-level granule in intention mode plus fine leaf-region
// granules, exactly the two-tier shape DGL prescribes (external granules
// + leaf granules). Bottom-up updates acquire their granules directly at
// the fine level, which is why they "fit naturally into DGL": top-down
// operations meet their locks on the way down.
package dgl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is a multi-granularity lock mode.
type Mode int

const (
	// IS is intention-shared.
	IS Mode = iota
	// IX is intention-exclusive.
	IX
	// S is shared.
	S
	// SIX is shared + intention-exclusive.
	SIX
	// X is exclusive.
	X
)

func (m Mode) String() string {
	switch m {
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case SIX:
		return "SIX"
	case X:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// compat[a][b] reports whether a holder in mode a is compatible with a
// requester in mode b.
var compat = [5][5]bool{
	IS:  {IS: true, IX: true, S: true, SIX: true, X: false},
	IX:  {IS: true, IX: true, S: false, SIX: false, X: false},
	S:   {IS: true, IX: false, S: true, SIX: false, X: false},
	SIX: {IS: true, IX: false, S: false, SIX: false, X: false},
	X:   {IS: false, IX: false, S: false, SIX: false, X: false},
}

// Compatible reports whether the two modes may be held simultaneously by
// different transactions.
func Compatible(a, b Mode) bool { return compat[a][b] }

// sup[a][b] is the least mode covering both a and b (lock conversion).
var sup = [5][5]Mode{
	IS:  {IS: IS, IX: IX, S: S, SIX: SIX, X: X},
	IX:  {IS: IX, IX: IX, S: SIX, SIX: SIX, X: X},
	S:   {IS: S, IX: SIX, S: S, SIX: SIX, X: X},
	SIX: {IS: SIX, IX: SIX, S: SIX, SIX: SIX, X: X},
	X:   {IS: X, IX: X, S: X, SIX: X, X: X},
}

// Covers reports whether holding a implies the rights of b.
func Covers(a, b Mode) bool { return sup[a][b] == a }

// GranuleID identifies a lockable granule. The meaning of ids is up to
// the caller (tree granule, grid cells, leaf pages, ...).
type GranuleID uint64

// ErrTimeout reports that a lock request waited past its deadline; the
// caller should release everything and retry (deadlock recovery).
var ErrTimeout = errors.New("dgl: lock wait timed out")

// lock is one granule held in a mode.
type lock struct {
	g    GranuleID
	mode Mode
}

// Txn is one lock owner. A transaction holds a handful of granules (a
// leaf group takes the tree, a few cells, the leaf and its parent), so
// the held set is a slice scanned linearly, backed by the descriptor
// itself until it outgrows it. A Txn is handled by pointer only — a
// copy would make ReleaseAll unlock a ghost owner — and the by-value
// sync.Mutex is what lets go vet's copylocks reject a copy.
type Txn struct {
	id   uint64
	mu   sync.Mutex
	held []lock
	buf  [8]lock
}

// record notes that the transaction now holds g in mode.
func (t *Txn) record(g GranuleID, mode Mode) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.held {
		if t.held[i].g == g {
			t.held[i].mode = mode
			return
		}
	}
	t.held = append(t.held, lock{g, mode})
}

// Manager is the lock table. Like Txn it must not be copied; its
// by-value sync.Mutex makes go vet's copylocks say so.
type Manager struct {
	mu       sync.Mutex
	granules map[GranuleID]*granule
	free     []*granule // emptied granules, reused so a lock cycle allocates nothing
	nextTxn  atomic.Uint64
}

type waiter struct {
	txn     *Txn
	mode    Mode
	upgrade bool
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

// grant records txn as holding mode, replacing its previous grant on an
// upgrade.
func (gr *granule) grant(txn *Txn, mode Mode) {
	for i := range gr.holders {
		if gr.holders[i].txn == txn {
			gr.holders[i].mode = mode
			return
		}
	}
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

// Begin starts a new lock owner.
func (m *Manager) Begin() *Txn {
	t := &Txn{id: m.nextTxn.Add(1)}
	t.held = t.buf[:0]
	return t
}

// Held returns the mode txn holds on g (and whether it holds anything).
func (t *Txn) Held(g GranuleID) (Mode, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.held {
		if l.g == g {
			return l.mode, true
		}
	}
	return 0, false
}

// HeldCount returns the number of granules the transaction holds.
func (t *Txn) HeldCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.held)
}

// Acquire obtains (or upgrades to) the given mode on granule g, waiting
// up to timeout (0 means wait forever). On ErrTimeout the request is
// withdrawn; locks already held are untouched.
func (m *Manager) Acquire(txn *Txn, g GranuleID, mode Mode, timeout time.Duration) error {
	cur, holds := txn.Held(g)
	target := mode
	upgrade := false
	if holds {
		if Covers(cur, mode) {
			return nil // already strong enough
		}
		target = sup[cur][mode]
		upgrade = true
	}

	m.mu.Lock()
	gr := m.granules[g]
	if gr == nil {
		if n := len(m.free); n > 0 {
			gr, m.free = m.free[n-1], m.free[:n-1]
		} else {
			gr = &granule{}
		}
		m.granules[g] = gr
	}
	if m.grantableLocked(gr, txn, target, upgrade) {
		gr.grant(txn, target)
		m.mu.Unlock()
		txn.record(g, target)
		return nil
	}
	w := &waiter{txn: txn, mode: target, upgrade: upgrade, ready: make(chan struct{})}
	if upgrade {
		// Conversions queue ahead of fresh requests to bound starvation.
		gr.queue = append([]*waiter{w}, gr.queue...)
	} else {
		gr.queue = append(gr.queue, w)
	}
	m.mu.Unlock()

	var timer *time.Timer
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case <-w.ready:
		txn.record(g, target)
		return nil
	case <-timeoutC:
		m.mu.Lock()
		if w.granted {
			// Lost the race: the grant landed before the withdrawal.
			m.mu.Unlock()
			<-w.ready
			txn.record(g, target)
			return nil
		}
		for i, q := range gr.queue {
			if q == w {
				gr.queue = append(gr.queue[:i], gr.queue[i+1:]...)
				break
			}
		}
		// The withdrawn request may have been the only thing standing
		// between the waiters queued behind it and the current holders.
		m.wakeLocked(g, gr)
		m.mu.Unlock()
		return fmt.Errorf("%w: granule %d mode %v", ErrTimeout, g, target)
	}
}

// grantableLocked reports whether txn may take mode on gr right now.
// Fresh requests respect FIFO: they are granted only when no other
// request is queued. Upgrades only check the other current holders.
func (m *Manager) grantableLocked(gr *granule, txn *Txn, mode Mode, upgrade bool) bool {
	if !upgrade && len(gr.queue) > 0 {
		return false
	}
	return gr.compatibleWithOthers(txn, mode)
}

// compatibleWithOthers reports whether mode is compatible with every
// grant on gr other than txn's own.
func (gr *granule) compatibleWithOthers(txn *Txn, mode Mode) bool {
	for _, h := range gr.holders {
		if h.txn != txn && !Compatible(h.mode, mode) {
			return false
		}
	}
	return true
}

// Release drops txn's lock on g and wakes compatible waiters.
func (m *Manager) Release(txn *Txn, g GranuleID) {
	txn.mu.Lock()
	ok := false
	for i := range txn.held {
		if txn.held[i].g == g {
			txn.held = append(txn.held[:i], txn.held[i+1:]...)
			ok = true
			break
		}
	}
	txn.mu.Unlock()
	if !ok {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if gr := m.granules[g]; gr != nil {
		gr.drop(txn)
		m.wakeLocked(g, gr)
	}
}

// ReleaseAll drops every lock txn holds.
func (m *Manager) ReleaseAll(txn *Txn) {
	// Detach the held set instead of copying it: a later Acquire on the
	// same descriptor appends to a fresh slice, never to the one walked
	// below.
	txn.mu.Lock()
	held := txn.held
	txn.held = nil
	txn.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range held {
		if gr := m.granules[l.g]; gr != nil {
			gr.drop(txn)
			m.wakeLocked(l.g, gr)
		}
	}
}

// wakeLocked grants the longest compatible prefix of the wait queue.
func (m *Manager) wakeLocked(g GranuleID, gr *granule) {
	for len(gr.queue) > 0 {
		w := gr.queue[0]
		if !gr.compatibleWithOthers(w.txn, w.mode) {
			break
		}
		gr.queue = gr.queue[1:]
		gr.grant(w.txn, w.mode)
		w.granted = true
		close(w.ready)
	}
	if len(gr.holders) == 0 && len(gr.queue) == 0 {
		delete(m.granules, g)
		gr.queue = nil // drop the consumed backing array and its waiters
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
