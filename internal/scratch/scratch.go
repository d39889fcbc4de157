// Package scratch keeps per-call scratch that a call must find every
// time: values it borrows, fills and hands back, so that the next call
// reuses their buffers instead of allocating its own. The read paths keep
// theirs here, and so do the lock owners of the DGL-locked trees.
//
// A sync.Pool would do the same, but what it keeps is up to the runtime:
// it empties itself at garbage collection, and under the race detector it
// drops a quarter of what it is handed. A read whose scratch is dropped
// allocates it again, so its allocation count would depend on chance. A
// List drops nothing it has room for, so a read allocates the same on
// every call: its result, and nothing else once warm.
package scratch

import "sync"

// Cap is how many idle values a List keeps: more than the reads that run
// at once on any index here (two clients, each fanned out over four
// shards), so a value is dropped only past that.
const Cap = 32

// List is a free list of *T. The zero value is empty and ready for use. It
// is safe for concurrent use.
type List[T any] struct {
	// New, if set, makes the value Get returns from an empty list; without
	// it Get returns a new zero T.
	New func() *T

	mu   sync.Mutex
	free []*T
}

// Get takes an idle value off the list, or returns a new one.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return v
	}
	l.mu.Unlock()
	if l.New != nil {
		return l.New()
	}
	return new(T)
}

// Put hands v back for a later Get; past Cap idle values it is left to
// the collector. The caller must not touch v afterwards.
func (l *List[T]) Put(v *T) {
	l.mu.Lock()
	if len(l.free) < Cap {
		if l.free == nil {
			l.free = make([]*T, 0, Cap)
		}
		l.free = append(l.free, v)
	}
	l.mu.Unlock()
}

// Trim returns buf emptied, or nil when its room exceeds max elements: a
// value that goes back on a List keeps the buffers of an ordinary call,
// not those of the largest one it ever served.
func Trim[E any](buf []E, max int) []E {
	if cap(buf) > max {
		return nil
	}
	return buf[:0]
}
