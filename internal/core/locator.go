package core

import (
	"errors"
	"fmt"
	"sync"

	"burtree/internal/pagestore"
	"burtree/internal/rtree"
)

// Locator is how the bottom-up strategies reach an object's leaf: the
// lookup an update starts with, and the placements the tree's listener
// (locatorAdapter) and the sibling shifts report. The tree reports the
// removal only of an entry it placed, so an error from Delete, as from
// Set, is a bookkeeping failure that Updater.Err surfaces. Keeping a
// locator consistent with the tree under concurrent writers is the
// caller's job (DGL).
//
// Options.Locator passes one in; nil selects leafMap, which keeps the
// map in main memory at no page cost. The paper's paged hash index
// (Figure 2, internal/hashindex), whose page accesses §5 charges, is one
// the experiment harness passes.
type Locator interface {
	Lookup(oid uint64) (pagestore.PageID, error)
	Set(oid uint64, leaf pagestore.PageID) error
	Delete(oid uint64) error
	Size() int
}

var _ Locator = (*leafMap)(nil)

// errNotMapped reports a lookup of an id the in-memory map does not hold.
var errNotMapped = errors.New("core: oid not mapped")

// leafMapStripes is the number of independently locked shards of a
// leafMap. Stripe = oid mod leafMapStripes, so writers that own ids of
// different residues never share a lock.
const leafMapStripes = 64

// leafMap is the in-memory locator: an id → leaf-page map split into
// stripes, each a Go map under its own mutex, so concurrent updates,
// batch lookups and piggybacked shifts proceed in parallel. It is safe
// for concurrent use; keeping it consistent with the tree is the
// caller's job, as it is for any Locator.
type leafMap struct {
	stripes [leafMapStripes]leafStripe
}

// leafStripe is one lock and its map, padded to a cache line so that
// writers on neighbouring stripes do not share one.
type leafStripe struct {
	mu     sync.Mutex
	leaves map[uint64]pagestore.PageID
	_      [48]byte
}

// newLeafMap returns an empty map with room for about capacity ids; the
// capacity is a hint, and the map grows past it as the data does.
func newLeafMap(capacity int) *leafMap {
	m := &leafMap{}
	for i := range m.stripes {
		m.stripes[i].leaves = make(map[uint64]pagestore.PageID, capacity/leafMapStripes)
	}
	return m
}

func (m *leafMap) stripe(oid uint64) *leafStripe { return &m.stripes[oid%leafMapStripes] }

// Lookup returns the leaf page currently holding oid.
func (m *leafMap) Lookup(oid uint64) (pagestore.PageID, error) {
	s := m.stripe(oid)
	s.mu.Lock()
	leaf, ok := s.leaves[oid]
	s.mu.Unlock()
	if !ok {
		return pagestore.InvalidPage, fmt.Errorf("%w: %d", errNotMapped, oid)
	}
	return leaf, nil
}

// Set maps oid to leaf, inserting or updating as needed.
func (m *leafMap) Set(oid uint64, leaf pagestore.PageID) error {
	s := m.stripe(oid)
	s.mu.Lock()
	s.leaves[oid] = leaf
	s.mu.Unlock()
	return nil
}

// Delete removes the mapping for oid, if there is one.
func (m *leafMap) Delete(oid uint64) error {
	s := m.stripe(oid)
	s.mu.Lock()
	delete(s.leaves, oid)
	s.mu.Unlock()
	return nil
}

// Size returns the number of mapped object ids.
func (m *leafMap) Size() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		n += len(s.leaves)
		s.mu.Unlock()
	}
	return n
}

// located is implemented by the strategies that keep a locator (every
// one embedding bottomUp).
type located interface {
	locator() Locator
}

// forEachLeafEntry calls visit with every object of t and the leaf
// holding it, in one walk over the tree. A child pointer the store never
// allocated fails the read (the pool and the store refuse it before
// sizing anything by it), and a node at the wrong level fails the walk.
func forEachLeafEntry(t *rtree.Tree, visit func(oid rtree.OID, leaf pagestore.PageID) error) error {
	if t.Root() == pagestore.InvalidPage {
		return nil
	}
	var walk func(page pagestore.PageID, level int) error
	walk = func(page pagestore.PageID, level int) error {
		n, err := t.BorrowNode(page)
		if err != nil {
			return err
		}
		defer t.ReturnNode(n)
		if n.Level != level {
			// Also what ends the walk of a child pointer that leads back up.
			return fmt.Errorf("core: node %d has level %d, its place in the tree %d", page, n.Level, level)
		}
		for _, e := range n.Entries {
			if level == 0 {
				err = visit(e.OID, page)
			} else {
				err = walk(e.Child, level-1)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.Root(), t.Height()-1)
}

// CheckLocator verifies a bottom-up strategy's locator against its tree
// with one walk over the leaves: every leaf entry's locator entry names
// that leaf, and the locator holds no other id. Strategies without a
// locator (TD) pass. Like rtree's CheckInvariants it is meant for tests
// and is only meaningful at a quiescent point.
func CheckLocator(u Updater) error {
	l, ok := u.(located)
	if !ok {
		return nil
	}
	loc, mapped := l.locator(), 0
	err := forEachLeafEntry(u.Tree(), func(oid rtree.OID, leaf pagestore.PageID) error {
		at, err := loc.Lookup(oid)
		switch {
		case err != nil:
			return fmt.Errorf("core: object %d in leaf %d has no locator entry: %w", oid, leaf, err)
		case at != leaf:
			return fmt.Errorf("core: object %d is in leaf %d, its locator entry names %d", oid, leaf, at)
		}
		mapped++
		return nil
	})
	if err != nil {
		return err
	}
	if n := loc.Size(); n != mapped {
		return fmt.Errorf("core: locator maps %d ids, the tree's leaves hold %d", n, mapped)
	}
	return nil
}
