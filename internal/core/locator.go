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
// A lookup that misses with ErrNotPlaced is not a failure: the strategy
// reaches the object by the position the caller gave (a top-down update
// or delete). A locator may miss so for an object its tree does hold,
// when it keeps one record per object for several trees and the record
// names another: the library's object table, while a tiered cross-shard
// move sits in two trees for a while.
//
// Options.Locator passes one in; the library passes each stack its view
// of the index's object table. Nil selects leafMap, which keeps an
// id → leaf map in main memory at no page cost; the paper's paged hash
// index (Figure 2, internal/hashindex), whose page accesses §5 charges,
// is the one the experiment harness passes.
type Locator interface {
	Lookup(oid uint64) (pagestore.PageID, error)
	Set(oid uint64, leaf pagestore.PageID) error
	Delete(oid uint64) error
	Size() int
}

var _ Locator = (*leafMap)(nil)

// ErrNotPlaced is a locator's lookup miss (see Locator).
var ErrNotPlaced = errors.New("core: oid not placed")

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
		return pagestore.InvalidPage, fmt.Errorf("%w: %d", ErrNotPlaced, oid)
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

// ForEachLeafEntry calls visit with every leaf entry of t and the leaf
// holding it, in one walk over the tree. A child pointer the store never
// allocated fails the read (the pool and the store refuse it before
// sizing anything by it), and a node at the wrong level fails the walk.
func ForEachLeafEntry(t *rtree.Tree, visit func(leaf pagestore.PageID, e rtree.Entry) error) error {
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
				err = visit(page, e)
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
