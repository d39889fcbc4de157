package burtree

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"burtree/internal/core"
	"burtree/internal/pagestore"
)

// This file is the object table: the one record per object an index
// keeps beside its tree(s), whatever the number of stacks. A record holds
// the position the index last accepted for the object and where a tree
// holds it — the stack and the leaf page — so the table is both the
// id → position structure the write pipeline reserves against and the
// id → leaf lookup the paper's bottom-up update starts with (§3.1,
// Figure 2): each stack's strategy reaches it through a stackView, its
// core.Locator.

// tableStripes is the number of stripes the table is split into, by id:
// stripe id % tableStripes. The writes' ordering locks are the same
// stripes (lockIDs).
const tableStripes = 256

// objectTable is an index's one record per object, split into stripes.
type objectTable struct {
	stripes [tableStripes]tableStripe
	// misses counts the lookups a stack's view answered with a miss,
	// because the record names another stack or none: each sends the
	// stack's strategy to the object's copy by position instead (a
	// top-down delete or update). Only a tiered index with more than one
	// stack makes them, while a cross-shard move sits in two trees.
	// TestOneRecordAcrossTieredShards reads it: that a stale copy is
	// reached by position, and that no lookup misses with none.
	misses atomic.Uint64
}

// tableStripe is one stripe: its ordering lock, and its records under a
// lock of their own.
type tableStripe struct {
	// order orders the writes of one id: every write holds the stripes of
	// its id set from reserve to ack or undo, so racing writes of one
	// object reach the table, the tree(s) and the log in one order. Taken
	// inside the gate and outside every other lock, in ascending stripe
	// order (lockIDs).
	order sync.Mutex
	// mu guards records and live. It is a leaf lock, held for one map
	// access: the pipeline takes it under the write's ordering stripes,
	// and a stack's view under the tree's own locks.
	mu      sync.Mutex
	live    int // records with an accepted position
	records map[uint64]record
	_       [32]byte // a stripe to a cache line
}

// record is one object's entry. X and Y are the position the index last
// accepted for it; NaN while there is none — a tree has placed an insert
// the pipeline has not yet recorded, or a delete was accepted that a
// tree has not yet carried out. stack is 1 + the number of the stack
// whose tree holds the object, at page leaf; 0 while no placement is
// recorded (TopDown keeps none, and a tiered insert has none until its
// merge-down). 24 bytes, where a 64-bit page id would make it 32.
type record struct {
	X, Y  float64
	leaf  uint32
	stack uint16
}

// live reports whether the record holds an accepted position.
func (r record) live() bool { return r.X == r.X }

func (r record) point() Point { return Point{X: r.X, Y: r.Y} }

// init empties the table, with room for about capacity objects; the
// capacity is a hint, and the stripes grow past it as the data does.
func (t *objectTable) init(capacity int) {
	for i := range t.stripes {
		st := &t.stripes[i]
		st.live, st.records = 0, make(map[uint64]record, capacity/tableStripes)
	}
}

func (t *objectTable) stripe(id uint64) *tableStripe { return &t.stripes[id%tableStripes] }

// get returns id's record.
func (t *objectTable) get(id uint64) (record, bool) {
	st := t.stripe(id)
	st.mu.Lock()
	r, ok := st.records[id]
	st.mu.Unlock()
	return r, ok
}

// stripeSet is a set of the table's stripes, one bit each: a bitmap on
// the stack, so taking them allocates nothing.
type stripeSet [tableStripes / 64]uint64

// lockIDs takes the ordering stripes of the ids in changes, each once, in
// ascending order — the one order every writer takes them in — and
// returns the set, for unlockIDs.
func (t *objectTable) lockIDs(changes []Change) (held stripeSet) {
	for _, c := range changes {
		held[c.ID/64%4] |= 1 << (c.ID % 64) // stripe c.ID % 256
	}
	for w, word := range held {
		for ; word != 0; word &= word - 1 {
			t.stripes[w*64+bits.TrailingZeros64(word)].order.Lock()
		}
	}
	return held
}

func (t *objectTable) unlockIDs(held stripeSet) {
	for w, word := range held {
		for ; word != 0; word &= word - 1 {
			t.stripes[w*64+bits.TrailingZeros64(word)].order.Unlock()
		}
	}
}

// put makes the table show c, of kind k, accepted: an insert or a move
// sets the position, keeping whatever placement a tree has recorded, and
// a delete drops the record — or, while a tree still holds the object,
// only its position, so that tree's view still finds it.
func (t *objectTable) put(k opKind, c core.BatchChange) {
	st := t.stripe(c.OID)
	st.mu.Lock()
	r, ok := st.records[c.OID]
	if ok && r.live() {
		st.live--
	}
	switch {
	case k != opDelete:
		r.X, r.Y = c.New.X, c.New.Y
		st.records[c.OID] = r
		st.live++
	case r.stack == 0:
		delete(st.records, c.OID)
	default:
		r.X, r.Y = math.NaN(), math.NaN()
		st.records[c.OID] = r
	}
	st.mu.Unlock()
}

// add records a new object at p for a load, reporting false when id
// already has a record.
func (t *objectTable) add(id uint64, p Point) bool {
	st := t.stripe(id)
	st.mu.Lock()
	_, dup := st.records[id]
	if !dup {
		st.records[id] = record{X: p.X, Y: p.Y}
		st.live++
	}
	st.mu.Unlock()
	return !dup
}

// fill records the positions of a bulk load's objects, which the load
// has just placed, a stripe at a time: each stripe's map stays in cache
// while its share is written, where the input's order would touch the
// whole table at random, twice per object. It reports an id the input
// repeats.
func (t *objectTable) fill(ids []uint64, pts []Point) error {
	var start [tableStripes + 1]int
	for _, id := range ids {
		start[id%tableStripes+1]++
	}
	for s := 1; s <= tableStripes; s++ {
		start[s] += start[s-1]
	}
	next, order := start, make([]int, len(ids))
	for i, id := range ids {
		s := id % tableStripes
		order[next[s]] = i
		next[s]++
	}
	for s := range t.stripes {
		st := &t.stripes[s]
		st.mu.Lock()
		for _, i := range order[start[s]:start[s+1]] {
			r, ok := st.records[ids[i]]
			if ok && r.live() {
				st.mu.Unlock()
				return fmt.Errorf("%w: %d", ErrDuplicateObject, ids[i])
			}
			r.X, r.Y = pts[i].X, pts[i].Y
			st.records[ids[i]] = r
			st.live++
		}
		st.mu.Unlock()
	}
	return nil
}

// Len returns the number of indexed objects.
func (t *objectTable) Len() int {
	n := 0
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		n += st.live
		st.mu.Unlock()
	}
	return n
}

// Location returns the last position accepted for the object. Under
// concurrent updates of the same id the value may be superseded by the
// time the caller uses it; callers that need stable read-modify-write
// semantics serialize their own per-object access.
func (t *objectTable) Location(id uint64) (Point, bool) {
	r, ok := t.get(id)
	return r.point(), ok && r.live()
}

// each calls visit with every record, a stripe at a time under its lock:
// a view of the whole table only at a point with no write in flight.
func (t *objectTable) each(visit func(id uint64, r record)) {
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for id, r := range st.records {
			visit(id, r)
		}
		st.mu.Unlock()
	}
}

// stackView is stack s's view of the table: the core.Locator the stack's
// strategy finds leaves through and reports placements to. It reads and
// writes the records' placements only, under a rule that lets one record
// serve an object that sits, for a while, in two trees. On a tiered index
// a cross-shard move is absorbed as a tombstone in the source stack's
// tier and an insert in the destination's, and the two stacks drain on
// their own: if the destination drains first, both trees hold the object
// until the source does. So a view
//
//   - answers Lookup only for a record that names its stack;
//   - clears a placement on Delete only when it names its stack;
//   - writes one on Set when the record names its stack or none, or when
//     the record's accepted position routes to its stack.
//
// A stack whose view misses reaches its own copy by the position it
// holds for it (GBU's top-down delete, bottomUp's top-down update), and
// the copy's placements are never recorded. Without a tier every
// departure of a write completes before any arrival starts, so no view
// ever misses.
type stackView struct {
	x *index
	s uint16 // 1 + the stack's number, as records name it
}

var _ core.Locator = (*stackView)(nil)

// Lookup returns the leaf of s's tree that holds oid.
func (v *stackView) Lookup(oid uint64) (pagestore.PageID, error) {
	r, _ := v.x.get(oid)
	if r.stack != v.s {
		v.x.misses.Add(1)
		return pagestore.InvalidPage, core.ErrNotPlaced // no id: a miss allocates nothing
	}
	return pagestore.PageID(r.leaf), nil
}

// Set records that s's tree holds oid at leaf, under the rule above. A
// page id the record's 32-bit field cannot hold is refused.
func (v *stackView) Set(oid uint64, leaf pagestore.PageID) error {
	if leaf > math.MaxUint32 {
		return fmt.Errorf("burtree: object %d placed on page %d, beyond the table's 32-bit page ids", oid, leaf)
	}
	st := v.x.stripe(oid)
	st.mu.Lock()
	r, ok := st.records[oid]
	if !ok {
		r = record{X: math.NaN(), Y: math.NaN()} // an insert the pipeline records next
	}
	if r.stack == v.s || r.stack == 0 || r.live() && v.x.router.ShardOf(r.point()) == int(v.s)-1 {
		r.leaf, r.stack = uint32(leaf), v.s
		st.records[oid] = r
	}
	st.mu.Unlock()
	return nil
}

// Delete clears oid's placement when it names s's tree, dropping a record
// whose delete the pipeline has already accepted.
func (v *stackView) Delete(oid uint64) error {
	st := v.x.stripe(oid)
	st.mu.Lock()
	if r, ok := st.records[oid]; ok && r.stack == v.s {
		if r.live() {
			r.leaf, r.stack = 0, 0
			st.records[oid] = r
		} else {
			delete(st.records, oid)
		}
	}
	st.mu.Unlock()
	return nil
}

// Size returns the number of records that name s's tree: a walk of the
// whole table, for checks.
func (v *stackView) Size() int {
	n := 0
	v.x.each(func(_ uint64, r record) {
		if r.stack == v.s {
			n++
		}
	})
	return n
}

// view returns stack i's view of the table.
func (x *index) view(i int) *stackView { return &stackView{x: x, s: uint16(i + 1)} }
