// Package memtable implements the in-memory delta tier that fronts the
// disk-resident R-tree: an LSM-style leaf-delta buffer keyed by object
// id, holding each object's latest absorbed position (or a tombstone)
// until a background merge drains it down to the tree through the
// batched bottom-up update path.
//
// The tier exists to decouple the durable acknowledgement of an update
// from the tree pass it eventually costs: with a write-ahead log in
// front, an update is durable as soon as its record is synced, so the
// index can ack after the log append alone and absorb the tree work
// here — the design of the update-intensive LSM-based R-tree follow-up
// work, with the buffer-tree amortization argument backing it.
//
// A Table holds two generations:
//
//   - the mutable table, which absorbs writes;
//   - the draining table (non-nil only while a merge is applying),
//     whose entries are mid-flight into the tree.
//
// Readers overlay both generations on top of the tree (mutable wins
// over draining wins over tree), and the drain only discards the
// draining generation after every entry has been applied, so a reader
// that fixes its overlay before scanning the tree observes each object
// exactly once no matter how a concurrent merge interleaves.
//
// A reader fixes its overlay as a View, which costs what the read
// reports and not what the tier holds. Under one hold of the table's
// mutex, before the tree scan starts, ViewWindow/ViewNearest
//
//   - capture the two generations by pointer and the absorb counter,
//     and
//   - copy out the live entries the read will report — those inside
//     the window, or the k nearest the point — in one pass over each
//     generation's dense entry slice.
//
// During the scan View.Masks decides per tree candidate, by lookup,
// whether a captured delta supersedes it. A candidate is masked iff its
// id is
//
//   - in the captured draining generation. A generation is never
//     written again once BeginDrain has promoted it, and EndDrain only
//     drops the table's pointer to it, so the view reads it without the
//     mutex for as long as it likes; or
//   - in the captured mutable generation with a birth stamp no later
//     than the captured counter. An entry keeps the stamp of the absorb
//     that first created it in its generation, however often it is
//     rewritten afterwards. Born at or before the view, the entry was
//     there when the view copied out what it reports, so the object was
//     reported (or, a tombstone, withheld) from its at-view state and
//     the tree's copy must stay hidden — even if the delta has moved on
//     since, and even once a merge has carried it into the tree
//     mid-scan: that costs a masked duplicate, never a missed object.
//     Born after the view, the delta was not there to be reported, and
//     hiding the tree's copy would lose the object: it stays visible, at
//     the position the tree has for it.
//
// Only a delta created over a tree-resident object is stamped. One for
// an object the tree has never held (or holds condemned under a
// draining tombstone, which masks it) is born at zero, masked in every
// view: the tree shows nothing of the object until this generation
// merges, and what it shows then either postdates the view or — the
// delta was cancelled by a delete and re-created since the view — is a
// later incarnation of an entry the view has already reported.
// A mutable generation that is empty when the view is taken is not
// captured at all: whatever enters it later postdates the view.
//
// The mutex is a leaf: no method calls out while holding it. Masks takes
// it under the tree's shared locks and latch, where the scan runs.
//
// Each entry records, besides the object's latest position, what the
// tree will hold for that object once all earlier generations have
// merged (InTree/Base): that is exactly the information the merge
// needs to turn the entry into a bottom-up tree operation — an insert
// for objects the tree has never seen, a Base→Pos move for objects it
// has, a delete-at-Base for tombstones.
package memtable

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"burtree/internal/geom"
)

// Config bounds the tier.
type Config struct {
	// MaxObjects is the entry count at which the table asks for a
	// merge-down.
	MaxObjects int
}

// Entry is one buffered delta: the latest absorbed state of one object
// relative to the tree.
type Entry struct {
	// ID names the object.
	ID uint64
	// Pos is the object's latest absorbed position (meaningless when
	// Tombstone is set).
	Pos geom.Point
	// InTree reports whether the tree holds this object once every
	// earlier generation has merged; Base is its position there. The
	// merge turns the entry into Update(Base→Pos) when InTree, and into
	// Insert(Pos) otherwise.
	InTree bool
	Base   geom.Point
	// Tombstone marks a deleted object the tree still holds (at Base);
	// the merge deletes it. Deltas for objects the tree never saw are
	// simply dropped, so a stored tombstone always has InTree set.
	Tombstone bool
}

// Stats is a snapshot of the tier's counters.
type Stats struct {
	// Entries is the current number of buffered deltas (mutable plus
	// draining generation).
	Entries int
	// Absorbed counts write operations absorbed since creation.
	Absorbed int64
	// Merges counts completed merge-downs.
	Merges int64
	// Merged counts entries merged down to the tree.
	Merged int64
	// MergePages counts physical page accesses incurred by merge-downs
	// — the background half of the tier's I/O, attributed here so
	// foreground load accounting can exclude it.
	MergePages int64
}

// delta is a buffered entry with its birth stamp: the value of the
// table's absorb counter when the id first entered its generation, or
// zero for a delta created over an object the tree does not hold (see
// the package comment).
type delta struct {
	Entry
	born int64
}

// generation is one table of deltas: a dense slice, which the views
// scan, beside the id → slot index every lookup goes through. It is
// written only under the table's mutex and only while it is the mutable
// generation.
type generation struct {
	slot map[uint64]int
	ents []delta
}

func newGeneration() *generation {
	return &generation{slot: make(map[uint64]int)}
}

// get returns id's delta, or nil. The pointer is good until the next
// add or remove.
func (g *generation) get(id uint64) *delta {
	if g == nil {
		return nil
	}
	if i, ok := g.slot[id]; ok {
		return &g.ents[i]
	}
	return nil
}

func (g *generation) add(e Entry, born int64) {
	g.slot[e.ID] = len(g.ents)
	g.ents = append(g.ents, delta{Entry: e, born: born})
}

// remove drops id's delta, moving the last one into its slot.
func (g *generation) remove(id uint64) {
	i, last := g.slot[id], len(g.ents)-1
	delete(g.slot, id)
	if i != last {
		g.ents[i] = g.ents[last]
		g.slot[g.ents[i].ID] = i
	}
	g.ents = g.ents[:last]
}

func (g *generation) len() int {
	if g == nil {
		return 0
	}
	return len(g.ents)
}

// Table is the delta tier. All methods are safe for concurrent use; the
// drain protocol (BeginDrain → apply → EndDrain) is serialized by the
// caller (the front-ends hold a merge mutex across it).
type Table struct {
	mu  sync.Mutex
	cfg Config

	mut   *generation
	flush *generation // non-nil only while a drain is applying

	absorbed   int64
	merges     int64
	merged     int64
	mergePages int64
	err        error // sticky merge failure; see Fail
}

// New returns an empty table.
func New(cfg Config) *Table {
	return &Table{cfg: cfg, mut: newGeneration()}
}

// treeState reports what the tree will hold for id once every earlier
// generation has merged, given the entry chain visible now (caller
// holds t.mu). With no entry anywhere, the caller's current-position
// table is authoritative: a live object without deltas lives in the
// tree at its current position.
func (t *Table) treeState(id uint64, cur geom.Point, haveCur bool) (inTree bool, base geom.Point) {
	if d := t.flush.get(id); d != nil {
		if d.Tombstone {
			return false, geom.Point{}
		}
		return true, d.Pos
	}
	if haveCur {
		return true, cur
	}
	return false, geom.Point{}
}

// create buffers e as id's first delta in the mutable generation, born
// now if the tree holds the object and at zero otherwise.
func (t *Table) create(e Entry) {
	var born int64
	if e.InTree {
		born = t.absorbed
	}
	t.mut.add(e, born)
}

// full reports whether the mutable generation has reached the size
// threshold and a merge could take it (caller holds t.mu).
func (t *Table) full() bool {
	return t.cfg.MaxObjects > 0 && len(t.mut.ents) >= t.cfg.MaxObjects && t.err == nil
}

// Insert absorbs the insertion of a fresh object at p. The caller has
// already established that no live object with this id exists. Like
// Update and Delete it reports whether the mutable generation now stands
// at the size threshold, so the caller's ack path need not ask
// NeedsMerge.
//
//burlint:hotpath
func (t *Table) Insert(id uint64, p geom.Point) (full bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.absorbed++
	if d := t.mut.get(id); d != nil {
		// A pending tombstone: the tree still holds the object, so the
		// re-insert becomes a move of the tree-resident copy.
		d.Entry = Entry{ID: id, Pos: p, InTree: d.InTree, Base: d.Base}
		return t.full()
	}
	inTree, base := t.treeState(id, geom.Point{}, false)
	t.create(Entry{ID: id, Pos: p, InTree: inTree, Base: base})
	return t.full()
}

// Update absorbs a move of a live object to p; cur is the object's
// current position from the caller's object table (the tree's position
// when no delta is buffered).
//
//burlint:hotpath
func (t *Table) Update(id uint64, p, cur geom.Point) (full bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.absorbed++
	d := t.mut.get(id)
	if d != nil && !d.Tombstone {
		d.Pos = p
		return t.full()
	}
	inTree, base := t.treeState(id, cur, true)
	e := Entry{ID: id, Pos: p, InTree: inTree, Base: base}
	if d != nil {
		d.Entry = e
	} else {
		t.create(e)
	}
	return t.full()
}

// Delete absorbs the removal of a live object; cur is its current
// position, as for Update. Deltas for objects the tree never saw
// cancel outright; tree-resident objects leave a tombstone for the
// merge to delete.
//
//burlint:hotpath
func (t *Table) Delete(id uint64, cur geom.Point) (full bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.absorbed++
	if d := t.mut.get(id); d != nil {
		if !d.InTree {
			t.mut.remove(id)
		} else {
			d.Entry = Entry{ID: id, InTree: true, Base: d.Base, Tombstone: true}
		}
		return t.full()
	}
	// Without a tree copy to condemn there is nothing to buffer: only
	// possible while the draining generation holds a tombstone for id and
	// the object was re-inserted and re-deleted since.
	if inTree, base := t.treeState(id, cur, true); inTree {
		t.create(Entry{ID: id, InTree: true, Base: base, Tombstone: true})
	}
	return t.full()
}

// Get returns the buffered delta for id, newest generation first.
func (t *Table) Get(id uint64) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.mut.get(id)
	if d == nil {
		d = t.flush.get(id)
	}
	if d == nil {
		return Entry{}, false
	}
	return d.Entry, true
}

// NeedsMerge reports whether the mutable generation has tripped the size
// threshold and a merge could take it: never after a failed merge (see
// Fail).
func (t *Table) NeedsMerge() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.full()
}

// BeginDrain promotes the mutable generation to draining and returns
// its entries sorted by id, or nil when there is nothing to drain, a
// drain is already in flight, or a previous drain failed. The entries
// stay visible to readers (through their views and Get) until EndDrain,
// and the promoted generation is never written again: views that
// captured it read it without the mutex.
func (t *Table) BeginDrain() []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.flush != nil || len(t.mut.ents) == 0 || t.err != nil {
		return nil
	}
	t.flush = t.mut
	t.mut = newGeneration()
	out := make([]Entry, len(t.flush.ents))
	for i := range t.flush.ents {
		out[i] = t.flush.ents[i].Entry
	}
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// AddMergePages attributes pages physical page accesses to merge-down
// work; called by the front-end that measured the drain it ran.
func (t *Table) AddMergePages(pages uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mergePages += int64(pages)
}

// EndDrain discards the draining generation after every entry has been
// applied to the tree.
func (t *Table) EndDrain() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.merges++
	t.merged += int64(t.flush.len())
	t.flush = nil
}

// Fail records a merge failure. The draining generation is retained —
// its entries were only partially applied, and re-deriving their tree
// base state is not possible — so reads stay correct through the
// overlay while all further merging stops; the error surfaces through
// Err on every invariant check and checkpoint. A merge failure
// indicates a bug (an acknowledged operation must apply cleanly), not
// a user error.
func (t *Table) Fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = err
	}
}

// Err returns the sticky merge failure, if any.
func (t *Table) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Snapshot copies the whole overlay out: every buffered delta, mutable
// generation winning over draining. It costs the tier's depth, so no
// read takes it — reads fix their overlay as a View; it serves the
// invariant checker, which compares the tier entry by entry at a
// quiescent point.
func (t *Table) Snapshot() map[uint64]Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mut.len()+t.flush.len() == 0 {
		return nil
	}
	out := make(map[uint64]Entry, t.mut.len()+t.flush.len())
	for _, g := range [...]*generation{t.flush, t.mut} {
		if g != nil {
			for i := range g.ents {
				out[g.ents[i].ID] = g.ents[i].Entry
			}
		}
	}
	return out
}

// Stats returns a snapshot of the counters.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Entries:    t.mut.len() + t.flush.len(),
		Absorbed:   t.absorbed,
		Merges:     t.merges,
		Merged:     t.merged,
		MergePages: t.mergePages,
	}
}

// Hit is one live buffered object a view reports: at Pos, Dist from the
// query point (zero for a window query).
type Hit struct {
	ID   uint64
	Pos  geom.Point
	Dist float64
}

// View is a read's fixed picture of the tier: which tree candidates the
// deltas buffered when it was taken supersede. See the package comment
// for what it captures and why that suffices. The zero View masks
// nothing.
type View struct {
	t          *Table
	mut, flush *generation
	seq        int64
}

// view captures the generations (caller holds t.mu).
func (t *Table) view() View {
	v := View{t: t, flush: t.flush, seq: t.absorbed}
	if len(t.mut.ents) > 0 {
		v.mut = t.mut
	}
	return v
}

// Empty reports whether the view captured no delta at all, in which
// case the tree alone answers the read.
func (v View) Empty() bool { return v.mut == nil && v.flush == nil }

// Masks reports whether a delta the view captured supersedes the tree's
// entry for id.
func (v View) Masks(id uint64) bool {
	if v.flush != nil {
		if _, ok := v.flush.slot[id]; ok {
			return true
		}
	}
	if v.mut == nil {
		return false
	}
	v.t.mu.Lock()
	d := v.mut.get(id)
	masked := d != nil && d.born <= v.seq
	v.t.mu.Unlock()
	return masked
}

// shadowed reports whether the mutable generation overrides the draining
// generation's delta for id (caller holds t.mu).
func (t *Table) shadowed(id uint64) bool {
	_, ok := t.mut.slot[id]
	return ok
}

// ViewWindow takes a view and appends to buf the live buffered objects
// inside q, mutable generation winning over draining, in no particular
// order.
func (t *Table) ViewWindow(q geom.Rect, buf []Hit) (View, []Hit) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.view()
	for _, g := range [...]*generation{t.flush, t.mut} {
		if g == nil {
			continue
		}
		for i := range g.ents {
			d := &g.ents[i]
			if d.Tombstone || !q.ContainsPoint(d.Pos) || g == t.flush && t.shadowed(d.ID) {
				continue
			}
			buf = append(buf, Hit{ID: d.ID, Pos: d.Pos})
		}
	}
	return v, buf
}

// ViewNearest takes a view and appends to buf the k live buffered
// objects nearest p (fewer if the tier holds fewer, none for k <= 0),
// mutable generation winning over draining, ascending by (distance, id).
// Distances are the tree's degenerate-rectangle metric, so they compare
// exactly with the tree's own.
func (t *Table) ViewNearest(p geom.Point, k int, buf []Hit) (View, []Hit) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.view()
	if k <= 0 {
		return v, buf
	}
	base := len(buf)
	for _, g := range [...]*generation{t.flush, t.mut} {
		if g == nil {
			continue
		}
		for i := range g.ents {
			d := &g.ents[i]
			if d.Tombstone {
				continue
			}
			best := buf[base:]
			if len(best) == k {
				// The k-th distance bounds the rest: an entry farther than
				// that along either axis alone cannot enter, whatever the
				// other says, and is turned away before math.Hypot, which
				// is most of what a pass over the tier costs.
				kth := best[k-1].Dist
				if math.Abs(d.Pos.X-p.X) > kth || math.Abs(d.Pos.Y-p.Y) > kth {
					continue
				}
			}
			h := Hit{ID: d.ID, Pos: d.Pos, Dist: geom.RectFromPoint(d.Pos).MinDistPoint(p)}
			at, _ := slices.BinarySearchFunc(best, h, compareHits)
			if at == k || g == t.flush && t.shadowed(d.ID) {
				continue
			}
			if len(best) < k {
				buf = append(buf, Hit{})
			}
			best = buf[base:]
			copy(best[at+1:], best[at:])
			best[at] = h
		}
	}
	return v, buf
}

func compareHits(a, b Hit) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}
