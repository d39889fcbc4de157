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
// A reader fixes its overlay as a View, which costs what the read's
// range touches and not what the tier holds. Under one hold of the
// table's mutex, before the tree scan starts, ViewWindow/ViewNearest
//
//   - capture the two generations by pointer and the absorb counter,
//     and
//   - copy out the live entries the read will report — those inside
//     the window, or the k nearest the point — from the generations'
//     grids (below).
//
// During the scan View.Masks decides per tree candidate whether a
// captured delta supersedes it. A candidate is masked iff its id is
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
// # Cells and the presence filter
//
// Each generation files its live deltas in a fixed gridSide × gridSide
// grid over the unit square, by geom.ClampCell — the mapping the
// concurrent package's lock grid uses — so a coordinate outside the
// square lands in a border cell: still correct, and at worst a full
// scan. The cell lists are intrusive, threaded through the dense entry
// slice, so a generation is one allocation beside its map however many
// cells it fills; a move across a cell boundary relinks its delta in
// O(1); a tombstone, which no view reports, is filed nowhere. ViewWindow
// walks the cells the window overlaps. ViewNearest walks rings of cells
// outward from the query point's cell and stops once the k-th distance
// in hand is below the gap to every ring not yet walked. The grid side
// is a power of two, so a cell's bounds are exact in float64 and the gap
// never exceeds the distance the tree's metric computes for a point
// filed beyond it. Snapshot and BeginDrain keep one pass over the dense
// slice: they copy every entry, which is O(depth) by nature.
//
// Each generation also keeps a presence filter: filterBits bits, held in
// atomic words, with the bit of every id ever added to it set — under the
// mutex, before the absorb returns — and never cleared. Masks loads the
// id's bit first and takes the mutex only when it is set, which for
// the great majority of tree candidates it is not. That answer is
// exact:
//
//   - A view is captured under the mutex, after every absorb that came
//     before it released the mutex, so every delta that exists when the
//     view is taken has its bit visible to the view's loads.
//   - A clear bit therefore hides only a delta added after the view. Such
//     a delta either was born after the view, which the rule above
//     leaves unmasked anyway, or was born at zero, for an object the
//     tree does not hold. The tree can only still be showing such an
//     object under a draining tombstone, and while the view's mutable
//     generation still takes adds, the only draining generation there
//     can be is the view's own: its exact check masks the object.
//   - Merges cannot race the scan in the read's range: a read holds the
//     DGL cell locks of its window (Search) or the tree granule shared
//     (Nearest), and the serial Index merges inline, between reads.
//
// Put otherwise, Masks answers as the locked lookup would have at the
// instant of its bit load. One bit per id in filterBits = 65 536 bits
// passes an absent id with probability ≈ n / filterBits for n ids
// added to the generation: ≈ 1.6 % at the default depth per shard
// (4 096 / 4 = 1 024) and ≈ 6.1 % at 4 096, and the false positive
// costs one locked lookup, never a wrong answer.
//
// The mutex is a leaf: no method calls out while holding it. Masks takes
// it, for a candidate whose bit is set, under the tree's shared locks
// and latch, where the scan runs.
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
	"sync/atomic"

	"burtree/internal/geom"
)

const (
	// gridSide is the number of cells per axis of a generation's grid. A
	// power of two: see the package comment.
	gridSide  = 16
	gridCells = gridSide * gridSide
	// filterBits is the width of a generation's presence filter.
	filterBits  = 1 << 16
	filterWords = filterBits / 64
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
	// prev and next thread the delta through its cell's list: 1 + the
	// slot of the neighbour, or 0 at either end.
	prev, next int32
}

// generation is one table of deltas: a dense slice, the id → slot index
// every lookup goes through, the cell lists the views walk and the
// presence filter Masks reads first. It is written only under the
// table's mutex and only while it is the mutable generation.
type generation struct {
	slot map[uint64]int
	ents []delta
	// head[c] is 1 + the slot of the first delta filed in cell c, or 0.
	head [gridCells]int32
	// filter has the bit of every id ever added set (see filterBit).
	// Stores happen under the table's mutex; loads need none.
	filter [filterWords]atomic.Uint64
}

func newGeneration() *generation {
	return &generation{slot: make(map[uint64]int)}
}

// cellOf returns the cell e is filed in, or -1 for a tombstone, which no
// view reports.
func cellOf(e *Entry) int {
	if e.Tombstone {
		return -1
	}
	return geom.ClampCell(e.Pos.Y, gridSide)*gridSide + geom.ClampCell(e.Pos.X, gridSide)
}

// filterBit returns the word and the mask of id's bit in a presence
// filter: the top bits of a Fibonacci hash, which spread sequential ids.
func filterBit(id uint64) (int, uint64) {
	h := id * 0x9e3779b97f4a7c15 >> (64 - 16)
	return int(h >> 6), 1 << (h & 63)
}

// mayHold reports whether id's bit is set: false means id was never
// added to g. Safe without the mutex.
func (g *generation) mayHold(id uint64) bool {
	w, m := filterBit(id)
	return g.filter[w].Load()&m != 0
}

// find returns id's slot, or -1.
func (g *generation) find(id uint64) int {
	if g == nil {
		return -1
	}
	if i, ok := g.slot[id]; ok {
		return i
	}
	return -1
}

// get returns id's delta, or nil. The pointer is good until the next
// add or remove.
func (g *generation) get(id uint64) *delta {
	if i := g.find(id); i >= 0 {
		return &g.ents[i]
	}
	return nil
}

// link files slot i at the head of cell c's list; unlink takes it out.
// Both ignore c < 0, the cell of a tombstone.
func (g *generation) link(i, c int) {
	if c < 0 {
		return
	}
	d := &g.ents[i]
	d.prev, d.next = 0, g.head[c]
	if d.next != 0 {
		g.ents[d.next-1].prev = int32(i + 1)
	}
	g.head[c] = int32(i + 1)
}

func (g *generation) unlink(i, c int) {
	if c < 0 {
		return
	}
	d := &g.ents[i]
	if d.prev != 0 {
		g.ents[d.prev-1].next = d.next
	} else {
		g.head[c] = d.next
	}
	if d.next != 0 {
		g.ents[d.next-1].prev = d.prev
	}
}

func (g *generation) add(e Entry, born int64) {
	i := len(g.ents)
	g.slot[e.ID] = i
	g.ents = append(g.ents, delta{Entry: e, born: born})
	g.link(i, cellOf(&e))
	w, m := filterBit(e.ID)
	if v := g.filter[w].Load(); v&m == 0 {
		g.filter[w].Store(v | m)
	}
}

// set rewrites slot i's entry, refiling it if it changes cells.
func (g *generation) set(i int, e Entry) {
	from, to := cellOf(&g.ents[i].Entry), cellOf(&e)
	if from != to {
		g.unlink(i, from)
		g.link(i, to)
	}
	g.ents[i].Entry = e
}

// remove drops id's delta, moving the last one into its slot. Its bit
// stays set.
func (g *generation) remove(id uint64) {
	i, last := g.slot[id], len(g.ents)-1
	g.unlink(i, cellOf(&g.ents[i].Entry))
	delete(g.slot, id)
	if i != last {
		c := cellOf(&g.ents[last].Entry)
		g.unlink(last, c)
		g.ents[i] = g.ents[last]
		g.slot[g.ents[i].ID] = i
		g.link(i, c)
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
func (t *Table) Insert(id uint64, p geom.Point) (full bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.absorbed++
	if i := t.mut.find(id); i >= 0 {
		// A pending tombstone: the tree still holds the object, so the
		// re-insert becomes a move of the tree-resident copy.
		d := &t.mut.ents[i]
		t.mut.set(i, Entry{ID: id, Pos: p, InTree: d.InTree, Base: d.Base})
		return t.full()
	}
	inTree, base := t.treeState(id, geom.Point{}, false)
	t.create(Entry{ID: id, Pos: p, InTree: inTree, Base: base})
	return t.full()
}

// Update absorbs a move of a live object to p; cur is the object's
// current position from the caller's object table (the tree's position
// when no delta is buffered).
func (t *Table) Update(id uint64, p, cur geom.Point) (full bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.absorbed++
	i := t.mut.find(id)
	if i >= 0 && !t.mut.ents[i].Tombstone {
		e := t.mut.ents[i].Entry
		e.Pos = p
		t.mut.set(i, e)
		return t.full()
	}
	inTree, base := t.treeState(id, cur, true)
	e := Entry{ID: id, Pos: p, InTree: inTree, Base: base}
	if i >= 0 {
		t.mut.set(i, e)
	} else {
		t.create(e)
	}
	return t.full()
}

// Delete absorbs the removal of a live object; cur is its current
// position, as for Update. Deltas for objects the tree never saw
// cancel outright; tree-resident objects leave a tombstone for the
// merge to delete.
func (t *Table) Delete(id uint64, cur geom.Point) (full bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.absorbed++
	if i := t.mut.find(id); i >= 0 {
		if d := &t.mut.ents[i]; !d.InTree {
			t.mut.remove(id)
		} else {
			t.mut.set(i, Entry{ID: id, InTree: true, Base: d.Base, Tombstone: true})
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
// entry for id. It takes the table's mutex only when the mutable
// generation's filter holds id's bit (see the package comment).
func (v View) Masks(id uint64) bool {
	if v.flush != nil && v.flush.mayHold(id) {
		if _, ok := v.flush.slot[id]; ok {
			return true
		}
	}
	if v.mut == nil || !v.mut.mayHold(id) {
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
	if !t.mut.mayHold(id) {
		return false
	}
	_, ok := t.mut.slot[id]
	return ok
}

// ViewWindow takes a view and appends to buf the live buffered objects
// inside q, mutable generation winning over draining, in no particular
// order. It walks the cells q overlaps.
func (t *Table) ViewWindow(q geom.Rect, buf []Hit) (View, []Hit) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.view()
	if !q.Valid() {
		return v, buf // inverted or NaN: no point is inside
	}
	x0, x1 := geom.ClampCell(q.MinX, gridSide), geom.ClampCell(q.MaxX, gridSide)
	y0, y1 := geom.ClampCell(q.MinY, gridSide), geom.ClampCell(q.MaxY, gridSide)
	for _, g := range [...]*generation{t.flush, t.mut} {
		if g.len() == 0 {
			continue
		}
		for y := y0; y <= y1; y++ {
			for c := y*gridSide + x0; c <= y*gridSide+x1; c++ {
				for i := g.head[c]; i != 0; i = g.ents[i-1].next {
					d := &g.ents[i-1]
					if !q.ContainsPoint(d.Pos) || g == t.flush && t.shadowed(d.ID) {
						continue
					}
					buf = append(buf, Hit{ID: d.ID, Pos: d.Pos})
				}
			}
		}
	}
	return v, buf
}

// ViewNearest takes a view and appends to buf the k live buffered
// objects nearest p (fewer if the tier holds fewer, none for k <= 0),
// mutable generation winning over draining, ascending by (distance, id).
// Distances are the tree's degenerate-rectangle metric, so they compare
// exactly with the tree's own. It walks rings of cells outward from p's
// cell until the k-th distance in hand is below the gap to the next ring.
func (t *Table) ViewNearest(p geom.Point, k int, buf []Hit) (View, []Hit) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.view()
	if k <= 0 || t.mut.len()+t.flush.len() == 0 {
		return v, buf
	}
	n := nearest{t: t, p: p, k: k, base: len(buf), buf: buf}
	cx, cy := geom.ClampCell(p.X, gridSide), geom.ClampCell(p.Y, gridSide)
	for r := 0; ; r++ {
		if r > 0 {
			gap, more := ringGap(p, cx, cy, r)
			// A NaN gap (p has a NaN coordinate) stops nothing.
			if !more || len(n.buf)-n.base == k && gap > n.buf[len(n.buf)-1].Dist {
				break
			}
		}
		for y := max(cy-r, 0); y <= min(cy+r, gridSide-1); y++ {
			if y == cy-r || y == cy+r {
				for x := max(cx-r, 0); x <= min(cx+r, gridSide-1); x++ {
					n.cell(y*gridSide + x)
				}
				continue
			}
			if x := cx - r; x >= 0 {
				n.cell(y*gridSide + x)
			}
			if x := cx + r; x < gridSide {
				n.cell(y*gridSide + x)
			}
		}
	}
	return v, n.buf
}

// ringGap returns a lower bound on the distance from p, in cell (cx, cy),
// to any point filed in a cell r or more rings out, and whether the grid
// has such a cell. A point filed in column cx+r or beyond lies at or right
// of that column's left edge, exactly (the grid side is a power of two),
// so its distance is at least the gap to that edge; and so on for the
// other three sides.
func ringGap(p geom.Point, cx, cy, r int) (gap float64, more bool) {
	const side = 1.0 / gridSide
	gap = math.Inf(1)
	if cx+r < gridSide {
		gap, more = min(gap, float64(cx+r)*side-p.X), true
	}
	if cx-r >= 0 {
		gap, more = min(gap, p.X-float64(cx-r+1)*side), true
	}
	if cy+r < gridSide {
		gap, more = min(gap, float64(cy+r)*side-p.Y), true
	}
	if cy-r >= 0 {
		gap, more = min(gap, p.Y-float64(cy-r+1)*side), true
	}
	return gap, more
}

// nearest is one ViewNearest's bounded k-selection: buf[base:] holds the
// best so far, ascending by (distance, id).
type nearest struct {
	t    *Table
	p    geom.Point
	k    int
	base int
	buf  []Hit
}

// cell offers the live deltas filed in cell c of both generations.
func (n *nearest) cell(c int) {
	for _, g := range [...]*generation{n.t.flush, n.t.mut} {
		if g.len() == 0 {
			continue
		}
		for i := g.head[c]; i != 0; i = g.ents[i-1].next {
			d := &g.ents[i-1]
			best := n.buf[n.base:]
			if len(best) == n.k {
				// The k-th distance bounds the rest: an entry farther than
				// that along either axis alone cannot enter, whatever the
				// other says, and is turned away before math.Hypot.
				kth := best[n.k-1].Dist
				if math.Abs(d.Pos.X-n.p.X) > kth || math.Abs(d.Pos.Y-n.p.Y) > kth {
					continue
				}
			}
			h := Hit{ID: d.ID, Pos: d.Pos, Dist: geom.RectFromPoint(d.Pos).MinDistPoint(n.p)}
			at, _ := slices.BinarySearchFunc(best, h, compareHits)
			if at == n.k || g == n.t.flush && n.t.shadowed(d.ID) {
				continue
			}
			if len(best) < n.k {
				n.buf = append(n.buf, Hit{})
			}
			best = n.buf[n.base:]
			copy(best[at+1:], best[at:])
			best[at] = h
		}
	}
}

func compareHits(a, b Hit) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}
