package core

// Batched bottom-up updates. A batch coalesces repeated moves of the
// same object to the final position, groups the surviving changes by
// target leaf through the strategy's locator, and applies
// each leaf's group in one bottom-up pass: one leaf read, one MBR
// extension decision covering the whole group, one leaf write and one
// parent sync. Changes the group pass cannot resolve fall back to the
// configured strategy's per-object path — with the leaf already in the
// buffer, so the fallback never re-pays the direct-access I/O the
// sequential path charges every update.
//
// The pipeline generalizes the paper's bottom-up premise the way the
// LSM- and batch-dynamic lines of follow-up work do: when updates are
// frequent enough to arrive in groups, the summary-structure and leaf
// accesses can be amortized across the group instead of being repaid
// per update.

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"burtree/internal/geom"
	"burtree/internal/rtree"
)

// BatchChange is one object move inside a batch: the object's position
// before the batch and its final position. Batches are expressed after
// coalescing, so each OID appears at most once.
type BatchChange struct {
	OID rtree.OID
	Old geom.Point
	New geom.Point
}

// BatchStats reports how ApplyBatch resolved a batch.
type BatchStats struct {
	// Changes is the number of coalesced changes applied.
	Changes int
	// Groups is the number of leaf groups formed.
	Groups int
	// GroupResolved counts changes resolved by the shared per-leaf pass
	// (in-leaf rewrite or the group extension decision).
	GroupResolved int
	// LocalFallback counts changes handed to the strategy's per-object
	// path after the group pass declined them (shift, ascent, top-down).
	LocalFallback int
	// Sequential counts changes applied through the plain Update path:
	// the strategy has no batch support (TD) or the object had no
	// secondary-index entry.
	Sequential int
}

// Add accumulates o into s; the experiment harness sums the stats of
// every batch window of a run this way.
func (s *BatchStats) Add(o BatchStats) {
	s.Changes += o.Changes
	s.Groups += o.Groups
	s.GroupResolved += o.GroupResolved
	s.LocalFallback += o.LocalFallback
	s.Sequential += o.Sequential
}

// Coalesce collapses repeated moves of the same object into a single
// change to the last position, preserving first-occurrence order. The
// surviving change keeps the Old of the first occurrence, so it still
// describes the net move across the whole batch. It returns the number
// of superseded input changes alongside the compacted slice (a new
// slice; the input is not modified).
func Coalesce(changes []BatchChange) ([]BatchChange, int) {
	c := Coalescer{out: make([]BatchChange, 0, len(changes))}
	return c.Coalesce(changes)
}

// Coalescer is Coalesce with its buffers kept between calls: a writer
// that coalesces batch after batch through one allocates nothing once its
// buffers have grown to a batch. The zero value is ready for use; a
// Coalescer is not safe for concurrent use.
type Coalescer struct {
	out []BatchChange
	at  map[rtree.OID]int
}

// maxKept bounds the batch whose buffers a Coalescer keeps: emptying a map
// costs what it once held, so the one a huge batch grew is dropped.
const maxKept = 1 << 12

// Coalesce is the package-level Coalesce into c's buffers: the slice it
// returns is c's, valid until c's next call.
func (c *Coalescer) Coalesce(changes []BatchChange) ([]BatchChange, int) {
	if c.at == nil || len(c.at) > maxKept {
		c.at = make(map[rtree.OID]int, len(changes))
	} else {
		clear(c.at)
	}
	out := c.out[:0]
	dropped := 0
	for _, ch := range changes {
		if j, ok := c.at[ch.OID]; ok {
			out[j].New = ch.New
			dropped++
			continue
		}
		c.at[ch.OID] = len(out)
		out = append(out, ch)
	}
	c.out = out
	return out, dropped
}

// GroupApplier is the optional batch surface of the bottom-up
// strategies. LBU and GBU implement it; TD does not (a top-down update
// shares no state between objects, so there is nothing to amortize).
type GroupApplier interface {
	// LeafOf resolves the leaf currently holding the object through the
	// strategy's locator.
	LeafOf(oid rtree.OID) (rtree.PageID, error)
	// LeafScope returns the pages a group pass or a local update on leaf
	// can touch: the leaf and its parent (sibling shifts stay below the
	// same parent). The DGL layer locks these page granules before
	// applying a group; the scope is derived from the leaf itself, so it
	// is the group's own whatever has happened to any one member since the
	// batch was planned.
	LeafScope(leaf rtree.PageID) (Scope, error)
	// ApplyLeafGroup applies one leaf's group in a single bottom-up
	// pass — one leaf read, one extension decision for the whole group,
	// one leaf write, one parent sync — and appends the changes it could
	// not resolve group-wise to unresolved, the caller's scratch, which it
	// returns. Unresolved changes are not modified.
	ApplyLeafGroup(leaf rtree.PageID, group, unresolved []BatchChange) ([]BatchChange, error)
	// UpdateAtLeaf applies one change whose object lives in leaf using
	// the strategy's per-object path, skipping the secondary-index
	// lookup (the caller already resolved the leaf). With localOnly set
	// it attempts only outcomes confined to the leaf's scope (in-leaf,
	// extension, sibling shift), reporting false with no tree
	// modification when the update needs an ascent or a top-down pass —
	// or when the object is no longer in leaf, the page was freed, or it
	// was recycled as another node.
	UpdateAtLeaf(leaf rtree.PageID, c BatchChange, localOnly bool) (bool, error)
}

// Scope is the pages one leaf's group pass can touch: a value, so that
// reading a scope allocates nothing.
type Scope struct {
	Leaf rtree.PageID
	// Parent is pagestore.InvalidPage for a leaf that is the root.
	Parent rtree.PageID
}

// groupScratch is how many members of a leaf group a group pass can set
// aside for its extension decision without leaving the stack; a longer
// list spills to the heap. A coalesced group moves each object once, so
// it holds at most one leaf's objects: DefaultLeafFanout at the default
// page size.
const groupScratch = rtree.DefaultLeafFanout

// bucketed is a Locator whose ids live in pages, such as the paper's
// paged hash index: Bucket names the page chain oid's lookup reads.
type bucketed interface {
	Bucket(oid uint64) int
}

// OrderForGrouping returns the changes in the order the lookup phase
// should resolve them: clustered by bucket when the strategy's locator
// is bucketed, so lookups landing on the same page run back to back and
// all but the first hit the buffer. The input is not modified; without a
// bucketed locator (TD, or the in-memory map, whose lookups touch no
// page) it is returned as is.
func OrderForGrouping(u Updater, changes []BatchChange) []BatchChange {
	l, ok := u.(located)
	if !ok || len(changes) < 2 {
		return changes
	}
	h, ok := l.locator().(bucketed)
	if !ok {
		return changes
	}
	out := slices.Clone(changes)
	slices.SortStableFunc(out, func(a, b BatchChange) int {
		return cmp.Compare(h.Bucket(a.OID), h.Bucket(b.OID))
	})
	return out
}

// LeafRun is one leaf's share of a planned batch: a contiguous run of
// Plan's flat change slice, in lookup order.
type LeafRun struct {
	Leaf    rtree.PageID
	Changes []BatchChange
	// first is the position of the run's first change in lookup order.
	first int
}

// Plan is a batch resolved against the secondary index: the one order →
// resolve → group step shared by ApplyBatch and the DGL layer. A Plan
// keeps its buffers from one PlanBatch to the next; BorrowPlan and
// ReturnPlan recycle plans, so a writer plans and applies batch after
// batch with no allocation once the buffers have grown to a batch.
type Plan struct {
	// Runs lists the leaf groups by ascending leaf page.
	Runs []LeafRun
	// Loose holds the changes without a secondary-index entry; the plain
	// Update path surfaces the error the sequential API would.
	Loose []BatchChange
	// Residue is room for the changes the caller's group passes leave
	// over. PlanBatch empties it.
	Residue []BatchChange

	ps   []planned
	flat []BatchChange // the runs' changes, run after run
}

// planned is one change with the leaf it resolved to and its position
// in lookup order.
type planned struct {
	BatchChange
	leaf rtree.PageID
	seq  int
}

// byLeafThenSeq orders planned changes by leaf page, then lookup order.
func byLeafThenSeq(a, b planned) int {
	if c := cmp.Compare(a.leaf, b.leaf); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

var plans = sync.Pool{New: func() any { return new(Plan) }}

// BorrowPlan takes a plan, with whatever room it kept, from a free list.
func BorrowPlan() *Plan { return plans.Get().(*Plan) }

// ReturnPlan hands p back for a later BorrowPlan; the caller must not
// touch p, or any slice of it, afterwards.
func ReturnPlan(p *Plan) { plans.Put(p) }

// PlanBatch resolves each change's leaf with one LeafOf probe, in
// OrderForGrouping's bucket-clustered order, and sorts the changes into
// per-leaf runs of one flat slice, overwriting p. The input is not
// modified.
func PlanBatch(p *Plan, u Updater, ga GroupApplier, changes []BatchChange) {
	p.Loose, p.Residue = p.Loose[:0], p.Residue[:0]
	ps := p.ps[:0]
	for i, c := range OrderForGrouping(u, changes) {
		leaf, err := ga.LeafOf(c.OID)
		if err != nil {
			p.Loose = append(p.Loose, c)
			continue
		}
		ps = append(ps, planned{c, leaf, i})
	}
	slices.SortFunc(ps, byLeafThenSeq)
	flat := slices.Grow(p.flat[:0], len(ps))[:len(ps)]
	runs := p.Runs[:0]
	for i, start := 0, 0; i < len(ps); i++ {
		flat[i] = ps[i].BatchChange
		if i+1 == len(ps) || ps[i+1].leaf != ps[i].leaf {
			runs = append(runs, LeafRun{Leaf: ps[i].leaf, Changes: flat[start : i+1 : i+1], first: ps[start].seq})
			start = i + 1
		}
	}
	p.ps, p.flat, p.Runs = ps, flat, runs
}

// HasOID reports whether changes holds an entry for oid. A linear
// scan: group slices are leaf-fanout-sized, and the scan keeps the
// per-group membership check allocation-free on the hot batch path
// (indexing into a map here cost one map allocation per leaf group).
func HasOID(changes []BatchChange, oid rtree.OID) bool {
	for _, c := range changes {
		if c.OID == oid {
			return true
		}
	}
	return false
}

// ApplyBatch applies an already-coalesced batch of changes through u
// for a single writer. When the strategy supports group application the
// batch is planned once (PlanBatch) and each leaf run is applied in one
// bottom-up pass, falling back to the per-object path — with the leaf
// still buffered — only for the changes the group pass declines;
// otherwise every change runs through the plain Update path.
//
// Runs are applied latest-resolved first: the lookup phase read the hash
// and leaf pages of late runs most recently, so applying those first
// turns the trailing secondary-index writes of shifts and ascents into
// buffer hits instead of re-reads — measurably cheaper than either
// lookup or leaf-page order under the paper's 1%-of-database buffer.
//
// done, when non-nil, is invoked after each change is applied, in
// application order (not the caller's); on error the batch stops, so
// done has been called for exactly the applied changes (a batch is not
// atomic).
func ApplyBatch(u Updater, changes []BatchChange, done func(BatchChange)) (BatchStats, error) {
	var st BatchStats
	applySequential := func(cs []BatchChange) error {
		for _, c := range cs {
			if err := u.Update(c.OID, c.Old, c.New); err != nil {
				return err
			}
			st.Changes++
			st.Sequential++
			if done != nil {
				done(c)
			}
		}
		return nil
	}

	ga, ok := u.(GroupApplier)
	if !ok {
		return st, applySequential(changes)
	}

	plan := BorrowPlan()
	defer ReturnPlan(plan)
	PlanBatch(plan, u, ga, changes)
	slices.SortFunc(plan.Runs, latestResolvedFirst)
	for _, g := range plan.Runs {
		st.Groups++
		// The plan's residue is one scratch for all the runs.
		unresolved, err := ga.ApplyLeafGroup(g.Leaf, g.Changes, plan.Residue[:0])
		plan.Residue = unresolved
		if err != nil {
			return st, err
		}
		for _, c := range g.Changes {
			if HasOID(unresolved, c.OID) {
				continue
			}
			st.Changes++
			st.GroupResolved++
			if done != nil {
				done(c)
			}
		}
		for _, c := range unresolved {
			applied, err := ga.UpdateAtLeaf(g.Leaf, c, false)
			if err != nil {
				return st, err
			}
			if !applied {
				return st, fmt.Errorf("core: batch update %d: per-object pass declined a full update", c.OID)
			}
			st.Changes++
			st.LocalFallback++
			if done != nil {
				done(c)
			}
		}
	}
	return st, applySequential(plan.Loose)
}

// latestResolvedFirst orders leaf runs by their first change's lookup
// position, latest first.
func latestResolvedFirst(a, b LeafRun) int { return cmp.Compare(b.first, a.first) }
