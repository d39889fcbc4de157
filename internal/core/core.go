// Package core implements the paper's primary contribution: the R-tree
// update strategies evaluated in its performance study.
//
//   - TD — the traditional top-down update (baseline): a top-down delete
//     traversal followed by a separate top-down insert.
//   - NAIVE — §3.1's first bottom-up idea: direct leaf access through a
//     secondary object-id hash index, an in-place update when the leaf
//     MBR covers the new location, and top-down otherwise.
//   - LBU — the Localized Bottom-Up update (Algorithm 1): direct leaf
//     access through a secondary object-id hash index, Kwon-style uniform
//     ε-enlargement of the leaf MBR bounded by the parent (which requires
//     leaf parent pointers), sibling shifts, and a top-down fallback.
//   - GBU — the Generalized Bottom-Up update (Algorithm 2): keeps the
//     R-tree intact and adds the main-memory summary structure;
//     directional, capped MBR extension (Algorithm 4), bit-vector
//     screened sibling shifts with piggybacking, and ascent to the
//     lowest bounding ancestor via FindParent (Algorithm 3) under the
//     distance threshold δ and level threshold λ tuning parameters.
//
// NAIVE, LBU and GBU share one per-object path (bottomUp.updateAt): reach
// the leaf, run the scheme's local phase, otherwise end top-down or with
// the scheme's own ascent. Update enters it through the locator — an
// in-memory map, or the Locator the caller passes in Options (the
// experiment harness passes the paper's paged hash index) — the batch
// pipeline's UpdateAtLeaf at a leaf it already knows. All strategies
// expose the same Updater interface so the experiment harness can swap
// them freely, exactly as the paper's figures do.
package core

import (
	"fmt"
	"sync"

	"burtree/internal/buffer"
	"burtree/internal/geom"
	"burtree/internal/rtree"
	"burtree/internal/summary"
)

// Kind selects an update strategy.
type Kind int

const (
	// TD is the traditional top-down update.
	TD Kind = iota
	// LBU is the localized bottom-up update (Algorithm 1).
	LBU
	// GBU is the generalized bottom-up update (Algorithm 2).
	GBU
	// Naive is the §3.1 direct-leaf-access scheme with no extension or
	// shift: update in place when possible, otherwise top-down.
	Naive
)

func (k Kind) String() string {
	switch k {
	case TD:
		return "TD"
	case LBU:
		return "LBU"
	case GBU:
		return "GBU"
	case Naive:
		return "NAIVE"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a strategy name ("TD", "LBU", "GBU" or "NAIVE", or
// the same in lower case) to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "TD", "td":
		return TD, nil
	case "LBU", "lbu":
		return LBU, nil
	case "GBU", "gbu":
		return GBU, nil
	case "NAIVE", "naive":
		return Naive, nil
	default:
		return 0, fmt.Errorf("core: unknown strategy %q", s)
	}
}

// UnrestrictedLevels selects λ = height-1 (the paper's default: ascend as
// far as necessary).
const UnrestrictedLevels = -1

// Options configures a strategy instance. The zero value gives the
// paper's defaults (bold entries of Table 1) for everything except the
// strategy itself, which defaults to TD, and the locator, which defaults
// to the in-memory map, not the paper's paged hash.
type Options struct {
	// Strategy picks TD, NAIVE, LBU or GBU.
	Strategy Kind
	// Epsilon is the ε MBR-enlargement cap. Default 0.003.
	Epsilon float64
	// DistanceThreshold is δ: objects that moved farther than δ since
	// their last position try a sibling shift before an MBR extension.
	// Default 0.03.
	DistanceThreshold float64
	// LevelThreshold is λ, the number of levels GBU may ascend above the
	// leaves. UnrestrictedLevels (or any negative value) means height-1.
	// Note λ = 0 disables ascent, reducing GBU to an optimized localized
	// scheme. Default: unrestricted.
	LevelThreshold int
	// NoPiggyback disables moving additional co-located objects during a
	// sibling shift (GBU optimization 4). Ablation knob.
	NoPiggyback bool
	// NoSummaryQueries disables the summary-assisted window query and
	// uses the plain top-down search. Ablation knob.
	NoSummaryQueries bool
	// Locator reaches each object's leaf for the bottom-up strategies and
	// belongs to the one strategy built with it; TD ignores it. Nil
	// selects an in-memory id → leaf map. The experiments pass the
	// paper's paged hash index (Figure 2), whose page accesses §5 charges.
	Locator Locator
	// ExpectedObjects is the in-memory map's initial capacity (default
	// 1024), a hint only.
	ExpectedObjects int
	// Tree carries the structural R-tree parameters. LBU forces
	// ParentPointers on.
	Tree rtree.Config
}

func (o Options) withDefaults() Options {
	switch {
	case o.Epsilon == 0:
		o.Epsilon = 0.003
	case o.Epsilon < 0: // explicit ε = 0 (see ZeroValue)
		o.Epsilon = 0
	}
	switch {
	case o.DistanceThreshold == 0:
		o.DistanceThreshold = 0.03
	case o.DistanceThreshold < 0: // explicit δ = 0
		o.DistanceThreshold = 0
	}
	if o.LevelThreshold == 0 {
		// Zero is a meaningful λ, but as a zero-value default it would be
		// surprising; explicit GBU-0 runs set it via LevelThresholdZero.
		o.LevelThreshold = UnrestrictedLevels
	}
	if o.ExpectedObjects == 0 {
		o.ExpectedObjects = 1024
	}
	return o
}

// LevelThresholdZero is the explicit spelling of λ = 0 (GBU-0): ascent
// disabled, failed local repairs re-insert from the root. Assign it to
// Options.LevelThreshold.
const LevelThresholdZero = -2

// ZeroValue is the explicit spelling of "literally zero" for Epsilon and
// DistanceThreshold, whose zero value means "use the paper's default".
// The ε and δ sweeps of the evaluation need true zeros.
const ZeroValue = -1.0

// Updater is the uniform operation surface of the strategies.
type Updater interface {
	// Name returns "TD", "NAIVE", "LBU" or "GBU".
	Name() string
	// Insert adds a new point object.
	Insert(oid rtree.OID, p geom.Point) error
	// Update moves an existing object from old to new.
	Update(oid rtree.OID, old, new geom.Point) error
	// Delete removes an object at its current location.
	Delete(oid rtree.OID, at geom.Point) error
	// Search visits all objects intersecting q.
	Search(q geom.Rect, visit func(rtree.OID, geom.Rect) bool) error
	// Nearest returns the k objects nearest to p in increasing distance
	// order. It is part of the interface so locked access layers
	// (internal/concurrent) route every read — window queries and
	// nearest-neighbour queries alike — through one strategy surface.
	Nearest(p geom.Point, k int) ([]rtree.Neighbor, error)
	// Tree exposes the underlying R-tree (for stats and validation).
	Tree() *rtree.Tree
	// Outcomes reports how updates were resolved.
	Outcomes() Outcomes
	// Err returns the first bookkeeping error recorded by the listener
	// plumbing, if any. A non-nil value indicates a bug, not a user
	// error.
	Err() error
}

// Outcomes counts how each update was resolved; the paper's discussion
// (e.g. "82% of the updates remains top-down" for the naive scheme)
// is reproduced from these counters.
type Outcomes struct {
	InLeaf    int64 // new location inside the leaf MBR
	Extended  int64 // leaf MBR enlarged (ε)
	Shifted   int64 // moved to a sibling leaf
	Piggyback int64 // extra objects carried along on shifts
	Ascended  int64 // re-inserted below a bounding ancestor
	TopDown   int64 // full top-down fallback
}

// Total returns the number of updates resolved (excluding piggybacked
// passengers, which ride along with a Shifted update).
func (o Outcomes) Total() int64 {
	return o.InLeaf + o.Extended + o.Shifted + o.Ascended + o.TopDown
}

// New builds the requested strategy over the given buffer pool.
func New(pool *buffer.Pool, opts Options) (Updater, error) {
	opts = opts.withDefaults()
	switch opts.Strategy {
	case TD:
		t := rtree.New(pool, opts.Tree)
		return &tdStrategy{tree: t}, nil
	case LBU:
		cfg := opts.Tree
		cfg.ParentPointers = true
		s := &lbuStrategy{eps: opts.Epsilon}
		s.init(pool, cfg, opts, s)
		return s, nil
	case GBU:
		s := &gbuStrategy{opts: opts}
		s.init(pool, opts.Tree, opts, s)
		s.sum = summary.New(s.tree.MaxEntries(0))
		s.tree.SetListener(&fanoutListener{listeners: []rtree.Listener{s.sum, s.adapter}})
		return s, nil
	case Naive:
		s := &naiveStrategy{}
		s.init(pool, opts.Tree, opts, s)
		return s, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", opts.Strategy)
	}
}

// effectiveLevelThreshold decodes the λ encoding in Options.
func effectiveLevelThreshold(raw, height int) int {
	switch {
	case raw == LevelThresholdZero:
		return 0
	case raw < 0:
		return height - 1
	default:
		return raw
	}
}

// locatorAdapter routes the tree's data-placement events into the
// locator. Listener hooks cannot return errors, so the first failure is
// recorded and surfaced through Updater.Err.
type locatorAdapter struct {
	loc Locator

	mu  sync.Mutex
	err error
}

var _ rtree.Listener = (*locatorAdapter)(nil)

func (a *locatorAdapter) NodeWritten(rtreePage rtree.PageID, level int, self geom.Rect, children []rtree.PageID, count int) {
}
func (a *locatorAdapter) NodeFreed(page rtree.PageID, level int)    {}
func (a *locatorAdapter) RootChanged(root rtree.PageID, height int) {}

func (a *locatorAdapter) DataPlaced(oid rtree.OID, leaf rtree.PageID) {
	if err := a.loc.Set(oid, leaf); err != nil {
		a.record(err)
	}
}

func (a *locatorAdapter) DataRemoved(oid rtree.OID) {
	if err := a.loc.Delete(oid); err != nil {
		a.record(err)
	}
}

func (a *locatorAdapter) record(err error) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
}

func (a *locatorAdapter) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// fanoutListener broadcasts tree events to several listeners.
type fanoutListener struct {
	listeners []rtree.Listener
}

var _ rtree.Listener = (*fanoutListener)(nil)

func (f *fanoutListener) NodeWritten(page rtree.PageID, level int, self geom.Rect, children []rtree.PageID, count int) {
	for _, l := range f.listeners {
		l.NodeWritten(page, level, self, children, count)
	}
}

func (f *fanoutListener) NodeFreed(page rtree.PageID, level int) {
	for _, l := range f.listeners {
		l.NodeFreed(page, level)
	}
}

func (f *fanoutListener) RootChanged(root rtree.PageID, height int) {
	for _, l := range f.listeners {
		l.RootChanged(root, height)
	}
}

func (f *fanoutListener) DataPlaced(oid rtree.OID, leaf rtree.PageID) {
	for _, l := range f.listeners {
		l.DataPlaced(oid, leaf)
	}
}

func (f *fanoutListener) DataRemoved(oid rtree.OID) {
	for _, l := range f.listeners {
		l.DataRemoved(oid)
	}
}
