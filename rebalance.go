package burtree

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"burtree/internal/geom"
	"burtree/internal/rtree"
	"burtree/internal/shard"
)

// RebalanceOptions configures the online shard rebalancer of a
// ShardedIndex. The rebalancer watches the per-shard load shares (a
// windowed EWMA over the operation stream; see ShardLoads) and, when one
// shard draws more than its fair share, migrates a boundary slice of its
// objects to a neighboring Hilbert range. Ranges still at the uniform cut
// an index opens with (no BulkInsert has balanced them) are re-cut at the
// load quantiles in one rebuild instead.
//
// Every step runs under the index's exclusive snapshot gate, so the
// trees are quiescent while boundaries move; MaxStep bounds how many
// objects one step migrates, which bounds how long writers stall.
// Boundary changes are not logged: write-ahead replay re-routes every
// record by position, so shard placement is derived state — a crash
// simply recovers onto the boundaries of the last checkpoint.
type RebalanceOptions struct {
	// HotFactor is the trigger threshold: a shard is hot when its EWMA
	// load share exceeds HotFactor× the fair share 1/n (default 1.5).
	HotFactor float64
	// MaxStep caps the objects migrated per rebalance step (default
	// 512). The re-cut of uniform ranges is exempt: it rebuilds every
	// shard once, in parallel, rather than paying per-object migration.
	MaxStep int
	// MinOps is the minimum number of operations a sampling window must
	// carry before a step may trigger (default 1024) — idle indexes and
	// cold starts never rebalance on noise.
	MinOps uint64
	// Cooldown is the number of qualifying sampling windows skipped after
	// a boundary change (default 0 = none). A step disturbs its own
	// signal — migrated objects land on cold buffers and the EWMA shares
	// are still re-forming — so without hysteresis a single hot spell can
	// trigger a chase of follow-up steps whose migrations cost more than
	// the imbalance they shave.
	Cooldown int
	// Interval is the background sampling period. Zero (the default)
	// means no background loop: the caller drives Rebalance explicitly,
	// which is also what keeps tests deterministic.
	Interval time.Duration
	// UseOpCounts switches the trigger shares and the quantile cuts back
	// to raw operation counts — the pre-cost signal — instead of the
	// cost-weighted default. Kept for comparison runs (the skew
	// experiment's opcount arm): under extreme skew op counts concentrate
	// on objects whose updates are nearly free (batch coalescing,
	// memtable absorption, buffer hits), so the op-count signal moves
	// boundaries toward shards that incur little actual I/O.
	UseOpCounts bool
}

func (o RebalanceOptions) withDefaults() RebalanceOptions {
	if o.HotFactor == 0 {
		o.HotFactor = 1.5
	}
	if o.MaxStep == 0 {
		o.MaxStep = 512
	}
	if o.MinOps == 0 {
		o.MinOps = 1024
	}
	return o
}

// ShardLoad is one shard's load-accounting snapshot (see ShardLoads).
type ShardLoad struct {
	// Updates is the cumulative count of update operations (inserts,
	// moves, deletes) applied by the shard.
	Updates uint64
	// Queries is the cumulative count of read visits (window, count and
	// nearest-neighbour scatters that touched the shard).
	Queries uint64
	// Cost is the shard's cumulative foreground load cost: one unit per
	// operation (Updates + Queries) plus shard.CostPerPage per foreground
	// page of the shard's ledger — the pages Stats counts, less
	// BackgroundPages. This is the currency the rebalancer balances.
	Cost uint64
	// BackgroundPages is the shard's cumulative page count from
	// background memtable merge-downs — deferred work attributed
	// separately so it never skews the foreground shares. Like every
	// counter of the ledger it keeps counting across a rebalance that
	// rebuilds the shard, and restarts at ResetStats.
	BackgroundPages uint64
	// Objects is the shard's current object count.
	Objects int
	// Share is the shard's EWMA share of recent cost-weighted load, the
	// signal the rebalancer triggers on by default. Shares sum to ≈1
	// once the first sampling window has closed.
	Share float64
	// OpShare is the shard's EWMA share of recent raw operation counts
	// (updates+queries), kept for observability and for
	// RebalanceOptions.UseOpCounts comparison runs.
	OpShare float64
}

// ShardLoads returns each shard's load accounting: cumulative update and
// query counts, foreground cost and background page attribution, current
// object count, and the windowed EWMA shares (cost-weighted and
// op-count). Companion to Stats for balance monitoring and the
// rebalancer's own trigger.
func (x *ShardedIndex) ShardLoads() []ShardLoad {
	x.gate.RLock()
	defer x.gate.RUnlock()
	shares := x.load.Shares()
	opShares := x.load.OpShares()
	counts := x.shardCounts()
	out := make([]ShardLoad, len(x.shards))
	for i, sh := range x.shards {
		updates, queries := x.load.UpdateCount(i), x.load.QueryCount(i)
		out[i] = ShardLoad{
			Updates:         updates,
			Queries:         queries,
			Cost:            updates + queries + shard.CostPerPage*uint64(sh.io.Foreground()),
			BackgroundPages: uint64(sh.io.Background()),
			Objects:         counts[i],
			Share:           shares[i],
			OpShare:         opShares[i],
		}
	}
	return out
}

// RouterEpoch counts the boundary changes this index has performed (it
// starts at the value restored from the snapshot); tests and
// monitors use it to tell whether a rebalance actually moved boundaries.
func (x *ShardedIndex) RouterEpoch() uint64 {
	x.gate.RLock()
	defer x.gate.RUnlock()
	return x.routerEpoch
}

// SetRebalance reconfigures the rebalancer at runtime, starting or
// stopping the background loop as needed — it runs when the
// configuration sets a positive Interval. Used to enable rebalancing
// on an index restored by LoadSharded (loaders keep it off).
func (x *ShardedIndex) SetRebalance(o RebalanceOptions) {
	x.stopRebalancer()
	x.rebalMu.Lock()
	defer x.rebalMu.Unlock()
	x.ropts = o.withDefaults()
	if x.ropts.Interval <= 0 || x.rebalStop != nil {
		return
	}
	stop := make(chan struct{})
	x.rebalStop = stop
	interval := x.ropts.Interval
	x.rebalWG.Add(1)
	go func() {
		defer x.rebalWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				// A failed step leaves the previous boundaries in place;
				// the next tick retries, so the loop drops the error.
				_, _ = x.Rebalance()
			}
		}
	}()
}

// stopRebalancer stops the background loop and waits it out.
func (x *index) stopRebalancer() {
	x.rebalMu.Lock()
	stop := x.rebalStop
	x.rebalStop = nil
	x.rebalMu.Unlock()
	if stop != nil {
		close(stop)
		x.rebalWG.Wait()
	}
}

// Rebalance closes one load-sampling window and, if a shard is hot,
// performs one bounded rebalance step: ranges still at the uniform cut of
// open are re-cut at the load quantiles (all shards rebuilt in parallel,
// once); any other cut has the hot shard's boundary nudged toward the
// load quantiles, migrating at most MaxStep objects to a neighbor. It
// returns the number of objects that changed shards (0 when no shard is
// hot or the window was too quiet). Safe to call manually whether or not
// the background loop runs (RebalanceOptions.Interval), including on a
// loaded snapshot.
func (x *ShardedIndex) Rebalance() (int, error) {
	x.rebalMu.Lock()
	o := x.ropts
	x.rebalMu.Unlock()
	// One sample delivers shares and cell histograms snapshot together:
	// boundary cuts below use w's cells, never a later read of the
	// histogram that a concurrent decay could have zeroed. The cost
	// shares are computed from the shards' ledgers (fgPages).
	w := x.load.SampleAt(x.fgPages())
	shares, cells := w.Shares, w.Cells
	if o.UseOpCounts {
		shares, cells = w.OpShares, w.CellOps
	}
	n := len(shares)
	if n < 2 || w.Ops < o.MinOps {
		return 0, nil
	}
	x.rebalMu.Lock()
	if x.rebalCool > 0 {
		x.rebalCool--
		x.rebalMu.Unlock()
		return 0, nil
	}
	x.rebalMu.Unlock()
	hot, hotShare := 0, shares[0]
	for i, s := range shares {
		if s > hotShare {
			hot, hotShare = i, s
		}
	}
	if hotShare*float64(n) <= o.HotFactor {
		return 0, nil
	}
	x.gate.Lock()
	defer x.gate.Unlock()
	var moved int
	var err error
	if x.router.Uniform() {
		moved, err = x.recutLocked(cells)
	} else {
		moved, err = x.nudgeBoundaryLocked(hot, o.MaxStep, cells)
	}
	if err == nil && moved > 0 && o.Cooldown > 0 {
		x.rebalMu.Lock()
		x.rebalCool = o.Cooldown
		x.rebalMu.Unlock()
	}
	return moved, err
}

// recutLocked replaces the uniform ranges with load-balanced ones in one
// shot: a new router is cut at the load quantiles of the cell histogram
// and every shard is rebuilt by a parallel bulk load of its new slice of
// the object table. One rebuild costs far less than migrating most
// objects through per-object delete+insert, which is why the re-cut
// ignores MaxStep. Caller holds the gate exclusively and passes the cell
// histogram snapshot its Sample returned; on any error the previous
// shards and router stay installed.
func (x *index) recutLocked(cells []uint64) (int, error) {
	bounds, err := shard.LoadQuantileBounds(len(x.shards), cells)
	if err != nil {
		return 0, fmt.Errorf("burtree: rebalance: %w", err)
	}
	router, err := shard.NewHilbertBounds(bounds)
	if err != nil {
		return 0, fmt.Errorf("burtree: rebalance: %w", err)
	}
	fresh, err := x.openShards()
	if err != nil {
		return 0, fmt.Errorf("burtree: rebalance: %w", err)
	}
	x.mu.RLock()
	items := make([]rtree.Item, 0, len(x.objects))
	for id, p := range x.objects {
		items = append(items, rtree.Item{OID: id, Rect: geom.RectFromPoint(p)})
	}
	x.mu.RUnlock()
	if err := loadShards(fresh, router, items, PackSTR); err != nil {
		for _, s := range fresh {
			_ = s.close() // never served; the load's error is the one to report
		}
		return 0, fmt.Errorf("burtree: rebalance: rebuilding shards: %w", err)
	}
	closeErr := x.swapShardsLocked(fresh)
	x.router = router
	x.routerEpoch++
	x.load.DecayCells()
	// Reset to the post-rebuild page snapshot: the rebuild I/O just paid
	// belongs to the retired layout, not the first window of the new one.
	x.load.ResetShares(x.fgPagesLocked())
	if closeErr != nil {
		return 0, fmt.Errorf("burtree: rebalance: closing replaced shards: %w", closeErr)
	}
	return len(items), nil
}

// nudgeBoundaryLocked moves one boundary of the hot shard toward the
// load-quantile target, migrating at most maxStep objects to the
// adjacent shard. Caller holds the gate exclusively. The step picks the hot
// shard's boundary with the larger pull toward the target, walks it
// inward cell by cell while the migration stays within budget (always
// at least one cell, so a step under budget pressure still makes
// progress), installs the new router and moves the affected objects
// between the two shard trees. Positions do not change, so neither the
// object table nor the write-ahead log is touched. The caller
// passes the cell histogram snapshot its Sample returned.
func (x *index) nudgeBoundaryLocked(hot, maxStep int, cells []uint64) (int, error) {
	n := len(x.shards)
	cur := x.router.Bounds()
	target, err := shard.LoadQuantileBounds(n, cells)
	if err != nil {
		return 0, fmt.Errorf("burtree: rebalance: %w", err)
	}
	// The hot shard owns curve range [lo, hi).
	lo, hi := uint64(0), uint64(shard.NumCells)
	if hot > 0 {
		lo = cur[hot-1]
	}
	if hot < n-1 {
		hi = cur[hot]
	}
	// Candidate nudges shrink the hot range: raising the left boundary
	// (cells migrate to shard hot-1) or lowering the right boundary
	// (cells migrate to shard hot+1). Pick the side the target pulls
	// harder.
	leftPull, rightPull := uint64(0), uint64(0)
	if hot > 0 && target[hot-1] > lo {
		leftPull = target[hot-1] - lo
	}
	if hot < n-1 && target[hot] < hi {
		rightPull = hi - target[hot]
	}
	if leftPull == 0 && rightPull == 0 {
		// The hot shard's boundaries already sit at the load quantiles
		// (e.g. the load is query-driven, which the cell histogram does
		// not see, or concentrated in a single cell already isolated).
		return 0, nil
	}

	// Per-cell object counts of the hot shard, so the walk can stop
	// before the migration exceeds its budget.
	cellObjects := make(map[uint64]int)
	x.mu.RLock()
	for _, p := range x.objects {
		if x.router.ShardOf(p) == hot {
			cellObjects[shard.CellKey(p)]++
		}
	}
	x.mu.RUnlock()

	newBounds := append([]uint64(nil), cur...)
	if leftPull >= rightPull {
		// Raise cur[hot-1] toward target[hot-1]: cells [lo, b) leave the
		// hot shard. Keep b < hi to leave the hot range non-empty.
		b, count := lo, 0
		for b < target[hot-1] && b < hi-1 {
			c := cellObjects[b]
			if b > lo && count+c > maxStep {
				break
			}
			count += c
			b++
		}
		if b == lo {
			return 0, nil
		}
		newBounds[hot-1] = b
	} else {
		// Lower cur[hot] toward target[hot]: cells [b, hi) leave the hot
		// shard. Keep b > lo to leave the hot range non-empty.
		b, count := hi, 0
		for b > target[hot] && b > lo+1 {
			c := cellObjects[b-1]
			if b < hi && count+c > maxStep {
				break
			}
			count += c
			b--
		}
		if b == hi {
			return 0, nil
		}
		newBounds[hot] = b
	}
	router, err := shard.NewHilbertBounds(newBounds)
	if err != nil {
		return 0, fmt.Errorf("burtree: rebalance: %w", err)
	}

	// Migrate the objects whose owning shard changed. Collect first,
	// then apply, so a mid-migration failure can put every already-moved
	// object back and leave the old router installed. The movers apply in
	// id order, not the object table's map order, so the same step on the
	// same index builds the same trees.
	type mover struct {
		id       uint64
		p        Point
		src, dst int
	}
	var movers []mover
	x.mu.RLock()
	for id, p := range x.objects {
		src := x.router.ShardOf(p)
		if dst := router.ShardOf(p); dst != src {
			movers = append(movers, mover{id: id, p: p, src: src, dst: dst})
		}
	}
	x.mu.RUnlock()
	slices.SortFunc(movers, func(a, b mover) int { return cmp.Compare(a.id, b.id) })
	for i, m := range movers {
		if err := relocate(x.shards[m.src], x.shards[m.dst], m.id, m.p, m.p); err != nil {
			for j := i - 1; j >= 0; j-- {
				u := movers[j]
				err = errors.Join(err, relocate(x.shards[u.dst], x.shards[u.src], u.id, u.p, u.p))
			}
			return 0, fmt.Errorf("burtree: rebalance: migrating boundary slice: %w", err)
		}
	}
	x.router = router
	x.routerEpoch++
	x.load.DecayCells()
	// Reset to the post-migration page snapshot so the delete+insert I/O
	// the step itself paid does not seed the next window's shares.
	x.load.ResetShares(x.fgPagesLocked())
	return len(movers), nil
}
