// Package exp is the experiment harness: it reproduces every table and
// figure of the paper's performance study (§5). Each experiment is a
// parameter sweep over workload and strategy configurations; the output
// is a table whose rows are strategies and whose columns are the swept
// parameter — the same series the paper plots. Each §5 figure pair is
// one declarative sweep in experiments.go (the parameter, the paper's
// values of it, the series), run by one function; the registry there
// names every experiment once.
//
// Every cell runs the paper's one procedure through a Cell: build the
// index from the initial positions, apply the update stream (one Update
// per update, or in UpdateBatch windows of Config.Batch), then the query
// stream, counting page I/O per phase with a buffer of 1 % of the
// database. RunOnce is that procedure on a generated workload; the
// throughput study, the §3.2 and §4 tables, cmd/burload's trace replay
// and cmd/burstat build their index through the same Cell.
//
// Workload sizes scale relative to the paper through a Scale factor so
// the suite runs on a laptop by default and at paper scale on demand
// (see cmd/burbench).
package exp

import (
	"fmt"
	"time"

	"burtree/internal/buffer"
	"burtree/internal/core"
	"burtree/internal/costmodel"
	"burtree/internal/geom"
	"burtree/internal/hashindex"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/stats"
	"burtree/internal/workload"
)

// Config is one experiment cell: a strategy plus workload and tuning
// parameters (paper Table 1).
type Config struct {
	Strategy core.Kind

	NumObjects int
	NumUpdates int
	NumQueries int

	PageSize   int     // default 1024 (the paper's page size)
	BufferFrac float64 // buffer pool as a fraction of database pages; default 0.01

	Epsilon           float64 // ε, default 0.003
	DistanceThreshold float64 // δ, default 0.03
	LevelThreshold    int     // λ, default unrestricted
	NoPiggyback       bool
	NoSummaryQueries  bool

	MaxDistance  float64 // max movement per update, default 0.03
	QueryMaxSize float64 // max query side, default 0.1
	Distribution workload.Distribution
	Seed         int64

	BulkLoad bool // build the initial tree with STR instead of inserts

	// Batch applies the update stream through core.ApplyBatch in
	// windows of Batch updates, each coalesced first. Zero means one
	// Update per update.
	Batch int

	// LengthScale rescales all length parameters (MaxDistance, Epsilon,
	// DistanceThreshold) to preserve the paper's locality regime when
	// the object count is scaled down: leaf MBR extent grows as
	// 1/sqrt(N), so movement distances must shrink by sqrt(N/N_paper)
	// for "distance moved in leaf diameters" to match the paper's
	// setup. Zero means 1 (no scaling). The experiment registry sets it
	// from the workload scale; see README.md, "Reproducing the paper's
	// experiments".
	LengthScale float64

	Validate bool // run invariant checks after the run (tests set this)
}

// WithDefaults fills unset fields with the paper's defaults.
func (c Config) WithDefaults() Config {
	if c.NumObjects == 0 {
		c.NumObjects = 20_000
	}
	if c.NumUpdates == 0 {
		c.NumUpdates = 20_000
	}
	if c.NumQueries == 0 {
		c.NumQueries = 1_000
	}
	if c.PageSize == 0 {
		c.PageSize = pagestore.DefaultPageSize
	}
	switch {
	case c.BufferFrac == 0:
		c.BufferFrac = 0.01
	case c.BufferFrac < 0: // explicit 0% buffer
		c.BufferFrac = 0
	}
	// Epsilon and DistanceThreshold keep core.ZeroValue sentinels so the
	// strategy layer can distinguish "default" from "literally zero".
	if c.Epsilon == 0 {
		c.Epsilon = 0.003
	}
	if c.DistanceThreshold == 0 {
		c.DistanceThreshold = 0.03
	}
	if c.LevelThreshold == 0 {
		c.LevelThreshold = core.UnrestrictedLevels
	}
	if c.MaxDistance == 0 {
		c.MaxDistance = 0.03
	}
	if c.QueryMaxSize == 0 {
		c.QueryMaxSize = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LengthScale == 0 {
		c.LengthScale = 1
	}
	return c
}

// scaledLengths returns the effective movement/tuning lengths after the
// locality rescaling. Negative sentinels (literal zero) pass through.
func (c Config) scaledLengths() (maxDist, epsilon, distThreshold float64) {
	maxDist = c.MaxDistance * c.LengthScale
	epsilon = c.Epsilon
	if epsilon > 0 {
		epsilon *= c.LengthScale
	}
	distThreshold = c.DistanceThreshold
	if distThreshold > 0 {
		distThreshold *= c.LengthScale
	}
	return maxDist, epsilon, distThreshold
}

// Spec is the workload the configuration's generator draws: its object
// count, distribution, query size and seed, with movement rescaled by
// LengthScale.
func (c Config) Spec() workload.Spec {
	c = c.WithDefaults()
	maxDist, _, _ := c.scaledLengths()
	return workload.Spec{
		NumObjects:   c.NumObjects,
		Distribution: c.Distribution,
		MaxDistance:  maxDist,
		QueryMaxSize: c.QueryMaxSize,
		Seed:         c.Seed,
	}
}

// Metrics is the outcome of one run.
type Metrics struct {
	Config Config // with defaults applied and the phase counts actually run

	BuildIO  stats.Snapshot
	UpdateIO stats.Snapshot
	QueryIO  stats.Snapshot

	BuildWall  time.Duration
	UpdateWall time.Duration
	QueryWall  time.Duration

	AvgUpdateIO float64 // the paper's "Avg Disk I/O" per update
	AvgQueryIO  float64 // per query

	Outcomes core.Outcomes
	Batch    core.BatchStats // summed over the windows; zero without Config.Batch

	TreeHeight  int
	TreePages   int
	BufferPages int
	QueryHits   int64 // total results returned (sanity/workload density)
}

// estimateDBPages predicts the database size (tree + secondary index)
// for buffer sizing, mirroring the paper's "buffer = 1% of database
// size" setup, which is defined before the database exists.
func estimateDBPages(cfg Config) int {
	parentPtrs := cfg.Strategy == core.LBU
	leafFanout := rtree.MaxEntriesFor(cfg.PageSize, parentPtrs, 0)
	fanout := rtree.MaxEntriesFor(cfg.PageSize, parentPtrs, 1)
	leaves := float64(cfg.NumObjects) / (float64(leafFanout) * 0.66)
	// Each level above holds 1/fanout as many nodes as the one below it.
	treePages := leaves * float64(fanout) / float64(fanout-1)
	hashPages := 0.0
	if cfg.Strategy != core.TD {
		slots := (cfg.PageSize - 16) / 16
		hashPages = float64(cfg.NumObjects) / (float64(slots) * 0.7)
	}
	n := int(treePages + hashPages)
	if n < 1 {
		n = 1
	}
	return n
}

// Stream is the workload a cell runs: the initial positions (object i
// at Positions()[i]), then the update and query streams on demand. A
// workload.Generator is one; a recorded trace replays through a cursor
// over its slices.
type Stream interface {
	Positions() []geom.Point
	NextUpdate() workload.Update
	NextQuery() geom.Rect
}

// Cell is one experiment cell's index: a counted page store, a buffer
// pool of Config.BufferFrac of the estimated database, and the strategy
// over it. Run drives it through the paper's procedure; callers that
// drive the index themselves (the throughput study, cmd/burstat) call
// Build and then use U.
type Cell struct {
	Config      Config // with defaults applied
	IO          *stats.IO
	Store       *pagestore.Store
	U           core.Updater
	BufferPages int
}

// NewCell opens an empty index for cfg.
func NewCell(cfg Config) (*Cell, error) {
	cfg = cfg.WithDefaults()
	io := &stats.IO{}
	store := pagestore.New(cfg.PageSize, io)
	bufPages := int(cfg.BufferFrac * float64(estimateDBPages(cfg)))
	_, epsilon, distThreshold := cfg.scaledLengths()
	pool := buffer.New(store, bufPages)
	// The bottom-up kinds reach leaves through the paper's paged hash
	// index (Figure 2), whose page accesses §5 charges.
	var loc core.Locator
	if cfg.Strategy != core.TD {
		loc = hashindex.New(pool, cfg.NumObjects)
	}
	u, err := core.New(pool, core.Options{
		Strategy:          cfg.Strategy,
		Epsilon:           epsilon,
		DistanceThreshold: distThreshold,
		LevelThreshold:    cfg.LevelThreshold,
		NoPiggyback:       cfg.NoPiggyback,
		NoSummaryQueries:  cfg.NoSummaryQueries,
		Locator:           loc,
		Tree:              rtree.Config{ReinsertFraction: 0.3}, // the paper's R-tree reinserts
	})
	if err != nil {
		return nil, err
	}
	return &Cell{Config: cfg, IO: io, Store: store, U: u, BufferPages: bufPages}, nil
}

// Build loads the stream's initial positions — STR-packed with
// Config.BulkLoad, one Insert each otherwise — and flushes the buffer,
// so the build's deferred writes are charged to the build.
func (c *Cell) Build(s Stream) error {
	pos := s.Positions()
	if c.Config.BulkLoad {
		items := make([]rtree.Item, len(pos))
		for i, p := range pos {
			items[i] = rtree.Item{OID: rtree.OID(i), Rect: geom.RectFromPoint(p)}
		}
		if err := c.U.Tree().BulkLoad(items, 0.66); err != nil {
			return fmt.Errorf("exp: bulk load: %w", err)
		}
	} else {
		for i, p := range pos {
			if err := c.U.Insert(rtree.OID(i), p); err != nil {
				return fmt.Errorf("exp: building index: %w", err)
			}
		}
	}
	return c.U.Tree().Flush()
}

// Run executes the paper's procedure on an empty cell: build from the
// stream's initial positions, apply its next updates updates, then its
// next queries queries on the post-update index, and report per-phase
// I/O and timing. The buffer is flushed after the build and after the
// updates, so deferred writes are charged to the phase that produced
// them. The phase counts are the caller's — a replayed trace passes its
// own lengths, zero included.
func (c *Cell) Run(s Stream, updates, queries int) (Metrics, error) {
	m := Metrics{Config: c.Config, BufferPages: c.BufferPages}
	m.Config.NumUpdates, m.Config.NumQueries = updates, queries

	start := time.Now()
	if err := c.Build(s); err != nil {
		return m, err
	}
	m.BuildWall = time.Since(start)
	m.BuildIO = c.IO.Snapshot()

	outBase := c.U.Outcomes()
	start = time.Now()
	if err := c.applyUpdates(s, updates, &m.Batch); err != nil {
		return m, err
	}
	if err := c.U.Tree().Flush(); err != nil {
		return m, err
	}
	m.UpdateWall = time.Since(start)
	updateSnap := c.IO.Snapshot()
	m.UpdateIO = updateSnap.Sub(m.BuildIO)
	if updates > 0 {
		// Charged per input update, batched or not: the coalescing
		// saving is part of what batching buys.
		m.AvgUpdateIO = float64(m.UpdateIO.Total()) / float64(updates)
	}
	m.Outcomes = subOutcomes(c.U.Outcomes(), outBase)

	start = time.Now()
	for i := 0; i < queries; i++ {
		count := 0
		if err := c.U.Search(s.NextQuery(), func(rtree.OID, geom.Rect) bool { count++; return true }); err != nil {
			return m, fmt.Errorf("exp: query %d: %w", i, err)
		}
		m.QueryHits += int64(count)
	}
	m.QueryWall = time.Since(start)
	m.QueryIO = c.IO.Snapshot().Sub(updateSnap)
	if queries > 0 {
		m.AvgQueryIO = float64(m.QueryIO.Total()) / float64(queries)
	}

	m.TreeHeight = c.U.Tree().Height()
	m.TreePages = c.Store.NumPages()

	if c.Config.Validate {
		if err := c.U.Err(); err != nil {
			return m, fmt.Errorf("exp: sticky strategy error: %w", err)
		}
		if err := c.U.Tree().CheckInvariants(); err != nil {
			return m, fmt.Errorf("exp: invariants after run: %w", err)
		}
	}
	return m, nil
}

// applyUpdates applies the stream's next n updates: one Update each, or
// with Config.Batch in coalesced windows through core.ApplyBatch, whose
// statistics add up in bst.
func (c *Cell) applyUpdates(s Stream, n int, bst *core.BatchStats) error {
	if c.Config.Batch <= 0 {
		for i := 0; i < n; i++ {
			up := s.NextUpdate()
			if err := c.U.Update(up.OID, up.Old, up.New); err != nil {
				return fmt.Errorf("exp: update %d: %w", i, err)
			}
		}
		return nil
	}
	raw := make([]core.BatchChange, 0, c.Config.Batch)
	for done := 0; done < n; done += len(raw) {
		raw = raw[:0]
		for len(raw) < c.Config.Batch && done+len(raw) < n {
			up := s.NextUpdate()
			raw = append(raw, core.BatchChange{OID: up.OID, Old: up.Old, New: up.New})
		}
		changes, _ := core.Coalesce(raw)
		w, err := core.ApplyBatch(c.U, changes, nil)
		if err != nil {
			return fmt.Errorf("exp: batch at update %d: %w", done, err)
		}
		bst.Add(w)
	}
	return nil
}

// RunOnce executes one configuration on its generated workload, which
// streams from the generator: nothing is materialised up front.
func RunOnce(cfg Config) (Metrics, error) {
	c, err := NewCell(cfg)
	if err != nil {
		return Metrics{}, err
	}
	return c.Run(workload.NewGenerator(c.Config.Spec()), c.Config.NumUpdates, c.Config.NumQueries)
}

// builtCell builds cfg's initial tree in a cell with a 0 % buffer: the
// tree the §4 cost model and the §3.2 size table profile.
func builtCell(cfg Config) (*Cell, error) {
	cfg.BufferFrac = -1
	c, err := NewCell(cfg)
	if err != nil {
		return nil, err
	}
	return c, c.Build(workload.NewGenerator(c.Config.Spec()))
}

func subOutcomes(a, b core.Outcomes) core.Outcomes {
	return core.Outcomes{
		InLeaf:    a.InLeaf - b.InLeaf,
		Extended:  a.Extended - b.Extended,
		Shifted:   a.Shifted - b.Shifted,
		Piggyback: a.Piggyback - b.Piggyback,
		Ascended:  a.Ascended - b.Ascended,
		TopDown:   a.TopDown - b.TopDown,
	}
}

// PredictCosts measures cfg with RunOnce and runs the §4 cost model
// against cfg's freshly built tree; used by the cost-validation
// experiment.
func PredictCosts(cfg Config) (predictedTD float64, measured Metrics, err error) {
	if measured, err = RunOnce(cfg); err != nil {
		return 0, measured, err
	}
	c, err := builtCell(cfg)
	if err != nil {
		return 0, measured, err
	}
	prof, err := costmodel.ProfileTree(c.U.Tree())
	if err != nil {
		return 0, measured, err
	}
	return costmodel.TopDownUpdateCost(prof), measured, nil
}
