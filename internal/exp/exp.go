// Package exp is the experiment harness: it reproduces every table and
// figure of the paper's performance study (§5). Each experiment is a
// parameter sweep over workload and strategy configurations; the output
// is a table whose rows are strategies and whose columns are the swept
// parameter — the same series the paper plots.
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

	ReinsertFraction float64 // default 0.3 (the paper's R-tree uses reinsertion)
	Split            rtree.SplitAlgorithm
	BulkLoad         bool // build the initial tree with STR instead of inserts

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
	if c.ReinsertFraction == 0 {
		c.ReinsertFraction = 0.3
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

// Metrics is the outcome of one run.
type Metrics struct {
	Config Config

	BuildIO  stats.Snapshot
	UpdateIO stats.Snapshot
	QueryIO  stats.Snapshot

	BuildWall  time.Duration
	UpdateWall time.Duration
	QueryWall  time.Duration

	AvgUpdateIO float64 // the paper's "Avg Disk I/O" per update
	AvgQueryIO  float64 // per query

	Outcomes core.Outcomes

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

// RunOnce executes one configuration: build the index from the initial
// distribution, apply the update stream, then the query stream, and
// report per-phase I/O and timing. The buffer is flushed between phases
// so deferred writes are charged to the phase that produced them.
func RunOnce(cfg Config) (Metrics, error) {
	cfg = cfg.WithDefaults()
	var m Metrics
	m.Config = cfg

	io := &stats.IO{}
	store := pagestore.New(cfg.PageSize, io)
	bufPages := int(cfg.BufferFrac * float64(estimateDBPages(cfg)))
	pool := buffer.New(store, bufPages)
	m.BufferPages = bufPages

	maxDist, epsilon, distThreshold := cfg.scaledLengths()
	u, err := core.New(pool, core.Options{
		Strategy:          cfg.Strategy,
		Epsilon:           epsilon,
		DistanceThreshold: distThreshold,
		LevelThreshold:    cfg.LevelThreshold,
		NoPiggyback:       cfg.NoPiggyback,
		NoSummaryQueries:  cfg.NoSummaryQueries,
		ExpectedObjects:   cfg.NumObjects,
		Tree: rtree.Config{
			ReinsertFraction: cfg.ReinsertFraction,
			Split:            cfg.Split,
		},
	})
	if err != nil {
		return m, err
	}

	gen := workload.NewGenerator(workload.Spec{
		NumObjects:   cfg.NumObjects,
		Distribution: cfg.Distribution,
		MaxDistance:  maxDist,
		QueryMaxSize: cfg.QueryMaxSize,
		Seed:         cfg.Seed,
	})

	// Phase 1: build.
	start := time.Now()
	if cfg.BulkLoad {
		if err := u.Tree().BulkLoad(gen.Items(), 0.66); err != nil {
			return m, fmt.Errorf("exp: bulk load: %w", err)
		}
	} else {
		for i, p := range gen.Positions() {
			if err := u.Insert(rtree.OID(i), p); err != nil {
				return m, fmt.Errorf("exp: building index: %w", err)
			}
		}
	}
	if err := u.Tree().Flush(); err != nil {
		return m, err
	}
	m.BuildWall = time.Since(start)
	buildSnap := io.Snapshot()
	m.BuildIO = buildSnap

	// Phase 2: updates.
	outBase := u.Outcomes()
	start = time.Now()
	for i := 0; i < cfg.NumUpdates; i++ {
		up := gen.NextUpdate()
		if err := u.Update(up.OID, up.Old, up.New); err != nil {
			return m, fmt.Errorf("exp: update %d: %w", i, err)
		}
	}
	if err := u.Tree().Flush(); err != nil {
		return m, err
	}
	m.UpdateWall = time.Since(start)
	updateSnap := io.Snapshot()
	m.UpdateIO = updateSnap.Sub(buildSnap)
	if cfg.NumUpdates > 0 {
		m.AvgUpdateIO = float64(m.UpdateIO.Total()) / float64(cfg.NumUpdates)
	}
	m.Outcomes = subOutcomes(u.Outcomes(), outBase)

	// Phase 3: queries (run on the post-update index, as in the paper).
	start = time.Now()
	for i := 0; i < cfg.NumQueries; i++ {
		q := gen.NextQuery()
		count := 0
		if err := u.Search(q, func(rtree.OID, geom.Rect) bool { count++; return true }); err != nil {
			return m, fmt.Errorf("exp: query %d: %w", i, err)
		}
		m.QueryHits += int64(count)
	}
	m.QueryWall = time.Since(start)
	querySnap := io.Snapshot()
	m.QueryIO = querySnap.Sub(updateSnap)
	if cfg.NumQueries > 0 {
		m.AvgQueryIO = float64(m.QueryIO.Total()) / float64(cfg.NumQueries)
	}

	m.TreeHeight = u.Tree().Height()
	m.TreePages = store.NumPages()

	if cfg.Validate {
		if err := u.Err(); err != nil {
			return m, fmt.Errorf("exp: sticky strategy error: %w", err)
		}
		if err := u.Tree().CheckInvariants(); err != nil {
			return m, fmt.Errorf("exp: invariants after run: %w", err)
		}
	}
	return m, nil
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

// PredictCosts runs the §4 cost model against the live tree of a
// finished configuration; used by the cost-validation experiment.
func PredictCosts(cfg Config) (predictedTD float64, measured Metrics, err error) {
	measured, err = RunOnce(cfg)
	if err != nil {
		return 0, measured, err
	}
	// Re-build the same tree to profile it (RunOnce does not retain it).
	cfg2 := cfg.WithDefaults()
	cfg2.NumUpdates = 0
	cfg2.NumQueries = 0
	io := &stats.IO{}
	store := pagestore.New(cfg2.PageSize, io)
	pool := buffer.New(store, 0)
	u, err := core.New(pool, core.Options{Strategy: core.TD, ExpectedObjects: cfg2.NumObjects,
		Tree: rtree.Config{ReinsertFraction: cfg2.ReinsertFraction}})
	if err != nil {
		return 0, measured, err
	}
	gen := workload.NewGenerator(workload.Spec{
		NumObjects: cfg2.NumObjects, Distribution: cfg2.Distribution, Seed: cfg2.Seed,
	})
	for i, p := range gen.Positions() {
		if err := u.Insert(rtree.OID(i), p); err != nil {
			return 0, measured, err
		}
	}
	prof, err := costmodel.ProfileTree(u.Tree())
	if err != nil {
		return 0, measured, err
	}
	return costmodel.TopDownUpdateCost(prof), measured, nil
}
