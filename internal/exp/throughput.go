package exp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"burtree/internal/concurrent"
	"burtree/internal/core"
	"burtree/internal/geom"
	"burtree/internal/rtree"
	"burtree/internal/stats"
	"burtree/internal/workload"
)

// ThroughputConfig drives one cell of the Fig 8 study: a worker pool
// issuing a fixed mix of updates and window queries against one strategy
// under DGL locking and a simulated per-page latency.
type ThroughputConfig struct {
	Strategy   core.Kind
	NumObjects int
	Threads    int
	Ops        int     // total operations across all threads
	UpdateFrac float64 // share of operations that are updates
	IOLatency  time.Duration
	MaxDist    float64
	QuerySize  float64 // fixed upper bound for window side (paper: [0, 0.01] for throughput)
	Seed       int64

	// NearestFrac is the share of query operations answered as k-NN
	// queries instead of window queries (mixed-workload study; zero
	// keeps the paper's pure window-query mix of Fig 8).
	NearestFrac float64
	// NearestK is the k of those NN queries (default 10).
	NearestK int
}

func (c ThroughputConfig) withDefaults() ThroughputConfig {
	if c.NumObjects == 0 {
		c.NumObjects = 20_000
	}
	if c.Threads == 0 {
		c.Threads = 50
	}
	if c.Ops == 0 {
		c.Ops = 6_000
	}
	if c.MaxDist == 0 {
		c.MaxDist = 0.03
	}
	if c.QuerySize == 0 {
		c.QuerySize = 0.01 // the paper's throughput study uses [0, 0.01]
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NearestK == 0 {
		c.NearestK = 10
	}
	return c
}

// ThroughputResult is one cell's outcome.
type ThroughputResult struct {
	TPS     float64
	Elapsed time.Duration
	DB      concurrent.Stats

	// IO is the physical activity of the measured phase only (the
	// initial bulk load is excluded), and IOPerOp the paper-style
	// average disk accesses per operation derived from it.
	IO      stats.Snapshot
	IOPerOp float64
}

// RunThroughput builds the index in a cell with the paper's default
// tuning and 1 % buffer, then replays a concurrent mixed workload on the
// cell's updater with the given thread count, returning
// operations/second. The initial build is STR bulk-loaded (identically
// for every strategy) and runs with the latency simulation off so only
// the measured phase pays simulated I/O time.
func RunThroughput(cfg ThroughputConfig) (ThroughputResult, error) {
	cfg = cfg.withDefaults()
	var res ThroughputResult

	c, err := NewCell(Config{Strategy: cfg.Strategy, NumObjects: cfg.NumObjects, Seed: cfg.Seed, BulkLoad: true})
	if err != nil {
		return res, err
	}
	gen := workload.NewGenerator(c.Config.Spec())
	if err := c.Build(gen); err != nil {
		return res, err
	}
	u := c.U
	db := concurrent.New(u, 32)
	positions := append([]geom.Point(nil), gen.Positions()...)
	var stripes [512]sync.Mutex

	buildSnap := c.IO.Snapshot()
	c.Store.SetLatency(cfg.IOLatency)
	defer c.Store.SetLatency(0)

	opsPerWorker := cfg.Ops / cfg.Threads
	if opsPerWorker < 1 {
		opsPerWorker = 1
	}
	errCh := make(chan error, cfg.Threads)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			for i := 0; i < opsPerWorker; i++ {
				if rng.Float64() < cfg.UpdateFrac {
					oid := rng.Intn(cfg.NumObjects)
					st := &stripes[oid%len(stripes)]
					st.Lock()
					old := positions[oid]
					d := rng.Float64() * cfg.MaxDist
					ang := rng.Float64() * 2 * math.Pi
					np := geom.Point{X: old.X + d*math.Cos(ang), Y: old.Y + d*math.Sin(ang)}
					if err := db.Update(rtree.OID(oid), old, np); err != nil {
						st.Unlock()
						errCh <- err
						return
					}
					positions[oid] = np
					st.Unlock()
				} else if cfg.NearestFrac > 0 && rng.Float64() < cfg.NearestFrac {
					p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
					if _, err := db.Nearest(p, cfg.NearestK); err != nil {
						errCh <- err
						return
					}
				} else {
					side := rng.Float64() * cfg.QuerySize
					x, y := rng.Float64(), rng.Float64()
					if _, err := db.Query(geom.Rect{MinX: x, MinY: y, MaxX: x + side, MaxY: y + side}); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	select {
	case err := <-errCh:
		return res, err
	default:
	}
	c.Store.SetLatency(0)
	// Snapshot the measured phase before the invariant walk below reads
	// the whole tree through the same counters.
	runSnap := c.IO.Snapshot()
	if err := u.Err(); err != nil {
		return res, fmt.Errorf("exp: throughput sticky error: %w", err)
	}
	if err := u.Tree().CheckInvariants(); err != nil {
		return res, fmt.Errorf("exp: throughput invariants: %w", err)
	}
	total := opsPerWorker * cfg.Threads
	res.TPS = float64(total) / res.Elapsed.Seconds()
	res.DB = db.Stats()
	res.IO = runSnap.Sub(buildSnap)
	res.IOPerOp = float64(res.IO.Total()) / float64(total)
	return res, nil
}

// bundleThroughput reproduces Figure 8: throughput for update shares
// {0, 25, 50, 75, 100}% with 50 threads under DGL.
func bundleThroughput(s Scale, seed int64) (map[string]*Table, error) {
	fracs := []float64{0, 0.25, 0.5, 0.75, 1}
	cols := []string{"0%", "25%", "50%", "75%", "100%"}
	t := &Table{ID: "fig8", Title: "Throughput for Varying Mix of Updates and Window Queries",
		XLabel: "% updates", YLabel: "throughput (ops/s)", Columns: cols}
	for _, kind := range defaultKinds {
		var row []float64
		for _, f := range fracs {
			// Movement distances shrink with the length scale; the query
			// window grows by the inverse so the number of leaves touched
			// per query — and hence the query/update service-time ratio
			// that shapes the figure — matches the paper's regime.
			qs := 0.01 / lengthScale(s)
			if qs > 0.5 {
				qs = 0.5
			}
			r, err := RunThroughput(ThroughputConfig{
				Strategy:   kind,
				NumObjects: s.Objects,
				Threads:    s.Threads,
				Ops:        s.Ops,
				UpdateFrac: f,
				IOLatency:  time.Duration(s.IOLatencyU) * time.Microsecond,
				MaxDist:    0.03 * lengthScale(s),
				QuerySize:  qs,
				Seed:       seed,
			})
			if err != nil {
				return nil, fmt.Errorf("%v frac=%g: %w", kind, f, err)
			}
			row = append(row, r.TPS)
		}
		t.AddRow(kind.String(), row)
	}
	return map[string]*Table{"fig8": t}, nil
}

// bundleMixed extends the Fig 8 study beyond the paper: a query-fraction
// sweep (0–100% reads, the complement of Fig 8's update axis) in which a
// fifth of the queries are answered as 10-NN searches through the locked
// nearest-neighbour path, reporting both throughput and the paper-style
// average disk I/O per operation for every strategy. It is the repro for
// the "concurrent read-path parity" scenario: updates and queries share
// the index under DGL granule locks the whole time.
func bundleMixed(s Scale, seed int64) (map[string]*Table, error) {
	qfracs := []float64{0, 0.25, 0.5, 0.75, 1}
	cols := []string{"0%", "25%", "50%", "75%", "100%"}
	t := &Table{ID: "mixed", Title: "Mixed workload: throughput and disk I/O per op for varying query fraction",
		XLabel: "% queries (1/5 of them 10-NN)", YLabel: "ops/s and I/O per op", Columns: cols}
	for _, kind := range defaultKinds {
		var tps, ioPerOp []float64
		for _, qf := range qfracs {
			// Same window scaling as Fig 8: keep the query/update
			// service-time ratio in the paper's regime at reduced scale.
			qs := 0.01 / lengthScale(s)
			if qs > 0.5 {
				qs = 0.5
			}
			r, err := RunThroughput(ThroughputConfig{
				Strategy:    kind,
				NumObjects:  s.Objects,
				Threads:     s.Threads,
				Ops:         s.Ops,
				UpdateFrac:  1 - qf,
				NearestFrac: 0.2,
				IOLatency:   time.Duration(s.IOLatencyU) * time.Microsecond,
				MaxDist:     0.03 * lengthScale(s),
				QuerySize:   qs,
				Seed:        seed,
			})
			if err != nil {
				return nil, fmt.Errorf("%v qfrac=%g: %w", kind, qf, err)
			}
			tps = append(tps, r.TPS)
			ioPerOp = append(ioPerOp, r.IOPerOp)
		}
		t.AddRow(kind.String()+" ops/s", tps)
		t.AddRow(kind.String()+" IO/op", ioPerOp)
	}
	return map[string]*Table{"mixed": t}, nil
}
