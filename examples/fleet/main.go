// Fleet monitoring: the moving-object scenario that motivates the paper.
//
// A fleet of vehicles streams position updates into the index while a
// dispatcher issues window queries ("which vehicles are near this
// pickup?"). The example runs the identical workload against the
// traditional top-down strategy (TD) and the generalized bottom-up
// strategy (GBU) and reports the paper's headline comparison: average
// disk accesses per update and per query.
//
// It then scales the scenario out: the fleet is split across concurrent
// feed workers (one per city district, each owning its vehicles) driving
// a ShardedIndex, with dispatchers running scatter-gather window queries
// and nearest-vehicle lookups in parallel. Comparing 1 shard against 8
// shows the throughput effect of giving every district its own tree,
// buffer pool and lock manager.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sync"
	"time"

	"burtree"
)

const (
	vehicles  = 20_000
	ticks     = 5      // simulation rounds
	moves     = 20_000 // position updates per round
	dispatch  = 200    // dispatcher queries per round
	maxSpeed  = 0.02   // max distance per update (locality!)
	querySide = 0.05   // dispatch search radius
)

func main() {
	for _, strategy := range []burtree.Strategy{burtree.TopDown, burtree.GeneralizedBottomUp} {
		if err := run(strategy); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println()
	for _, shards := range []int{1, 8} {
		if err := runSharded(shards); err != nil {
			log.Fatal(err)
		}
	}
}

// runSharded drives the fleet through a ShardedIndex: feed workers own
// disjoint vehicle ranges and stream batched position updates, while
// dispatchers interleave window and nearest-vehicle queries. The
// simulated per-page latency makes the run I/O-bound, so the reported
// throughput shows how far the shard count overlaps that latency.
func runSharded(shards int) error {
	idx, err := burtree.OpenSharded(burtree.Options{
		Strategy:        burtree.GeneralizedBottomUp,
		ExpectedObjects: vehicles,
		BufferPages:     24,
	}, burtree.ShardOptions{Shards: shards})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(2003))
	ids := make([]uint64, vehicles)
	pts := make([]burtree.Point, vehicles)
	depots := []burtree.Point{{X: 0.25, Y: 0.25}, {X: 0.75, Y: 0.3}, {X: 0.5, Y: 0.8}}
	for i := range ids {
		d := depots[rng.Intn(len(depots))]
		ids[i] = uint64(i)
		pts[i] = burtree.Point{
			X: clamp01(d.X + rng.NormFloat64()*0.08),
			Y: clamp01(d.Y + rng.NormFloat64()*0.08),
		}
	}
	if err := idx.BulkInsert(ids, pts, burtree.PackSTR); err != nil {
		return err
	}
	idx.SetIOLatency(50 * time.Microsecond)
	defer idx.SetIOLatency(0)

	const (
		feeds           = 16
		updatesPerFeed  = 500
		feedBatch       = 16
		dispatchPerFeed = 40
	)
	var wg sync.WaitGroup
	errCh := make(chan error, feeds)
	start := time.Now()
	for w := 0; w < feeds; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := rand.New(rand.NewSource(int64(w)*7919 + 7))
			lo := w * (vehicles / feeds)
			span := vehicles / feeds
			pos := make(map[uint64]burtree.Point, span)
			for i := 0; i < span; i++ {
				pos[uint64(lo+i)] = pts[lo+i]
			}
			sent, dispatched := 0, 0
			for sent < updatesPerFeed {
				if wr.Float64() < 0.75 || dispatched >= dispatchPerFeed {
					batch := make([]burtree.Change, 0, feedBatch)
					for j := 0; j < feedBatch; j++ {
						id := uint64(lo + wr.Intn(span))
						p := pos[id]
						ang := wr.Float64() * 2 * math.Pi
						d := wr.Float64() * maxSpeed
						np := burtree.Point{X: p.X + d*math.Cos(ang), Y: p.Y + d*math.Sin(ang)}
						pos[id] = np
						batch = append(batch, burtree.Change{ID: id, To: np})
					}
					res, err := idx.UpdateBatch(batch)
					if err != nil {
						errCh <- err
						return
					}
					sent += res.Applied
				} else if wr.Float64() < 0.8 {
					cx, cy := wr.Float64(), wr.Float64()
					if _, err := idx.Count(burtree.NewRect(cx, cy, cx+querySide, cy+querySide)); err != nil {
						errCh <- err
						return
					}
					dispatched++
				} else {
					if _, err := idx.Nearest(burtree.Point{X: wr.Float64(), Y: wr.Float64()}, 5); err != nil {
						errCh <- err
						return
					}
					dispatched++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return err
	default:
	}
	idx.SetIOLatency(0)
	if err := idx.CheckInvariants(); err != nil {
		return err
	}
	total := feeds * updatesPerFeed
	fmt.Printf("sharded GBU, %d shard(s): %6.0f updates/s (%d updates, %d feeds, %v) | shard sizes %v\n",
		shards, float64(total)/elapsed.Seconds(), total, feeds, elapsed.Round(time.Millisecond), idx.ShardLens())
	return nil
}

func run(strategy burtree.Strategy) error {
	idx, err := burtree.Open(burtree.Options{
		Strategy:        strategy,
		ExpectedObjects: vehicles,
		BufferPages:     24, // ~1% of the database, as in the paper
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(2003))

	// Vehicles start clustered around a few depots, as in a real city.
	depots := []burtree.Point{{X: 0.25, Y: 0.25}, {X: 0.75, Y: 0.3}, {X: 0.5, Y: 0.8}}
	for id := uint64(0); id < vehicles; id++ {
		d := depots[rng.Intn(len(depots))]
		p := burtree.Point{
			X: clamp01(d.X + rng.NormFloat64()*0.08),
			Y: clamp01(d.Y + rng.NormFloat64()*0.08),
		}
		if err := idx.Insert(id, p); err != nil {
			return err
		}
	}

	idx.ResetStats()
	var updateIO, queryIO int64
	var found int
	for tick := 0; tick < ticks; tick++ {
		before := idx.Stats()
		for i := 0; i < moves; i++ {
			id := uint64(rng.Intn(vehicles))
			p, _ := idx.Location(id)
			// Vehicles mostly continue in their heading: bounded random
			// drift, the locality-preserving pattern of the paper.
			ang := rng.Float64() * 2 * math.Pi
			d := rng.Float64() * maxSpeed
			np := burtree.Point{X: p.X + d*math.Cos(ang), Y: p.Y + d*math.Sin(ang)}
			if err := idx.Update(id, np); err != nil {
				return err
			}
		}
		mid := idx.Stats()
		updateIO += (mid.DiskReads + mid.DiskWrites) - (before.DiskReads + before.DiskWrites)

		for q := 0; q < dispatch; q++ {
			cx, cy := rng.Float64(), rng.Float64()
			n, err := idx.Count(burtree.NewRect(cx, cy, cx+querySide, cy+querySide))
			if err != nil {
				return err
			}
			found += n
		}
		after := idx.Stats()
		queryIO += (after.DiskReads + after.DiskWrites) - (mid.DiskReads + mid.DiskWrites)
	}

	if err := idx.CheckInvariants(); err != nil {
		return err
	}
	st := idx.Stats()
	fmt.Printf("%-22s avg update I/O %6.2f | avg dispatch-query I/O %7.2f | height %d | vehicles seen %d\n",
		strategy, float64(updateIO)/float64(ticks*moves), float64(queryIO)/float64(ticks*dispatch),
		st.Height, found)
	o := st.Outcomes
	if strategy == burtree.GeneralizedBottomUp {
		total := float64(o.Total())
		fmt.Printf("%-22s resolution: %.0f%% in-leaf, %.0f%% extended, %.0f%% shifted, %.0f%% ascended, %.0f%% top-down\n",
			"", 100*float64(o.InLeaf)/total, 100*float64(o.Extended)/total,
			100*float64(o.Shifted)/total, 100*float64(o.Ascended)/total, 100*float64(o.TopDown)/total)
	}
	return nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
