package burtree_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (README.md, "Reproducing the paper's experiments", is the
// experiment index), plus per-operation micro-benchmarks and ablation
// benches for the design choices the paper motivates.
//
// The figure benches run a whole scaled-down experiment per iteration —
// they are seconds-long by design; use -benchtime=1x. The tables they
// regenerate can be printed with `go run ./cmd/burbench`.

import (
	"fmt"
	"math/rand"
	"testing"

	"burtree"
	"burtree/internal/core"
	"burtree/internal/exp"
)

// benchExperiment reruns one full experiment per iteration, varying the
// seed so the memoizing bundle cache cannot short-circuit the work.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	s := exp.SmallScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(s, int64(1000+i))
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig5aEpsilonUpdate(b *testing.B)      { benchExperiment(b, "fig5a") }
func BenchmarkFig5bEpsilonQuery(b *testing.B)       { benchExperiment(b, "fig5b") }
func BenchmarkFig5cEpsilonUpdateCPU(b *testing.B)   { benchExperiment(b, "fig5c") }
func BenchmarkFig5dEpsilonQueryCPU(b *testing.B)    { benchExperiment(b, "fig5d") }
func BenchmarkFig5eDistanceUpdate(b *testing.B)     { benchExperiment(b, "fig5e") }
func BenchmarkFig5fDistanceQuery(b *testing.B)      { benchExperiment(b, "fig5f") }
func BenchmarkFig5gMaxDistUpdate(b *testing.B)      { benchExperiment(b, "fig5g") }
func BenchmarkFig5hMaxDistQuery(b *testing.B)       { benchExperiment(b, "fig5h") }
func BenchmarkFig6aLevelUpdate(b *testing.B)        { benchExperiment(b, "fig6a") }
func BenchmarkFig6bLevelQuery(b *testing.B)         { benchExperiment(b, "fig6b") }
func BenchmarkFig6cDistributionUpdate(b *testing.B) { benchExperiment(b, "fig6c") }
func BenchmarkFig6dDistributionQuery(b *testing.B)  { benchExperiment(b, "fig6d") }
func BenchmarkFig6eUpdateVolume(b *testing.B)       { benchExperiment(b, "fig6e") }
func BenchmarkFig6fUpdateVolumeQuery(b *testing.B)  { benchExperiment(b, "fig6f") }
func BenchmarkFig6gBufferUpdate(b *testing.B)       { benchExperiment(b, "fig6g") }
func BenchmarkFig6hBufferQuery(b *testing.B)        { benchExperiment(b, "fig6h") }
func BenchmarkFig7aScaleUpdate(b *testing.B)        { benchExperiment(b, "fig7a") }
func BenchmarkFig7bScaleQuery(b *testing.B)         { benchExperiment(b, "fig7b") }
func BenchmarkFig8Throughput(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkBatchUpdate(b *testing.B)             { benchExperiment(b, "batch") }
func BenchmarkNaiveBottomUp(b *testing.B)           { benchExperiment(b, "naive") }
func BenchmarkSummarySize(b *testing.B)             { benchExperiment(b, "table-summary-size") }
func BenchmarkCostModel(b *testing.B)               { benchExperiment(b, "cost") }

// --- Per-operation micro-benchmarks -----------------------------------

// benchIndex builds a populated index outside the timer.
func benchIndex(b *testing.B, s burtree.Strategy, n int) (*burtree.Index, *rand.Rand) {
	b.Helper()
	x, err := burtree.Open(burtree.Options{Strategy: s, ExpectedObjects: n, BufferPages: 256})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if err := x.Insert(uint64(i), burtree.Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
			b.Fatal(err)
		}
	}
	return x, rng
}

func benchUpdates(b *testing.B, s burtree.Strategy, maxDist float64) {
	const n = 20_000
	x, rng := benchIndex(b, s, n)
	x.ResetStats() // charge only the measured updates to io/op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(rng.Intn(n))
		p, _ := x.Location(id)
		np := burtree.Point{X: p.X + (rng.Float64()*2-1)*maxDist, Y: p.Y + (rng.Float64()*2-1)*maxDist}
		if err := x.Update(id, np); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := x.Stats()
	b.ReportMetric(float64(st.DiskReads+st.DiskWrites)/float64(b.N), "io/op")
}

func BenchmarkUpdateTD(b *testing.B)  { benchUpdates(b, burtree.TopDown, 0.03) }
func BenchmarkUpdateGBU(b *testing.B) { benchUpdates(b, burtree.GeneralizedBottomUp, 0.03) }

// benchUpdateBatch drives the batched pipeline with windows of the
// given size; io/op counts disk accesses per moved object.
func benchUpdateBatch(b *testing.B, s burtree.Strategy, batch int) {
	const n = 20_000
	x, rng := benchIndex(b, s, n)
	x.ResetStats()
	changes := make([]burtree.Change, batch)
	b.ReportAllocs()
	b.ResetTimer()
	moves := 0
	for i := 0; i < b.N; i++ {
		for j := range changes {
			id := uint64(rng.Intn(n))
			p, _ := x.Location(id)
			changes[j] = burtree.Change{ID: id, To: burtree.Point{
				X: p.X + (rng.Float64()*2-1)*0.03,
				Y: p.Y + (rng.Float64()*2-1)*0.03,
			}}
		}
		if _, err := x.UpdateBatch(changes); err != nil {
			b.Fatal(err)
		}
		moves += batch
	}
	b.StopTimer()
	st := x.Stats()
	b.ReportMetric(float64(st.DiskReads+st.DiskWrites)/float64(moves), "io/op")
}

func BenchmarkUpdateBatchGBU32(b *testing.B)  { benchUpdateBatch(b, burtree.GeneralizedBottomUp, 32) }
func BenchmarkUpdateBatchGBU512(b *testing.B) { benchUpdateBatch(b, burtree.GeneralizedBottomUp, 512) }

func benchQueries(b *testing.B, s burtree.Strategy) {
	const n = 20_000
	x, rng := benchIndex(b, s, n)
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		cx, cy := rng.Float64(), rng.Float64()
		side := rng.Float64() * 0.1
		got, err := x.Count(burtree.NewRect(cx, cy, cx+side, cy+side))
		if err != nil {
			b.Fatal(err)
		}
		total += got
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(total)/float64(b.N), "hits/op")
	}
}

func BenchmarkQueryTD(b *testing.B)  { benchQueries(b, burtree.TopDown) }
func BenchmarkQueryGBU(b *testing.B) { benchQueries(b, burtree.GeneralizedBottomUp) }

// BenchmarkWholeSpaceCount counts every object with a window over the
// whole space, on one stack (a ConcurrentIndex) and on a 4-shard
// ShardedIndex of 1 000 and 20 000 objects: a read that locks every one
// of a stack's 1 024 grid cells, so it measures the DGL lock cycle of a
// wide window more than the tree.
func BenchmarkWholeSpaceCount(b *testing.B) {
	all := burtree.NewRect(-1, -1, 2, 2)
	opts := burtree.Options{Strategy: burtree.GeneralizedBottomUp}
	for _, shards := range []int{1, 4} {
		for _, objects := range []int{1000, 20000} {
			b.Run(fmt.Sprintf("shards=%d/objects=%d", shards, objects), func(b *testing.B) {
				var x wholeSpaceIndex
				var err error
				if shards == 1 {
					x, err = burtree.OpenConcurrent(opts)
				} else {
					x, err = burtree.OpenSharded(opts, burtree.ShardOptions{Shards: shards})
				}
				if err != nil {
					b.Fatal(err)
				}
				defer x.Close()
				rng := rand.New(rand.NewSource(7))
				ids, pts := make([]uint64, objects), make([]burtree.Point, objects)
				for i := range ids {
					ids[i], pts[i] = uint64(i), burtree.Point{X: rng.Float64(), Y: rng.Float64()}
				}
				if err := x.BulkInsert(ids, pts, burtree.PackSTR); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if n, err := x.Count(all); err != nil || n != objects {
						b.Fatalf("Count: %d objects, %v", n, err)
					}
				}
			})
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	x, err := burtree.Open(burtree.Options{Strategy: burtree.GeneralizedBottomUp, ExpectedObjects: 1 << 20, BufferPages: 256})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Insert(uint64(i), burtree.Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (burbench -experiment ablation-*; see README.md) --

// BenchmarkAblationPiggyback isolates the effect of piggybacked sibling
// shifts on update cost.
func BenchmarkAblationPiggyback(b *testing.B) {
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := exp.RunOnce(exp.Config{
					Strategy: core.GBU, NumObjects: 5000, NumUpdates: 5000, NumQueries: 200,
					NoPiggyback: off, Seed: int64(100 + i),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.AvgUpdateIO, "updateIO")
				b.ReportMetric(m.AvgQueryIO, "queryIO")
			}
		})
	}
}

// BenchmarkAblationSummaryQueries isolates the memory-assisted query
// planning of the summary structure.
func BenchmarkAblationSummaryQueries(b *testing.B) {
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := exp.RunOnce(exp.Config{
					Strategy: core.GBU, NumObjects: 5000, NumUpdates: 5000, NumQueries: 400,
					NoSummaryQueries: off, Seed: int64(200 + i),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.AvgQueryIO, "queryIO")
			}
		})
	}
}
