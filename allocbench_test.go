package burtree_test

// Per-op allocation benchmarks for the hot update paths and the read
// paths, plus the budget gate that holds them to the thresholds committed
// in BENCH_allocs.json. Each window drives whole public calls, so it
// counts every allocation under them: a make or a closure in the code,
// and also what the runtime does on the code's behalf (map growth,
// append growth, interface boxing). Between them the windows reach
// single and batched moves under both strategies, Delete and Insert on
// every kind of index, the DGL lock cycle, splits, forced reinsertion
// and condensing, the delta tier and the reads. make allocs runs this
// gate with the per-layer zero-allocation tests (README, "Allocation
// contract").
//
// To re-baseline after an intentional change, run
//
//	go test -run TestAllocBudget -count=20 -v .
//
// and copy the reported allocs/op into BENCH_allocs.json:
// a write window at the highest of the runs, with no headroom (the paths
// are deterministic; only a window that grows the index, such as new
// pages in the shards that cross-shard moves fill, reads 1 in some
// runs), a read window at one allocation per read — its result, which
// is all a read allocates.

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"testing"

	"burtree"
)

// windowIndex is the slice of the index API the batch and churn windows
// drive; Index and ConcurrentIndex both provide it.
type windowIndex interface {
	Insert(id uint64, p burtree.Point) error
	Delete(id uint64) error
	Location(id uint64) (burtree.Point, bool)
	UpdateBatch(changes []burtree.Change) (burtree.BatchResult, error)
}

// allocBenchObjects is the population of the batch-window benchmarks.
const allocBenchObjects = 4096

// allocBenchOptions are the options the batch-window benchmarks open
// their index with.
func allocBenchOptions(s burtree.Strategy) burtree.Options {
	return burtree.Options{Strategy: s, ExpectedObjects: allocBenchObjects, BufferPages: 256}
}

// fillIndex inserts allocBenchObjects uniform objects into x, one Insert
// at a time, and returns the generator the window goes on with.
func fillIndex(b *testing.B, x windowIndex, err error) *rand.Rand {
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < allocBenchObjects; i++ {
		if err := x.Insert(uint64(i), burtree.Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
			b.Fatal(err)
		}
	}
	return rng
}

// benchAllocUpdateBatch drives steady-state batched updates against x
// once populated; allocs/op is the allocation cost of one whole batch
// window (256 moves).
func benchAllocUpdateBatch(b *testing.B, x windowIndex, err error) {
	const n = allocBenchObjects
	const batch = 256
	rng := fillIndex(b, x, err)
	changes := make([]burtree.Change, batch)
	b.ReportAllocs()
	b.ResetTimer()
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
	}
}

// benchAllocChurn drives steady-state churn against x once populated:
// each window deletes 128 objects one Delete at a time and inserts each
// again near where it was, so allocs/op is the allocation cost of 128
// Delete+Insert pairs.
func benchAllocChurn(b *testing.B, x windowIndex, err error) {
	const n = allocBenchObjects
	rng := fillIndex(b, x, err)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 128; j++ {
			id := uint64(rng.Intn(n))
			p, _ := x.Location(id)
			if err := x.Delete(id); err != nil {
				b.Fatal(err)
			}
			if err := x.Insert(id, burtree.Point{
				X: p.X + (rng.Float64()*2-1)*0.03,
				Y: p.Y + (rng.Float64()*2-1)*0.03,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkUpdateBatchAllocsGBU(b *testing.B) {
	x, err := burtree.Open(allocBenchOptions(burtree.GeneralizedBottomUp))
	benchAllocUpdateBatch(b, x, err)
}

// BenchmarkUpdateBatchAllocsTD is the same window on the zero-value
// strategy: every member of a batch goes down from the root.
func BenchmarkUpdateBatchAllocsTD(b *testing.B) {
	x, err := burtree.Open(allocBenchOptions(burtree.TopDown))
	benchAllocUpdateBatch(b, x, err)
}

// BenchmarkChurnAllocsGBU is the churn window on a plain Index: the
// stack's Delete and the tree's Insert, one call at a time.
func BenchmarkChurnAllocsGBU(b *testing.B) {
	x, err := burtree.Open(allocBenchOptions(burtree.GeneralizedBottomUp))
	benchAllocChurn(b, x, err)
}

// BenchmarkChurnAllocsConcurrent is the churn window through
// ConcurrentIndex, whose Insert and Delete take their granule locks per
// call.
func BenchmarkChurnAllocsConcurrent(b *testing.B) {
	x, err := burtree.OpenConcurrent(allocBenchOptions(burtree.GeneralizedBottomUp))
	benchAllocChurn(b, x, err)
}

// BenchmarkChurnAllocsMemtable is the churn window absorbed by the delta
// tier (its threshold never trips): the tier's Delete and Insert.
func BenchmarkChurnAllocsMemtable(b *testing.B) {
	opts := allocBenchOptions(burtree.GeneralizedBottomUp)
	opts.Memtable = burtree.Memtable{Enabled: true, MaxObjects: 1 << 20}
	x, err := burtree.Open(opts)
	benchAllocChurn(b, x, err)
}

// BenchmarkUpdateAllocsGBU is the same window of 256 moves issued one
// Update at a time: the paper's own update path (leaf lookup, leaf patch
// or shift or ascent), with no batch to amortize anything over.
func BenchmarkUpdateAllocsGBU(b *testing.B) {
	const n = allocBenchObjects
	x, err := burtree.Open(allocBenchOptions(burtree.GeneralizedBottomUp))
	rng := fillIndex(b, x, err)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			id := uint64(rng.Intn(n))
			p, _ := x.Location(id)
			if err := x.Update(id, burtree.Point{
				X: p.X + (rng.Float64()*2-1)*0.03,
				Y: p.Y + (rng.Float64()*2-1)*0.03,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkUpdateBatchAllocsConcurrentGBU is the same window through
// ConcurrentIndex: plan, leaf-scoped group locks and exclusive residue
// sections on top of the group pass — the path the sharded front-end
// and the memtable merge-down run on.
func BenchmarkUpdateBatchAllocsConcurrentGBU(b *testing.B) {
	x, err := burtree.OpenConcurrent(allocBenchOptions(burtree.GeneralizedBottomUp))
	benchAllocUpdateBatch(b, x, err)
}

// BenchmarkUpdateBatchAllocsSharded is the same window through a
// ShardedIndex over 4 Hilbert shards, with moves wide enough that about a
// tenth of them change shards: one coalesce against the one object table,
// then each shard's slice through its stack's batch pass plus the
// departures and arrivals.
func BenchmarkUpdateBatchAllocsSharded(b *testing.B) {
	const n = allocBenchObjects
	x, err := burtree.OpenSharded(allocBenchOptions(burtree.GeneralizedBottomUp),
		burtree.ShardOptions{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer x.Close()
	rng := rand.New(rand.NewSource(7))
	ids, pts := make([]uint64, n), make([]burtree.Point, n)
	for i := range ids {
		ids[i], pts[i] = uint64(i), burtree.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	if err := x.BulkInsert(ids, pts, burtree.PackSTR); err != nil {
		b.Fatal(err)
	}
	changes := make([]burtree.Change, 256)
	applied, cross := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range changes {
			id := uint64(rng.Intn(n))
			p, _ := x.Location(id)
			changes[j] = burtree.Change{ID: id, To: burtree.Point{
				X: min(max(p.X+(rng.Float64()*2-1)*0.1, 0), 1),
				Y: min(max(p.Y+(rng.Float64()*2-1)*0.1, 0), 1),
			}}
		}
		res, err := x.UpdateBatch(changes)
		if err != nil {
			b.Fatal(err)
		}
		applied, cross = applied+res.Applied, cross+res.CrossShard
	}
	b.ReportMetric(float64(cross)/float64(applied), "cross/move")
}

// BenchmarkUpdateBatchAllocsOverflow is a window of 256 moves that jump
// anywhere in the unit square: the group pass declines them, so each goes
// through the strategy's full path, and the window overflows leaves —
// forced reinsertion, then splits — and leaves nodes underfull, which
// condenses them. It reports the splits and reinserted entries per window
// so the gate shows the overflow path ran.
func BenchmarkUpdateBatchAllocsOverflow(b *testing.B) {
	const n = allocBenchObjects
	x, err := burtree.Open(allocBenchOptions(burtree.GeneralizedBottomUp))
	rng := fillIndex(b, x, err)
	changes := make([]burtree.Change, 256)
	before := x.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range changes {
			changes[j] = burtree.Change{ID: uint64(rng.Intn(n)), To: burtree.Point{X: rng.Float64(), Y: rng.Float64()}}
		}
		if _, err := x.UpdateBatch(changes); err != nil {
			b.Fatal(err)
		}
	}
	after := x.Stats()
	b.ReportMetric(float64(after.Splits-before.Splits)/float64(b.N), "splits/window")
	b.ReportMetric(float64(after.Reinserts-before.Reinserts)/float64(b.N), "reinserts/window")
}

func BenchmarkUpdateBatchAllocsMemtable(b *testing.B) {
	opts := allocBenchOptions(burtree.GeneralizedBottomUp)
	// A threshold the bench never trips: the gate measures the pure
	// absorb path, not the amortized merge-down.
	opts.Memtable = burtree.Memtable{Enabled: true, MaxObjects: 1 << 20}
	x, err := burtree.Open(opts)
	benchAllocUpdateBatch(b, x, err)
}

// memtableReadIndex is an index of allocBenchObjects objects of which the
// first buffered sit in the delta tier (its threshold never trips), each
// as a delta that leaves the object where it is: whatever the tier's
// depth, every read returns the same objects.
func memtableReadIndex(tb testing.TB, buffered int) *burtree.Index {
	opts := allocBenchOptions(burtree.GeneralizedBottomUp)
	opts.Memtable = burtree.Memtable{Enabled: true, MaxObjects: 1 << 20}
	x, ids, pts := readIndex(tb, opts)
	for i := 0; i < buffered; i++ {
		if err := x.Update(ids[i], pts[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if got := x.Stats().Memtable.Entries; got != buffered {
		tb.Fatalf("%d deltas buffered, want %d", got, buffered)
	}
	return x
}

// readIndex opens an Index under opts and bulk-loads allocBenchObjects
// uniform objects into it, returning their ids and positions too.
func readIndex(tb testing.TB, opts burtree.Options) (*burtree.Index, []uint64, []burtree.Point) {
	const n = allocBenchObjects
	x, err := burtree.Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ids, pts := make([]uint64, n), make([]burtree.Point, n)
	for i := range ids {
		ids[i], pts[i] = uint64(i), burtree.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	if err := x.BulkInsert(ids, pts, burtree.PackSTR); err != nil {
		tb.Fatal(err)
	}
	return x, ids, pts
}

// overlayReadWindow is the window the overlay read benchmarks query: it
// holds about 0.4% of the objects, so half a full tier's share of them
// still fits the read path's on-stack result buffer.
var overlayReadWindow = burtree.NewRect(0.47, 0.47, 0.53, 0.53)

// BenchmarkSearchAllocsIndex is a window of 256 Search calls on a plain
// Index: the tree scan into kept scratch and the result, copied out once.
func BenchmarkSearchAllocsIndex(b *testing.B) {
	x, _, _ := readIndex(b, allocBenchOptions(burtree.GeneralizedBottomUp))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			if _, err := x.Search(overlayReadWindow); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSearchAllocsMemtable is a window of 256 Search calls with half
// the objects buffered in the delta tier: the view, the masked tree scan
// and the result slice.
func BenchmarkSearchAllocsMemtable(b *testing.B) {
	x := memtableReadIndex(b, allocBenchObjects/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			if _, err := x.Search(overlayReadWindow); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkNearestAllocsMemtable is the same window of 256 Nearest calls,
// k = 10.
func BenchmarkNearestAllocsMemtable(b *testing.B) {
	x := memtableReadIndex(b, allocBenchObjects/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			if _, err := x.Nearest(burtree.Point{X: 0.5, Y: 0.5}, 10); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestOverlayReadAllocsIgnoreDepth pins what the view buys: a read
// allocates for what it reports, not for what the tier holds, so Search
// and Nearest cost the same allocations with 64 deltas buffered as with
// 4096.
func TestOverlayReadAllocsIgnoreDepth(t *testing.T) {
	measure := func(buffered int) (search, nearest float64) {
		x := memtableReadIndex(t, buffered)
		search = testing.AllocsPerRun(50, func() {
			if _, err := x.Search(overlayReadWindow); err != nil {
				t.Fatal(err)
			}
		})
		nearest = testing.AllocsPerRun(50, func() {
			if _, err := x.Nearest(burtree.Point{X: 0.5, Y: 0.5}, 10); err != nil {
				t.Fatal(err)
			}
		})
		return search, nearest
	}
	s64, n64 := measure(64)
	s4096, n4096 := measure(4096)
	// A read's scratch comes from free lists that drop nothing, so the
	// counts are exact, under the race detector too.
	if s64 != s4096 || n64 != n4096 {
		t.Fatalf("allocs/read with 64 deltas buffered: Search %v, Nearest %v; with 4096: Search %v, Nearest %v",
			s64, n64, s4096, n4096)
	}
	t.Logf("allocs/read: Search %v, Nearest %v with 64 deltas buffered; %v, %v with 4096", s64, n64, s4096, n4096)
}

// allocBudgetBenches maps each budget entry in BENCH_allocs.json to
// the benchmark that measures it.
var allocBudgetBenches = map[string]func(*testing.B){
	"UpdateGBU":                BenchmarkUpdateAllocsGBU,
	"UpdateBatchGBU":           BenchmarkUpdateBatchAllocsGBU,
	"UpdateBatchTD":            BenchmarkUpdateBatchAllocsTD,
	"UpdateBatchConcurrentGBU": BenchmarkUpdateBatchAllocsConcurrentGBU,
	"UpdateBatchSharded":       BenchmarkUpdateBatchAllocsSharded,
	"UpdateBatchOverflow":      BenchmarkUpdateBatchAllocsOverflow,
	"UpdateBatchMemtable":      BenchmarkUpdateBatchAllocsMemtable,
	"ChurnGBU":                 BenchmarkChurnAllocsGBU,
	"ChurnConcurrent":          BenchmarkChurnAllocsConcurrent,
	"ChurnMemtable":            BenchmarkChurnAllocsMemtable,
	"SearchIndex":              BenchmarkSearchAllocsIndex,
	"SearchMemtable":           BenchmarkSearchAllocsMemtable,
	"NearestMemtable":          BenchmarkNearestAllocsMemtable,
}

// allocBudgetFile is the committed allocation-threshold schema.
type allocBudgetFile struct {
	// Note documents the file for readers landing on the JSON.
	Note string `json:"note"`
	// Budgets maps benchmark key to the maximum allowed allocs/op.
	Budgets map[string]int64 `json:"budgets"`
	// BytesPerObject maps an objectBytesRows entry to the most live heap
	// bytes per object its index may hold (TestObjectRecordBytes).
	BytesPerObject map[string]float64 `json:"bytes_per_object"`
}

// readAllocBudgets reads the committed budgets.
func readAllocBudgets(t *testing.T) allocBudgetFile {
	t.Helper()
	data, err := os.ReadFile("BENCH_allocs.json")
	if err != nil {
		t.Fatal(err)
	}
	var f allocBudgetFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("parsing BENCH_allocs.json: %v", err)
	}
	return f
}

// TestAllocBudget fails when a window benchmark exceeds its committed
// allocs/op threshold. Run without -short: make allocs runs it, beside
// the per-layer zero-allocation tests, as CI's allocation gate.
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget gate runs full benchmarks; skipped with -short")
	}
	f := readAllocBudgets(t)
	for name := range f.Budgets {
		if _, ok := allocBudgetBenches[name]; !ok {
			t.Errorf("BENCH_allocs.json budgets %q but no benchmark measures it", name)
		}
	}
	names := make([]string, 0, len(allocBudgetBenches))
	for name := range allocBudgetBenches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		budget, ok := f.Budgets[name]
		if !ok {
			t.Errorf("%s: no budget in BENCH_allocs.json", name)
			continue
		}
		r := testing.Benchmark(allocBudgetBenches[name])
		got := r.AllocsPerOp()
		if got > budget {
			t.Errorf("%s: %d allocs/op exceeds the committed budget %d; "+
				"hoist the new per-op allocation or re-baseline BENCH_allocs.json with the regression explained",
				name, got, budget)
			continue
		}
		extra := ""
		for _, unit := range slices.Sorted(maps.Keys(r.Extra)) {
			extra += fmt.Sprintf(", %.3g %s", r.Extra[unit], unit)
		}
		t.Logf("%s: %d allocs/op (budget %d)%s", name, got, budget, extra)
	}
}

// wholeSpaceReads budgets the allocations of one read whose window covers
// the whole space, on a GBU ConcurrentIndex and on a 4-shard GBU
// ShardedIndex of 1 000, 5 000 and 20 000 objects: Search, Count and
// SearchFunc, and a Nearest of every object. The window's cell locks come
// from kept scratch, so up to 2 048 objects (the id room a read keeps
// between calls) Search allocates its result alone and the others
// nothing; a wider read regrows its id and position buffers from that
// room while it runs, and those allocations are budgeted too. So are
// Nearest's queue, which a read regrows past the 1 024 items it keeps,
// and on 4 shards the gather's sorted copy of the ids and the nearest
// merge's lists.
var wholeSpaceReads = []struct {
	shards                             int
	objects                            int
	search, count, searchFunc, nearest float64
}{
	{1, 1000, 1, 0, 0, 1},
	{1, 5000, 5, 0, 8, 1},
	{1, 20000, 10, 0, 18, 4},
	{4, 1000, 1, 0, 0, 10},
	{4, 5000, 5, 4, 6, 20},
	{4, 20000, 21, 20, 38, 30},
}

// wholeSpaceIndex is the read surface TestWholeSpaceReadAllocs drives,
// common to ConcurrentIndex and ShardedIndex. SearchFunc is left out: the
// test calls it on each front-end's own type.
type wholeSpaceIndex interface {
	BulkInsert(ids []uint64, pts []burtree.Point, method burtree.PackMethod) error
	Search(q burtree.Rect) ([]uint64, error)
	Count(q burtree.Rect) (int, error)
	Nearest(p burtree.Point, k int) ([]burtree.Neighbor, error)
	Close() error
}

// TestWholeSpaceReadAllocs holds each row of wholeSpaceReads. Run
// without -short: make allocs runs it.
func TestWholeSpaceReadAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk-loads 52 000 objects; skipped with -short")
	}
	all := burtree.NewRect(-1, -1, 2, 2)
	opts := burtree.Options{Strategy: burtree.GeneralizedBottomUp}
	for _, row := range wholeSpaceReads {
		var x wholeSpaceIndex
		var err error
		if row.shards == 1 {
			x, err = burtree.OpenConcurrent(opts)
		} else {
			x, err = burtree.OpenSharded(opts, burtree.ShardOptions{Shards: row.shards})
		}
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		ids, pts := make([]uint64, row.objects), make([]burtree.Point, row.objects)
		for i := range ids {
			ids[i], pts[i] = uint64(i), burtree.Point{X: rng.Float64(), Y: rng.Float64()}
		}
		if err := x.BulkInsert(ids, pts, burtree.PackSTR); err != nil {
			t.Fatal(err)
		}
		// The DGL lock table drops a granule's entry when its last holder
		// leaves, and its map grows over the first few dozen whole-space
		// reads until that cycle of entries fits; the table is warmed
		// first. A one-shard SearchFunc trades buffers with its scan, so
		// each read also warms up over two calls before it is counted.
		for range 40 {
			if _, err := x.Count(all); err != nil {
				t.Fatal(err)
			}
		}
		perRead := func(read func()) float64 {
			read()
			return testing.AllocsPerRun(20, read)
		}
		search := perRead(func() {
			if got, err := x.Search(all); err != nil || len(got) != row.objects {
				t.Fatalf("Search: %d objects, %v", len(got), err)
			}
		})
		count := perRead(func() {
			if n, err := x.Count(all); err != nil || n != row.objects {
				t.Fatalf("Count: %d objects, %v", n, err)
			}
		})
		// SearchFunc is called on the front-end's own type, with the
		// visit made inside the counted call: were SearchFunc to make
		// the caller's visit escape, the closure and its counter would
		// count on every read.
		searchFunc := perRead(func() {
			n := 0
			visit := func(uint64, burtree.Point) bool { n++; return true }
			var err error
			switch x := x.(type) {
			case *burtree.ConcurrentIndex:
				err = x.SearchFunc(all, visit)
			case *burtree.ShardedIndex:
				err = x.SearchFunc(all, visit)
			}
			if err != nil || n != row.objects {
				t.Fatalf("SearchFunc: %d objects, %v", n, err)
			}
		})
		nearest := perRead(func() {
			if ns, err := x.Nearest(burtree.Point{X: 0.5, Y: 0.5}, row.objects); err != nil || len(ns) != row.objects {
				t.Fatalf("Nearest: %d objects, %v", len(ns), err)
			}
		})
		t.Logf("%d shard(s), %d objects: Search %v, Count %v, SearchFunc %v, Nearest %v allocs/read",
			row.shards, row.objects, search, count, searchFunc, nearest)
		if search > row.search || count > row.count || searchFunc > row.searchFunc || nearest > row.nearest {
			t.Errorf("%d shard(s), %d objects: Search %v, Count %v, SearchFunc %v, Nearest %v allocs/read; budget %v, %v, %v, %v",
				row.shards, row.objects, search, count, searchFunc, nearest, row.search, row.count, row.searchFunc, row.nearest)
		}
		if err := x.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// objectBytesRows are the indexes TestObjectRecordBytes weighs: a GBU
// ConcurrentIndex and a 4-shard GBU ShardedIndex, each bulk-loaded with
// objectBytesObjects uniform objects under the options of the benchmark's
// paper-gbu workload (a 100-page buffer, ExpectedObjects set).
var objectBytesRows = []objectBytesRow{
	{"ConcurrentGBU", 1},
	{"Sharded4GBU", 4},
}

type objectBytesRow struct {
	name   string
	shards int
}

const objectBytesObjects = 100_000

// TestObjectRecordBytes is the memory ratchet: the live heap an index
// holds per object right after its bulk load — tree pages, buffer pool,
// summary structure and the object table together, measured as the
// growth of HeapAlloc across the open and the load, each side after two
// forced collections — may not exceed the budget committed in
// BENCH_allocs.json's bytes_per_object. A budget is the highest of 10
// runs (go test -run TestObjectRecordBytes -count=10 -v .), with no
// headroom. Run without -short: make allocs runs it.
func TestObjectRecordBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk-loads 200 000 objects; skipped with -short")
	}
	f := readAllocBudgets(t)
	for name := range f.BytesPerObject {
		if !slices.ContainsFunc(objectBytesRows, func(r objectBytesRow) bool { return r.name == name }) {
			t.Errorf("BENCH_allocs.json budgets %q bytes per object but no row measures it", name)
		}
	}
	rng := rand.New(rand.NewSource(7))
	ids, pts := make([]uint64, objectBytesObjects), make([]burtree.Point, objectBytesObjects)
	for i := range ids {
		ids[i], pts[i] = uint64(i), burtree.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	opts := burtree.Options{Strategy: burtree.GeneralizedBottomUp, BufferPages: 100, ExpectedObjects: objectBytesObjects}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, row := range objectBytesRows {
		budget, ok := f.BytesPerObject[row.name]
		if !ok {
			t.Errorf("%s: no bytes_per_object budget in BENCH_allocs.json", row.name)
			continue
		}
		before := heap()
		var x wholeSpaceIndex
		var err error
		if row.shards == 1 {
			x, err = burtree.OpenConcurrent(opts)
		} else {
			x, err = burtree.OpenSharded(opts, burtree.ShardOptions{Shards: row.shards})
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := x.BulkInsert(ids, pts, burtree.PackSTR); err != nil {
			t.Fatal(err)
		}
		// Rounded up to a tenth of a byte, the figure the budgets hold.
		per := math.Ceil(float64(heap()-before)/objectBytesObjects*10) / 10
		if err := x.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.1f live heap bytes per object (budget %.1f)", row.name, per, budget)
		if per > budget {
			t.Errorf("%s: %.1f live heap bytes per object exceeds the committed budget %.1f; "+
				"find what grew, or re-baseline BENCH_allocs.json with the growth explained", row.name, per, budget)
		}
	}
}
