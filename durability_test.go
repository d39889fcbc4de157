package burtree

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"burtree/internal/atomicfile"
	"burtree/internal/vfs/vfstest"
	"burtree/internal/wal"
)

// durableOpts returns small-index options logging into dir.
func durableOpts(dir string, mode DurabilityMode) Options {
	return Options{
		Strategy:        GeneralizedBottomUp,
		PageSize:        256,
		BufferPages:     8,
		ExpectedObjects: 128,
		Durability:      Durability{Mode: mode, Dir: dir},
	}
}

func objectsOf(t *testing.T, idx interface {
	SearchFunc(Rect, func(uint64, Point) bool) error
}) map[uint64]Point {
	t.Helper()
	out := make(map[uint64]Point)
	err := idx.SearchFunc(NewRect(-10, -10, 10, 10), func(id uint64, p Point) bool {
		out[id] = p
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOpenRefusesExistingDurableState(t *testing.T) {
	dir := t.TempDir()
	idx, err := Open(durableOpts(dir, DurabilityBatch))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(1, Point{X: 0.5, Y: 0.5}); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	if _, err := Open(durableOpts(dir, DurabilityBatch)); !errors.Is(err, ErrExistingState) {
		t.Fatalf("Open on used dir: got %v, want ErrExistingState", err)
	}
	if _, err := OpenConcurrent(durableOpts(dir, DurabilityBatch)); !errors.Is(err, ErrExistingState) {
		t.Fatalf("OpenConcurrent on used dir: got %v, want ErrExistingState", err)
	}
}

func TestDurabilityRequiresDir(t *testing.T) {
	_, err := Open(Options{Durability: Durability{Mode: DurabilityBatch}})
	if err == nil {
		t.Fatal("durability without Dir accepted")
	}
	if _, err := Recover(Options{}); err == nil {
		t.Fatal("Recover without durability accepted")
	}
}

func TestRecoverEmptyDirStartsFresh(t *testing.T) {
	dir := t.TempDir()
	idx, err := Recover(durableOpts(dir, DurabilityGroup))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 0 {
		t.Fatalf("fresh recovery has %d objects", idx.Len())
	}
	if err := idx.Insert(5, Point{X: 0.1, Y: 0.2}); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	rec, err := Recover(durableOpts(dir, DurabilityGroup))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if p, ok := rec.Location(5); !ok || p != (Point{X: 0.1, Y: 0.2}) {
		t.Fatalf("object 5 = %v, %v", p, ok)
	}
}

func TestDurableConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir, DurabilityGroup)
	idx, err := OpenConcurrent(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	ids := make([]uint64, n)
	pts := make([]Point, n)
	rng := rand.New(rand.NewSource(1))
	for i := range ids {
		ids[i] = uint64(i)
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	if err := idx.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	// Concurrent writers over disjoint id ranges, group-committing.
	const workers, rounds = 4, 10
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	finals := make([]map[uint64]Point, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			final := make(map[uint64]Point)
			lo := w * (n / workers)
			for r := 0; r < rounds; r++ {
				var batch []Change
				for j := 0; j < n/workers; j++ {
					id := uint64(lo + j)
					to := Point{X: rng.Float64(), Y: rng.Float64()}
					batch = append(batch, Change{ID: id, To: to})
					final[id] = to
				}
				if _, err := idx.UpdateBatch(batch); err != nil {
					errCh <- err
					return
				}
			}
			finals[w] = final
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := RecoverConcurrent(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for w, final := range finals {
		for id, want := range final {
			if got, ok := rec.Location(id); !ok || got != want {
				t.Fatalf("worker %d object %d: recovered %v,%v want %v", w, id, got, ok, want)
			}
		}
	}
}

// The memtable tier acknowledges a durable write at the log append; the
// group-commit leader syncs behind it. With the log moved onto a file
// system whose every sync is slow enough to count, n Updates on the tiered index
// return in a fraction of n sync times, while the tree path, whose ack
// waits for a sync covering its record, cannot return in less.
func TestMemtableAckSkipsSync(t *testing.T) {
	const (
		n       = 10
		devSync = 30 * time.Millisecond
	)
	run := func(mem Memtable) time.Duration {
		t.Helper()
		opts := durableOpts(t.TempDir(), DurabilityGroup)
		opts.Memtable = mem
		idx, err := OpenConcurrent(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < n; i++ {
			if err := idx.Insert(i, Point{X: float64(i) / n, Y: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		onFS(t, idx.index, vfstest.SlowSync(devSync))
		before := idx.lsn.Load()
		start := time.Now()
		for i := uint64(0); i < n; i++ {
			if err := idx.Update(i, Point{X: float64(i) / n, Y: 0.25}); err != nil {
				t.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		// Every ack is in the slow log all the same: Close flushes hard.
		if err := idx.Close(); err != nil {
			t.Fatal(err)
		}
		if recs, _, err := wal.ReadDir(logDir(opts.Durability.Dir, 0), before); err != nil || len(recs) != n {
			t.Fatalf("slow log holds %d records (err %v), want %d", len(recs), err, n)
		}
		return elapsed
	}
	tiered, tree := run(Memtable{Enabled: true}), run(Memtable{})
	t.Logf("%d updates, %v per sync: memtable %v, tree path %v", n, devSync, tiered, tree)
	if tiered > n*devSync/4 {
		t.Fatalf("memtable: %d updates took %v, want under %v (a quarter of %d syncs): acks are waiting out syncs",
			n, tiered, n*devSync/4, n)
	}
	if tree < n*devSync {
		t.Fatalf("tree path: %d updates took %v, under %d syncs (%v): an ack returned before its sync",
			n, tree, n, n*devSync)
	}
}

func TestRecoverShardedRefusesOrphanShardLogs(t *testing.T) {
	// A crashed 4-shard instance with no checkpoint must not be
	// recovered as 2 shards: the acked writes in shard-002/003's logs
	// would silently vanish.
	dir := t.TempDir()
	opts := durableOpts(dir, DurabilityBatch)
	x, err := OpenSharded(opts, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Plain inserts only — no BulkInsert, so no snapshot exists.
	for i := uint64(0); i < 16; i++ {
		if err := x.Insert(i, Point{X: float64(i%4)/4 + 0.1, Y: float64(i/4)/4 + 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverSharded(opts, ShardOptions{Shards: 2}); !errors.Is(err, ErrRecovery) {
		t.Fatalf("recovery with fewer shards than the logs: got %v, want ErrRecovery", err)
	}
	// With the original shard count it recovers fine.
	rec, err := RecoverSharded(opts, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 16 {
		t.Fatalf("recovered %d objects, want 16", rec.Len())
	}
}

func TestRecoverRefusesWrongFrontEnd(t *testing.T) {
	// A two-shard durability dir recovered through the one-stack entry
	// points would silently drop the second shard's log tail, so that must
	// fail typed. The other direction is no wrong front-end: every index
	// keeps the same layout, and RecoverSharded replays a one-stack
	// directory's log onto as many shards as it is asked for.
	shardedDir := t.TempDir()
	sopts := ShardOptions{Shards: 2}
	x, err := OpenSharded(durableOpts(shardedDir, DurabilityBatch), sopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(1, Point{X: 0.2, Y: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(durableOpts(shardedDir, DurabilityBatch)); !errors.Is(err, ErrRecovery) {
		t.Fatalf("Recover on sharded dir: got %v, want ErrRecovery", err)
	}
	if _, err := RecoverConcurrent(durableOpts(shardedDir, DurabilityBatch)); !errors.Is(err, ErrRecovery) {
		t.Fatalf("RecoverConcurrent on sharded dir: got %v, want ErrRecovery", err)
	}
	// Open must refuse the used dir too (shard segments count as state).
	if _, err := Open(durableOpts(shardedDir, DurabilityBatch)); !errors.Is(err, ErrExistingState) {
		t.Fatalf("Open on sharded dir: got %v, want ErrExistingState", err)
	}

	singleDir := t.TempDir()
	idx, err := Open(durableOpts(singleDir, DurabilityBatch))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(1, Point{X: 0.2, Y: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverSharded(durableOpts(singleDir, DurabilityBatch), sopts)
	if err != nil {
		t.Fatalf("RecoverSharded on a one-stack dir: %v", err)
	}
	defer rec.Close()
	if rec.NumShards() != 2 {
		t.Fatalf("recovered %d shards, want the 2 asked for", rec.NumShards())
	}
	expectState(t, rec, map[uint64]Point{1: {X: 0.2, Y: 0.2}})
}

func TestSnapshotSurvivesFailedSave(t *testing.T) {
	// atomicfile.Write, under SaveFile and Checkpoint, must leave the previous snapshot intact when the save
	// callback fails, and leave no temp litter behind.
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write([]byte("good snapshot"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	failed := errors.New("mid-save failure")
	err := atomicfile.Write(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("failed save returned %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "good snapshot" {
		t.Fatalf("previous snapshot damaged: %q, %v", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("temp litter after failed save: %v", names)
	}
}

func TestSaveFileAtomicOverIndex(t *testing.T) {
	// End-to-end: SaveFile over an existing snapshot keeps the old one
	// loadable if the new save fails, and replaces it atomically
	// otherwise.
	dir := t.TempDir()
	path := filepath.Join(dir, "index.bur")
	idx, err := Open(Options{Strategy: GeneralizedBottomUp, ExpectedObjects: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := idx.Insert(i, Point{X: float64(i) / 10, Y: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(99, Point{X: 0.9, Y: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 11 {
		t.Fatalf("reloaded %d objects, want 11", loaded.Len())
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("unexpected files next to snapshot: %d", len(entries))
	}
}
