package main

import (
	"fmt"
	"os"
	"path/filepath"

	"burtree"
)

// frontend is the call surface the three index types share.
type frontend interface {
	BulkInsert(ids []uint64, pts []burtree.Point, method burtree.PackMethod) error
	Insert(id uint64, p burtree.Point) error
	Update(id uint64, p burtree.Point) error
	Delete(id uint64) error
	UpdateBatch(changes []burtree.Change) (burtree.BatchResult, error)
	Search(q burtree.Rect) ([]uint64, error)
	Nearest(p burtree.Point, k int) ([]burtree.Neighbor, error)
	Location(id uint64) (burtree.Point, bool)
	Len() int
	Flush() error
	CheckInvariants() error
	Close() error
}

// target is an open index plus the parts of its surface whose shape
// differs between the three types.
type target struct {
	frontend
	stats      func() (burtree.Stats, burtree.ConcurrencyStats)
	checkpoint func() error               // nil when volatile
	loads      func() []burtree.ShardLoad // nil unless sharded
	saveFile   func(path string) error    // snapshot of the current state
	walDir     string                     // durability directory, "" when volatile
	recoverFn  func() (*target, error)    // reopen from walDir after Close
}

func optionsOf(w workloadDef, objects int, walDir string) burtree.Options {
	o := burtree.Options{
		Strategy:        burtree.GeneralizedBottomUp,
		PageSize:        pageSize,
		BufferPages:     w.bufferFor(objects),
		ExpectedObjects: objects,
	}
	if w.durable {
		// Real fsync, no simulated delay, no group window.
		o.Durability = burtree.Durability{Mode: burtree.DurabilityGroup, Dir: walDir}
	}
	if w.memtable {
		o.Memtable = burtree.Memtable{Enabled: true}
	}
	return o
}

func sumConcurrency(cs []burtree.ConcurrencyStats) burtree.ConcurrencyStats {
	var s burtree.ConcurrencyStats
	for _, c := range cs {
		s.Updates += c.Updates
		s.Queries += c.Queries
		s.Timeouts += c.Timeouts
		s.Retries += c.Retries
		s.Local += c.Local
		s.Escalated += c.Escalated
		s.Batched += c.Batched
	}
	return s
}

func wrapSharded(x *burtree.ShardedIndex, w workloadDef, objects int, walDir string) *target {
	t := &target{
		frontend: x,
		stats: func() (burtree.Stats, burtree.ConcurrencyStats) {
			st, cs := x.Stats()
			return st, sumConcurrency(cs)
		},
		loads:    x.ShardLoads,
		saveFile: x.SaveFile,
		walDir:   walDir,
	}
	if w.durable {
		t.checkpoint = x.Checkpoint
		t.recoverFn = func() (*target, error) {
			r, err := burtree.RecoverSharded(optionsOf(w, objects, walDir), shardOptions())
			if err != nil {
				return nil, err
			}
			return wrapSharded(r, w, objects, walDir), nil
		}
	}
	return t
}

func shardOptions() burtree.ShardOptions {
	return burtree.ShardOptions{Shards: numShards, Partition: burtree.ShardHilbert}
}

// open creates the workload's empty index. walDir is used only by the
// durable workloads and must not exist yet or be empty.
func open(w workloadDef, objects int, walDir string) (*target, error) {
	opts := optionsOf(w, objects, walDir)
	switch w.front {
	case frontIndex:
		x, err := burtree.Open(opts)
		if err != nil {
			return nil, err
		}
		return &target{
			frontend: x,
			stats:    func() (burtree.Stats, burtree.ConcurrencyStats) { return x.Stats(), burtree.ConcurrencyStats{} },
			saveFile: x.SaveFile,
		}, nil
	case frontConcurrent:
		x, err := burtree.OpenConcurrent(opts)
		if err != nil {
			return nil, err
		}
		return &target{frontend: x, stats: x.Stats, saveFile: x.SaveFile}, nil
	case frontSharded:
		x, err := burtree.OpenSharded(opts, shardOptions())
		if err != nil {
			return nil, err
		}
		return wrapSharded(x, w, objects, walDir), nil
	}
	return nil, fmt.Errorf("unknown front-end %d", w.front)
}

// segmentFiles sums the log segments in one log directory.
func segmentFiles(logDir string) (bytes int64, segments int, err error) {
	segs, err := filepath.Glob(filepath.Join(logDir, "wal-*.seg"))
	if err != nil {
		return 0, 0, err
	}
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			return 0, 0, err
		}
		bytes += fi.Size()
	}
	return bytes, len(segs), nil
}

// walFiles sums the log segments under a sharded durability directory.
func walFiles(dir string) (bytes int64, segments int, err error) {
	for i := 0; i < numShards; i++ {
		b, n, err := segmentFiles(shardLogDir(dir, i))
		if err != nil {
			return 0, 0, err
		}
		bytes, segments = bytes+b, segments+n
	}
	return bytes, segments, nil
}

// shardLogDir is where the sharded front-end keeps shard i's log.
func shardLogDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}
