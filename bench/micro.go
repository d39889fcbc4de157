package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"burtree"
	"burtree/internal/buffer"
	"burtree/internal/core"
	"burtree/internal/dgl"
	"burtree/internal/geom"
	"burtree/internal/hashindex"
	"burtree/internal/hilbert"
	"burtree/internal/memtable"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/shard"
	"burtree/internal/stats"
	"burtree/internal/summary"
	"burtree/internal/wal"
)

// micro runs the micro-drivers (source M in ISSUE 11): a layer's
// exported functions called directly with the workload's own ids,
// points, windows, batches and log records, on a pool of the workload's
// capacity. Each driver is sized to tens of milliseconds; the numbers
// are unit costs to set beside the counts, not benchmarks of their own.
type micro struct {
	ln    *lane
	r     results
	scale float64
}

// reps scales a driver's iteration count with the run, so the smoke
// test stays short; a span's worth is the floor.
func (m *micro) reps(n int) int { return max(int(float64(n)*m.scale), chunk) }

// chunk is how many calls one micro-driver span covers.
const chunk = 256

// loop calls fn(i) for i in [0, n), recording one span per chunk, and
// returns the mean time of a call in ns.
func (m *micro) loop(name string, n int, fn func(i int) error) (float64, error) {
	if n == 0 {
		return 0, nil
	}
	t0 := time.Now()
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		id, st := m.ln.begin()
		for i := lo; i < hi; i++ {
			if err := fn(i); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		m.ln.end(id, 0, name, st, -1, hi-lo)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}

// set times a driver and stores the result under name, scaled by div
// (1 for ns, 1e3 for µs).
func (m *micro) set(name string, div float64, n int, fn func(i int) error) error {
	ns, err := m.loop(name, n, fn)
	m.r[name] = ns / div
	return err
}

// pair runs fn on two goroutines at once under one span and returns how
// long both took: the contended drivers (a lock handed back and forth, a
// group commit shared by two committers).
func (m *micro) pair(name string, calls int, fn func() error) (time.Duration, error) {
	id, st := m.ln.begin()
	t0 := time.Now()
	var other error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		other = fn()
	}()
	err := fn()
	wg.Wait()
	el := time.Since(t0)
	m.ln.end(id, 0, name, st, -1, 2*calls)
	return el, errors.Join(err, other)
}

// calib times a fixed loop of hilbert.D, to tell a slow box from a slow
// commit.
func calib() float64 {
	const n = 1 << 20
	var sink uint64
	t0 := time.Now()
	for i := uint32(0); i < n; i++ {
		sink += hilbert.D(i&1023, (i>>10)&1023, 10)
	}
	el := time.Since(t0)
	runtime.KeepAlive(sink)
	return float64(el.Nanoseconds()) / n
}

// storageDrivers times the page store and the buffer pool on a pool of
// the workload's capacity.
func (m *micro) storageDrivers(capacity int) error {
	io := &stats.IO{}
	store := pagestore.New(pageSize, io)
	// One more than the pool holds, plus slack: cycling over them in
	// order makes every LRU access a miss.
	pages := make([]pagestore.PageID, capacity+1024)
	for i := range pages {
		pages[i] = store.Alloc()
	}
	buf := make([]byte, pageSize)
	n := m.reps(100_000)
	if err := m.set("pagestore.read_ns", 1, n, func(i int) error { return store.ReadInto(pages[i%len(pages)], buf) }); err != nil {
		return err
	}
	if err := m.set("pagestore.write_ns", 1, n, func(i int) error { return store.Write(pages[i%len(pages)], buf) }); err != nil {
		return err
	}
	pool := buffer.New(store, capacity)
	if err := m.set("buffer.read_miss_ns", 1, n, func(i int) error { return pool.ReadPage(pages[i%len(pages)], buf) }); err != nil {
		return err
	}
	hot := pages[:capacity]
	for _, p := range hot {
		if err := pool.ReadPage(p, buf); err != nil {
			return err
		}
	}
	if err := m.set("buffer.read_hit_ns", 1, n, func(i int) error { return pool.ReadPage(hot[i%len(hot)], buf) }); err != nil {
		return err
	}
	if err := m.set("buffer.write_ns", 1, n, func(i int) error { return pool.WritePage(hot[i%len(hot)], buf) }); err != nil {
		return err
	}
	return m.set("buffer.flush_ms", 1e6, 1, func(int) error { return pool.Flush() })
}

// treeDrivers times the R-tree, the summary structure and the core
// strategy on the ladder's bottom stack, warm from the replay.
func (m *micro) treeDrivers(b *bare, moves []move, windows []geom.Rect, points []geom.Point) error {
	tree := b.u.Tree()
	ga, ok := b.u.(core.GroupApplier)
	if !ok {
		return errors.New("GBU updater lost its GroupApplier surface")
	}
	// A handful of leaves, read once so they are resident: what is timed
	// is decode and encode on top of a buffer hit.
	var leaves []rtree.PageID
	var nodes []*rtree.Node
	for _, mv := range moves[:min(len(moves), 32)] {
		leaf, err := ga.LeafOf(mv.id)
		if err != nil {
			return err
		}
		n, err := tree.ReadNode(leaf)
		if err != nil {
			return err
		}
		leaves, nodes = append(leaves, leaf), append(nodes, n)
	}
	n := m.reps(50_000)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := m.set("rtree.readnode_ns", 1, n, func(i int) error { _, err := tree.ReadNode(leaves[i%len(leaves)]); return err }); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	m.r["rtree.readnode_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	if err := m.set("rtree.writenode_ns", 1, n, func(i int) error { return tree.WriteNode(nodes[i%len(nodes)]) }); err != nil {
		return err
	}

	visit := func(rtree.OID, geom.Rect) bool { return true }
	before := b.io.Snapshot()
	if err := m.set("rtree.search_us", 1e3, len(windows), func(i int) error { return tree.Search(windows[i], visit) }); err != nil {
		return err
	}
	d := b.io.Snapshot().Sub(before)
	m.r["rtree.nodes_per_search"] = ratio(float64(d.Reads+d.BufferHits), float64(len(windows)))
	if err := m.set("rtree.nearest_us", 1e3, len(points), func(i int) error { _, err := tree.NearestK(points[i], nearestK); return err }); err != nil {
		return err
	}
	if err := m.set("core.search_us", 1e3, len(windows), func(i int) error { return b.u.Search(windows[i], visit) }); err != nil {
		return err
	}
	if err := m.set("core.nearest_us", 1e3, len(points), func(i int) error { _, err := b.u.Nearest(points[i], nearestK); return err }); err != nil {
		return err
	}

	ts, err := tree.ComputeStats()
	if err != nil {
		return err
	}
	for _, l := range ts.Levels {
		if l.Level == 0 {
			m.r["rtree.leaf_fill"] = l.AvgFill
		}
	}

	sum, ok := b.u.(interface{ Summary() *summary.Structure })
	if !ok {
		return errors.New("GBU updater lost its Summary accessor")
	}
	s := sum.Summary()
	m.r["summary.size_bytes"] = float64(s.SizeBytes())
	probe := moves[:min(len(moves), 4096)]
	at := make([]rtree.PageID, len(probe))
	for i, mv := range probe {
		if at[i], err = ga.LeafOf(mv.id); err != nil {
			return err
		}
	}
	return m.set("summary.findparent_ns", 1, m.reps(80_000), func(i int) error {
		_, err := s.FindParent(at[i%len(at)], probe[i%len(probe)].new, tree.Height()-1)
		return err
	})
}

// batchDrivers times the batch pipeline below the front-ends — coalesce,
// order for grouping, ApplyBatch — over batches of the workload's size
// cut from the moves that follow the ladder's, applied to the bottom
// stack so every Old is where the tree has the object.
func (m *micro) batchDrivers(w workloadDef, b *bare, moves []move) error {
	size := w.batchSize()
	var batches [][]core.BatchChange
	for lo := 0; lo+size <= len(moves); lo += size {
		bc := make([]core.BatchChange, size)
		for i, mv := range moves[lo : lo+size] {
			bc[i] = core.BatchChange{OID: mv.id, Old: mv.old, New: mv.new}
		}
		batches = append(batches, bc)
	}
	if len(batches) == 0 {
		return nil
	}
	changes := float64(len(batches) * size)
	coalesced := make([][]core.BatchChange, len(batches))
	ns, err := m.loop("core.coalesce_ns_per_change", len(batches), func(i int) error {
		coalesced[i], _ = core.Coalesce(batches[i])
		return nil
	})
	if err != nil {
		return err
	}
	m.r["core.coalesce_ns_per_change"] = ns * float64(len(batches)) / changes
	ordered := make([][]core.BatchChange, len(batches))
	if ns, err = m.loop("core.order_ns_per_change", len(batches), func(i int) error {
		ordered[i] = core.OrderForGrouping(b.u, coalesced[i])
		return nil
	}); err != nil {
		return err
	}
	m.r["core.order_ns_per_change"] = ns * float64(len(batches)) / changes

	applied := 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ns, err = m.loop("core.applybatch_us_per_move", len(batches), func(i int) error {
		st, err := core.ApplyBatch(b.u, ordered[i], nil)
		applied += st.Changes
		return err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	m.r["core.applybatch_us_per_move"] = ratio(ns*float64(len(batches))/1e3, float64(applied))
	m.r["core.applybatch_allocs_per_move"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(applied))
	return nil
}

// hashDrivers times the secondary object-id index over the stream's ids,
// on its own pool so its page reads are counted apart from the tree's.
func (m *micro) hashDrivers(w workloadDef, in *input, moves []move) error {
	io := &stats.IO{}
	store := pagestore.New(pageSize, io)
	pool := buffer.New(store, w.bufferFor(len(in.ids)))
	leaf := store.Alloc() // any valid page id serves as the value
	h := hashindex.New(pool, len(in.ids))
	for _, id := range in.ids {
		if err := h.Set(id, leaf); err != nil {
			return err
		}
	}
	n := min(len(moves), 50_000)
	before := io.Snapshot()
	if err := m.set("hashindex.lookup_ns", 1, n, func(i int) error { _, err := h.Lookup(moves[i].id); return err }); err != nil {
		return err
	}
	d := io.Snapshot().Sub(before)
	m.r["hashindex.pages_per_lookup"] = ratio(float64(d.Reads+d.BufferHits), float64(n))
	if err := m.set("hashindex.set_ns", 1, n, func(i int) error { return h.Set(moves[i].id, leaf) }); err != nil {
		return err
	}
	hs, err := h.ComputeStats()
	if err != nil {
		return err
	}
	if hs.AvgChainPages > 0 {
		m.r["hashindex.overflow_pages"] = float64(hs.Pages) - math.Round(float64(hs.Pages)/hs.AvgChainPages)
	}
	return nil
}

// lockDrivers times the DGL lock table: the cost concurrent.DB pays per
// update before it touches the tree.
func (m *micro) lockDrivers() error {
	lm := dgl.NewManager()
	n := m.reps(100_000)
	if err := m.set("dgl.acquire_release_ns", 1, n, func(i int) error {
		txn := lm.Begin()
		err := lm.Acquire(txn, dgl.GranuleID(1+i%64), dgl.X, time.Second)
		lm.ReleaseAll(txn)
		return err
	}); err != nil {
		return err
	}
	// The local-update scope: the movement cell, the leaf and its parent.
	if err := m.set("dgl.scope3_ns", 1, n, func(i int) error {
		txn := lm.Begin()
		defer lm.ReleaseAll(txn)
		g := dgl.GranuleID(1 + i%64)
		for _, id := range [3]dgl.GranuleID{g, 1<<32 + g, 1<<32 + 1000 + g} {
			if err := lm.Acquire(txn, id, dgl.X, time.Second); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Two goroutines taking X on one granule in turn: each acquisition
	// waits for the other's release.
	rounds := m.reps(20_000)
	contend := func() error {
		for i := 0; i < rounds; i++ {
			txn := lm.Begin()
			err := lm.Acquire(txn, 7, dgl.X, 10*time.Second)
			lm.ReleaseAll(txn)
			if err != nil {
				return err
			}
		}
		return nil
	}
	el, err := m.pair("dgl.handoff_us", rounds, contend)
	m.r["dgl.handoff_us"] = float64(el.Microseconds()) / float64(2*rounds)
	return err
}

// shardDrivers times the router and the load tracker the sharded
// front-end consults on every call.
func (m *micro) shardDrivers(w workloadDef, in *input, moves []move, windows []geom.Rect) error {
	router, err := shard.NewHilbertBalanced(numShards, in.initial)
	if err != nil {
		return err
	}
	sink := 0
	n := m.reps(200_000)
	if err := m.set("shard.shardof_ns", 1, n, func(i int) error { sink += router.ShardOf(moves[i%len(moves)].new); return nil }); err != nil {
		return err
	}
	if err := m.set("shard.shardsfor_ns", 1, n/4, func(i int) error { sink += len(router.ShardsFor(windows[i%len(windows)])); return nil }); err != nil {
		return err
	}
	runtime.KeepAlive(sink)
	// One batch's per-cell op counts, as ShardedIndex.UpdateBatch builds
	// them before charging the shard.
	size := max(w.batch, 1)
	perCell := map[uint64]int{}
	for _, mv := range moves[:min(size, len(moves))] {
		perCell[shard.CellKey(mv.new)]++
	}
	cells := make([]shard.CellCount, 0, len(perCell))
	for c, k := range perCell {
		cells = append(cells, shard.CellCount{Cell: c, N: k})
	}
	lt := shard.NewLoadTracker(numShards)
	return m.set("shard.record_batch_ns", 1, n/4, func(i int) error { lt.RecordBatch(i%numShards, 8, cells); return nil })
}

// recordsOf turns the head of the update stream into log records of the
// size the workload appends.
func recordsOf(w workloadDef, moves []move, limit int) [][]wal.Op {
	size := max(w.batch, 1)
	var out [][]wal.Op
	for lo := 0; lo+size <= len(moves) && len(out) < limit; lo += size {
		ops := make([]wal.Op, size)
		for i, mv := range moves[lo : lo+size] {
			ops[i] = wal.Op{ID: mv.id, X: mv.new.X, Y: mv.new.Y}
		}
		out = append(out, ops)
	}
	return out
}

// walDrivers times the write-ahead log with the workload's own records,
// on the file system the run logs to.
func (m *micro) walDrivers(w workloadDef, moves []move, dir string) error {
	recs := recordsOf(w, moves, 4096)
	if len(recs) == 0 {
		return nil
	}
	withLog := func(name string, policy wal.SyncPolicy, fn func(l *wal.Log) error) error {
		l, err := wal.Open(filepath.Join(dir, name), wal.Options{Sync: policy})
		if err != nil {
			return err
		}
		return errors.Join(fn(l), l.Close())
	}
	if err := withLog("async", wal.SyncGroup, func(l *wal.Log) error {
		return m.set("wal.append_async_ns", 1, len(recs), func(i int) error { _, err := l.AppendAsync(wal.TypeBatch, recs[i]); return err })
	}); err != nil {
		return err
	}
	bytes, _, err := segmentFiles(filepath.Join(dir, "async"))
	if err != nil {
		return err
	}
	id, st := m.ln.begin()
	t0 := time.Now()
	if _, _, err := wal.ReadDir(filepath.Join(dir, "async"), 0); err != nil {
		return err
	}
	m.r["wal.readdir_mb_s"] = float64(bytes) / (1 << 20) / time.Since(t0).Seconds()
	m.ln.end(id, 0, "wal.readdir_mb_s", st, -1, 1)

	syncs := m.reps(200) / 2 // the floor is a span's worth, halved: each is an fsync
	if err := withLog("each", wal.SyncEach, func(l *wal.Log) error {
		return m.set("wal.append_each_us", 1e3, syncs, func(i int) error { _, err := l.Append(wal.TypeBatch, recs[i%len(recs)]); return err })
	}); err != nil {
		return err
	}
	if err := withLog("group", wal.SyncGroup, func(l *wal.Log) error {
		appendAll := func() error {
			for i := 0; i < syncs; i++ {
				if _, err := l.Append(wal.TypeBatch, recs[i%len(recs)]); err != nil {
					return err
				}
			}
			return nil
		}
		el, err := m.pair("wal.append_group_us", syncs, appendAll)
		// Each of the two committers waited this long per Append.
		m.r["wal.append_group_us"] = float64(el.Microseconds()) / float64(syncs)
		return err
	}); err != nil {
		return err
	}
	return withLog("sync", wal.SyncGroup, func(l *wal.Log) error {
		return m.set("wal.sync_us", 1e3, syncs, func(i int) error {
			if _, err := l.AppendAsync(wal.TypeBatch, recs[i%len(recs)]); err != nil {
				return err
			}
			return l.Sync()
		})
	})
}

// memtableDrivers times the delta tier at the depth the run held it,
// per shard.
func (m *micro) memtableDrivers(moves []move, meanDepth float64) error {
	depth := max(int(meanDepth/numShards), 16)
	tbl := memtable.New(memtable.Config{MaxObjects: depth})
	fill := func(lo int) {
		for _, mv := range moves[lo:min(lo+depth, len(moves))] {
			tbl.Update(mv.id, mv.new, mv.old)
		}
	}
	// Absorb in generations of the run's depth, draining between them;
	// the drain here is the table's own bookkeeping, without the tree
	// apply the front-end does between BeginDrain and EndDrain.
	var absorb, drain time.Duration
	absorbed, drained := 0, 0
	for lo := 0; lo+depth <= len(moves) && lo < 64*depth; lo += depth {
		id, st := m.ln.begin()
		t0 := time.Now()
		fill(lo)
		absorb += time.Since(t0)
		m.ln.end(id, 0, "memtable.update_ns", st, -1, depth)
		absorbed += depth
		id, st = m.ln.begin()
		t0 = time.Now()
		entries := tbl.BeginDrain()
		tbl.EndDrain()
		drain += time.Since(t0)
		m.ln.end(id, 0, "memtable.drain_us_per_entry", st, -1, len(entries))
		drained += len(entries)
	}
	m.r["memtable.update_ns"] = ratio(float64(absorb.Nanoseconds()), float64(absorbed))
	m.r["memtable.drain_us_per_entry"] = ratio(float64(drain.Microseconds()), float64(drained))
	fill(0)
	if err := m.set("memtable.get_ns", 1, m.reps(100_000), func(i int) error { tbl.Get(moves[i%len(moves)].id); return nil }); err != nil {
		return err
	}
	return m.set("memtable.snapshot_us", 1e3, m.reps(2000), func(int) error { tbl.Snapshot(); return nil })
}

// persistDrivers times a snapshot of the run's final state and loading
// it back.
func (m *micro) persistDrivers(t *target, dir string) error {
	path := filepath.Join(dir, "final.burtree")
	id, st := m.ln.begin()
	t0 := time.Now()
	if err := t.saveFile(path); err != nil {
		return err
	}
	el := time.Since(t0)
	m.ln.end(id, 0, "persist.save_mb_s", st, -1, 1)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.r["persist.save_mb_s"] = float64(fi.Size()) / (1 << 20) / el.Seconds()
	return m.set("persist.load_s", 1e9, 1, func(int) error {
		x, err := burtree.LoadShardedFile(path)
		if err != nil {
			return err
		}
		return x.Close()
	})
}

// logMoves counts the moves in the log tails recovery will replay.
func logMoves(walDir string) (int, error) {
	n := 0
	for i := 0; i < numShards; i++ {
		recs, _, err := wal.ReadDir(shardLogDir(walDir, i), 0)
		if err != nil {
			return 0, err
		}
		for _, r := range recs {
			n += len(r.Ops)
		}
	}
	return n, nil
}

// modelCoverage is how much of the measured core update the unit costs
// explain: Σ(unit cost × count per update) over pagestore, buffer,
// rtree, hashindex and summary ÷ core.update_us. Counts come from the
// bottom rung's counters; writes into the pool are not counted by the
// library, so they are estimated from the outcome mix (one leaf write
// per update, a parent write on an extension, three pages on a shift or
// ascent, four on a top-down pass).
func modelCoverage(r results, d stats.Snapshot, out core.Outcomes, updates int) float64 {
	n := float64(updates)
	tot := float64(out.Total())
	share := func(v int64) float64 { return ratio(float64(v), tot) }
	poolReads := float64(d.Reads+d.BufferHits) / n
	poolWrites := 1 + share(out.Extended) + 3*share(out.Shifted) + 3*share(out.Ascended) + 4*share(out.TopDown)
	ns := r["hashindex.lookup_ns"] +
		math.Max(0, poolReads-r["hashindex.pages_per_lookup"])*r["rtree.readnode_ns"] +
		float64(d.Reads)/n*math.Max(0, r["buffer.read_miss_ns"]-r["buffer.read_hit_ns"]) +
		poolWrites*r["rtree.writenode_ns"] +
		float64(d.Writes)/n*r["pagestore.write_ns"] +
		(1-share(out.InLeaf))*r["summary.findparent_ns"]
	return ratio(ns/1e3, r["core.update_us"])
}
