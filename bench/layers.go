package main

import (
	"errors"
	"math"
	"runtime"
	"time"

	"burtree"
	"burtree/internal/buffer"
	"burtree/internal/concurrent"
	"burtree/internal/core"
	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/stats"
)

// bare is the bottom of the ladder: the GBU updater on a page store and
// buffer pool the benchmark assembles itself, configured as the
// front-ends configure theirs (openParts in burtree.go) and bulk-loaded
// with the same data at the same fill.
type bare struct {
	io    *stats.IO
	store *pagestore.Store
	pool  *buffer.Pool
	u     core.Updater
}

func newBare(w workloadDef, in *input) (*bare, error) {
	io := &stats.IO{}
	store := pagestore.New(pageSize, io)
	pool := buffer.New(store, w.bufferFor(len(in.ids)))
	u, err := core.New(pool, core.Options{
		Strategy:        core.GBU,
		ExpectedObjects: len(in.ids),
		Tree:            rtree.Config{ReinsertFraction: 0.3},
	})
	if err != nil {
		return nil, err
	}
	items := make([]rtree.Item, len(in.ids))
	for i, id := range in.ids {
		items[i] = rtree.Item{OID: id, Rect: geom.RectFromPoint(in.initial[i])}
	}
	if err := u.Tree().BulkLoad(items, 0.66); err != nil {
		return nil, err
	}
	return &bare{io: io, store: store, pool: pool, u: u}, nil
}

// move is one change of the workload's update stream with the position
// it starts from, which the layers below the front-ends need.
type move struct {
	id       uint64
	old, new geom.Point
}

// movesOf flattens up to limit moves from the head of the clients'
// update streams, client by client (their ids are disjoint, so order
// across clients does not matter). Inserts and deletes are skipped: the
// ladder never deletes, so every move still names a live object.
func movesOf(in *input, limit int) []move {
	cur := append([]geom.Point(nil), in.initial...)
	perClient := limit / len(in.streams)
	var out []move
	for c := range in.streams {
		s := &in.streams[c]
		taken := 0
		take := func(id uint64, to geom.Point) {
			out = append(out, move{id, cur[id], to})
			cur[id] = to
			taken++
		}
		for i := range s.calls {
			if taken >= perClient {
				break
			}
			if cl := &s.calls[i]; cl.kind == opUpdate {
				if len(s.batches) == 0 {
					take(cl.id, cl.p)
					continue
				}
				for _, ch := range s.batches[cl.id] {
					take(ch.ID, ch.To)
				}
			}
		}
	}
	return out
}

// queriesOf collects up to limit windows and nearest points from the
// streams.
func queriesOf(in *input, limit int) (windows []geom.Rect, points []geom.Point) {
	for c := range in.streams {
		for _, cl := range in.streams[c].calls {
			switch {
			case cl.kind == opSearch && len(windows) < limit:
				windows = append(windows, cl.q)
			case cl.kind == opNearest && len(points) < limit:
				points = append(points, cl.p)
			}
		}
	}
	return windows, points
}

// ladderOps is how many moves each rung replays at scale 1: the head of
// the update stream, cut so that four rungs and their bulk loads fit in
// a few seconds.
const ladderOps = 40000

// ladderChunks is how many slices the ladder's moves are cut into. The
// rungs take turns slice by slice and a rung's time is its median slice,
// so a disturbance of the box hits one slice of every rung, not one
// rung.
const ladderChunks = 10

// rungNames are the stacks of the ladder, bottom first.
var rungNames = [4]string{"ladder.core", "ladder.concurrent", "ladder.frontend", "ladder.shard"}

// ladder replays the same moves single-threaded against successively
// taller stacks on identical data and returns each rung's time per
// update in µs plus the bottom stack (warm, for the micro-drivers) and
// its counter deltas over the replay. A layer's self time is its rung
// minus the rung below, so the self times telescope to the top rung.
func ladder(w workloadDef, in *input, moves []move, ln *lane) (rungs [4]float64, b *bare, d stats.Snapshot, out core.Outcomes, err error) {
	if b, err = newBare(w, in); err != nil {
		return
	}
	b2, err := newBare(w, in)
	if err != nil {
		return
	}
	db := concurrent.New(b2.u, 0)
	vol := w
	vol.durable, vol.memtable = false, false
	opts := optionsOf(vol, len(in.ids), "")
	ci, err := burtree.OpenConcurrent(opts)
	if err != nil {
		return
	}
	defer func() { err = errors.Join(err, ci.Close()) }()
	if err = ci.BulkInsert(in.ids, in.initial, burtree.PackSTR); err != nil {
		return
	}
	si, err := burtree.OpenSharded(opts, burtree.ShardOptions{Shards: 1, Partition: burtree.ShardHilbert})
	if err != nil {
		return
	}
	defer func() { err = errors.Join(err, si.Close()) }()
	if err = si.BulkInsert(in.ids, in.initial, burtree.PackSTR); err != nil {
		return
	}
	update := [4]func(m move) error{
		func(m move) error { return b.u.Update(m.id, m.old, m.new) },
		func(m move) error { return db.Update(m.id, m.old, m.new) },
		func(m move) error { return ci.Update(m.id, m.new) },
		func(m move) error { return si.Update(m.id, m.new) },
	}

	before, o0 := b.io.Snapshot(), b.u.Outcomes()
	var perChunk [4][]float64
	for c := 0; c < ladderChunks; c++ {
		part := moves[c*len(moves)/ladderChunks : (c+1)*len(moves)/ladderChunks]
		if len(part) == 0 {
			continue
		}
		for r, name := range rungNames {
			pid, pstart := ln.begin()
			t0 := time.Now()
			for _, m := range part {
				id, st := ln.begin()
				if err = update[r](m); err != nil {
					return
				}
				ln.end(id, pid, name+".update", st, -1, 1)
			}
			el := time.Since(t0)
			ln.end(pid, 0, name, pstart, -1, len(part))
			perChunk[r] = append(perChunk[r], float64(el.Nanoseconds())/1e3/float64(len(part)))
		}
	}
	for r := range rungs {
		rungs[r] = median(perChunk[r])
	}
	d = b.io.Snapshot().Sub(before)
	o1 := b.u.Outcomes()
	out = core.Outcomes{
		InLeaf: o1.InLeaf - o0.InLeaf, Extended: o1.Extended - o0.Extended, Shifted: o1.Shifted - o0.Shifted,
		Piggyback: o1.Piggyback - o0.Piggyback, Ascended: o1.Ascended - o0.Ascended, TopDown: o1.TopDown - o0.TopDown,
	}
	return
}

// counterMetrics derives the per-layer numbers that are counter deltas
// around the timed phase (source C in ISSUE 11). ph is the traced
// replay; clean is the untraced one of the same run, whose allocation
// and collector figures the tracer did not inflate.
func counterMetrics(w workloadDef, ph, clean *phase, tr *tracer, r results) {
	calls := ph.calls()
	perKind := func(k opKind) float64 { return ratio(float64(ph.pagesByKind[k]), float64(ph.samples(k))) }
	r["frontend.pages_per_update"] = perKind(opUpdate)
	r["frontend.pages_per_search"] = perKind(opSearch)
	r["frontend.pages_per_nearest"] = perKind(opNearest)
	r["frontend.insert_p50_us"] = ph.quantile(opInsert, 0.5)
	r["frontend.delete_p50_us"] = ph.quantile(opDelete, 0.5)
	applied := float64(ph.batch.Applied + ph.batch.Combined)
	r["frontend.batch_coalesced_share"] = ratio(float64(ph.batch.Coalesced), applied+float64(ph.batch.Coalesced))
	r["frontend.batch_group_resolved_share"] = ratio(float64(ph.batch.GroupResolved), applied)
	r["frontend.batch_fallback_share"] = ratio(float64(ph.batch.Fallback), applied)
	r["frontend.batch_cross_shard_share"] = ratio(float64(ph.batch.CrossShard), applied)
	ungatedOf(clean, r)

	r["persist.checkpoint_s"] = ph.checkpoint.Seconds()
	r["persist.checkpoint_stall_ms"] = float64(checkpointStall(tr, ph)) / 1e6
	r["persist.snapshot_bytes"] = float64(ph.snapBytes)

	if ph.loads1 != nil {
		var visits, sum, top float64
		for i := range ph.loads1 {
			visits += float64(ph.loads1[i].Queries - ph.loads0[i].Queries)
			c := float64(ph.loads1[i].Cost - ph.loads0[i].Cost)
			sum += c
			top = math.Max(top, c)
		}
		r["shard.shards_per_search"] = ratio(visits, float64(ph.reads))
		r["shard.load_imbalance"] = ratio(top, sum/float64(len(ph.loads1)))
	}

	updates := float64(ph.cs1.Updates - ph.cs0.Updates)
	r["concurrent.local_share"] = ratio(float64(ph.cs1.Local-ph.cs0.Local), updates)
	r["concurrent.escalated_share"] = ratio(float64(ph.cs1.Escalated-ph.cs0.Escalated), updates)
	r["concurrent.batched_share"] = ratio(float64(ph.cs1.Batched-ph.cs0.Batched), updates)
	r["concurrent.retries_per_kop"] = ratio(float64(ph.cs1.Retries-ph.cs0.Retries)*1000, calls)
	r["concurrent.timeouts"] = float64(ph.cs1.Timeouts - ph.cs0.Timeouts)

	o0, o1 := ph.st0.Outcomes, ph.st1.Outcomes
	total := float64(o1.Total() - o0.Total())
	r["core.inleaf_share"] = ratio(float64(o1.InLeaf-o0.InLeaf), total)
	r["core.extended_share"] = ratio(float64(o1.Extended-o0.Extended), total)
	r["core.shifted_share"] = ratio(float64(o1.Shifted-o0.Shifted), total)
	r["core.ascended_share"] = ratio(float64(o1.Ascended-o0.Ascended), total)
	r["core.topdown_share"] = ratio(float64(o1.TopDown-o0.TopDown), total)
	r["core.piggyback_per_shift"] = ratio(float64(o1.Piggyback-o0.Piggyback), float64(o1.Shifted-o0.Shifted))

	r["rtree.height"] = float64(ph.st1.Height)
	r["rtree.splits_per_kop"] = ratio(float64(ph.st1.Splits-ph.st0.Splits)*1000, calls)
	r["rtree.reinserts_per_kop"] = ratio(float64(ph.st1.Reinserts-ph.st0.Reinserts)*1000, calls)

	reads := float64(ph.st1.DiskReads - ph.st0.DiskReads)
	hits := float64(ph.st1.BufferHits - ph.st0.BufferHits)
	r["buffer.hit_rate"] = ratio(hits, hits+reads)
	r["pagestore.reads_per_op"] = ratio(reads, calls)
	r["pagestore.writes_per_op"] = ratio(float64(ph.st1.DiskWrites-ph.st0.DiskWrites), calls)
	r["pagestore.pages"] = float64(ph.st1.Pages)

	r["wal.bytes_per_move"] = ratio(float64(ph.walBytes), float64(ph.moves))
	r["wal.segments"] = float64(ph.walSegments)

	m0, m1 := ph.st0.Memtable, ph.st1.Memtable
	r["memtable.absorbed_share"] = ratio(float64(m1.Absorbed-m0.Absorbed), float64(ph.moves))
	r["memtable.merges"] = float64(m1.Merges - m0.Merges)
	r["memtable.merge_pages_per_merged"] = ratio(float64(m1.MergePages-m0.MergePages), float64(m1.Merged-m0.Merged))
	depth := 0.0
	for _, d := range ph.depthSamples {
		depth += float64(d)
	}
	r["memtable.entries_mean"] = ratio(depth, float64(len(ph.depthSamples)))

	r["runtime.alloc_bytes_per_op"] = float64(clean.mem1.TotalAlloc-clean.mem0.TotalAlloc) / clean.calls()
	r["runtime.gc_cycles"] = float64(clean.mem1.NumGC - clean.mem0.NumGC)
	r["runtime.gc_pause_ms"] = float64(clean.mem1.PauseTotalNs-clean.mem0.PauseTotalNs) / 1e6
	r["runtime.peak_rss_mb"] = peakRSSMB()
	r["runtime.goroutines_end"] = float64(runtime.NumGoroutine())

	r["trace.overhead_pct"] = 100 * (1 - ratio(ph.opsPerSec(), clean.opsPerSec()))
}

// checkpointStall is the longest write call of another client that
// overlapped the checkpoint, in ns: what the exclusive gate cost a
// caller who was not checkpointing.
func checkpointStall(tr *tracer, ph *phase) int64 {
	var worst int64
	if ph.ckSpan[1] == 0 {
		return 0 // no checkpoint in this workload
	}
	for _, l := range tr.lanes[1:] {
		for _, s := range l.spans {
			if s.call < 0 || s.end < ph.ckSpan[0] || s.start > ph.ckSpan[1] {
				continue
			}
			switch s.name {
			case "frontend.update", "frontend.insert", "frontend.delete":
				worst = max(worst, s.end-s.start)
			}
		}
	}
	return worst
}
