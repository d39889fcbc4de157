// Command burload generates, inspects and replays GSTD-style workload
// traces (paper §5): an initial distribution of moving point objects,
// a bounded-movement update stream, and a uniform window-query stream.
//
// Usage:
//
//	burload -gen -objects 100000 -updates 200000 -queries 1000 \
//	        -dist gaussian -maxdist 0.03 -seed 7 -out trace.gob
//	burload -info -in trace.gob
//	burload -replay -in trace.gob -strategy GBU
//
// Replay builds the index from the trace's initial positions, applies
// the update stream, then the query stream, and reports the same
// "Avg Disk I/O" metrics the paper's figures use — on a byte-identical
// workload for every strategy.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"burtree/internal/buffer"
	"burtree/internal/core"
	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/stats"
	"burtree/internal/workload"
)

func main() {
	var (
		gen     = flag.Bool("gen", false, "generate a trace")
		info    = flag.Bool("info", false, "describe a trace")
		replay  = flag.Bool("replay", false, "replay a trace against a strategy")
		objects = flag.Int("objects", 100_000, "number of objects")
		updates = flag.Int("updates", 200_000, "number of updates")
		queries = flag.Int("queries", 1_000, "number of queries")
		dist    = flag.String("dist", "uniform", "initial distribution: uniform|gaussian|skewed")
		maxDist = flag.Float64("maxdist", 0.03, "maximum distance moved per update")
		seed    = flag.Int64("seed", 1, "random seed")
		in      = flag.String("in", "", "input trace file")
		out     = flag.String("out", "trace.gob", "output trace file")
		strat   = flag.String("strategy", "GBU", "replay strategy: TD|LBU|GBU|NAIVE")
		bufFrac = flag.Float64("buffer", 0.01, "buffer pool fraction of database size")
	)
	flag.Parse()

	switch {
	case *gen:
		d, err := workload.ParseDistribution(*dist)
		if err != nil {
			fatal(err)
		}
		spec := workload.Spec{
			NumObjects:   *objects,
			Distribution: d,
			MaxDistance:  *maxDist,
			Seed:         *seed,
		}
		fmt.Fprintf(os.Stderr, "generating %d objects, %d updates, %d queries (%s)...\n",
			*objects, *updates, *queries, d)
		tr := workload.BuildTrace(spec, *updates, *queries)
		if err := tr.WriteFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)

	case *info:
		tr := mustRead(*in)
		fmt.Printf("spec: %+v\n", tr.Spec)
		fmt.Printf("initial positions: %d\n", len(tr.Initial))
		fmt.Printf("updates:           %d\n", len(tr.Updates))
		fmt.Printf("queries:           %d\n", len(tr.Queries))
		if len(tr.Updates) > 0 {
			var total float64
			for _, u := range tr.Updates {
				total += geom.Dist(u.Old, u.New)
			}
			fmt.Printf("mean move dist:    %.5f\n", total/float64(len(tr.Updates)))
		}

	case *replay:
		tr := mustRead(*in)
		kind, err := core.ParseKind(*strat)
		if err != nil {
			fatal(err)
		}
		if err := replayTrace(tr, kind, *bufFrac); err != nil {
			fatal(err)
		}

	default:
		fmt.Fprintln(os.Stderr, "burload: one of -gen, -info, -replay required")
		os.Exit(2)
	}
}

func mustRead(path string) *workload.Trace {
	if path == "" {
		fatal(fmt.Errorf("-in required"))
	}
	tr, err := workload.ReadTraceFile(path)
	if err != nil {
		fatal(err)
	}
	return tr
}

func replayTrace(tr *workload.Trace, kind core.Kind, bufFrac float64) error {
	io := &stats.IO{}
	store := pagestore.New(pagestore.DefaultPageSize, io)
	fanout := rtree.MaxEntriesFor(pagestore.DefaultPageSize, kind == core.LBU, 0)
	estPages := float64(len(tr.Initial)) / (float64(fanout) * 0.66) * 1.1 // leaves, and a tenth for the levels above
	pool := buffer.New(store, int(bufFrac*estPages))
	u, err := core.New(pool, core.Options{
		Strategy:        kind,
		ExpectedObjects: len(tr.Initial),
		Tree:            rtree.Config{ReinsertFraction: 0.3},
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "building %s index from %d objects...\n", kind, len(tr.Initial))
	start := time.Now()
	for i, p := range tr.Initial {
		if err := u.Insert(rtree.OID(i), p); err != nil {
			return err
		}
	}
	if err := u.Tree().Flush(); err != nil {
		return err
	}
	buildSnap := io.Snapshot()
	fmt.Fprintf(os.Stderr, "  built in %v (height %d)\n", time.Since(start).Round(time.Millisecond), u.Tree().Height())

	start = time.Now()
	for i, up := range tr.Updates {
		if err := u.Update(up.OID, up.Old, up.New); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
	}
	if err := u.Tree().Flush(); err != nil {
		return err
	}
	updWall := time.Since(start)
	updSnap := io.Snapshot()

	start = time.Now()
	hits := int64(0)
	for _, q := range tr.Queries {
		if err := u.Search(q, func(rtree.OID, geom.Rect) bool { hits++; return true }); err != nil {
			return err
		}
	}
	qryWall := time.Since(start)
	qrySnap := io.Snapshot()

	upd := updSnap.Sub(buildSnap)
	qry := qrySnap.Sub(updSnap)
	fmt.Printf("strategy           %s\n", kind)
	fmt.Printf("tree height        %d\n", u.Tree().Height())
	fmt.Printf("database pages     %d\n", store.NumPages())
	if n := len(tr.Updates); n > 0 {
		fmt.Printf("avg update I/O     %.3f (CPU %.2fs)\n", float64(upd.Total())/float64(n), updWall.Seconds())
	}
	if n := len(tr.Queries); n > 0 {
		fmt.Printf("avg query I/O      %.3f (CPU %.2fs, %d hits)\n", float64(qry.Total())/float64(n), qryWall.Seconds(), hits)
	}
	fmt.Printf("update outcomes    %+v\n", u.Outcomes())
	if err := u.Err(); err != nil {
		return err
	}
	return u.Tree().CheckInvariants()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "burload:", err)
	os.Exit(1)
}
