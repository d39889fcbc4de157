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
// Replay runs the trace through the experiment harness's cell
// (internal/exp): it builds the index from the trace's initial
// positions, applies the update stream, then the query stream, and
// reports the "Avg Disk I/O" metrics the paper's figures use — on a
// byte-identical workload for every strategy. It is the procedure
// burbench runs, with the same 1 % buffer, so a trace built from an
// experiment's workload replays to that experiment's numbers.
// -buffer 0 runs without a buffer.
package main

import (
	"flag"
	"fmt"
	"os"

	"burtree/internal/core"
	"burtree/internal/exp"
	"burtree/internal/geom"
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
		fmt.Fprintf(os.Stderr, "replaying %d updates and %d queries on a %s index of %d objects...\n",
			len(tr.Updates), len(tr.Queries), kind, len(tr.Initial))
		m, err := runTrace(tr, kind, *bufFrac)
		if err != nil {
			fatal(err)
		}
		report(m)

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

// cursor replays a trace as the cell's workload stream.
type cursor struct {
	tr   *workload.Trace
	u, q int
}

func (c *cursor) Positions() []geom.Point { return c.tr.Initial }

func (c *cursor) NextUpdate() workload.Update {
	c.u++
	return c.tr.Updates[c.u-1]
}

func (c *cursor) NextQuery() geom.Rect {
	c.q++
	return c.tr.Queries[c.q-1]
}

// runTrace runs the whole trace through one cell with a buffer of bufFrac
// of the database (0: none) and checks the index afterwards.
func runTrace(tr *workload.Trace, kind core.Kind, bufFrac float64) (exp.Metrics, error) {
	if bufFrac == 0 {
		bufFrac = -1 // exp.Config's zero means its default 1 %
	}
	c, err := exp.NewCell(exp.Config{Strategy: kind, NumObjects: len(tr.Initial), BufferFrac: bufFrac, Validate: true})
	if err != nil {
		return exp.Metrics{}, err
	}
	return c.Run(&cursor{tr: tr}, len(tr.Updates), len(tr.Queries))
}

func report(m exp.Metrics) {
	fmt.Printf("strategy           %s\n", m.Config.Strategy)
	fmt.Printf("build              %.2fs\n", m.BuildWall.Seconds())
	fmt.Printf("tree height        %d\n", m.TreeHeight)
	fmt.Printf("database pages     %d\n", m.TreePages)
	fmt.Printf("buffer pages       %d\n", m.BufferPages)
	if m.Config.NumUpdates > 0 {
		fmt.Printf("avg update I/O     %.3f (CPU %.2fs)\n", m.AvgUpdateIO, m.UpdateWall.Seconds())
	}
	if m.Config.NumQueries > 0 {
		fmt.Printf("avg query I/O      %.3f (CPU %.2fs, %d hits)\n", m.AvgQueryIO, m.QueryWall.Seconds(), m.QueryHits)
	}
	fmt.Printf("update outcomes    %+v\n", m.Outcomes)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "burload:", err)
	os.Exit(1)
}
