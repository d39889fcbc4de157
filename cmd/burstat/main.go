// Command burstat builds an index from a synthetic workload and prints
// its physical statistics: per-level node counts and fill factors, MBR
// overlap, the summary-structure footprint (paper §3.2), and the §4
// cost-model predictions for the resulting tree. The index is built
// through the experiment harness's cell (internal/exp), without a
// buffer.
//
// Usage:
//
//	burstat -objects 100000 -strategy GBU -updates 100000
package main

import (
	"flag"
	"fmt"
	"os"

	"burtree/internal/core"
	"burtree/internal/costmodel"
	"burtree/internal/exp"
	"burtree/internal/pagestore"
	"burtree/internal/summary"
	"burtree/internal/workload"
)

func main() {
	var (
		objects = flag.Int("objects", 50_000, "number of objects")
		updates = flag.Int("updates", 0, "updates to apply before measuring")
		strat   = flag.String("strategy", "GBU", "strategy: TD|LBU|GBU|NAIVE")
		dist    = flag.String("dist", "uniform", "distribution: uniform|gaussian|skewed")
		maxDist = flag.Float64("maxdist", 0.03, "max distance moved per update")
		seed    = flag.Int64("seed", 1, "random seed")
		qSide   = flag.Float64("query", 0.1, "query side for the cost-model prediction")
	)
	flag.Parse()

	kind, err := core.ParseKind(*strat)
	if err != nil {
		fatal(err)
	}
	d, err := workload.ParseDistribution(*dist)
	if err != nil {
		fatal(err)
	}

	c, err := exp.NewCell(exp.Config{
		Strategy: kind, NumObjects: *objects, BufferFrac: -1, // no buffer
		Distribution: d, MaxDistance: *maxDist, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	gen := workload.NewGenerator(c.Config.Spec())
	if err := c.Build(gen); err != nil {
		fatal(err)
	}
	u, store := c.U, c.Store
	for i := 0; i < *updates; i++ {
		up := gen.NextUpdate()
		if err := u.Update(up.OID, up.Old, up.New); err != nil {
			fatal(err)
		}
	}
	if err := u.Tree().CheckInvariants(); err != nil {
		fatal(fmt.Errorf("invariants: %w", err))
	}

	ts, err := u.Tree().ComputeStats()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("strategy        %s\n", kind)
	fmt.Printf("objects         %d (after %d updates)\n", ts.Size, *updates)
	fmt.Printf("height          %d\n", ts.Height)
	fmt.Printf("nodes           %d (fanout %d per leaf, %d per internal node)\n", ts.Nodes, u.Tree().MaxEntries(0), u.Tree().MaxEntries(1))
	fmt.Printf("database pages  %d (%.1f MB at 1 KB pages)\n", store.NumPages(), float64(store.NumPages())/1024)
	fmt.Printf("root MBR area   %.4f\n", ts.RootMBRArea)
	fmt.Println("\nper level (0 = leaves):")
	fmt.Printf("  %-6s %8s %9s %8s %12s %12s\n", "level", "nodes", "entries", "fill", "area sum", "overlap")
	for _, l := range ts.Levels {
		fmt.Printf("  %-6d %8d %9d %7.1f%% %12.4f %12.6f\n",
			l.Level, l.Nodes, l.Entries, l.AvgFill*100, l.AreaSum, l.Overlap)
	}

	type summarized interface{ Summary() *summary.Structure }
	if g, ok := u.(summarized); ok {
		sum := g.Summary()
		internal, leaves := sum.Counts()
		treeBytes := ts.Nodes * pagestore.DefaultPageSize
		fmt.Println("\nsummary structure (paper §3.2):")
		fmt.Printf("  internal entries   %d, leaves tracked %d\n", internal, leaves)
		fmt.Printf("  size               %d bytes\n", sum.SizeBytes())
		fmt.Printf("  table/tree ratio   %.3f%%\n", 100*float64(sum.SizeBytes())/float64(treeBytes))
	}

	prof, err := costmodel.ProfileTree(u.Tree())
	if err != nil {
		fatal(err)
	}
	fmt.Println("\ncost model (paper §4):")
	fmt.Printf("  E[query accesses] at %gx%g window: %.2f\n", *qSide, *qSide,
		costmodel.ExpectedQueryAccesses(prof, *qSide, *qSide))
	fmt.Printf("  TD update cost (2A+1):             %.2f\n", costmodel.TopDownUpdateCost(prof))
	fmt.Printf("  TD best case (2h+1):               %.0f\n", costmodel.TopDownBestCase(ts.Height))
	b, t := costmodel.WorstCaseBound(ts.Height)
	fmt.Printf("  BU worst case vs TD best case:     %.2f <= %.0f\n", b, t)

	fmt.Printf("\nupdate outcomes: %+v\n", u.Outcomes())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "burstat:", err)
	os.Exit(1)
}
