// Command burbench reproduces the tables and figures of the paper's
// performance study (§5). Each experiment prints the same series the
// paper plots: rows are strategies, columns the swept parameter. The
// registry is the paper's study — fig5a–fig8, mixed, batch, naive, the
// two ablations, table-summary-size, cost; wall-clock measurements of
// everything else are bench/'s (see BENCHMARK.json).
// Every page-counted cell, batched ones included, runs internal/exp's
// one Cell procedure, the one burload -replay runs on a recorded trace.
//
// Usage:
//
//	burbench -list
//	burbench -experiment fig5a
//	burbench -experiment all -scale 0.5
//	burbench -experiment fig8 -paper        # full 1M-object workloads
//	burbench -experiment fig6e -csv -o out.csv
//	burbench -experiment fig8 -json fig8.json
//
// The default scale is 1/50 of the paper's workloads (20k objects, 20k
// updates) so the complete suite finishes in minutes; -scale multiplies
// it and -paper selects the paper's sizes (expect hours).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"burtree/internal/atomicfile"
	"burtree/internal/exp"
)

// jsonReport is the machine-readable output of a burbench run
// (-json <path>): run metadata plus every produced table, so perf
// trajectories can be tracked file-to-file across commits.
type jsonReport struct {
	Tool        string        `json:"tool"`
	Seed        int64         `json:"seed"`
	Scale       exp.Scale     `json:"scale"`
	Experiments []*jsonResult `json:"experiments"`
}

type jsonResult struct {
	ID      string    `json:"id"`
	Figure  string    `json:"figure"`
	Title   string    `json:"title"`
	XLabel  string    `json:"xlabel"`
	YLabel  string    `json:"ylabel"`
	Columns []string  `json:"columns"`
	Rows    []jsonRow `json:"rows"`
	Elapsed float64   `json:"elapsed_seconds"`
}

type jsonRow struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (see -list), comma-separated list, or 'all'")
		list       = flag.Bool("list", false, "list available experiments and exit")
		scale      = flag.Float64("scale", 1.0, "workload scale factor relative to the default (1/50 of the paper)")
		paper      = flag.Bool("paper", false, "use the paper's full workload sizes (1M objects; slow)")
		seed       = flag.Int64("seed", 1, "random seed")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut    = flag.String("json", "", "also write machine-readable results to this file")
		out        = flag.String("o", "", "write output to a file instead of stdout")
		threads    = flag.Int("threads", 0, "override thread count for the throughput study (default 50)")
		batch      = flag.Int("batch", 0, "pin the batch experiment's sweep to {1, N} instead of the default sizes")
	)
	flag.Parse()

	if *list {
		fmt.Println("Available experiments (paper reference — title):")
		for _, e := range exp.Registry() {
			fmt.Printf("  %-20s %-12s %s\n", e.ID, e.Figure, e.Title)
		}
		fmt.Println("\nDefault workload parameters (paper Table 1, bold values):")
		fmt.Println("  page size 1024 B, buffer 1% of database, epsilon 0.003,")
		fmt.Println("  distance threshold 0.03, level threshold max, uniform data,")
		fmt.Println("  max distance moved 0.03, query side in [0, 0.1]")
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "burbench: -experiment required (try -list)")
		os.Exit(2)
	}

	s := exp.DefaultScale()
	if *paper {
		s = exp.PaperScale()
	}
	if *scale != 1.0 {
		s.Objects = int(float64(s.Objects) * *scale)
		s.Updates = int(float64(s.Updates) * *scale)
		s.Queries = int(float64(s.Queries) * *scale)
		s.Ops = int(float64(s.Ops) * *scale)
	}
	if *threads > 0 {
		s.Threads = *threads
	}
	if *batch > 0 {
		s.Batch = *batch
	}

	var ids []string
	if *experiment == "all" {
		for _, e := range exp.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*experiment, ",")
	}

	// Results stream to stdout directly; a -o report is accumulated in
	// memory and written atomically at the end, so an interrupted run
	// never leaves a torn report where a previous one stood.
	var w io.Writer = os.Stdout
	var outBuf bytes.Buffer
	if *out != "" {
		w = &outBuf
	}

	report := jsonReport{Tool: "burbench", Seed: *seed, Scale: s}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := exp.Find(id)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (try -list)", id))
		}
		fmt.Fprintf(os.Stderr, "running %s (%s) at %d objects / %d updates / %d queries ...\n",
			e.ID, e.Figure, s.Objects, s.Updates, s.Queries)
		start := time.Now()
		tab, err := e.Run(s, *seed)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		elapsed := time.Since(start)
		fmt.Fprintf(os.Stderr, "  done in %v\n", elapsed.Round(time.Millisecond))
		if *csv {
			fmt.Fprintf(w, "# %s — %s\n%s\n", tab.ID, tab.Title, tab.CSV())
		} else {
			fmt.Fprintf(w, "%s\n", tab.Render())
		}
		jr := &jsonResult{
			ID: tab.ID, Figure: e.Figure, Title: tab.Title,
			XLabel: tab.XLabel, YLabel: tab.YLabel, Columns: tab.Columns,
			Elapsed: elapsed.Seconds(),
		}
		for _, r := range tab.Rows {
			jr.Rows = append(jr.Rows, jsonRow{Label: r.Label, Values: r.Values})
		}
		report.Experiments = append(report.Experiments, jr)
	}
	if *out != "" {
		if err := atomicfile.WriteBytes(*out, outBuf.Bytes()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := atomicfile.WriteBytes(*jsonOut, append(data, '\n')); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "burbench:", err)
	os.Exit(1)
}
