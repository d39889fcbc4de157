// Command bench is the repository's end-to-end benchmark: six named
// workloads replayed from closed-loop clients through the public API at
// real CPU speed (no simulated page latency, a real fsync under the
// WAL), each checked against an oracle, plus a traced run that takes
// every layer's numbers from outside the library. See README.md.
//
// Usage (from the repository root; run.sh builds and runs this package):
//
//	bash bench/run.sh --seed 1                       # all six workloads, end-to-end metrics
//	bash bench/run.sh --trace 1                      # per-layer metrics and bench/out/trace-*.jsonl
//	bash bench/run.sh --workload batch-hot --seed 3  # one workload; last line is the driver's JSON
//	bash bench/run.sh --repeat 5                     # median, min, max and spread per metric
//	bash bench/run.sh --manifest                     # print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload and print the driver's JSON as the last line (default: all six)")
		seed     = flag.Int64("seed", 1, "the only source of randomness: the same seed gives the same streams")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed phase the streams are sized for")
		trace    = flag.Int("trace", 0, "1 takes the per-layer metrics (traced replay, ladder, micro-drivers) instead of the end-to-end ones")
		scale    = flag.Float64("scale", 1, "multiplies object and call counts (tests use 0.01)")
		repeat   = flag.Int("repeat", 1, "run the selection this many times and print median, min, max and spread per metric")
		dir      = flag.String("dir", "bench/out", "directory for trace files and tmp/ (WAL directories, removed on exit); must be on a real file system")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json for this build's workloads and metrics, and exit")
	)
	flag.Parse()
	if *manifest {
		b, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || *scale <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workloadDef{w}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: *scale, dir: *dir}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}

	series := map[string][]float64{} // workload/metric → one value per repeat
	var last report
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range selected {
			var out *outcome
			var err error
			if *trace == 1 {
				out, err = runTraced(w, cfg)
			} else {
				out, err = runPlain(w, cfg)
			}
			if err != nil {
				// No numbers for a workload whose check failed.
				fatal(err)
			}
			metrics, err := project(out.metrics, defs, *trace == 0)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			printWorkload(w, out, defs, *trace == 1)
			for n, v := range metrics {
				series[w.name+"/"+n] = append(series[w.name+"/"+n], v.Value)
			}
			last = report{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
		}
	}
	if *repeat > 1 {
		printSpread(selected, defs, series)
	}
	if *name != "" {
		b, err := json.Marshal(last)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// outcome is one run of one workload: the metrics, what the oracle
// check covered, and notes for the reader.
type outcome struct {
	metrics   results
	attempted int64
	failed    int64
	samples   map[string]int // latency metric → samples behind it
	notes     []string
}

func latencySamples(ph *phase) map[string]int {
	s := map[string]int{}
	for _, k := range []opKind{opUpdate, opSearch, opNearest} {
		s[kindNames[k]+"_p50_us"] = ph.samples(k)
	}
	s["frontend.update_p99_us"] = ph.samples(opUpdate)
	s["frontend.search_p99_us"] = ph.samples(opSearch)
	s["frontend.nearest_p99_us"] = ph.samples(opNearest)
	s["frontend.insert_p50_us"] = ph.samples(opInsert)
	s["frontend.delete_p50_us"] = ph.samples(opDelete)
	return s
}

// setupRepeats is how often the untraced run sets up on fresh state;
// setup_s is the median.
const setupRepeats = 5

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(w workloadDef, cfg runConfig) (*outcome, error) {
	in := generate(w, cfg.seed, cfg.seconds, cfg.scale)
	ph, err := execute(w, cfg, in, setupRepeats, nil, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: endToEndOf(ph), attempted: ph.attempted, failed: ph.failed, samples: latencySamples(ph)}
	out.notes = append(out.notes, fmt.Sprintf("%d of %d calls in %.2fs; oracle check passed", ph.attempted, in.totalCalls(), ph.wall.Seconds()))
	out.notes = append(out.notes, "calls/s by window: "+ph.windowRates())
	if w.recover {
		out.notes = append(out.notes, fmt.Sprintf("recovered in %.3fs; oracle check passed again", ph.recover.Seconds()))
	}
	return out, nil
}

// traceShare is the part of -seconds each of the traced run's two
// replays is sized for; the ladder and the micro-drivers use the rest.
const traceShare = 0.4

// runTraced takes the per-layer metrics: an untraced replay for
// reference, the same streams again with spans and per-call counters,
// then the ladder and the micro-drivers on the workload's inputs.
func runTraced(w workloadDef, cfg runConfig) (*outcome, error) {
	calib0 := calib()
	in := generate(w, cfg.seed, cfg.seconds*traceShare, cfg.scale)
	clean, err := execute(w, cfg, in, 1, nil, nil)
	if err != nil {
		return nil, err
	}

	tr := newTracer(w.name, w.clients)
	r := results{}
	m := &micro{ln: tr.driverLane(), r: r, scale: cfg.scale}
	scratch, err := cfg.scratch(w.name + "-micro")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	ph, err := execute(w, cfg, in, 1, tr, func(t *target) error {
		if !w.durable {
			return nil
		}
		return m.persistDrivers(t, scratch)
	})
	if err != nil {
		return nil, err
	}
	counterMetrics(w, ph, clean, tr, r)
	if d := ph.recover.Seconds() - r["persist.load_s"]; d > 0 {
		r["persist.replay_moves_s"] = float64(ph.replayed) / d
	}

	// The moves: the ladder's, then a few batches' worth for the batch
	// drivers, which continue on the ladder's bottom stack.
	spare := 16 * w.batchSize()
	all := movesOf(in, int(ladderOps*cfg.scale)+spare)
	nLadder := max(len(all)-spare, len(all)/2)
	lad, tail := all[:nLadder], all[nLadder:]
	windows, points := queriesOf(in, 2000)

	rungs, b, d, oc, err := ladder(w, in, lad, m.ln)
	if err != nil {
		return nil, fmt.Errorf("%s: ladder: %w", w.name, err)
	}
	r["core.update_us"] = rungs[0]
	r["concurrent.self_us_per_update"] = rungs[1] - rungs[0]
	r["frontend.self_us_per_update"] = rungs[2] - rungs[1]
	r["shard.self_us_per_update"] = rungs[3] - rungs[2]
	r["trace.ladder_top_us"] = rungs[3]

	steps := []func() error{
		func() error { return m.storageDrivers(w.bufferFor(len(in.ids))) },
		func() error { return m.treeDrivers(b, lad, windows, points) },
		func() error { return m.batchDrivers(w, b, tail) },
		func() error { return m.hashDrivers(w, in, lad) },
	}
	// A layer the workload bypasses keeps 0 for its drivers.
	if w.front != frontIndex {
		steps = append(steps, m.lockDrivers)
	}
	if w.front == frontSharded {
		steps = append(steps, func() error { return m.shardDrivers(w, in, lad, windows) })
	}
	if w.durable {
		steps = append(steps, func() error { return m.walDrivers(w, lad, scratch) })
	}
	if w.memtable {
		steps = append(steps, func() error { return m.memtableDrivers(lad, r["memtable.entries_mean"]) })
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, fmt.Errorf("%s: micro-driver: %w", w.name, err)
		}
	}
	r["trace.model_coverage"] = modelCoverage(r, d, oc, len(lad))
	r["runtime.calib_ns"] = (calib0 + calib()) / 2
	r["trace.spans"] = float64(tr.count())
	path, err := tr.write(cfg.dir)
	if err != nil {
		return nil, err
	}

	out := &outcome{metrics: r, attempted: clean.attempted + ph.attempted, failed: clean.failed + ph.failed, samples: latencySamples(ph)}
	out.notes = append(out.notes,
		fmt.Sprintf("traced replay %d calls in %.2fs, untraced %.2fs; oracle check passed on both", ph.attempted, ph.wall.Seconds(), clean.wall.Seconds()),
		fmt.Sprintf("ladder over %d moves: core %.2f + concurrent %.2f + frontend %.2f + shard %.2f = top rung %.2f us/update",
			len(lad), rungs[0], rungs[1]-rungs[0], rungs[2]-rungs[1], rungs[3]-rungs[2], rungs[3]),
		fmt.Sprintf("%d spans written to %s", tr.count(), path))
	return out, nil
}

// ungated are the caller-visible numbers an untraced run prints below the
// end-to-end ones; the driver reads them from the traced run.
var ungated = []string{"frontend.update_p99_us", "frontend.search_p99_us", "frontend.nearest_p99_us", "frontend.recover_s"}

func printWorkload(w workloadDef, out *outcome, defs []metricDef, traced bool) {
	gate := ""
	if !w.gated() {
		gate = " (not in BENCHMARK.json: waits for the disk)"
	}
	fmt.Printf("== %s%s\n", w.name, gate)
	for _, n := range out.notes {
		fmt.Printf("   %s\n", n)
	}
	show := func(d metricDef) {
		line := fmt.Sprintf("%-40s %16.4f %-8s", d.Name, out.metrics[d.Name], d.Unit)
		if n, ok := out.samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	for _, d := range defs {
		show(d)
	}
	if traced {
		return
	}
	for _, d := range perLayer {
		if slices.Contains(ungated, d.Name) && out.metrics[d.Name] != 0 {
			show(d)
		}
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them, which is what the driver
// computes its spreads from.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func printSpread(selected []workloadDef, defs []metricDef, series map[string][]float64) {
	fmt.Printf("\n== spread over %d runs: (q3-q1)/median, quartiles as statistics.quantiles(n=4)\n", len(series[selected[0].name+"/"+defs[0].Name]))
	fmt.Printf("%-16s %-38s %14s %14s %14s %8s\n", "workload", "metric", "median", "min", "max", "spread")
	for _, w := range selected {
		for _, d := range defs {
			v := series[w.name+"/"+d.Name]
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			q1, q3 := quartiles(v)
			fmt.Printf("%-16s %-38s %14.4f %14.4f %14.4f %7.2f%%\n", w.name, d.Name, median(v), s[0], s[len(s)-1], 100*ratio(q3-q1, median(v)))
		}
	}
}
