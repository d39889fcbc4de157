package exp

import (
	"fmt"
	"math"
	"sync"

	"burtree/internal/core"
	"burtree/internal/costmodel"
	"burtree/internal/summary"
	"burtree/internal/workload"
)

// Scale dimensions a whole experiment suite relative to the paper's
// workloads. The paper uses 1 M objects and 1–10 M updates; the default
// scale is 1/50 of that so the complete suite runs in minutes on a
// laptop. Scale factors multiply through the sweeps (e.g. the update-
// volume sweep of Fig 6(e) runs 1×..10× Updates).
type Scale struct {
	Objects int
	Updates int
	Queries int

	// Throughput study (Fig 8).
	Threads    int
	Ops        int
	IOLatencyU int // simulated page latency in microseconds

	// Batch pins the batch-size sweep of the "batch" experiment to
	// {1, Batch} instead of the default BatchSizes (burbench -batch).
	Batch int
}

// DefaultScale is 1/50 of the paper's workload.
func DefaultScale() Scale {
	return Scale{Objects: 20_000, Updates: 20_000, Queries: 1_000, Threads: 50, Ops: 6_000, IOLatencyU: 100}
}

// SmallScale is used by unit tests and smoke benchmarks.
func SmallScale() Scale {
	return Scale{Objects: 4_000, Updates: 4_000, Queries: 200, Threads: 8, Ops: 1_500, IOLatencyU: 20}
}

// PaperScale matches the paper's defaults (1 M objects, 1 M updates,
// 1 M queries, 50 threads). Expect long runtimes.
func PaperScale() Scale {
	return Scale{Objects: 1_000_000, Updates: 1_000_000, Queries: 1_000_000, Threads: 50, Ops: 200_000, IOLatencyU: 100}
}

// Experiment is one reproducible figure or table of the paper.
type Experiment struct {
	ID     string
	Figure string // the paper's figure/table reference
	Title  string
	Run    func(s Scale, seed int64) (*Table, error)
}

// registry names every experiment once, in paper order. A bundle
// computes every table of its group from one set of runs, memoized per
// (scale, seed); experiments of one group (empty: the experiment's own)
// read their tables from it: fig5a–d share the ε sweep's runs, and
// every figure pair shares its update and query runs.
var registry = []struct {
	id, figure, title string
	group             string
	bundle            func(s Scale, seed int64) (map[string]*Table, error)
}{
	{"fig5a", "Figure 5(a)", "Varying ε: average disk I/O, update", "epsilon", epsilonSweep.run},
	{"fig5b", "Figure 5(b)", "Varying ε: average disk I/O, querying", "epsilon", epsilonSweep.run},
	{"fig5c", "Figure 5(c)", "Varying ε: total CPU time (s), update", "epsilon", epsilonSweep.run},
	{"fig5d", "Figure 5(d)", "Varying ε: total CPU time (s), querying", "epsilon", epsilonSweep.run},
	{"fig5e", "Figure 5(e)", "Varying distance threshold δ: update", "distance", distanceSweep.run},
	{"fig5f", "Figure 5(f)", "Varying distance threshold δ: querying", "distance", distanceSweep.run},
	{"fig5g", "Figure 5(g)", "Varying maximum distance moved: update", "maxdist", maxDistSweep.run},
	{"fig5h", "Figure 5(h)", "Varying maximum distance moved: querying", "maxdist", maxDistSweep.run},
	{"fig6a", "Figure 6(a)", "Ascending the R-tree (λ): update", "level", levelSweep.run},
	{"fig6b", "Figure 6(b)", "Ascending the R-tree (λ): querying", "level", levelSweep.run},
	{"fig6c", "Figure 6(c)", "Varying data distributions: update", "distribution", distributionSweep.run},
	{"fig6d", "Figure 6(d)", "Varying data distributions: querying", "distribution", distributionSweep.run},
	{"fig6e", "Figure 6(e)", "Varying amounts of updates: update", "volume", volumeSweep.run},
	{"fig6f", "Figure 6(f)", "Varying amounts of updates: querying", "volume", volumeSweep.run},
	{"fig6g", "Figure 6(g)", "Varying buffer size: update", "buffer", bufferSweep.run},
	{"fig6h", "Figure 6(h)", "Varying buffer size: querying", "buffer", bufferSweep.run},
	{"fig7a", "Figure 7(a)", "Scalability (dataset size): update", "scalability", scalabilitySweep.run},
	{"fig7b", "Figure 7(b)", "Scalability (dataset size): querying", "scalability", scalabilitySweep.run},
	{"fig8", "Figure 8", "Throughput for varying update/query mix (50 threads, DGL)", "", bundleThroughput},
	{"mixed", "beyond §5.4", "Mixed read/write sweep: throughput and per-op I/O vs query fraction", "", bundleMixed},
	{"skew", "beyond §5.4", "Zipfian hotspot workload: static grid vs adaptive rebalancing", "", bundleSkew},
	{"batch", "beyond §5", "Batched bottom-up updates: disk I/O and throughput vs batch size", "", bundleBatch},
	{"naive", "§3.1", "Naive bottom-up: share of updates that stay top-down", "", bundleNaive},
	{"table-summary-size", "§3.2", "Summary structure size ratios", "", bundleSummarySize},
	{"cost", "§4", "Cost model: analysis vs measurement", "", bundleCost},
	{"ablation-piggyback", "(extension)", "Ablation: piggybacked sibling shifts", "", bundlePiggyback},
	{"ablation-summary-queries", "(extension)", "Ablation: summary-assisted queries", "", bundleSummaryQueries},
	{"ablation-splits", "(extension)", "Ablation: split algorithms (TD)", "", bundleSplits},
}

// Registry returns every experiment, in paper order.
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	for i, r := range registry {
		group := r.group
		if group == "" {
			group = r.id
		}
		out[i] = Experiment{ID: r.id, Figure: r.figure, Title: r.title, Run: func(s Scale, seed int64) (*Table, error) {
			// The cache is keyed by the group's name: method values of
			// different sweeps are not told apart by their pointers.
			key := fmt.Sprintf("%s|%+v|%d", group, s, seed)
			v, ok := bundleCache.Load(key)
			if !ok {
				tables, err := r.bundle(s, seed)
				if err != nil {
					return nil, err
				}
				v, _ = bundleCache.LoadOrStore(key, tables)
			}
			if t, ok := v.(map[string]*Table)[r.id]; ok {
				return t, nil
			}
			return nil, fmt.Errorf("exp: bundle %s did not produce table %s", group, r.id)
		}}
	}
	return out
}

var bundleCache sync.Map // "group|scale|seed" -> map[string]*Table

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func baseConfig(s Scale, seed int64) Config {
	return Config{
		NumObjects:  s.Objects,
		NumUpdates:  s.Updates,
		NumQueries:  s.Queries,
		Seed:        seed,
		LengthScale: lengthScale(s),
	}
}

// lengthScale preserves the paper's locality regime at reduced object
// counts: leaf MBR extent grows as 1/sqrt(N), so all length parameters
// (movement distance, ε, δ) shrink by sqrt(N/1M). At paper scale the
// factor is exactly 1. Table columns keep the paper's nominal values.
func lengthScale(s Scale) float64 {
	return math.Sqrt(float64(s.Objects) / 1e6)
}

var defaultKinds = []core.Kind{core.TD, core.LBU, core.GBU}

func withStrategy(cfg Config, k core.Kind) Config {
	cfg.Strategy = k
	return cfg
}

// sentinel converts a literal parameter value into the Options encoding
// (zero means default, so true zeros use the negative sentinel).
func sentinel(v float64) float64 {
	if v == 0 {
		return core.ZeroValue
	}
	return v
}

// sweep is one §5 figure pair: a Table 1 parameter swept over the
// paper's values, one series per scheme, and the update and query
// tables read from the same runs. Every cell is one RunOnce at the
// default workload (baseConfig) with the series' and the column's
// settings applied.
type sweep struct {
	xLabel string
	cols   []string
	set    func(c *Config, col int) // applies column col's parameter value
	series []series
	tables []figure
}

// series is one plotted line of a sweep.
type series struct {
	kind  core.Kind
	label string        // default: the strategy's name
	set   func(*Config) // the series' own setting, such as GBU's λ
	// flat marks a strategy that ignores the swept parameter: it runs
	// once at the defaults and is replicated across the columns, as the
	// paper plots it.
	flat bool
}

// figure is one table of a sweep: a metric of every cell's Metrics.
type figure struct {
	id, title, yLabel string
	metric            func(Metrics) float64
}

// ioPair is the update and query I/O figures of a pair titled title.
func ioPair(updateID, queryID, title string) []figure {
	return []figure{
		{updateID, title + ", Update", "avg disk I/O per update", func(m Metrics) float64 { return m.AvgUpdateIO }},
		{queryID, title + ", Querying", "avg disk I/O per query", func(m Metrics) float64 { return m.AvgQueryIO }},
	}
}

// labels formats one column label per swept value.
func labels[T any](format string, vs []T) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

// run executes every cell of the sweep, series by series, and returns
// its tables keyed by id.
func (sw sweep) run(s Scale, seed int64) (map[string]*Table, error) {
	tables := make(map[string]*Table, len(sw.tables))
	for _, f := range sw.tables {
		tables[f.id] = &Table{ID: f.id, Title: f.title, XLabel: sw.xLabel, YLabel: f.yLabel, Columns: sw.cols}
	}
	for _, sr := range sw.series {
		label := sr.label
		if label == "" {
			label = sr.kind.String()
		}
		runs := make([]Metrics, len(sw.cols))
		for i, col := range sw.cols {
			if sr.flat && i > 0 {
				runs[i] = runs[0]
				continue
			}
			cfg := withStrategy(baseConfig(s, seed), sr.kind)
			if sr.set != nil {
				sr.set(&cfg)
			}
			if !sr.flat {
				sw.set(&cfg, i)
			}
			m, err := RunOnce(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s %s=%s: %w", label, sw.xLabel, col, err)
			}
			runs[i] = m
		}
		for _, f := range sw.tables {
			row := make([]float64, len(runs))
			for i, m := range runs {
				row[i] = f.metric(m)
			}
			tables[f.id].AddRow(label, row)
		}
	}
	return tables, nil
}

// paperSchemes are the three schemes every §5 figure compares.
var paperSchemes = []series{{kind: core.TD}, {kind: core.LBU}, {kind: core.GBU}}

var (
	epsilons     = []float64{0, 0.003, 0.007, 0.015, 0.03}
	deltas       = []float64{0, 0.03, 0.3, 3}
	maxDistances = []float64{0.003, 0.015, 0.03, 0.06, 0.1, 0.15}
	volumes      = []int{1, 2, 3, 5, 7, 10}
	datasetSizes = []int{1, 2, 5, 10}
)

// Figures 5(a)–(d): ε. TD does not use ε.
var epsilonSweep = sweep{
	xLabel: "epsilon", cols: labels("%g", epsilons),
	set:    func(c *Config, i int) { c.Epsilon = sentinel(epsilons[i]) },
	series: []series{{kind: core.TD, flat: true}, {kind: core.LBU}, {kind: core.GBU}},
	tables: append(ioPair("fig5a", "fig5b", "Varying ε: Average Disk I/O"),
		figure{"fig5c", "Varying ε: Total CPU Cost, Update", "update CPU seconds", func(m Metrics) float64 { return m.UpdateWall.Seconds() }},
		figure{"fig5d", "Varying ε: Total CPU Cost, Querying", "query CPU seconds", func(m Metrics) float64 { return m.QueryWall.Seconds() }}),
}

// Figures 5(e)–(f): the distance threshold δ. TD and LBU do not use δ.
var distanceSweep = sweep{
	xLabel: "distance threshold", cols: labels("%g", deltas),
	set:    func(c *Config, i int) { c.DistanceThreshold = sentinel(deltas[i]) },
	series: []series{{kind: core.TD, flat: true}, {kind: core.LBU, flat: true}, {kind: core.GBU}},
	tables: ioPair("fig5e", "fig5f", "Varying Distance Threshold δ"),
}

// Figures 5(g)–(h): the maximum distance moved between updates.
var maxDistSweep = sweep{
	xLabel: "max distance moved", cols: labels("%g", maxDistances),
	set:    func(c *Config, i int) { c.MaxDistance = maxDistances[i] },
	series: paperSchemes,
	tables: ioPair("fig5g", "fig5h", "Varying Maximum Distance"),
}

// Figures 6(a)–(b): GBU restricted to ascending λ levels, against TD
// and LBU, across the max-distance sweep.
var levelSweep = sweep{
	xLabel: "max distance moved", cols: maxDistSweep.cols, set: maxDistSweep.set,
	series: []series{{kind: core.TD}, {kind: core.LBU},
		gbuLevel("GBU-0", core.LevelThresholdZero), gbuLevel("GBU-1", 1), gbuLevel("GBU-2", 2), gbuLevel("GBU-3", 3)},
	tables: ioPair("fig6a", "fig6b", "Ascending the R-Tree"),
}

func gbuLevel(label string, lambda int) series {
	return series{kind: core.GBU, label: label, set: func(c *Config) { c.LevelThreshold = lambda }}
}

// Figures 6(c)–(d): the initial data distribution.
var distributionSweep = sweep{
	xLabel: "data distribution", cols: []string{"Uniform", "Gaussian", "Skew"},
	set: func(c *Config, i int) {
		c.Distribution = []workload.Distribution{workload.Uniform, workload.Gaussian, workload.Skewed}[i]
	},
	series: paperSchemes,
	tables: ioPair("fig6c", "fig6d", "Varying Data Distributions"),
}

// Figures 6(e)–(f): the number of updates, 1× to 10× the base volume
// (the paper's 1–10 M).
var volumeSweep = sweep{
	xLabel: "number of updates (x base)", cols: labels("%dx", volumes),
	set:    func(c *Config, i int) { c.NumUpdates *= volumes[i] },
	series: paperSchemes,
	tables: ioPair("fig6e", "fig6f", "Varying Amounts of Updates"),
}

// Figures 6(g)–(h): the buffer pool, 0 % to 10 % of the database.
var bufferSweep = sweep{
	xLabel: "buffer (% of database)", cols: []string{"0%", "1%", "3%", "5%", "10%"},
	// -1 is Config's explicit 0 % buffer.
	set:    func(c *Config, i int) { c.BufferFrac = []float64{-1, 0.01, 0.03, 0.05, 0.10}[i] },
	series: paperSchemes,
	tables: ioPair("fig6g", "fig6h", "Varying Buffer Size"),
}

// Figures 7(a)–(b): the dataset grows 1× to 10× in a fixed data space,
// so density increases.
var scalabilitySweep = sweep{
	xLabel: "dataset size (x base)", cols: labels("%dx", datasetSizes),
	set:    func(c *Config, i int) { c.NumObjects *= datasetSizes[i] },
	series: paperSchemes,
	tables: ioPair("fig7a", "fig7b", "Scalability"),
}

// bundleNaive reproduces the §3.1 observation that the naive bottom-up
// scheme leaves most updates top-down (82% on the paper's uniform
// million-point dataset).
func bundleNaive(s Scale, seed int64) (map[string]*Table, error) {
	t := &Table{ID: "naive", Title: "Naive bottom-up: % of updates resolved top-down", XLabel: "max distance moved", YLabel: "% of updates", Columns: maxDistSweep.cols}
	var tdShare, ioRow []float64
	for _, d := range maxDistances {
		cfg := withStrategy(baseConfig(s, seed), core.Naive)
		cfg.MaxDistance = d
		m, err := RunOnce(cfg)
		if err != nil {
			return nil, err
		}
		total := m.Outcomes.Total()
		share := 0.0
		if total > 0 {
			share = 100 * float64(m.Outcomes.TopDown) / float64(total)
		}
		tdShare = append(tdShare, share)
		ioRow = append(ioRow, m.AvgUpdateIO)
	}
	t.AddRow("top-down %", tdShare)
	t.AddRow("avg update I/O", ioRow)
	return map[string]*Table{"naive": t}, nil
}

// bundleSummarySize reproduces the §3.2 size accounting: the ratio of a
// direct-access-table entry to its R-tree node and of the whole table to
// the tree.
func bundleSummarySize(s Scale, seed int64) (map[string]*Table, error) {
	ratios, err := measureSummaryRatios(withStrategy(baseConfig(s, seed), core.GBU))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "table-summary-size",
		Title:  "Summary structure size (paper §3.2: entry/node ≈ 20.4%, table/tree ≈ 0.16% at fanout 204)",
		XLabel: "quantity", YLabel: "ratio",
		Columns: []string{"measured"},
	}
	t.AddRow("entry/node ratio %", []float64{ratios[0] * 100})
	t.AddRow("table/tree ratio %", []float64{ratios[1] * 100})
	t.AddRow("internal/total nodes %", []float64{ratios[2] * 100})
	return map[string]*Table{"table-summary-size": t}, nil
}

// measureSummaryRatios builds cfg's GBU index and reports:
//   - the mean direct-access-table entry size over the node page size,
//   - the whole summary size over the tree size,
//   - the share of internal nodes among all nodes.
func measureSummaryRatios(cfg Config) ([3]float64, error) {
	var out [3]float64
	c, err := builtCell(cfg)
	if err != nil {
		return out, err
	}
	g, ok := c.U.(interface{ Summary() *summary.Structure })
	if !ok {
		return out, fmt.Errorf("exp: GBU strategy does not expose its summary")
	}
	sum := g.Summary()
	internal, leaves := sum.Counts()
	if internal == 0 {
		return out, fmt.Errorf("exp: no internal nodes at this scale")
	}
	ts, err := c.U.Tree().ComputeStats()
	if err != nil {
		return out, err
	}
	pageSize := c.Config.PageSize
	out[0] = float64(sum.SizeBytes()) / float64(internal) / float64(pageSize)
	out[1] = float64(sum.SizeBytes()) / float64(ts.Nodes*pageSize)
	out[2] = float64(internal) / float64(internal+leaves)
	return out, nil
}

// bundleCost reproduces the §4 analysis: Theorem 1 predictions against
// measured I/O, and the B ≤ T worst/best-case bound.
func bundleCost(s Scale, seed int64) (map[string]*Table, error) {
	cfg := baseConfig(s, seed)
	cfg.NumUpdates = s.Updates / 4
	cfg.NumQueries = s.Queries / 2
	cfg.BufferFrac = -1 // the §4 model has no buffer; compare like for like

	predictedTD, measuredTD, err := PredictCosts(withStrategy(cfg, core.TD))
	if err != nil {
		return nil, err
	}
	gbu, err := RunOnce(withStrategy(cfg, core.GBU))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "cost",
		Title:  "Cost model (§4) vs measurement",
		XLabel: "quantity", YLabel: "disk I/O",
		Columns: []string{"value"},
	}
	t.AddRow("TD update, predicted (2A+1)", []float64{predictedTD})
	t.AddRow("TD update, measured", []float64{measuredTD.AvgUpdateIO})
	t.AddRow("GBU update, measured", []float64{gbu.AvgUpdateIO})
	for h := 3; h <= 6; h++ {
		b, td := costmodel.WorstCaseBound(h)
		t.AddRow(fmt.Sprintf("bound h=%d: B(worst) vs T(best)", h), []float64{b})
		t.AddRow(fmt.Sprintf("bound h=%d: T(best)=2h+1", h), []float64{td})
	}
	return map[string]*Table{"cost": t}, nil
}
