package exp

import (
	"fmt"
	"math"
	"sort"
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

// Registry returns every experiment, in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig5a", "Figure 5(a)", "Varying ε: average disk I/O, update", run("fig5a")},
		{"fig5b", "Figure 5(b)", "Varying ε: average disk I/O, querying", run("fig5b")},
		{"fig5c", "Figure 5(c)", "Varying ε: total CPU time (s), update", run("fig5c")},
		{"fig5d", "Figure 5(d)", "Varying ε: total CPU time (s), querying", run("fig5d")},
		{"fig5e", "Figure 5(e)", "Varying distance threshold δ: update", run("fig5e")},
		{"fig5f", "Figure 5(f)", "Varying distance threshold δ: querying", run("fig5f")},
		{"fig5g", "Figure 5(g)", "Varying maximum distance moved: update", run("fig5g")},
		{"fig5h", "Figure 5(h)", "Varying maximum distance moved: querying", run("fig5h")},
		{"fig6a", "Figure 6(a)", "Ascending the R-tree (λ): update", run("fig6a")},
		{"fig6b", "Figure 6(b)", "Ascending the R-tree (λ): querying", run("fig6b")},
		{"fig6c", "Figure 6(c)", "Varying data distributions: update", run("fig6c")},
		{"fig6d", "Figure 6(d)", "Varying data distributions: querying", run("fig6d")},
		{"fig6e", "Figure 6(e)", "Varying amounts of updates: update", run("fig6e")},
		{"fig6f", "Figure 6(f)", "Varying amounts of updates: querying", run("fig6f")},
		{"fig6g", "Figure 6(g)", "Varying buffer size: update", run("fig6g")},
		{"fig6h", "Figure 6(h)", "Varying buffer size: querying", run("fig6h")},
		{"fig7a", "Figure 7(a)", "Scalability (dataset size): update", run("fig7a")},
		{"fig7b", "Figure 7(b)", "Scalability (dataset size): querying", run("fig7b")},
		{"fig8", "Figure 8", "Throughput for varying update/query mix (50 threads, DGL)", run("fig8")},
		{"mixed", "beyond §5.4", "Mixed read/write sweep: throughput and per-op I/O vs query fraction", run("mixed")},
		{"skew", "beyond §5.4", "Zipfian hotspot workload: static grid vs adaptive rebalancing", run("skew")},
		{"batch", "beyond §5", "Batched bottom-up updates: disk I/O and throughput vs batch size", run("batch")},
		{"naive", "§3.1", "Naive bottom-up: share of updates that stay top-down", run("naive")},
		{"table-summary-size", "§3.2", "Summary structure size ratios", run("table-summary-size")},
		{"cost", "§4", "Cost model: analysis vs measurement", run("cost")},
		ablationRegistry()[0],
		ablationRegistry()[1],
		ablationRegistry()[2],
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// run dispatches through the bundle cache: families of figures that
// share a sweep are computed together and memoized per (scale, seed).
func run(id string) func(Scale, int64) (*Table, error) {
	return func(s Scale, seed int64) (*Table, error) {
		return cachedTable(id, s, seed)
	}
}

var bundleCache sync.Map // key string -> map[string]*Table

func cachedTable(id string, s Scale, seed int64) (*Table, error) {
	bundle := bundleOf(id)
	key := fmt.Sprintf("%s|%+v|%d", bundle, s, seed)
	if v, ok := bundleCache.Load(key); ok {
		if t, ok := v.(map[string]*Table)[id]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("exp: bundle %s did not produce table %s", bundle, id)
	}
	tables, err := computeBundle(bundle, s, seed)
	if err != nil {
		return nil, err
	}
	bundleCache.Store(key, tables)
	t, ok := tables[id]
	if !ok {
		return nil, fmt.Errorf("exp: bundle %s did not produce table %s", bundle, id)
	}
	return t, nil
}

func bundleOf(id string) string {
	switch id {
	case "fig5a", "fig5b", "fig5c", "fig5d":
		return "epsilon"
	case "fig5e", "fig5f":
		return "distance"
	case "fig5g", "fig5h":
		return "maxdist"
	case "fig6a", "fig6b":
		return "level"
	case "fig6c", "fig6d":
		return "distribution"
	case "fig6e", "fig6f":
		return "volume"
	case "fig6g", "fig6h":
		return "buffer"
	case "fig7a", "fig7b":
		return "scalability"
	default:
		return id
	}
}

func computeBundle(bundle string, s Scale, seed int64) (map[string]*Table, error) {
	switch bundle {
	case "epsilon":
		return bundleEpsilon(s, seed)
	case "distance":
		return bundleDistance(s, seed)
	case "maxdist":
		return bundleMaxDist(s, seed)
	case "level":
		return bundleLevel(s, seed)
	case "distribution":
		return bundleDistribution(s, seed)
	case "volume":
		return bundleVolume(s, seed)
	case "buffer":
		return bundleBuffer(s, seed)
	case "scalability":
		return bundleScalability(s, seed)
	case "fig8":
		return bundleThroughput(s, seed)
	case "mixed":
		return bundleMixed(s, seed)
	case "skew":
		return bundleSkew(s, seed)
	case "batch":
		return bundleBatch(s, seed)
	case "naive":
		return bundleNaive(s, seed)
	case "table-summary-size":
		return bundleSummarySize(s, seed)
	case "cost":
		return bundleCost(s, seed)
	case "ablation-piggyback":
		return bundlePiggyback(s, seed)
	case "ablation-summary-queries":
		return bundleSummaryQueries(s, seed)
	case "ablation-splits":
		return bundleSplits(s, seed)
	default:
		return nil, fmt.Errorf("exp: unknown bundle %q", bundle)
	}
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

// strategyRows runs one configuration per strategy and returns metrics
// keyed by strategy name.
func metricsFor(cfg Config, kinds ...core.Kind) (map[string]Metrics, error) {
	out := make(map[string]Metrics, len(kinds))
	for _, k := range kinds {
		c := cfg
		c.Strategy = k
		m, err := RunOnce(c)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", k, err)
		}
		out[k.String()] = m
	}
	return out, nil
}

var defaultKinds = []core.Kind{core.TD, core.LBU, core.GBU}

// bundleEpsilon reproduces Figures 5(a)–(d): ε ∈ {0, .003, .007, .015,
// .03}. TD does not depend on ε, so it is run once and replicated.
func bundleEpsilon(s Scale, seed int64) (map[string]*Table, error) {
	epss := []float64{0, 0.003, 0.007, 0.015, 0.03}
	cols := make([]string, len(epss))
	for i, e := range epss {
		cols[i] = fmt.Sprintf("%g", e)
	}
	newT := func(id, title, y string) *Table {
		return &Table{ID: id, Title: title, XLabel: "epsilon", YLabel: y, Columns: cols}
	}
	tables := map[string]*Table{
		"fig5a": newT("fig5a", "Varying ε: Average Disk I/O, Update", "avg disk I/O per update"),
		"fig5b": newT("fig5b", "Varying ε: Average Disk I/O, Querying", "avg disk I/O per query"),
		"fig5c": newT("fig5c", "Varying ε: Total CPU Cost, Update", "update CPU seconds"),
		"fig5d": newT("fig5d", "Varying ε: Total CPU Cost, Querying", "query CPU seconds"),
	}

	td, err := RunOnce(withStrategy(baseConfig(s, seed), core.TD))
	if err != nil {
		return nil, err
	}
	addReplicated(tables, "TD", td, len(epss))

	for _, kind := range []core.Kind{core.LBU, core.GBU} {
		rows := [4][]float64{}
		for _, eps := range epss {
			cfg := withStrategy(baseConfig(s, seed), kind)
			cfg.Epsilon = sentinel(eps)
			m, err := RunOnce(cfg)
			if err != nil {
				return nil, fmt.Errorf("%v eps=%g: %w", kind, eps, err)
			}
			appendMetrics(&rows, m)
		}
		addRows(tables, kind.String(), rows)
	}
	return tables, nil
}

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

func appendMetrics(rows *[4][]float64, m Metrics) {
	rows[0] = append(rows[0], m.AvgUpdateIO)
	rows[1] = append(rows[1], m.AvgQueryIO)
	rows[2] = append(rows[2], m.UpdateWall.Seconds())
	rows[3] = append(rows[3], m.QueryWall.Seconds())
}

func addRows(tables map[string]*Table, label string, rows [4][]float64) {
	ids := []string{"fig5a", "fig5b", "fig5c", "fig5d"}
	for i, id := range ids {
		if t, ok := tables[id]; ok {
			t.AddRow(label, rows[i])
		}
	}
}

func addReplicated(tables map[string]*Table, label string, m Metrics, n int) {
	rows := [4][]float64{}
	for i := 0; i < n; i++ {
		appendMetrics(&rows, m)
	}
	addRows(tables, label, rows)
}

// bundleDistance reproduces Figures 5(e)–(f): δ ∈ {0, 0.03, 0.3, 3}.
// TD and LBU do not use δ; they are run once and replicated flat, as the
// paper plots them.
func bundleDistance(s Scale, seed int64) (map[string]*Table, error) {
	deltas := []float64{0, 0.03, 0.3, 3}
	cols := make([]string, len(deltas))
	for i, d := range deltas {
		cols[i] = fmt.Sprintf("%g", d)
	}
	upd := &Table{ID: "fig5e", Title: "Varying Distance Threshold δ, Update", XLabel: "distance threshold", YLabel: "avg disk I/O per update", Columns: cols}
	qry := &Table{ID: "fig5f", Title: "Varying Distance Threshold δ, Querying", XLabel: "distance threshold", YLabel: "avg disk I/O per query", Columns: cols}

	for _, kind := range []core.Kind{core.TD, core.LBU} {
		m, err := RunOnce(withStrategy(baseConfig(s, seed), kind))
		if err != nil {
			return nil, err
		}
		u := make([]float64, len(deltas))
		q := make([]float64, len(deltas))
		for i := range deltas {
			u[i], q[i] = m.AvgUpdateIO, m.AvgQueryIO
		}
		upd.AddRow(kind.String(), u)
		qry.AddRow(kind.String(), q)
	}
	var u, q []float64
	for _, delta := range deltas {
		cfg := withStrategy(baseConfig(s, seed), core.GBU)
		cfg.DistanceThreshold = sentinel(delta)
		m, err := RunOnce(cfg)
		if err != nil {
			return nil, fmt.Errorf("GBU delta=%g: %w", delta, err)
		}
		u = append(u, m.AvgUpdateIO)
		q = append(q, m.AvgQueryIO)
	}
	upd.AddRow("GBU", u)
	qry.AddRow("GBU", q)
	return map[string]*Table{"fig5e": upd, "fig5f": qry}, nil
}

var maxDistances = []float64{0.003, 0.015, 0.03, 0.06, 0.1, 0.15}

// bundleMaxDist reproduces Figures 5(g)–(h): the maximum distance moved
// between updates varies from 0.003 to 0.15.
func bundleMaxDist(s Scale, seed int64) (map[string]*Table, error) {
	cols := make([]string, len(maxDistances))
	for i, d := range maxDistances {
		cols[i] = fmt.Sprintf("%g", d)
	}
	upd := &Table{ID: "fig5g", Title: "Varying Maximum Distance, Update", XLabel: "max distance moved", YLabel: "avg disk I/O per update", Columns: cols}
	qry := &Table{ID: "fig5h", Title: "Varying Maximum Distance, Querying", XLabel: "max distance moved", YLabel: "avg disk I/O per query", Columns: cols}
	for _, kind := range defaultKinds {
		var u, q []float64
		for _, d := range maxDistances {
			cfg := withStrategy(baseConfig(s, seed), kind)
			cfg.MaxDistance = d
			m, err := RunOnce(cfg)
			if err != nil {
				return nil, fmt.Errorf("%v maxdist=%g: %w", kind, d, err)
			}
			u = append(u, m.AvgUpdateIO)
			q = append(q, m.AvgQueryIO)
		}
		upd.AddRow(kind.String(), u)
		qry.AddRow(kind.String(), q)
	}
	return map[string]*Table{"fig5g": upd, "fig5h": qry}, nil
}

// bundleLevel reproduces Figures 6(a)–(b): GBU with λ ∈ {0,1,2,3}
// against TD and LBU, across the max-distance sweep.
func bundleLevel(s Scale, seed int64) (map[string]*Table, error) {
	cols := make([]string, len(maxDistances))
	for i, d := range maxDistances {
		cols[i] = fmt.Sprintf("%g", d)
	}
	upd := &Table{ID: "fig6a", Title: "Ascending the R-Tree, Update", XLabel: "max distance moved", YLabel: "avg disk I/O per update", Columns: cols}
	qry := &Table{ID: "fig6b", Title: "Ascending the R-Tree, Querying", XLabel: "max distance moved", YLabel: "avg disk I/O per query", Columns: cols}

	type series struct {
		label  string
		kind   core.Kind
		lambda int
	}
	all := []series{
		{"TD", core.TD, 0},
		{"LBU", core.LBU, 0},
		{"GBU-0", core.GBU, core.LevelThresholdZero},
		{"GBU-1", core.GBU, 1},
		{"GBU-2", core.GBU, 2},
		{"GBU-3", core.GBU, 3},
	}
	for _, sr := range all {
		var u, q []float64
		for _, d := range maxDistances {
			cfg := withStrategy(baseConfig(s, seed), sr.kind)
			cfg.MaxDistance = d
			if sr.kind == core.GBU {
				cfg.LevelThreshold = sr.lambda
			}
			m, err := RunOnce(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s maxdist=%g: %w", sr.label, d, err)
			}
			u = append(u, m.AvgUpdateIO)
			q = append(q, m.AvgQueryIO)
		}
		upd.AddRow(sr.label, u)
		qry.AddRow(sr.label, q)
	}
	return map[string]*Table{"fig6a": upd, "fig6b": qry}, nil
}

// bundleDistribution reproduces Figures 6(c)–(d): Uniform, Gaussian and
// Skewed initial distributions.
func bundleDistribution(s Scale, seed int64) (map[string]*Table, error) {
	dists := []workload.Distribution{workload.Uniform, workload.Gaussian, workload.Skewed}
	cols := []string{"Uniform", "Gaussian", "Skew"}
	upd := &Table{ID: "fig6c", Title: "Varying Data Distributions, Update", XLabel: "data distribution", YLabel: "avg disk I/O per update", Columns: cols}
	qry := &Table{ID: "fig6d", Title: "Varying Data Distributions, Querying", XLabel: "data distribution", YLabel: "avg disk I/O per query", Columns: cols}
	for _, kind := range defaultKinds {
		var u, q []float64
		for _, d := range dists {
			cfg := withStrategy(baseConfig(s, seed), kind)
			cfg.Distribution = d
			m, err := RunOnce(cfg)
			if err != nil {
				return nil, fmt.Errorf("%v %v: %w", kind, d, err)
			}
			u = append(u, m.AvgUpdateIO)
			q = append(q, m.AvgQueryIO)
		}
		upd.AddRow(kind.String(), u)
		qry.AddRow(kind.String(), q)
	}
	return map[string]*Table{"fig6c": upd, "fig6d": qry}, nil
}

// bundleVolume reproduces Figures 6(e)–(f): the number of updates grows
// from 1× to 10× the base volume (the paper's 1–10 M).
func bundleVolume(s Scale, seed int64) (map[string]*Table, error) {
	mult := []int{1, 2, 3, 5, 7, 10}
	cols := make([]string, len(mult))
	for i, m := range mult {
		cols[i] = fmt.Sprintf("%dx", m)
	}
	upd := &Table{ID: "fig6e", Title: "Varying Amounts of Updates, Update", XLabel: "number of updates (x base)", YLabel: "avg disk I/O per update", Columns: cols}
	qry := &Table{ID: "fig6f", Title: "Varying Amounts of Updates, Querying", XLabel: "number of updates (x base)", YLabel: "avg disk I/O per query", Columns: cols}
	for _, kind := range defaultKinds {
		var u, q []float64
		for _, k := range mult {
			cfg := withStrategy(baseConfig(s, seed), kind)
			cfg.NumUpdates = s.Updates * k
			m, err := RunOnce(cfg)
			if err != nil {
				return nil, fmt.Errorf("%v %dx updates: %w", kind, k, err)
			}
			u = append(u, m.AvgUpdateIO)
			q = append(q, m.AvgQueryIO)
		}
		upd.AddRow(kind.String(), u)
		qry.AddRow(kind.String(), q)
	}
	return map[string]*Table{"fig6e": upd, "fig6f": qry}, nil
}

// bundleBuffer reproduces Figures 6(g)–(h): buffer pool from 0% to 10%
// of the database size.
func bundleBuffer(s Scale, seed int64) (map[string]*Table, error) {
	fracs := []float64{0, 0.01, 0.03, 0.05, 0.10}
	cols := []string{"0%", "1%", "3%", "5%", "10%"}
	upd := &Table{ID: "fig6g", Title: "Varying Buffer Size, Update", XLabel: "buffer (% of database)", YLabel: "avg disk I/O per update", Columns: cols}
	qry := &Table{ID: "fig6h", Title: "Varying Buffer Size, Querying", XLabel: "buffer (% of database)", YLabel: "avg disk I/O per query", Columns: cols}
	for _, kind := range defaultKinds {
		var u, q []float64
		for _, f := range fracs {
			cfg := withStrategy(baseConfig(s, seed), kind)
			if f == 0 {
				cfg.BufferFrac = -1 // explicit 0%
			} else {
				cfg.BufferFrac = f
			}
			m, err := RunOnce(cfg)
			if err != nil {
				return nil, fmt.Errorf("%v buffer=%g: %w", kind, f, err)
			}
			u = append(u, m.AvgUpdateIO)
			q = append(q, m.AvgQueryIO)
		}
		upd.AddRow(kind.String(), u)
		qry.AddRow(kind.String(), q)
	}
	return map[string]*Table{"fig6g": upd, "fig6h": qry}, nil
}

// bundleScalability reproduces Figures 7(a)–(b): the dataset grows from
// 1× to 10× while the data space stays fixed (density increases).
func bundleScalability(s Scale, seed int64) (map[string]*Table, error) {
	mult := []int{1, 2, 5, 10}
	cols := make([]string, len(mult))
	for i, m := range mult {
		cols[i] = fmt.Sprintf("%dx", m)
	}
	upd := &Table{ID: "fig7a", Title: "Scalability, Update", XLabel: "dataset size (x base)", YLabel: "avg disk I/O per update", Columns: cols}
	qry := &Table{ID: "fig7b", Title: "Scalability, Querying", XLabel: "dataset size (x base)", YLabel: "avg disk I/O per query", Columns: cols}
	for _, kind := range defaultKinds {
		var u, q []float64
		for _, k := range mult {
			cfg := withStrategy(baseConfig(s, seed), kind)
			cfg.NumObjects = s.Objects * k
			m, err := RunOnce(cfg)
			if err != nil {
				return nil, fmt.Errorf("%v %dx objects: %w", kind, k, err)
			}
			u = append(u, m.AvgUpdateIO)
			q = append(q, m.AvgQueryIO)
		}
		upd.AddRow(kind.String(), u)
		qry.AddRow(kind.String(), q)
	}
	return map[string]*Table{"fig7a": upd, "fig7b": qry}, nil
}

// bundleNaive reproduces the §3.1 observation that the naive bottom-up
// scheme leaves most updates top-down (82% on the paper's uniform
// million-point dataset).
func bundleNaive(s Scale, seed int64) (map[string]*Table, error) {
	cols := make([]string, len(maxDistances))
	for i, d := range maxDistances {
		cols[i] = fmt.Sprintf("%g", d)
	}
	t := &Table{ID: "naive", Title: "Naive bottom-up: % of updates resolved top-down", XLabel: "max distance moved", YLabel: "% of updates", Columns: cols}
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

// SortedIDs lists all experiment ids.
func SortedIDs() []string {
	reg := Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}
