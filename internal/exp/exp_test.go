package exp

import (
	"reflect"
	"strings"
	"testing"

	"burtree/internal/core"
	"burtree/internal/workload"
)

func tinyConfig() Config {
	return Config{
		NumObjects: 3000,
		NumUpdates: 3000,
		NumQueries: 150,
		Seed:       7,
		Validate:   true,
	}
}

func TestRunOnceAllStrategies(t *testing.T) {
	for _, k := range []core.Kind{core.TD, core.LBU, core.GBU, core.Naive} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Strategy = k
			m, err := RunOnce(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.AvgUpdateIO <= 0 {
				t.Fatalf("AvgUpdateIO = %v", m.AvgUpdateIO)
			}
			if m.AvgQueryIO <= 0 {
				t.Fatalf("AvgQueryIO = %v", m.AvgQueryIO)
			}
			if m.TreeHeight < 2 {
				t.Fatalf("height = %d", m.TreeHeight)
			}
			if m.Outcomes.Total() != int64(cfg.NumUpdates) {
				t.Fatalf("outcomes %d != updates %d (%+v)", m.Outcomes.Total(), cfg.NumUpdates, m.Outcomes)
			}
			if m.QueryHits == 0 {
				t.Fatal("queries returned nothing")
			}
		})
	}
}

func TestRunOnceBulkLoadEquivalentWorkload(t *testing.T) {
	cfg := tinyConfig()
	cfg.Strategy = core.GBU
	cfg.BulkLoad = true
	m, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgUpdateIO <= 0 || m.TreeHeight < 2 {
		t.Fatalf("bulk-load run: %+v", m)
	}
}

func TestRunOnceDistributions(t *testing.T) {
	for _, d := range []workload.Distribution{workload.Uniform, workload.Gaussian, workload.Skewed} {
		cfg := tinyConfig()
		cfg.Strategy = core.GBU
		cfg.Distribution = d
		if _, err := RunOnce(cfg); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
	}
}

func TestGBUBeatsTDInHarness(t *testing.T) {
	// The paper's headline through the harness path, with the default 1%
	// buffer: GBU updates must be clearly cheaper than TD's.
	cfgTD := tinyConfig()
	cfgTD.Strategy = core.TD
	td, err := RunOnce(cfgTD)
	if err != nil {
		t.Fatal(err)
	}
	cfgG := tinyConfig()
	cfgG.Strategy = core.GBU
	gbu, err := RunOnce(cfgG)
	if err != nil {
		t.Fatal(err)
	}
	if gbu.AvgUpdateIO >= td.AvgUpdateIO {
		t.Fatalf("GBU update I/O %.2f >= TD %.2f", gbu.AvgUpdateIO, td.AvgUpdateIO)
	}
	// Query performance on par or better (paper: GBU queries with the
	// summary structure are at least as good for small ε).
	if gbu.AvgQueryIO > td.AvgQueryIO*1.25 {
		t.Fatalf("GBU query I/O %.2f far above TD %.2f", gbu.AvgQueryIO, td.AvgQueryIO)
	}
}

func TestBufferReducesIO(t *testing.T) {
	noBuf := tinyConfig()
	noBuf.Strategy = core.TD
	noBuf.BufferFrac = -1
	a, err := RunOnce(noBuf)
	if err != nil {
		t.Fatal(err)
	}
	big := tinyConfig()
	big.Strategy = core.TD
	big.BufferFrac = 0.10
	b, err := RunOnce(big)
	if err != nil {
		t.Fatal(err)
	}
	if b.AvgUpdateIO >= a.AvgUpdateIO {
		t.Fatalf("10%% buffer update I/O %.2f >= 0%% buffer %.2f", b.AvgUpdateIO, a.AvgUpdateIO)
	}
	if b.AvgQueryIO >= a.AvgQueryIO {
		t.Fatalf("10%% buffer query I/O %.2f >= 0%% buffer %.2f", b.AvgQueryIO, a.AvgQueryIO)
	}
}

func TestNaiveMostlyTopDownWhenMovesExceedLeaves(t *testing.T) {
	// §3.1: the paper saw 82% of naive updates remain top-down at 1M
	// objects, where leaf MBRs are tiny relative to the movement
	// distance. At test scale the leaves are larger, so the same regime
	// is reached by moving objects farther.
	cfg := tinyConfig()
	cfg.Strategy = core.Naive
	cfg.MaxDistance = 0.15
	m, err := RunOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	share := float64(m.Outcomes.TopDown) / float64(m.Outcomes.Total())
	if share < 0.5 {
		t.Fatalf("naive top-down share = %.2f; expected the majority path", share)
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", XLabel: "a", YLabel: "b", Columns: []string{"1", "2"}}
	tab.AddRow("TD", []float64{1.5, 2.25})
	tab.AddRow("GBU", []float64{0.5, 100000})
	out := tab.Render()
	for _, want := range []string{"TD", "GBU", "1.500", "2.250"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "series,1,2\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "TD,1.5,2.25") {
		t.Fatalf("csv row wrong: %q", csv)
	}
	if _, ok := tab.Row("TD"); !ok {
		t.Fatal("Row lookup failed")
	}
	if _, ok := tab.Row("nope"); ok {
		t.Fatal("Row lookup of missing label succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity violation not caught")
		}
	}()
	tab.AddRow("bad", []float64{1})
}

func TestRegistryComplete(t *testing.T) {
	// The exact ids, in registry order: the paper's §5. Every
	// wall-clock comparison of the beyond-the-paper designs lives in
	// bench/ (BENCHMARK.json), so a new id here is a visible diff.
	want := []string{
		"fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f", "fig5g", "fig5h",
		"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f", "fig6g", "fig6h",
		"fig7a", "fig7b", "fig8", "mixed", "batch", "naive", "table-summary-size", "cost",
		"ablation-piggyback", "ablation-summary-queries",
	}
	var got []string
	for _, e := range Registry() {
		got = append(got, e.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registry ids:\n got  %v\n want %v", got, want)
	}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Fatalf("experiment %s missing", id)
		}
	}
	if _, ok := Find("bogus"); ok {
		t.Fatal("bogus experiment found")
	}
}
