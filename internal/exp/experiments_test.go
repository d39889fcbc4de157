package exp

import (
	"reflect"
	"testing"
	"time"

	"burtree/internal/core"
)

// microScale keeps the full-suite smoke test fast.
func microScale() Scale {
	return Scale{Objects: 2_000, Updates: 2_000, Queries: 100, Threads: 4, Ops: 400, IOLatencyU: 0}
}

func TestEveryExperimentProducesATable(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment registry sweep; skipped with -short")
	}
	s := microScale()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(s, 3)
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != e.ID {
				t.Fatalf("table id %q, want %q", tab.ID, e.ID)
			}
			if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("empty table: %+v", tab)
			}
			for _, r := range tab.Rows {
				if len(r.Values) != len(tab.Columns) {
					t.Fatalf("row %q arity mismatch", r.Label)
				}
			}
			if tab.Render() == "" || tab.CSV() == "" {
				t.Fatal("rendering failed")
			}
		})
	}
}

func TestBundleCacheReusesRuns(t *testing.T) {
	s := microScale()
	e, _ := Find("fig5a")
	start := time.Now()
	if _, err := e.Run(s, 11); err != nil {
		t.Fatal(err)
	}
	first := time.Since(start)
	// The sibling figure must come from the cache: effectively instant.
	e2, _ := Find("fig5b")
	start = time.Now()
	if _, err := e2.Run(s, 11); err != nil {
		t.Fatal(err)
	}
	second := time.Since(start)
	if second > first/3 && second > 50*time.Millisecond {
		t.Fatalf("cache miss suspected: first=%v second=%v", first, second)
	}
}

func TestFig5aShape(t *testing.T) {
	s := microScale()
	e, _ := Find("fig5a")
	tab, err := e.Run(s, 13)
	if err != nil {
		t.Fatal(err)
	}
	td, _ := tab.Row("TD")
	gbu, _ := tab.Row("GBU")
	if td == nil || gbu == nil {
		t.Fatalf("missing rows: %+v", tab.Rows)
	}
	// GBU must beat TD on updates at every ε (the paper's Figure 5(a)).
	for i := range td {
		if gbu[i] >= td[i] {
			t.Fatalf("col %d: GBU %.2f >= TD %.2f", i, gbu[i], td[i])
		}
	}
	// TD is flat across ε.
	for i := 1; i < len(td); i++ {
		if td[i] != td[0] {
			t.Fatalf("TD row not flat: %v", td)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-threaded throughput sweep with simulated latency; skipped with -short")
	}
	s := microScale()
	s.IOLatencyU = 50
	s.Ops = 800
	e, _ := Find("fig8")
	tab, err := e.Run(s, 17)
	if err != nil {
		t.Fatal(err)
	}
	td, _ := tab.Row("TD")
	gbu, _ := tab.Row("GBU")
	if td == nil || gbu == nil {
		t.Fatal("missing strategy rows")
	}
	// Paper Fig 8: at 100% updates GBU's throughput is far above TD's.
	last := len(td) - 1
	if gbu[last] <= td[last] {
		t.Fatalf("at 100%% updates GBU %.0f <= TD %.0f tps", gbu[last], td[last])
	}
	// TD is better at 100%% queries than at 100%% updates.
	if td[0] <= td[last] {
		t.Fatalf("TD should prefer queries: 0%%=%.0f 100%%=%.0f", td[0], td[last])
	}
}

func TestMixedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-threaded mixed sweep with simulated latency; skipped with -short")
	}
	s := microScale()
	s.IOLatencyU = 50
	s.Ops = 800
	e, ok := Find("mixed")
	if !ok {
		t.Fatal("mixed experiment missing")
	}
	tab, err := e.Run(s, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"TD", "LBU", "GBU"} {
		tps, _ := tab.Row(kind + " ops/s")
		io, _ := tab.Row(kind + " IO/op")
		if tps == nil || io == nil {
			t.Fatalf("missing rows for %s", kind)
		}
		for i, v := range tps {
			if v <= 0 {
				t.Fatalf("%s ops/s[%d] = %g", kind, i, v)
			}
		}
		for i, v := range io {
			if v < 0 {
				t.Fatalf("%s IO/op[%d] = %g", kind, i, v)
			}
		}
	}
	// At 0% queries the sweep is Fig 8's 100%-updates cell: GBU's
	// bottom-up updates must beat TD's top-down ones.
	td, _ := tab.Row("TD ops/s")
	gbu, _ := tab.Row("GBU ops/s")
	if gbu[0] <= td[0] {
		t.Fatalf("at 0%% queries GBU %.0f <= TD %.0f tps", gbu[0], td[0])
	}
	// Per-op I/O at a pure-update mix: bottom-up pays fewer accesses.
	tdIO, _ := tab.Row("TD IO/op")
	gbuIO, _ := tab.Row("GBU IO/op")
	if gbuIO[0] >= tdIO[0] {
		t.Fatalf("at 0%% queries GBU %.2f IO/op >= TD %.2f", gbuIO[0], tdIO[0])
	}
}

func TestCostTableBound(t *testing.T) {
	s := microScale()
	e, _ := Find("cost")
	tab, err := e.Run(s, 19)
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := tab.Row("TD update, predicted (2A+1)")
	meas, _ := tab.Row("TD update, measured")
	gbu, _ := tab.Row("GBU update, measured")
	if pred == nil || meas == nil || gbu == nil {
		t.Fatal("cost rows missing")
	}
	if gbu[0] >= meas[0] {
		t.Fatalf("GBU measured %.2f >= TD measured %.2f", gbu[0], meas[0])
	}
	if pred[0] < 3 {
		t.Fatalf("TD prediction %.2f implausibly low", pred[0])
	}
}

func TestSummarySizeTable(t *testing.T) {
	s := microScale()
	e, _ := Find("table-summary-size")
	tab, err := e.Run(s, 23)
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := tab.Row("entry/node ratio %")
	table, _ := tab.Row("table/tree ratio %")
	if entry == nil || table == nil {
		t.Fatal("rows missing")
	}
	// An entry must be far smaller than a node, and the table far
	// smaller than the tree (paper §3.2).
	if entry[0] <= 0 || entry[0] > 60 {
		t.Fatalf("entry/node ratio %% = %.2f", entry[0])
	}
	if table[0] <= 0 || table[0] > 10 {
		t.Fatalf("table/tree ratio %% = %.2f", table[0])
	}
}

func TestScalesDefined(t *testing.T) {
	d := DefaultScale()
	if d.Objects != 20_000 || d.Threads != 50 {
		t.Fatalf("default scale = %+v", d)
	}
	p := PaperScale()
	if p.Objects != 1_000_000 {
		t.Fatalf("paper scale = %+v", p)
	}
	sm := SmallScale()
	if sm.Objects >= d.Objects {
		t.Fatalf("small scale not small: %+v", sm)
	}
}

func TestRunOnceUnknownStrategy(t *testing.T) {
	cfg := tinyConfig()
	cfg.Strategy = core.Kind(77)
	if _, err := RunOnce(cfg); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestSweepsKeepTheirOwnTables runs two figure pairs through the
// registry at one scale and seed: each must come back as its own table
// (the cache is keyed per group, and every sweep's bundle is the same
// method), with that figure's columns and series in paper order.
func TestSweepsKeepTheirOwnTables(t *testing.T) {
	s := microScale()
	cases := []struct {
		id   string
		cols []string
		rows []string
		flat []string
	}{
		{"fig5e", []string{"0", "0.03", "0.3", "3"}, []string{"TD", "LBU", "GBU"}, []string{"TD", "LBU"}},
		{"fig6c", []string{"Uniform", "Gaussian", "Skew"}, []string{"TD", "LBU", "GBU"}, nil},
	}
	for _, c := range cases {
		e, ok := Find(c.id)
		if !ok {
			t.Fatalf("experiment %s missing", c.id)
		}
		tab, err := e.Run(s, 5)
		if err != nil {
			t.Fatal(err)
		}
		if tab.ID != c.id {
			t.Fatalf("%s: got table %q", c.id, tab.ID)
		}
		if !reflect.DeepEqual(tab.Columns, c.cols) {
			t.Fatalf("%s: columns %v, want %v", c.id, tab.Columns, c.cols)
		}
		var rows []string
		for _, r := range tab.Rows {
			rows = append(rows, r.Label)
		}
		if !reflect.DeepEqual(rows, c.rows) {
			t.Fatalf("%s: rows %v, want %v", c.id, rows, c.rows)
		}
		for _, label := range c.flat {
			row, _ := tab.Row(label)
			for _, v := range row {
				if v != row[0] {
					t.Fatalf("%s: %s row not flat: %v", c.id, label, row)
				}
			}
		}
	}
}
