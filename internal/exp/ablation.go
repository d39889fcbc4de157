package exp

import "burtree/internal/core"

// Ablation experiments: the paper motivates several GBU design choices
// (piggybacked shifts, summary-assisted queries, directional extension);
// these bundles isolate each choice by toggling it off. They go beyond
// the paper's own sweeps; README.md, "Reproducing the paper's
// experiments", lists them.

func bundlePiggyback(s Scale, seed int64) (map[string]*Table, error) {
	t := &Table{
		ID:     "ablation-piggyback",
		Title:  "Ablation: GBU with and without piggybacked sibling shifts",
		XLabel: "metric", YLabel: "value",
		Columns: []string{"update I/O", "query I/O", "piggybacked"},
	}
	for _, off := range []bool{false, true} {
		cfg := withStrategy(baseConfig(s, seed), core.GBU)
		cfg.NoPiggyback = off
		m, err := RunOnce(cfg)
		if err != nil {
			return nil, err
		}
		label := "piggyback on"
		if off {
			label = "piggyback off"
		}
		t.AddRow(label, []float64{m.AvgUpdateIO, m.AvgQueryIO, float64(m.Outcomes.Piggyback)})
	}
	return map[string]*Table{"ablation-piggyback": t}, nil
}

func bundleSummaryQueries(s Scale, seed int64) (map[string]*Table, error) {
	t := &Table{
		ID:     "ablation-summary-queries",
		Title:  "Ablation: GBU queries with and without the summary structure",
		XLabel: "metric", YLabel: "value",
		Columns: []string{"update I/O", "query I/O"},
	}
	for _, off := range []bool{false, true} {
		cfg := withStrategy(baseConfig(s, seed), core.GBU)
		cfg.NoSummaryQueries = off
		m, err := RunOnce(cfg)
		if err != nil {
			return nil, err
		}
		label := "summary queries on"
		if off {
			label = "summary queries off"
		}
		t.AddRow(label, []float64{m.AvgUpdateIO, m.AvgQueryIO})
	}
	return map[string]*Table{"ablation-summary-queries": t}, nil
}
