package main

import (
	"testing"

	"burtree/internal/core"
	"burtree/internal/exp"
	"burtree/internal/workload"
)

// TestReplayMatchesRunOnce: a trace recorded from an experiment cell's
// workload replays to that cell's numbers, page for page. Replay and
// burbench run one procedure, buffer sizing included, so any drift
// between them shows here.
func TestReplayMatchesRunOnce(t *testing.T) {
	for _, kind := range []core.Kind{core.TD, core.LBU, core.GBU} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := exp.Config{Strategy: kind, NumObjects: 20_000, NumUpdates: 4_000, NumQueries: 200, Validate: true}
			want, err := exp.RunOnce(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := workload.BuildTrace(cfg.Spec(), cfg.NumUpdates, cfg.NumQueries)
			got, err := runTrace(tr, kind, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if got.BufferPages != want.BufferPages {
				t.Errorf("buffer: replay %d pages, RunOnce %d", got.BufferPages, want.BufferPages)
			}
			if got.UpdateIO != want.UpdateIO || got.QueryIO != want.QueryIO {
				t.Errorf("I/O: replay updates %+v queries %+v, RunOnce updates %+v queries %+v",
					got.UpdateIO, got.QueryIO, want.UpdateIO, want.QueryIO)
			}
			if got.Outcomes != want.Outcomes || got.QueryHits != want.QueryHits || got.TreePages != want.TreePages {
				t.Errorf("replay outcomes %+v, %d hits, %d pages; RunOnce %+v, %d hits, %d pages",
					got.Outcomes, got.QueryHits, got.TreePages, want.Outcomes, want.QueryHits, want.TreePages)
			}
		})
	}
}

// TestReplayEmptyStreams: a trace's own lengths are the phase counts,
// so a trace without updates or queries runs none — not the harness's
// defaults — and a zero buffer stays zero.
func TestReplayEmptyStreams(t *testing.T) {
	tr := workload.BuildTrace(workload.Spec{NumObjects: 2_000, Seed: 3}, 0, 0)
	m, err := runTrace(tr, core.GBU, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Config.NumUpdates != 0 || m.Config.NumQueries != 0 || m.UpdateIO.Total() != 0 || m.QueryIO.Total() != 0 {
		t.Fatalf("empty streams ran %d updates (%d I/O) and %d queries (%d I/O)",
			m.Config.NumUpdates, m.UpdateIO.Total(), m.Config.NumQueries, m.QueryIO.Total())
	}
	if m.BufferPages != 0 {
		t.Fatalf("-buffer 0 gave a %d-page buffer", m.BufferPages)
	}
}
