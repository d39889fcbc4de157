package exp

import (
	"testing"

	"burtree/internal/core"
)

// batchTestConfig is the test-scale instance of the paper's uniform
// default workload (Table 1 bold values, locality-rescaled like every
// other experiment in this harness), applied in windows of batch
// updates (0: one Update each).
func batchTestConfig(kind core.Kind, batch int) Config {
	return Config{
		Strategy:    kind,
		Batch:       batch,
		NumObjects:  4_000,
		NumUpdates:  4_000,
		NumQueries:  100,
		Seed:        1,
		Validate:    true,
		LengthScale: lengthScale(Scale{Objects: 4_000}),
	}
}

// TestBatchedGBUFewerDiskAccesses is the batch pipeline's acceptance
// bar: at batch sizes ≥ 32 on the uniform workload, batched GBU must
// perform measurably fewer disk accesses per update than sequential
// GBU, with the group pass actually carrying the batch.
func TestBatchedGBUFewerDiskAccesses(t *testing.T) {
	seq, err := RunOnce(batchTestConfig(core.GBU, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{32, 128, 512} {
		m, err := RunOnce(batchTestConfig(core.GBU, b))
		if err != nil {
			t.Fatalf("batch=%d: %v", b, err)
		}
		bst := m.Batch
		if m.AvgUpdateIO >= seq.AvgUpdateIO*0.99 {
			t.Errorf("batch=%d: %.3f disk accesses per update, sequential %.3f — batching must be measurably cheaper",
				b, m.AvgUpdateIO, seq.AvgUpdateIO)
		}
		if bst.GroupResolved == 0 || bst.Groups == 0 {
			t.Errorf("batch=%d: group pass resolved nothing: %+v", b, bst)
		}
		// Coalescing may legitimately drop repeated moves (≈6% at
		// batch 512 over 4000 objects), never more than a small share.
		if floor := m.Config.NumUpdates * 9 / 10; bst.Changes < floor {
			t.Errorf("batch=%d: only %d changes applied (floor %d)", b, bst.Changes, floor)
		}
	}
}

// TestRunBatchOnceSizeOneMatchesSequential pins the degenerate case:
// a run with Batch 1 is the sequential pipeline with a reordered
// lookup, so its I/O must stay within a whisker of Batch 0's.
func TestRunBatchOnceSizeOneMatchesSequential(t *testing.T) {
	for _, kind := range []core.Kind{core.TD, core.LBU, core.GBU} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			seq, err := RunOnce(batchTestConfig(kind, 0))
			if err != nil {
				t.Fatal(err)
			}
			m, err := RunOnce(batchTestConfig(kind, 1))
			if err != nil {
				t.Fatal(err)
			}
			if m.AvgUpdateIO > seq.AvgUpdateIO*1.05 || m.AvgUpdateIO < seq.AvgUpdateIO*0.95 {
				t.Fatalf("batch=1 I/O %.3f diverges from sequential %.3f", m.AvgUpdateIO, seq.AvgUpdateIO)
			}
			if m.QueryHits != seq.QueryHits {
				t.Fatalf("batch=1 query hits %d != sequential %d", m.QueryHits, seq.QueryHits)
			}
		})
	}
}

// TestBatchTableHasExpectedRows sanity-checks the experiment table and
// the -batch pinning of the sweep.
func TestBatchTableHasExpectedRows(t *testing.T) {
	s := microScale()
	s.Batch = 64
	tabs, err := bundleBatch(s, 21)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs["batch"]
	if len(tab.Columns) != 2 || tab.Columns[0] != "1" || tab.Columns[1] != "64" {
		t.Fatalf("pinned sweep columns = %v", tab.Columns)
	}
	for _, label := range []string{"GBU sequential I/O", "GBU batched I/O", "GBU group-resolved %", "GBU batched updates/s", "LBU batched I/O"} {
		if r, ok := tab.Row(label); !ok || len(r) != 2 {
			t.Fatalf("missing or malformed row %q", label)
		}
	}
}
