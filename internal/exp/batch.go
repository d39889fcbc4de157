package exp

// The batch-size sweep: the same workload as the paper's default
// update study, with the update stream applied through the batched
// bottom-up pipeline in windows of N updates. The experiment reports
// disk I/O per update and update throughput against the sequential
// strategies, plus the share of changes resolved by the shared
// per-leaf group pass.

import (
	"fmt"

	"burtree/internal/core"
)

// BatchSizes is the default batch-size sweep. Size 1 degenerates to
// one group per change and anchors the comparison against the
// sequential pipeline.
var BatchSizes = []int{1, 8, 32, 128, 512}

// batchSizesFor returns the sweep columns: the default sweep, or
// {1, s.Batch} when the scale pins a single size (burbench -batch).
func batchSizesFor(s Scale) []int {
	if s.Batch > 0 {
		if s.Batch == 1 {
			return []int{1}
		}
		return []int{1, s.Batch}
	}
	return BatchSizes
}

// bundleBatch produces the "batch" table: batched GBU and LBU against
// their sequential baselines across the batch-size sweep, on the
// paper's uniform default workload.
func bundleBatch(s Scale, seed int64) (map[string]*Table, error) {
	sizes := batchSizesFor(s)
	cols := make([]string, len(sizes))
	for i, b := range sizes {
		cols[i] = fmt.Sprintf("%d", b)
	}
	t := &Table{
		ID:      "batch",
		Title:   "Batched Bottom-Up Updates: Disk I/O and Throughput vs Batch Size",
		XLabel:  "batch size (updates per UpdateBatch)",
		YLabel:  "avg disk I/O per update",
		Columns: cols,
	}

	updPerSec := func(m Metrics) float64 {
		secs := m.UpdateWall.Seconds()
		if secs <= 0 {
			return 0
		}
		return float64(m.Config.NumUpdates) / secs
	}

	for _, kind := range []core.Kind{core.LBU, core.GBU} {
		seq, err := RunOnce(withStrategy(baseConfig(s, seed), kind))
		if err != nil {
			return nil, fmt.Errorf("%v sequential: %w", kind, err)
		}
		var ioRow, grpRow, thrRow, seqRow []float64
		for _, b := range sizes {
			cfg := withStrategy(baseConfig(s, seed), kind)
			cfg.Batch = b
			m, err := RunOnce(cfg)
			if err != nil {
				return nil, fmt.Errorf("%v batch=%d: %w", kind, b, err)
			}
			ioRow = append(ioRow, m.AvgUpdateIO)
			share := 0.0
			if m.Batch.Changes > 0 {
				share = 100 * float64(m.Batch.GroupResolved) / float64(m.Batch.Changes)
			}
			grpRow = append(grpRow, share)
			thrRow = append(thrRow, updPerSec(m))
			seqRow = append(seqRow, seq.AvgUpdateIO)
		}
		t.AddRow(kind.String()+" sequential I/O", seqRow)
		t.AddRow(kind.String()+" batched I/O", ioRow)
		t.AddRow(kind.String()+" group-resolved %", grpRow)
		t.AddRow(kind.String()+" batched updates/s", thrRow)
	}
	return map[string]*Table{"batch": t}, nil
}
