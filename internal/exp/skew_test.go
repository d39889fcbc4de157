package exp

import (
	"testing"
	"time"
)

// A tiny skew cell must complete in both arms; the adaptive arm under a
// heavily skewed stream must actually change boundaries (router epoch
// advances past the static arm's zero) and report the migration cost it
// paid to do so.
func TestRunSkewSweepSmoke(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		r, err := RunSkewSweep(SkewSweepConfig{
			Theta:        1.1,
			Adaptive:     adaptive,
			Shards:       4,
			Workers:      8,
			NumObjects:   2000,
			Updates:      2000,
			BatchSize:    4,
			Hotspots:     2,
			HotspotDrift: 0.1,
			MaxDist:      0.03,
			IOLatency:    20 * time.Microsecond,
			BufferPages:  16,
			Seed:         1,
		})
		if err != nil {
			t.Fatalf("adaptive=%v: %v", adaptive, err)
		}
		if r.UpdatesPerSec <= 0 || r.Elapsed <= 0 || r.Updates <= 0 {
			t.Fatalf("adaptive=%v: degenerate result %+v", adaptive, r)
		}
		if adaptive {
			if r.RouterEpoch == 0 {
				t.Fatalf("adaptive arm never rebalanced: %+v", r)
			}
			if r.RebalanceDur <= 0 {
				t.Fatalf("adaptive arm reports no rebalance cost: %+v", r)
			}
		} else if r.RouterEpoch != 0 {
			t.Fatalf("static arm changed boundaries: %+v", r)
		}
	}

	// The θ=1.1 weighted-vs-opcount round: both adaptive signal arms
	// must complete and rebalance under a heavily skewed stream — the
	// op-count arm exercising the pre-cost comparison path, the weighted
	// arm exercising cost-weighted shares.
	for _, arm := range []struct {
		name     string
		opCounts bool
	}{
		{name: "op-count", opCounts: true},
		{name: "weighted"},
	} {
		r, err := RunSkewSweep(SkewSweepConfig{
			Theta:        1.1,
			Adaptive:     true,
			OpCounts:     arm.opCounts,
			Shards:       4,
			Workers:      8,
			NumObjects:   2000,
			Updates:      2000,
			BatchSize:    4,
			Hotspots:     2,
			HotspotDrift: 0.1,
			MaxDist:      0.03,
			IOLatency:    20 * time.Microsecond,
			BufferPages:  16,
			Seed:         1,
		})
		if err != nil {
			t.Fatalf("%s arm: %v", arm.name, err)
		}
		if r.UpdatesPerSec <= 0 || r.Updates <= 0 {
			t.Fatalf("%s arm: degenerate result %+v", arm.name, r)
		}
		if r.RouterEpoch == 0 {
			t.Fatalf("%s arm never rebalanced: %+v", arm.name, r)
		}
	}
}
