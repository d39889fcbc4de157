package core

// Cross-strategy equivalence: the paper's strategies differ only in HOW
// the index is maintained, never in WHAT it answers. Replaying one
// workload trace against TD, LBU, GBU and Naive, over either locator,
// must give identical query results at every checkpoint.

import (
	"sort"
	"testing"

	"burtree/internal/geom"
	"burtree/internal/rtree"
	"burtree/internal/workload"
)

func TestStrategiesAnswerIdentically(t *testing.T) {
	trace := workload.BuildTrace(workload.Spec{
		NumObjects:  1500,
		MaxDistance: 0.05,
		Seed:        31,
	}, 6000, 120)

	kinds := []Options{
		{Strategy: TD, Locator: paged(1500)},
		{Strategy: LBU, Locator: paged(1500)},
		{Strategy: GBU, Locator: paged(1500)},
		{Strategy: Naive, Locator: paged(1500)},
		{Strategy: LBU},
		{Strategy: GBU},
		{Strategy: Naive},
	}
	// Results per strategy: query index -> sorted oids.
	results := make([][][]rtree.OID, len(kinds))
	for ki, opts := range kinds {
		u := newUpdater(t, 1024, 16, opts)
		for i, p := range trace.Initial {
			if err := u.Insert(rtree.OID(i), p); err != nil {
				t.Fatal(err)
			}
		}
		for i, up := range trace.Updates {
			if err := u.Update(up.OID, up.Old, up.New); err != nil {
				t.Fatalf("%s update %d: %v", u.Name(), i, err)
			}
		}
		validateAll(t, u)
		for _, q := range trace.Queries {
			var got []rtree.OID
			if err := u.Search(q, func(oid rtree.OID, _ geom.Rect) bool {
				got = append(got, oid)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			results[ki] = append(results[ki], got)
		}
	}
	for ki := 1; ki < len(kinds); ki++ {
		for qi := range trace.Queries {
			a, b := results[0][qi], results[ki][qi]
			if len(a) != len(b) {
				t.Fatalf("query %d: %v returned %d results, TD returned %d",
					qi, kinds[ki].Strategy, len(b), len(a))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("query %d result %d: %v says %d, TD says %d",
						qi, kinds[ki].Strategy, j, b[j], a[j])
				}
			}
		}
	}
}

func TestStrategiesAnswerIdenticallyFastMovers(t *testing.T) {
	// Same equivalence under a hostile workload: fast movement forcing
	// ascents, top-down fallbacks and root expansion beyond the unit
	// square.
	trace := workload.BuildTrace(workload.Spec{
		NumObjects:  800,
		MaxDistance: 0.4,
		Seed:        37,
	}, 3000, 80)

	var reference [][]rtree.OID
	for _, opts := range []Options{
		{Strategy: TD, Locator: paged(800)},
		{Strategy: GBU, Locator: paged(800)},
		{Strategy: GBU, Locator: paged(800), LevelThreshold: LevelThresholdZero},
		{Strategy: GBU, Locator: paged(800), NoPiggyback: true, NoSummaryQueries: true},
		{Strategy: LBU, Locator: paged(800), Epsilon: 0.05},
		{Strategy: GBU},
		{Strategy: LBU, Epsilon: 0.05},
	} {
		u := newUpdater(t, 512, 8, opts)
		for i, p := range trace.Initial {
			if err := u.Insert(rtree.OID(i), p); err != nil {
				t.Fatal(err)
			}
		}
		for i, up := range trace.Updates {
			if err := u.Update(up.OID, up.Old, up.New); err != nil {
				t.Fatalf("%s update %d: %v", u.Name(), i, err)
			}
		}
		validateAll(t, u)
		var all [][]rtree.OID
		for _, q := range trace.Queries {
			var got []rtree.OID
			if err := u.Search(q, func(oid rtree.OID, _ geom.Rect) bool {
				got = append(got, oid)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			all = append(all, got)
		}
		if reference == nil {
			reference = all
			continue
		}
		for qi := range all {
			if len(all[qi]) != len(reference[qi]) {
				t.Fatalf("query %d: %d vs reference %d results", qi, len(all[qi]), len(reference[qi]))
			}
			for j := range all[qi] {
				if all[qi][j] != reference[qi][j] {
					t.Fatalf("query %d result %d differs from reference", qi, j)
				}
			}
		}
	}
}
