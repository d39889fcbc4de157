package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"burtree/internal/geom"
)

func randomEntries(rng *rand.Rand, n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		c := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		out[i] = Entry{
			Rect: geom.Rect{MinX: c.X, MinY: c.Y, MaxX: c.X + rng.Float64()*0.1, MaxY: c.Y + rng.Float64()*0.1},
			OID:  OID(i),
		}
	}
	return out
}

func checkSplit(t *testing.T, entries []Entry, minFill int) {
	t.Helper()
	orig := make(map[OID]bool, len(entries))
	for _, e := range entries {
		orig[e.OID] = true
	}
	in := make([]Entry, len(entries))
	copy(in, entries)
	g1, g2 := new(splitScratch).split(in, minFill)
	if len(g1)+len(g2) != len(entries) {
		t.Fatalf("split lost entries: %d + %d != %d", len(g1), len(g2), len(entries))
	}
	if len(g1) < minFill || len(g2) < minFill {
		t.Fatalf("group below min fill: %d / %d (min %d)", len(g1), len(g2), minFill)
	}
	seen := make(map[OID]bool)
	for _, e := range append(append([]Entry{}, g1...), g2...) {
		if seen[e.OID] {
			t.Fatalf("duplicate entry %d after split", e.OID)
		}
		if !orig[e.OID] {
			t.Fatalf("foreign entry %d after split", e.OID)
		}
		seen[e.OID] = true
	}
}

func TestSplitAlgorithmsPreserveEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(60)
		minFill := 2 + rng.Intn(n/2-1)
		if minFill > n/2 {
			minFill = n / 2
		}
		checkSplit(t, randomEntries(rng, n), minFill)
	}
}

func TestSplitDegenerateIdenticalRects(t *testing.T) {
	// All entries identical: split must still terminate with valid fills.
	r := geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5}
	entries := make([]Entry, 25)
	for i := range entries {
		entries[i] = Entry{Rect: r, OID: OID(i)}
	}
	checkSplit(t, entries, 10)
}

func TestSplitCollinearPoints(t *testing.T) {
	entries := make([]Entry, 30)
	for i := range entries {
		entries[i] = Entry{Rect: geom.RectFromPoint(geom.Point{X: float64(i) / 30, Y: 0.5}), OID: OID(i)}
	}
	checkSplit(t, entries, 12)
}

func TestQuadraticSeparatesClusters(t *testing.T) {
	// Two well-separated clusters should end up in different groups.
	var entries []Entry
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		entries = append(entries, Entry{Rect: geom.RectFromPoint(geom.Point{X: rng.Float64() * 0.1, Y: rng.Float64() * 0.1}), OID: OID(i)})
	}
	for i := 10; i < 20; i++ {
		entries = append(entries, Entry{Rect: geom.RectFromPoint(geom.Point{X: 0.9 + rng.Float64()*0.1, Y: 0.9 + rng.Float64()*0.1}), OID: OID(i)})
	}
	g1, g2 := new(splitScratch).split(entries, 4)
	low1, low2 := 0, 0
	for _, e := range g1 {
		if e.OID < 10 {
			low1++
		}
	}
	for _, e := range g2 {
		if e.OID < 10 {
			low2++
		}
	}
	// One group should be (nearly) all-low, the other all-high.
	if !(low1 == len(g1) && low2 == 0) && !(low2 == len(g2) && low1 == 0) {
		t.Fatalf("clusters mixed: g1 has %d/%d low, g2 has %d/%d low", low1, len(g1), low2, len(g2))
	}
}

func TestQuickSplitProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(40)
		minFill := 2 + rng.Intn(n/3)
		if minFill > n/2 {
			minFill = n / 2
		}
		entries := randomEntries(rng, n)
		orig := len(entries)
		g1, g2 := new(splitScratch).split(entries, minFill)
		if len(g1)+len(g2) != orig || len(g1) < minFill || len(g2) < minFill {
			return false
		}
		seen := map[OID]bool{}
		for _, e := range g1 {
			seen[e.OID] = true
		}
		for _, e := range g2 {
			if seen[e.OID] {
				return false
			}
			seen[e.OID] = true
		}
		return len(seen) == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
