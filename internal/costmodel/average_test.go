package costmodel

import (
	"math"
	"testing"
)

func TestExpectedBottomUpCostBounds(t *testing.T) {
	prm := BottomUpParams{LeafW: 0.05, LeafH: 0.05, Height: 5, UseSummary: true}
	// The average over [0, d] lies between the endpoint costs.
	for _, d := range []float64{0.01, 0.05, 0.2} {
		avg := ExpectedBottomUpCost(d, prm, 128)
		lo := BottomUpUpdateCost(0, prm)
		hi := BottomUpUpdateCost(d, prm)
		if avg < lo-1e-9 || avg > hi+1e-9 {
			t.Fatalf("d=%v: avg %v outside [%v, %v]", d, avg, lo, hi)
		}
	}
	// Zero distance degenerates to the in-leaf cost.
	if got := ExpectedBottomUpCost(0, prm, 10); got != 3 {
		t.Fatalf("avg at d=0 = %v, want 3", got)
	}
}

func TestExpectedBottomUpCostMonotoneInMaxDist(t *testing.T) {
	prm := BottomUpParams{LeafW: 0.03, LeafH: 0.03, Height: 4, UseSummary: true}
	prev := 0.0
	for _, d := range []float64{0.005, 0.01, 0.03, 0.06, 0.1} {
		avg := ExpectedBottomUpCost(d, prm, 64)
		if avg < prev-1e-9 {
			t.Fatalf("avg cost decreased at maxDist=%v", d)
		}
		prev = avg
	}
}

func TestCrossoverDistance(t *testing.T) {
	prm := BottomUpParams{LeafW: 0.02, LeafH: 0.02, Height: 5, UseSummary: true}
	// Top-down cheaper than the bottom-up floor: crossover at zero.
	if d, ok := CrossoverDistance(2.9, prm); !ok || d != 0 {
		t.Fatalf("crossover vs 2.9 = %v, %v; want 0, true", d, ok)
	}
	// Top-down more expensive than the bottom-up ceiling (7 with the
	// summary structure): never crosses.
	if _, ok := CrossoverDistance(8, prm); ok {
		t.Fatal("crossover found although bottom-up is always cheaper")
	}
	// In between: the crossover must satisfy B(d*) ≈ td.
	td := 5.0
	d, ok := CrossoverDistance(td, prm)
	if !ok {
		t.Fatal("no crossover found for td=5")
	}
	if got := BottomUpUpdateCost(d, prm); math.Abs(got-td) > 0.05 {
		t.Fatalf("B(%v) = %v, want ≈ %v", d, got, td)
	}
}

func TestLeafExtentForUniform(t *testing.T) {
	// 1M points at ~16 entries/leaf: extent ≈ 0.004 — the paper regime
	// discussed in README.md, "Reproducing the paper's experiments".
	got := LeafExtentForUniform(1_000_000, 16)
	if math.Abs(got-0.004) > 1e-6 {
		t.Fatalf("extent = %v, want 0.004", got)
	}
	// Scaling law: quartering the population doubles the extent.
	a := LeafExtentForUniform(20_000, 16)
	b := LeafExtentForUniform(80_000, 16)
	if math.Abs(a/b-2) > 1e-9 {
		t.Fatalf("scaling law violated: %v / %v", a, b)
	}
	if LeafExtentForUniform(0, 16) != 0 || LeafExtentForUniform(100, 0) != 0 {
		t.Fatal("degenerate inputs should yield 0")
	}
}
