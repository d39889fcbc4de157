package costmodel

// Average-case extension of the §4 analysis. The paper bounds the
// bottom-up worst case; for tuning it is more useful to know the
// *expected* update cost under the workload's actual movement
// distribution (GSTD draws the distance uniformly from [0, maxDist]).
// This file integrates the §4 per-distance cost over that distribution
// and derives the analytic crossover distance at which bottom-up and
// top-down updates break even.

import "math"

// ExpectedBottomUpCost integrates BottomUpUpdateCost over distances
// drawn uniformly from [0, maxDist], using n trapezoid steps (n >= 1).
func ExpectedBottomUpCost(maxDist float64, prm BottomUpParams, n int) float64 {
	if maxDist <= 0 {
		return BottomUpUpdateCost(0, prm)
	}
	if n < 1 {
		n = 64
	}
	h := maxDist / float64(n)
	sum := 0.5 * (BottomUpUpdateCost(0, prm) + BottomUpUpdateCost(maxDist, prm))
	for i := 1; i < n; i++ {
		sum += BottomUpUpdateCost(float64(i)*h, prm)
	}
	return sum * h / maxDist
}

// CrossoverDistance returns the smallest movement distance at which the
// per-update bottom-up cost reaches the given top-down cost, found by
// bisection over [0, √2]. If bottom-up stays cheaper everywhere the
// second result is false — for the paper's parameters this is the
// common case, since the bottom-up worst case is bounded by the
// top-down best case.
func CrossoverDistance(tdCost float64, prm BottomUpParams) (float64, bool) {
	lo, hi := 0.0, MaxMoveDistance
	if BottomUpUpdateCost(hi, prm) < tdCost {
		return 0, false
	}
	if BottomUpUpdateCost(lo, prm) >= tdCost {
		return 0, true
	}
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if BottomUpUpdateCost(mid, prm) < tdCost {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, true
}

// LeafExtentForUniform estimates the side length of a leaf MBR for n
// uniformly distributed points in the unit square with the given
// average leaf occupancy — the quantity that fixes the locality regime
// (see README.md, "Reproducing the paper's experiments", on length
// rescaling).
func LeafExtentForUniform(n int, avgLeafEntries float64) float64 {
	if n <= 0 || avgLeafEntries <= 0 {
		return 0
	}
	return math.Sqrt(avgLeafEntries / float64(n))
}
