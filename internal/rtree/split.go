package rtree

import (
	"math"
	"slices"
	"sort"

	"burtree/internal/geom"
)

// splitScratch is the room a split builds its two groups in, and
// splitQuadratic its list of unassigned entries: an insertion op's, kept
// with the room it grew to, so a split allocates nothing once warm.
type splitScratch struct {
	g1, g2, rest []Entry
	sides        bySide // the R* split's sort, handed to package sort by pointer
}

// split divides an overflowing entry set (M+1 entries) into two groups,
// each with at least minFill entries, using the configured algorithm. The
// input slice is consumed; the groups are s's until its next split.
func (s *splitScratch) split(entries []Entry, minFill int, alg SplitAlgorithm) (g1, g2 []Entry) {
	g1 = slices.Grow(s.g1[:0], len(entries))
	g2 = slices.Grow(s.g2[:0], len(entries))
	switch alg {
	case SplitLinear:
		g1, g2 = splitLinear(entries, minFill, g1, g2)
	case SplitRStar:
		g1, g2 = splitRStar(entries, minFill, g1, g2, &s.sides)
	default:
		s.rest = slices.Grow(s.rest[:0], len(entries))
		g1, g2 = splitQuadratic(entries, minFill, g1, g2, s.rest)
	}
	s.g1, s.g2 = g1, g2
	return g1, g2
}

// splitQuadratic is Guttman's quadratic split: pick the pair of entries
// that would waste the most area together as seeds, then assign the rest
// by greatest affinity difference.
//
// The groups are appended to g1 and g2, and rest is the room the
// unassigned entries are listed in.
func splitQuadratic(entries []Entry, minFill int, g1, g2, rest []Entry) ([]Entry, []Entry) {
	s1, s2 := pickSeedsQuadratic(entries)
	g1 = append(g1, entries[s1])
	g2 = append(g2, entries[s2])
	mbr1, mbr2 := entries[s1].Rect, entries[s2].Rect

	for i := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, entries[i])
		}
	}

	for len(rest) > 0 {
		// If one group must take all remaining entries to reach minFill,
		// assign them wholesale.
		if len(g1)+len(rest) == minFill {
			g1 = append(g1, rest...)
			return g1, g2
		}
		if len(g2)+len(rest) == minFill {
			g2 = append(g2, rest...)
			return g1, g2
		}
		// PickNext: entry with maximum preference difference.
		best, bestDiff := -1, -1.0
		var bestD1, bestD2 float64
		for i := range rest {
			d1 := mbr1.Enlargement(rest[i].Rect)
			d2 := mbr2.Enlargement(rest[i].Rect)
			diff := math.Abs(d1 - d2)
			if diff > bestDiff {
				best, bestDiff, bestD1, bestD2 = i, diff, d1, d2
			}
		}
		e := rest[best]
		rest = append(rest[:best], rest[best+1:]...)
		// Resolve ties by smaller area, then smaller count.
		toFirst := bestD1 < bestD2
		if bestD1 == bestD2 {
			a1, a2 := mbr1.Area(), mbr2.Area()
			if a1 != a2 {
				toFirst = a1 < a2
			} else {
				toFirst = len(g1) <= len(g2)
			}
		}
		if toFirst {
			g1 = append(g1, e)
			mbr1 = mbr1.Union(e.Rect)
		} else {
			g2 = append(g2, e)
			mbr2 = mbr2.Union(e.Rect)
		}
	}
	return g1, g2
}

func pickSeedsQuadratic(entries []Entry) (int, int) {
	worst := -math.MaxFloat64
	s1, s2 := 0, 1
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			u := entries[i].Rect.Union(entries[j].Rect)
			waste := u.Area() - entries[i].Rect.Area() - entries[j].Rect.Area()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	return s1, s2
}

// splitLinear is Guttman's linear split: seeds are the pair with the
// greatest normalized separation along any dimension; the rest are
// assigned by least enlargement. The groups are appended to g1 and g2.
func splitLinear(entries []Entry, minFill int, g1, g2 []Entry) ([]Entry, []Entry) {
	s1, s2 := pickSeedsLinear(entries)
	g1 = append(g1, entries[s1])
	g2 = append(g2, entries[s2])
	mbr1, mbr2 := entries[s1].Rect, entries[s2].Rect
	for i := range entries {
		if i == s1 || i == s2 {
			continue
		}
		e := entries[i]
		switch {
		case len(g1)+1 < minFill && len(g2) >= minFill:
			g1 = append(g1, e)
			mbr1 = mbr1.Union(e.Rect)
			continue
		case len(g2)+1 < minFill && len(g1) >= minFill:
			g2 = append(g2, e)
			mbr2 = mbr2.Union(e.Rect)
			continue
		}
		d1 := mbr1.Enlargement(e.Rect)
		d2 := mbr2.Enlargement(e.Rect)
		if d1 < d2 || (d1 == d2 && len(g1) <= len(g2)) {
			g1 = append(g1, e)
			mbr1 = mbr1.Union(e.Rect)
		} else {
			g2 = append(g2, e)
			mbr2 = mbr2.Union(e.Rect)
		}
	}
	return rebalanceMin(g1, g2, minFill)
}

func pickSeedsLinear(entries []Entry) (int, int) {
	// For each dimension find the entry with the highest low side and the
	// one with the lowest high side; normalize separation by the width.
	var (
		bestSep  = -math.MaxFloat64
		bs1, bs2 = 0, 1
		loX, hiX = math.MaxFloat64, -math.MaxFloat64
		loY, hiY = math.MaxFloat64, -math.MaxFloat64
		maxLoX   = -math.MaxFloat64
		minHiX   = math.MaxFloat64
		maxLoY   = -math.MaxFloat64
		minHiY   = math.MaxFloat64
		iMaxLoX  int
		iMinHiX  int
		iMaxLoY  int
		iMinHiY  int
	)
	for i, e := range entries {
		r := e.Rect
		loX = min(loX, r.MinX)
		hiX = max(hiX, r.MaxX)
		loY = min(loY, r.MinY)
		hiY = max(hiY, r.MaxY)
		if r.MinX > maxLoX {
			maxLoX, iMaxLoX = r.MinX, i
		}
		if r.MaxX < minHiX {
			minHiX, iMinHiX = r.MaxX, i
		}
		if r.MinY > maxLoY {
			maxLoY, iMaxLoY = r.MinY, i
		}
		if r.MaxY < minHiY {
			minHiY, iMinHiY = r.MaxY, i
		}
	}
	if w := hiX - loX; w > 0 && iMaxLoX != iMinHiX {
		if sep := (maxLoX - minHiX) / w; sep > bestSep {
			bestSep, bs1, bs2 = sep, iMinHiX, iMaxLoX
		}
	}
	if h := hiY - loY; h > 0 && iMaxLoY != iMinHiY {
		if sep := (maxLoY - minHiY) / h; sep > bestSep {
			bestSep, bs1, bs2 = sep, iMinHiY, iMaxLoY
		}
	}
	if bs1 == bs2 {
		bs2 = (bs1 + 1) % len(entries)
	}
	return bs1, bs2
}

// splitRStar implements the R*-tree split: choose the axis with the
// minimum total margin over all valid distributions, then the
// distribution with minimum overlap (ties by minimum area). The groups
// are appended to g1 and g2; by is the room for the sorts' state.
func splitRStar(entries []Entry, minFill int, g1, g2 []Entry, by *bySide) ([]Entry, []Entry) {
	es := entries
	n := len(es)
	by.es = es
	bestSide, bestMargin := sideMinX, math.MaxFloat64
	for by.side = sideMinX; by.side <= sideMaxY; by.side++ {
		sort.Stable(by)
		if m := splitMargin(es, minFill); m < bestMargin {
			bestMargin, bestSide = m, by.side
		}
	}
	by.side = bestSide
	sort.Stable(by)
	by.es = nil

	bestK, bestOverlap, bestArea := minFill, math.MaxFloat64, math.MaxFloat64
	for k := minFill; k <= n-minFill; k++ {
		l, r := unionOf(es[:k]), unionOf(es[k:])
		ov := l.OverlapArea(r)
		area := l.Area() + r.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, ov, area
		}
	}
	g1 = append(g1, es[:bestK]...)
	g2 = append(g2, es[bestK:]...)
	return g1, g2
}

// splitMargin is the total margin of the two groups over every valid
// distribution of es in its current order.
func splitMargin(es []Entry, minFill int) float64 {
	total := 0.0
	for k := minFill; k <= len(es)-minFill; k++ {
		total += unionOf(es[:k]).Margin() + unionOf(es[k:]).Margin()
	}
	return total
}

// The sides of a rectangle the R* split sorts by, in the order it tries
// them: each axis by its low side, then by its high side.
const (
	sideMinX = iota
	sideMaxX
	sideMinY
	sideMaxY
)

// bySide orders entries by one side of their rectangles: a named
// sort.Interface, so the R* split's sorts build no closure and take no
// reflection swapper.
type bySide struct {
	es   []Entry
	side int
}

func (s bySide) Len() int      { return len(s.es) }
func (s bySide) Swap(i, j int) { s.es[i], s.es[j] = s.es[j], s.es[i] }
func (s bySide) Less(i, j int) bool {
	a, b := &s.es[i].Rect, &s.es[j].Rect
	switch s.side {
	case sideMinX:
		return a.MinX < b.MinX
	case sideMaxX:
		return a.MaxX < b.MaxX
	case sideMinY:
		return a.MinY < b.MinY
	}
	return a.MaxY < b.MaxY
}

// unionOf returns the MBR of the entries' rectangles (es is not empty).
func unionOf(es []Entry) geom.Rect {
	u := es[0].Rect
	for _, e := range es[1:] {
		u = u.Union(e.Rect)
	}
	return u
}

// rebalanceMin moves entries from the larger group to the smaller until
// both meet minFill. Movement picks the entry whose removal shrinks the
// donor least (by enlargement of the recipient).
func rebalanceMin(g1, g2 []Entry, minFill int) ([]Entry, []Entry) {
	for len(g1) < minFill && len(g2) > minFill {
		i := cheapestDonor(g2, g1)
		g1 = append(g1, g2[i])
		g2 = append(g2[:i], g2[i+1:]...)
	}
	for len(g2) < minFill && len(g1) > minFill {
		i := cheapestDonor(g1, g2)
		g2 = append(g2, g1[i])
		g1 = append(g1[:i], g1[i+1:]...)
	}
	return g1, g2
}

func cheapestDonor(from, to []Entry) int {
	mbr := unionOf(to)
	best, bestCost := 0, math.MaxFloat64
	for i := range from {
		if c := mbr.Enlargement(from[i].Rect); c < bestCost {
			best, bestCost = i, c
		}
	}
	return best
}
