package rtree

import (
	"math"
	"slices"
)

// splitScratch is the room a split builds its two groups in, and
// splitQuadratic its list of unassigned entries: an insertion op's, kept
// with the room it grew to, so a split allocates nothing once warm.
type splitScratch struct {
	g1, g2, rest []Entry
}

// split divides an overflowing entry set (M+1 entries) into two groups,
// each with at least minFill entries, by Guttman's quadratic split. The
// input slice is consumed; the groups are s's until its next split.
func (s *splitScratch) split(entries []Entry, minFill int) (g1, g2 []Entry) {
	g1 = slices.Grow(s.g1[:0], len(entries))
	g2 = slices.Grow(s.g2[:0], len(entries))
	s.rest = slices.Grow(s.rest[:0], len(entries))
	g1, g2 = splitQuadratic(entries, minFill, g1, g2, s.rest)
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
