package geom

// ExtendToward implements the paper's Algorithm 4 (iExtendMBR): it enlarges
// leaf toward p only in the direction(s) of movement, by at most eps per
// side, and never beyond parent. The enlargement is also "only enough to
// bound the object": a side moves the minimum of (eps, distance needed),
// still clipped by the parent MBR.
//
// The returned rectangle is not guaranteed to contain p; callers must check
// ContainsPoint on the result (the paper issues a sibling shift or an
// ascent when the extension fails to cover the new location).
func ExtendToward(leaf Rect, p Point, eps float64, parent Rect) Rect {
	out := leaf
	if p.X > leaf.MaxX {
		out.MaxX = min(leaf.MaxX+eps, p.X, parent.MaxX)
	} else if p.X < leaf.MinX {
		out.MinX = max(leaf.MinX-eps, p.X, parent.MinX)
	}
	if p.Y > leaf.MaxY {
		out.MaxY = min(leaf.MaxY+eps, p.Y, parent.MaxY)
	} else if p.Y < leaf.MinY {
		out.MinY = max(leaf.MinY-eps, p.Y, parent.MinY)
	}
	return out
}

// ExpandWithin implements the LBU-style uniform enlargement (Kwon et al.):
// leaf grown by eps equally in all four directions, but only if the result
// stays inside parent. The boolean result reports whether the enlargement
// was permitted.
func ExpandWithin(leaf Rect, eps float64, parent Rect) (Rect, bool) {
	e := leaf.Expand(eps)
	if !parent.ContainsRect(e) {
		return leaf, false
	}
	return e, true
}
