package rtree

import (
	"fmt"

	"burtree/internal/pagestore"
)

// CheckInvariants walks the whole tree and verifies its structural
// invariants. It is used pervasively by the test suite after random
// operation sequences.
//
// Invariants checked:
//   - levels decrease by exactly one from parent to child; leaves are
//     level 0 and all at the same depth;
//   - every parent entry rectangle equals the child's official MBR
//     (the mirror invariant — bottom-up MBR extensions update both ends);
//   - every node's official MBR contains the MBR of its entries (leaves
//     may be ε-extended beyond the tight bound, never the reverse);
//   - non-root nodes hold between MinEntries and MaxEntries entries of
//     their level, the root holds at least 2 when internal, at least 1
//     when leaf;
//   - no page is referenced twice; object ids are unique;
//   - parent pointers (when configured) name the actual parent;
//   - the tree's cached size and height match reality.
func (t *Tree) CheckInvariants() error {
	if t.root == pagestore.InvalidPage {
		if t.height != 0 || t.size != 0 {
			return fmt.Errorf("rtree: empty tree with height %d size %d", t.height, t.size)
		}
		return nil
	}
	seenPages := make(map[pagestore.PageID]bool)
	seenOIDs := make(map[OID]bool)
	count := 0

	root, err := t.ReadNode(t.root)
	if err != nil {
		return err
	}
	if root.Level != t.height-1 {
		return fmt.Errorf("rtree: root level %d does not match height %d", root.Level, t.height)
	}
	if root.IsLeaf() {
		if len(root.Entries) < 1 {
			return fmt.Errorf("rtree: empty leaf root persisted")
		}
	} else if len(root.Entries) < 2 {
		return fmt.Errorf("rtree: internal root with %d entries", len(root.Entries))
	}

	var walk func(n *Node, parent pagestore.PageID) error
	walk = func(n *Node, parent pagestore.PageID) error {
		if seenPages[n.Page] {
			return fmt.Errorf("rtree: page %d referenced twice", n.Page)
		}
		seenPages[n.Page] = true
		if maxE := t.MaxEntries(n.Level); len(n.Entries) > maxE {
			return fmt.Errorf("rtree: node %d overflows: %d > %d", n.Page, len(n.Entries), maxE)
		}
		if minE := t.MinEntries(n.Level); n.Page != t.root && len(n.Entries) < minE {
			return fmt.Errorf("rtree: node %d underfull: %d < %d", n.Page, len(n.Entries), minE)
		}
		if len(n.Entries) > 0 && !n.Self.ContainsRect(n.EntriesMBR()) {
			return fmt.Errorf("rtree: node %d self MBR %v does not contain entries MBR %v", n.Page, n.Self, n.EntriesMBR())
		}
		if t.cfg.ParentPointers && n.Parent != parent {
			return fmt.Errorf("rtree: node %d parent pointer %d, want %d", n.Page, n.Parent, parent)
		}
		if n.IsLeaf() {
			for _, e := range n.Entries {
				if seenOIDs[e.OID] {
					return fmt.Errorf("rtree: oid %d appears twice", e.OID)
				}
				seenOIDs[e.OID] = true
				count++
			}
			return nil
		}
		for _, e := range n.Entries {
			child, err := t.ReadNode(e.Child)
			if err != nil {
				return err
			}
			if child.Level != n.Level-1 {
				return fmt.Errorf("rtree: node %d (level %d) has child %d at level %d", n.Page, n.Level, child.Page, child.Level)
			}
			if e.Rect != child.Self {
				return fmt.Errorf("rtree: node %d entry rect %v != child %d self MBR %v", n.Page, e.Rect, child.Page, child.Self)
			}
			if err := walk(child, n.Page); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, pagestore.InvalidPage); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: cached size %d, counted %d entries", t.size, count)
	}
	return nil
}

// LevelStats summarizes one level of the tree.
type LevelStats struct {
	Level     int
	Nodes     int
	Entries   int
	AvgFill   float64 // mean entries per node / the level's fanout
	AreaSum   float64 // total MBR area at this level
	Overlap   float64 // total pairwise overlap area between sibling MBRs
	Perimeter float64
}

// Stats describes the current shape of the tree.
type Stats struct {
	Height      int
	Size        int
	Nodes       int
	Levels      []LevelStats
	RootMBRArea float64
}

// ComputeStats walks the tree and returns occupancy and overlap
// statistics per level. Sibling overlap is computed within each parent
// only (the quantity that drives multi-path descents).
func (t *Tree) ComputeStats() (Stats, error) {
	s := Stats{Height: t.height, Size: t.size}
	if t.root == pagestore.InvalidPage {
		return s, nil
	}
	byLevel := make(map[int]*LevelStats)
	var walk func(page pagestore.PageID) error
	walk = func(page pagestore.PageID) error {
		n, err := t.ReadNode(page)
		if err != nil {
			return err
		}
		ls := byLevel[n.Level]
		if ls == nil {
			ls = &LevelStats{Level: n.Level}
			byLevel[n.Level] = ls
		}
		ls.Nodes++
		ls.Entries += len(n.Entries)
		ls.AreaSum += n.Self.Area()
		ls.Perimeter += n.Self.Margin()
		s.Nodes++
		if n.IsLeaf() {
			return nil
		}
		for i := range n.Entries {
			for j := i + 1; j < len(n.Entries); j++ {
				ls.Overlap += n.Entries[i].Rect.OverlapArea(n.Entries[j].Rect)
			}
		}
		for _, e := range n.Entries {
			if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return s, err
	}
	for l := 0; l < t.height; l++ {
		ls := byLevel[l]
		if ls == nil {
			continue
		}
		if ls.Nodes > 0 {
			ls.AvgFill = float64(ls.Entries) / float64(ls.Nodes) / float64(t.MaxEntries(l))
		}
		s.Levels = append(s.Levels, *ls)
	}
	root, err := t.ReadNode(t.root)
	if err != nil {
		return s, err
	}
	s.RootMBRArea = root.Self.Area()
	return s, nil
}
