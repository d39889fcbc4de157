package rtree

import (
	"fmt"
	"math"
	"sort"

	"burtree/internal/geom"
	"burtree/internal/pagestore"
)

// Item is one data object for bulk loading.
type Item struct {
	OID  OID
	Rect geom.Rect
}

// BulkLoad builds the tree from scratch using Sort-Tile-Recursive (STR)
// packing. fillFactor (0 < f <= 1) controls node occupancy; the harness
// uses 0.66 to mimic the utilization the paper quotes for grown trees.
// The tree must be empty.
func (t *Tree) BulkLoad(items []Item, fillFactor float64) error {
	if t.root != pagestore.InvalidPage {
		return fmt.Errorf("rtree: BulkLoad on non-empty tree")
	}
	if len(items) == 0 {
		return nil
	}
	if fillFactor <= 0 || fillFactor > 1 {
		return fmt.Errorf("rtree: BulkLoad fill factor %v outside (0,1]", fillFactor)
	}
	entries := make([]Entry, len(items))
	for i, it := range items {
		if err := checkData(it.OID, it.Rect); err != nil {
			return fmt.Errorf("rtree: BulkLoad: %w", err)
		}
		entries[i] = Entry{Rect: it.Rect, OID: it.OID}
	}

	level := 0
	for {
		nodes, err := t.packLevel(entries, level, t.packCap(level, fillFactor))
		if err != nil {
			return err
		}
		if len(nodes) == 1 {
			t.setRoot(nodes[0].Page, level+1)
			if t.cfg.ParentPointers {
				if err := t.fixParents(nodes[0]); err != nil {
					return err
				}
			}
			break
		}
		entries = make([]Entry, len(nodes))
		for i, n := range nodes {
			entries[i] = Entry{Rect: n.Self, Child: n.Page}
		}
		level++
	}
	t.size = len(items)
	return nil
}

// packCap is how many entries a packed node at level takes: the level's
// fanout times fillFactor, and never fewer than its minimum fill.
func (t *Tree) packCap(level int, fillFactor float64) int {
	return max(t.MinEntries(level), int(float64(t.MaxEntries(level))*fillFactor))
}

// packLevel tiles the entries into nodes of the given level using STR:
// sort by x-center, cut into vertical slices, sort each slice by
// y-center, and chunk.
func (t *Tree) packLevel(entries []Entry, level, cap int) ([]*Node, error) {
	n := len(entries)
	nodeCount := (n + cap - 1) / cap
	sliceCount := int(math.Ceil(math.Sqrt(float64(nodeCount))))
	sliceSize := sliceCount * cap

	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Rect.Center().X < entries[j].Rect.Center().X
	})

	var nodes []*Node
	for start := 0; start < n; start += sliceSize {
		end := start + sliceSize
		if end > n {
			end = n
		}
		slice := entries[start:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Rect.Center().Y < slice[j].Rect.Center().Y
		})
		for s := 0; s < len(slice); s += cap {
			e := s + cap
			if e > len(slice) {
				e = len(slice)
			}
			node := t.allocNode(level)
			node.Entries = append(node.Entries, slice[s:e]...)
			node.Self = node.EntriesMBR()
			if err := t.WriteNode(node); err != nil {
				return nil, err
			}
			if level == 0 {
				for _, en := range node.Entries {
					t.notifyPlaced(en.OID, node.Page)
				}
			}
			nodes = append(nodes, node)
		}
	}
	return t.fixTrailingUnderfull(nodes, level, false)
}

// fixTrailingUnderfull repairs the last node of a packed level when it
// holds fewer than the level's minimum fill (only the globally last node
// can be underfull: every other slice and chunk is packed exactly full).
// The runt is merged into its predecessor when the union fits in one
// node; otherwise the two are rebalanced evenly — the union then exceeds
// the fanout M ≥ 2·m, so both halves satisfy the minimum m.
// prepend keeps curve order for sequentially packed levels (Hilbert):
// entries borrowed from the predecessor go in front of the runt's own.
func (t *Tree) fixTrailingUnderfull(nodes []*Node, level int, prepend bool) ([]*Node, error) {
	if len(nodes) < 2 {
		return nodes, nil
	}
	last := nodes[len(nodes)-1]
	prev := nodes[len(nodes)-2]
	minE := t.MinEntries(level)
	if len(last.Entries) >= minE {
		return nodes, nil
	}
	total := len(prev.Entries) + len(last.Entries)
	if total <= t.MaxEntries(level) {
		moved := last.Entries
		prev.Entries = append(prev.Entries, moved...)
		prev.Self = prev.EntriesMBR()
		if err := t.WriteNode(prev); err != nil {
			return nil, err
		}
		if level == 0 {
			for _, en := range moved {
				t.notifyPlaced(en.OID, prev.Page)
			}
		}
		if err := t.freeNode(last.Page, last.Level); err != nil {
			return nil, err
		}
		return nodes[:len(nodes)-1], nil
	}
	if total/2 < minE {
		return nodes, nil // unreachable while M >= 2*m
	}
	need := total/2 - len(last.Entries)
	moved := prev.Entries[len(prev.Entries)-need:]
	prev.Entries = prev.Entries[:len(prev.Entries)-need]
	if prepend {
		last.Entries = append(append([]Entry(nil), moved...), last.Entries...)
	} else {
		last.Entries = append(last.Entries, moved...)
	}
	prev.Self = prev.EntriesMBR()
	last.Self = last.EntriesMBR()
	if err := t.WriteNode(prev); err != nil {
		return nil, err
	}
	if err := t.WriteNode(last); err != nil {
		return nil, err
	}
	if level == 0 {
		for _, en := range moved {
			t.notifyPlaced(en.OID, last.Page)
		}
	}
	return nodes, nil
}

// fixParents rewrites parent pointers for the whole subtree after a bulk
// load of a parent-pointer tree.
func (t *Tree) fixParents(root *Node) error {
	var walk func(n *Node, parent pagestore.PageID) error
	walk = func(n *Node, parent pagestore.PageID) error {
		n.Parent = parent
		if err := t.WriteNode(n); err != nil {
			return err
		}
		if n.IsLeaf() {
			return nil
		}
		for _, e := range n.Entries {
			child, err := t.ReadNode(e.Child)
			if err != nil {
				return err
			}
			if err := walk(child, n.Page); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, pagestore.InvalidPage)
}
