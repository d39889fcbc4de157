package rtree

import (
	"fmt"
	"sort"

	"burtree/internal/geom"
	"burtree/internal/hilbert"
	"burtree/internal/pagestore"
)

// Hilbert-curve bulk loading, after Kamel & Faloutsos's Hilbert R-tree
// (cited by the paper as one of the R-tree variants its bottom-up
// techniques apply to). Entries are ordered by the Hilbert value of
// their center point and packed sequentially; compared with STR this
// tends to give better leaf locality on skewed data.

// hilbertBits is the curve resolution: 2^16 cells per axis gives 32-bit
// keys, ample for float64 coordinates of any workload here.
const hilbertBits = 16

// hilbertValue converts (x, y) cell coordinates to the distance along
// the Hilbert curve (internal/hilbert holds the shared walk).
func hilbertValue(x, y uint32) uint64 {
	return hilbert.D(x, y, hilbertBits)
}

// hilbertOf maps a point within bounds to its curve position.
func hilbertOf(p geom.Point, bounds geom.Rect) uint64 {
	const cells = 1<<hilbertBits - 1
	w := bounds.Width()
	h := bounds.Height()
	var cx, cy uint32
	if w > 0 {
		cx = uint32((p.X - bounds.MinX) / w * cells)
	}
	if h > 0 {
		cy = uint32((p.Y - bounds.MinY) / h * cells)
	}
	if cx > cells {
		cx = cells
	}
	if cy > cells {
		cy = cells
	}
	return hilbertValue(cx, cy)
}

// BulkLoadHilbert builds the tree by Hilbert-sorting the items and
// packing nodes sequentially at the given fill factor (0 < f <= 1). The
// tree must be empty.
func (t *Tree) BulkLoadHilbert(items []Item, fillFactor float64) error {
	if t.root != pagestore.InvalidPage {
		return fmt.Errorf("rtree: BulkLoadHilbert on non-empty tree")
	}
	if len(items) == 0 {
		return nil
	}
	if fillFactor <= 0 || fillFactor > 1 {
		return fmt.Errorf("rtree: BulkLoadHilbert fill factor %v outside (0,1]", fillFactor)
	}
	entries := make([]Entry, len(items))
	rects := make([]geom.Rect, len(items))
	for i, it := range items {
		if err := checkData(it.OID, it.Rect); err != nil {
			return fmt.Errorf("rtree: BulkLoadHilbert: %w", err)
		}
		entries[i] = Entry{Rect: it.Rect, OID: it.OID}
		rects[i] = it.Rect
	}
	bounds := geom.UnionAll(rects)
	keys := make([]uint64, len(entries))
	for i := range entries {
		keys[i] = hilbertOf(entries[i].Rect.Center(), bounds)
	}
	sort.Sort(&hilbertSorter{entries: entries, keys: keys})

	level := 0
	for {
		nodes, err := t.packSequential(entries, level, t.packCap(level, fillFactor))
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

type hilbertSorter struct {
	entries []Entry
	keys    []uint64
}

func (h *hilbertSorter) Len() int           { return len(h.entries) }
func (h *hilbertSorter) Less(i, j int) bool { return h.keys[i] < h.keys[j] }
func (h *hilbertSorter) Swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
}

// packSequential chunks already-ordered entries into nodes of the given
// level, borrowing from the previous node if the tail would underfill.
func (t *Tree) packSequential(entries []Entry, level, cap int) ([]*Node, error) {
	var nodes []*Node
	for start := 0; start < len(entries); start += cap {
		end := start + cap
		if end > len(entries) {
			end = len(entries)
		}
		node := t.allocNode(level)
		node.Entries = append(node.Entries, entries[start:end]...)
		node.Self = node.EntriesMBR()
		if err := t.WriteNode(node); err != nil {
			return nil, err
		}
		if level == 0 {
			for _, e := range node.Entries {
				t.notifyPlaced(e.OID, node.Page)
			}
		}
		nodes = append(nodes, node)
	}
	return t.fixTrailingUnderfull(nodes, level, true)
}
