package core

import (
	"fmt"

	"burtree/internal/buffer"
	"burtree/internal/rtree"
)

// RestoreState carries the metadata needed to re-attach a strategy to a
// reloaded page store: the tree's root, height and size. Everything else
// a strategy keeps is rebuilt from the tree: the summary structure is
// main-memory only, as in the paper, and the locator is re-filled from
// the leaves, one walk each.
type RestoreState struct {
	Root   rtree.PageID
	Height int
	Size   int
}

// Restore builds a strategy over an existing page store (reachable
// through pool) and re-attaches it to the persisted tree.
func Restore(pool *buffer.Pool, opts Options, st RestoreState) (Updater, error) {
	u, err := New(pool, opts)
	if err != nil {
		return nil, err
	}
	if err := u.Tree().Restore(st.Root, st.Height, st.Size); err != nil {
		return nil, err
	}
	if g, ok := u.(*gbuStrategy); ok {
		if err := g.sum.Rebuild(g.tree); err != nil {
			return nil, err
		}
	}
	if l, ok := u.(located); ok {
		// The snapshot carries no locator: one walk over the leaves
		// re-fills it.
		loc := l.locator()
		err := ForEachLeafEntry(u.Tree(), func(leaf rtree.PageID, e rtree.Entry) error { return loc.Set(e.OID, leaf) })
		if err != nil {
			return nil, fmt.Errorf("core: restore: %w", err)
		}
	}
	return u, nil
}

// SaveState extracts the RestoreState of a live strategy. The caller is
// responsible for flushing the buffer pool before dumping the store.
func SaveState(u Updater) RestoreState {
	t := u.Tree()
	return RestoreState{Root: t.Root(), Height: t.Height(), Size: t.Size()}
}
