package core

import (
	"fmt"

	"burtree/internal/buffer"
	"burtree/internal/hashindex"
	"burtree/internal/rtree"
)

// RestoreState carries the metadata needed to re-attach a strategy to a
// reloaded page store: the tree's root/height/size and, for the
// bottom-up strategies, the hash-index directory. The summary structure
// is not persisted — it is main-memory only in the paper too — and is
// rebuilt from the tree in one walk.
type RestoreState struct {
	Root   rtree.PageID
	Height int
	Size   int

	HashDirectory []rtree.PageID
	HashSize      int
}

// hashed is implemented by the strategies that keep the secondary hash
// index (every one embedding bottomUp).
type hashed interface {
	hashIndex() *hashindex.Index
}

// Restore builds a strategy over an existing page store (reachable
// through pool) and re-attaches it to the persisted structures.
func Restore(pool *buffer.Pool, opts Options, st RestoreState) (Updater, error) {
	u, err := New(pool, opts)
	if err != nil {
		return nil, err
	}
	if err := u.Tree().Restore(st.Root, st.Height, st.Size); err != nil {
		return nil, err
	}
	if h, ok := u.(hashed); ok {
		if err := h.hashIndex().RestoreDirectory(st.HashDirectory, st.HashSize); err != nil {
			return nil, err
		}
	}
	if g, ok := u.(*gbuStrategy); ok {
		if err := g.sum.Rebuild(g.tree); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// SaveState extracts the RestoreState of a live strategy. The caller is
// responsible for flushing the buffer pool before dumping the store.
func SaveState(u Updater) (RestoreState, error) {
	st := RestoreState{
		Root:   u.Tree().Root(),
		Height: u.Tree().Height(),
		Size:   u.Tree().Size(),
	}
	switch s := u.(type) {
	case *tdStrategy:
	case hashed:
		st.HashDirectory = s.hashIndex().Directory()
		st.HashSize = s.hashIndex().Size()
	default:
		return st, fmt.Errorf("core: save: unsupported strategy %T", u)
	}
	return st, nil
}
