package core

import (
	"fmt"

	"burtree/internal/geom"
	"burtree/internal/hashindex"
	"burtree/internal/rtree"
)

// naiveStrategy is the paper's initial bottom-up idea (§3.1, Figure 2):
// reach the leaf through the secondary index and update in place when
// the new location stays inside the leaf MBR — otherwise fall back to a
// full top-down update. The paper reports that on a uniform million-point
// dataset 82% of updates remain top-down, which motivates the ε
// extension and sibling shifts of LBU/GBU. Provided as a measurable
// baseline for that observation.
type naiveStrategy struct {
	tree    *rtree.Tree
	hash    *hashindex.Index
	adapter *hashAdapter

	out outcomeCounters
}

var _ Updater = (*naiveStrategy)(nil)

func (s *naiveStrategy) Name() string { return "NAIVE" }

func (s *naiveStrategy) Tree() *rtree.Tree { return s.tree }

func (s *naiveStrategy) Outcomes() Outcomes { return s.out.snapshot() }

func (s *naiveStrategy) Err() error { return s.adapter.Err() }

func (s *naiveStrategy) Insert(oid rtree.OID, p geom.Point) error {
	if err := s.tree.Insert(oid, geom.RectFromPoint(p)); err != nil {
		return err
	}
	return s.adapter.Err()
}

func (s *naiveStrategy) Delete(oid rtree.OID, at geom.Point) error {
	if err := s.tree.Delete(oid, geom.RectFromPoint(at)); err != nil {
		return err
	}
	return s.adapter.Err()
}

func (s *naiveStrategy) Search(q geom.Rect, visit func(rtree.OID, geom.Rect) bool) error {
	return s.tree.Search(q, visit)
}

func (s *naiveStrategy) Nearest(p geom.Point, k int) ([]rtree.Neighbor, error) {
	return s.tree.NearestK(p, k)
}

func (s *naiveStrategy) Update(oid rtree.OID, old, new geom.Point) error {
	t := s.tree
	newRect := geom.RectFromPoint(new)
	if t.Height() <= 1 {
		s.out.topDown.Add(1)
		return t.Update(oid, geom.RectFromPoint(old), newRect)
	}
	leafPage, err := s.hash.Lookup(oid)
	if err != nil {
		return fmt.Errorf("naive: update %d: %w", oid, err)
	}
	ref, err := t.PinNodeForPatch(leafPage)
	if err != nil {
		return err
	}
	li := ref.FindOID(oid)
	if li < 0 {
		_ = ref.Release() // nothing was patched
		return fmt.Errorf("naive: update %d: hash points to leaf %d but entry is missing", oid, leafPage)
	}
	if ref.Self().ContainsPoint(new) {
		ref.SetRect(li, newRect)
		s.out.inLeaf.Add(1)
		if err := ref.Release(); err != nil {
			return err
		}
		return s.adapter.Err()
	}
	stored := ref.Rect(li)
	if err := ref.Release(); err != nil {
		return err
	}
	s.out.topDown.Add(1)
	if err := t.Update(oid, stored, newRect); err != nil {
		return err
	}
	return s.adapter.Err()
}
