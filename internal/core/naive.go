package core

import (
	"fmt"

	"burtree/internal/geom"
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
	bottomUp
}

var _ Updater = (*naiveStrategy)(nil)

func (s *naiveStrategy) Name() string { return "NAIVE" }

// topDownFirst sends every update of a one-level tree top-down.
func (s *naiveStrategy) topDownFirst(geom.Point, bool) bool { return s.tree.Height() <= 1 }

// attemptLocalAt updates in place or asks for the top-down pass.
func (s *naiveStrategy) attemptLocalAt(c BatchChange, ref rtree.NodeRef, li int) (localOutcome, *rtree.Node, error) {
	if !ref.Self().ContainsPoint(c.New) {
		return needTopDown, nil, ref.Release()
	}
	ref.SetRect(li, geom.RectFromPoint(c.New))
	s.out.inLeaf.Add(1)
	return localDone, nil, ref.Release()
}

// ascend is never asked for: the local phase ends in place or top-down.
func (s *naiveStrategy) ascend(c BatchChange, _ *rtree.Node, _ int) error {
	return fmt.Errorf("NAIVE: update %d: no ascent", c.OID)
}
