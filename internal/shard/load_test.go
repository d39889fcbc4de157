package shard

import (
	"math"
	"sync"
	"testing"

	"burtree/internal/geom"
)

func TestCellKeyRange(t *testing.T) {
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 0.5, Y: 0.5},
		{X: -3, Y: 2}, {X: 0.999, Y: 0.001},
	}
	for _, p := range pts {
		k := CellKey(p)
		if k >= NumCells {
			t.Fatalf("CellKey(%v) = %d out of range", p, k)
		}
	}
	// CellKey must agree with Hilbert routing: the shard owning p is the
	// shard owning p's cell key.
	r, err := NewHilbertUniform(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if got, want := r.shardOfKey(CellKey(p)), r.ShardOf(p); got != want {
			t.Fatalf("CellKey routing mismatch at %v: %d vs %d", p, got, want)
		}
	}
}

func TestBoundsAccessor(t *testing.T) {
	g, _ := NewGrid(4)
	if g.Bounds() != nil {
		t.Fatal("grid router reports bounds")
	}
	h, _ := NewHilbertUniform(4)
	b := h.Bounds()
	if len(b) != 3 {
		t.Fatalf("bounds len = %d", len(b))
	}
	b[0] = 9999 // mutation must not leak into the router
	if h.Bounds()[0] == 9999 {
		t.Fatal("Bounds returned internal slice")
	}
}

func TestNewHilbertBounds(t *testing.T) {
	r, err := NewHilbertBounds([]uint64{100, 500, 900})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumShards() != 4 || r.Scheme() != HilbertRange {
		t.Fatalf("router = %d shards scheme %v", r.NumShards(), r.Scheme())
	}
	if _, err := NewHilbertBounds([]uint64{500, 500}); err == nil {
		t.Fatal("non-increasing bounds accepted")
	}
	if _, err := NewHilbertBounds([]uint64{NumCells}); err == nil {
		t.Fatal("out-of-range bound accepted")
	}
}

func TestLoadQuantileBounds(t *testing.T) {
	// All load in one cell: the boundaries must still be strictly
	// increasing and valid router input.
	cells := make([]uint64, NumCells)
	cells[300] = 1_000_000
	b, err := LoadQuantileBounds(8, cells)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHilbertBounds(b); err != nil {
		t.Fatalf("quantile bounds rejected by router: %v", err)
	}
	// The hot cell must sit in a narrow range: its owning shard's curve
	// range should be far smaller than the uniform 1/8 split.
	r, _ := NewHilbertBounds(b)
	hot := r.shardOfKey(300)
	lo, hi := uint64(0), uint64(NumCells)
	if hot > 0 {
		lo = b[hot-1]
	}
	if hot < len(b) {
		hi = b[hot]
	}
	if hi-lo > NumCells/16 {
		t.Fatalf("hot shard owns %d cells, want a narrow range", hi-lo)
	}

	// Uniform load: quantile bounds must approximate the uniform split.
	for i := range cells {
		cells[i] = 10
	}
	b, err = LoadQuantileBounds(4, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{256, 512, 768} {
		if math.Abs(float64(b[i])-float64(want)) > 4 {
			t.Fatalf("uniform quantile bound %d = %d, want ≈ %d", i, b[i], want)
		}
	}

	if _, err := LoadQuantileBounds(4, make([]uint64, 10)); err == nil {
		t.Fatal("short histogram accepted")
	}
}

// recordUpdates records n update operations at one cell: a write's
// RecordBatch with a single CellCount.
func recordUpdates(tr *LoadTracker, s int, cell uint64, n int, pages uint64) {
	tr.RecordBatch(s, pages, []CellCount{{Cell: cell, N: n}})
}

func TestLoadTrackerSampleEWMA(t *testing.T) {
	tr := NewLoadTracker(4)
	recordUpdates(tr, 0, 5, 30, 0)
	recordUpdates(tr, 1, 900, 10, 0)
	noPages := make([]uint64, 4)
	w := tr.SampleAt(noPages)
	if w.Ops != 40 {
		t.Fatalf("window ops = %d, want 40", w.Ops)
	}
	// No page I/O: cost shares equal op shares.
	if w.Shares[0] != 0.75 || w.Shares[1] != 0.25 || w.Shares[2] != 0 {
		t.Fatalf("first-window shares = %v", w.Shares)
	}
	if w.OpShares[0] != 0.75 || w.OpShares[1] != 0.25 {
		t.Fatalf("first-window op shares = %v", w.OpShares)
	}
	// Second window: all load on shard 2 → EWMA folds with weight ½.
	for i := 0; i < 20; i++ {
		tr.RecordQuery(2)
	}
	w = tr.SampleAt(noPages)
	if w.Ops != 20 {
		t.Fatalf("second window ops = %d", w.Ops)
	}
	if w.Shares[0] != 0.375 || w.Shares[2] != 0.5 {
		t.Fatalf("EWMA shares = %v", w.Shares)
	}
	// Empty window leaves the EWMA untouched.
	again := tr.SampleAt(noPages)
	if again.Ops != 0 || again.Shares[0] != 0.375 {
		t.Fatalf("empty window changed shares: %v (ops %d)", again.Shares, again.Ops)
	}
	if got := tr.UpdateCount(0); got != 30 {
		t.Fatalf("UpdateCount(0) = %d", got)
	}
	if got := tr.QueryCount(2); got != 20 {
		t.Fatalf("QueryCount(2) = %d", got)
	}
}

func TestLoadTrackerCostWeighting(t *testing.T) {
	tr := NewLoadTracker(2)
	// Shard 0: many cheap ops (no pages). Shard 1: few expensive ops.
	// Op shares say shard 0 is hot; cost shares must say shard 1 is.
	recordUpdates(tr, 0, 5, 90, 0)
	recordUpdates(tr, 1, 900, 10, 90) // 90 pages → 10 + 90·CostPerPage cost
	w := tr.SampleAt([]uint64{0, 90})
	if w.OpShares[0] != 0.9 {
		t.Fatalf("op shares = %v, want shard 0 at 0.9", w.OpShares)
	}
	if w.Shares[1] <= w.Shares[0] {
		t.Fatalf("cost shares = %v, want shard 1 dominant", w.Shares)
	}
	// The window cost 100 ops + 90·CostPerPage, all of the pages shard 1's.
	if want := float64(10+90*CostPerPage) / float64(100+90*CostPerPage); w.Shares[1] != want {
		t.Fatalf("shard 1 cost share = %v, want %v", w.Shares[1], want)
	}
	// The cell histogram is cost-weighted too; the op histogram is not.
	if w.Cells[900] <= w.Cells[5] {
		t.Fatalf("cost cells = %d vs %d, want cell 900 dominant", w.Cells[900], w.Cells[5])
	}
	if w.CellOps[5] != 90 || w.CellOps[900] != 10 {
		t.Fatalf("op cells = %d / %d", w.CellOps[5], w.CellOps[900])
	}
}

func TestLoadTrackerRecordBatch(t *testing.T) {
	tr := NewLoadTracker(2)
	// 10 ops over two cells, 7 pages: page cost distributes ∝ op counts
	// and no unit is lost to rounding.
	tr.RecordBatch(0, 7, []CellCount{{Cell: 3, N: 6}, {Cell: 4, N: 4}})
	if got := tr.UpdateCount(0); got != 10 {
		t.Fatalf("UpdateCount = %d", got)
	}
	wantCost := uint64(10 + 7*CostPerPage)
	// Zero ops with pages (the ops were accounted to their destination
	// cells): nothing for the tracker to count — the shard is charged
	// through the ledger reading SampleAt is handed.
	tr.RecordBatch(1, 3, nil)
	if got := tr.UpdateCount(1); got != 0 {
		t.Fatalf("departure-only ops = %d", got)
	}
	w := tr.SampleAt([]uint64{7, 3})
	total := float64(wantCost + 3*CostPerPage)
	if w.Shares[0] != float64(wantCost)/total || w.Shares[1] != 3*CostPerPage/total {
		t.Fatalf("cost shares = %v, want %d and %d of %v", w.Shares, wantCost, 3*CostPerPage, total)
	}
	cl := w.Cells
	if cl[3]+cl[4] != wantCost {
		t.Fatalf("cell cost %d + %d != %d", cl[3], cl[4], wantCost)
	}
	if cl[3] <= cl[4] {
		t.Fatalf("cell 3 (%d) should carry more cost than cell 4 (%d)", cl[3], cl[4])
	}
	// A cell named with no ops — where a cross-shard mover left — takes the
	// page weight and counts no operation.
	tr.RecordBatch(1, 3, []CellCount{{Cell: 9}})
	w = tr.SampleAt([]uint64{7, 3})
	if w.Cells[9] != 3*CostPerPage || w.CellOps[9] != 0 || tr.UpdateCount(1) != 0 {
		t.Fatalf("departure cell: cost %d, ops %d, shard updates %d; want %d, 0, 0", w.Cells[9], w.CellOps[9], tr.UpdateCount(1), 3*CostPerPage)
	}
}

func TestLoadTrackerQueryPages(t *testing.T) {
	tr := NewLoadTracker(2)
	// A scatter read touching both shards: shard 0 answers from 12 pages,
	// shard 1 is empty. Equal-per-visit accounting would charge them the
	// same; per-page accounting must not.
	tr.RecordQuery(0)
	tr.RecordQuery(1)
	if q0, q1 := tr.QueryCount(0), tr.QueryCount(1); q0 != 1 || q1 != 1 {
		t.Fatalf("query counts = %d / %d", q0, q1)
	}
	const total = 2 + 12*CostPerPage
	if w := tr.SampleAt([]uint64{12, 0}); w.Shares[0] != (1+12*CostPerPage)/float64(total) || w.Shares[1] != 1/float64(total) {
		t.Fatalf("query cost shares = %v, want %d and 1 of %d", w.Shares, 1+12*CostPerPage, total)
	}
}

// Background pages must not leak into the foreground cost signal. The
// tracker keeps no ledger of them (ShardLoads reports the stacks' own
// counters): the caller passes the ledgers' foreground readings, so a
// window in which shard 0's stack spent 500 pages draining costs its ten
// operations and nothing more — as much as shard 1's ten.
func TestLoadTrackerBackground(t *testing.T) {
	tr := NewLoadTracker(2)
	recordUpdates(tr, 0, 0, 10, 0)
	recordUpdates(tr, 1, 1, 10, 0)
	foreground := []uint64{0, 0} // shard 0: 500 pages spent − 500 spent draining
	if w := tr.SampleAt(foreground); w.Shares[0] != 0.5 || w.Shares[1] != 0.5 {
		t.Fatalf("shares = %v, want ten cost units on either shard", w.Shares)
	}
}

func TestLoadTrackerCells(t *testing.T) {
	tr := NewLoadTracker(2)
	recordUpdates(tr, 0, 7, 8, 0)
	recordUpdates(tr, 1, 7, 4, 0)
	noPages := make([]uint64, 2)
	cl := tr.SampleAt(noPages).Cells
	if cl[7] != 12 {
		t.Fatalf("cell 7 load = %d", cl[7])
	}
	tr.DecayCells()
	if cl = tr.SampleAt(noPages).Cells; cl[7] != 6 {
		t.Fatalf("decayed cell 7 load = %d", cl[7])
	}
}

// TestLoadTrackerSampleDecayAtomic is the regression test for the
// decay-vs-sample race: a DecayCells landing between the share sample
// and a separate histogram read could zero the histogram a boundary cut
// was computed from. SampleAt's Window snapshots the cells under the same
// mutex hold, so concurrent decays can halve what later samples see but
// never desynchronize one Window's shares from its cells.
func TestLoadTrackerSampleDecayAtomic(t *testing.T) {
	tr := NewLoadTracker(2)
	recordUpdates(tr, 0, 42, 1<<20, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.DecayCells()
			}
		}
	}()
	noPages := make([]uint64, 2)
	for i := 0; i < 200; i++ {
		w := tr.SampleAt(noPages)
		// The recorded load only ever halves; whatever survives must sit
		// in cell 42, and shares/cells must describe the same state: if
		// the share says shard 0 carried everything, the histogram must
		// not be empty-at-42 while nonzero elsewhere.
		for c, v := range w.Cells {
			if c != 42 && v != 0 {
				t.Fatalf("cost leaked to cell %d: %d", c, v)
			}
		}
		if w.Shares[0] == 1 && w.Cells[42] == 0 && w.Ops > 0 {
			t.Fatalf("window shares %v with zeroed histogram", w.Shares)
		}
	}
	close(stop)
	wg.Wait()
}

func TestLoadTrackerResetShares(t *testing.T) {
	tr := NewLoadTracker(2)
	recordUpdates(tr, 0, 0, 100, 0)
	tr.SampleAt([]uint64{40, 0})
	// The boundary change itself cost shard 0 ten more pages; the reset
	// takes the post-change counters, so they belong to the closed
	// history.
	tr.ResetShares([]uint64{50, 0})
	if s := tr.Shares(); s[0] != 0 || s[1] != 0 {
		t.Fatalf("shares after reset = %v", s)
	}
	if s := tr.OpShares(); s[0] != 0 || s[1] != 0 {
		t.Fatalf("op shares after reset = %v", s)
	}
	// The reset also restarts the window: neither the old 100 ops nor
	// the migration's pages may count toward the next sample.
	recordUpdates(tr, 1, 0, 10, 0)
	w := tr.SampleAt([]uint64{50, 0})
	if w.Ops != 10 || w.Shares[1] != 1 {
		t.Fatalf("post-reset window = %v (ops %d), want all ten cost units on shard 1", w.Shares, w.Ops)
	}
}

// SampleAt must derive each shard's window cost from the caller's exact
// cumulative page counters, not the brackets that weigh the cells: with
// equal op counts and equal (inflated) bracketed pages, the shard whose
// exact pages advanced dominates the cost share while op shares stay even.
func TestLoadTrackerSampleAt(t *testing.T) {
	tr := NewLoadTracker(2)
	// Both shards record 10 ops with 50 bracketed pages each — as if
	// overlapping brackets double-counted identically on both.
	recordUpdates(tr, 0, 0, 10, 50)
	recordUpdates(tr, 1, 1, 10, 50)
	w := tr.SampleAt([]uint64{0, 90})
	if w.OpShares[0] != 0.5 || w.OpShares[1] != 0.5 {
		t.Fatalf("op shares = %v, want even", w.OpShares)
	}
	if w.Shares[1] < 0.9 {
		t.Fatalf("cost shares = %v, want shard 1 dominant (exact pages 90 vs 0)", w.Shares)
	}
	// The exact cost is ops + pages*CostPerPage, unaffected by the
	// inflated bracketed 100 pages.
	first := float64(10) / float64(20+90*CostPerPage)
	if w.Shares[0] != first {
		t.Fatalf("shard 0 cost share = %v, want 10 of %d", w.Shares[0], 20+90*CostPerPage)
	}
	// The next window consumes only the page delta since the last
	// SampleAt; a counter that does not advance contributes its base
	// units alone.
	recordUpdates(tr, 0, 0, 10, 0)
	recordUpdates(tr, 1, 1, 10, 0)
	w = tr.SampleAt([]uint64{8, 90})
	// EWMA: shard 0 carried this window's pages — 10 + 8·CostPerPage of
	// its 20 + 8·CostPerPage — pulling its share up from ~0 to
	// 0.5·prev + 0.5·now.
	second := float64(10+8*CostPerPage) / float64(20+8*CostPerPage)
	if want := 0.5*first + 0.5*second; w.Shares[0] != want {
		t.Fatalf("folded cost shares = %v, want %v on shard 0", w.Shares, want)
	}
}

func TestLoadTrackerConcurrent(t *testing.T) {
	tr := NewLoadTracker(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				recordUpdates(tr, w%4, uint64(i%NumCells), 1, uint64(i%3))
				tr.RecordQuery(w % 4)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for pages := make([]uint64, 4); ; pages[0]++ {
			select {
			case <-done:
				return
			default:
				tr.SampleAt(pages)
				tr.Shares()
			}
		}
	}()
	wg.Wait()
	close(done)
	var tot uint64
	for s := 0; s < 4; s++ {
		tot += tr.UpdateCount(s) + tr.QueryCount(s)
	}
	if tot != 16000 {
		t.Fatalf("total recorded ops = %d, want 16000", tot)
	}
}
