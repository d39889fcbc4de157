package memtable

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"burtree/internal/geom"
)

// linearWindow and linearNearest are the reference the grid walks must
// agree with: one pass over each generation's dense entry slice, the
// mutable generation winning over the draining one, and for Nearest a
// full sort by (distance, id).
func linearWindow(t *Table, q geom.Rect) []Hit {
	var out []Hit
	for _, h := range linearLive(t) {
		if q.ContainsPoint(h.Pos) {
			out = append(out, Hit{ID: h.ID, Pos: h.Pos})
		}
	}
	return out
}

func linearNearest(t *Table, p geom.Point, k int) []Hit {
	live := linearLive(t)
	for i := range live {
		live[i].Dist = geom.RectFromPoint(live[i].Pos).MinDistPoint(p)
	}
	slices.SortFunc(live, compareHits)
	return live[:min(max(k, 0), len(live))]
}

func linearLive(t *Table) []Hit {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Hit
	for _, g := range [...]*generation{t.flush, t.mut} {
		if g == nil {
			continue
		}
		for i := range g.ents {
			d := &g.ents[i]
			if _, shadowed := t.mut.slot[d.ID]; d.Tombstone || g == t.flush && shadowed {
				continue
			}
			out = append(out, Hit{ID: d.ID, Pos: d.Pos})
		}
	}
	return out
}

// lockedMasks is the mask rule as a locked map lookup, with no filter.
func lockedMasks(v View, id uint64) bool {
	if v.flush != nil {
		if _, ok := v.flush.slot[id]; ok {
			return true
		}
	}
	if v.mut == nil {
		return false
	}
	v.t.mu.Lock()
	defer v.t.mu.Unlock()
	d := v.mut.get(id)
	return d != nil && d.born <= v.seq
}

// checkGeneration verifies a generation's cell lists and filter: every
// live delta is filed exactly once, in its cell, with consistent links;
// tombstones are filed nowhere; and every present id has its bit set.
func checkGeneration(g *generation) error {
	if g == nil {
		return nil
	}
	seen := make([]bool, len(g.ents))
	for c := range g.head {
		prev := int32(0)
		for i := g.head[c]; i != 0; i = g.ents[i-1].next {
			d := &g.ents[i-1]
			switch {
			case seen[i-1]:
				return fmt.Errorf("slot %d filed twice", i-1)
			case cellOf(&d.Entry) != c:
				return fmt.Errorf("id %d at %v filed in cell %d, belongs in %d", d.ID, d.Pos, c, cellOf(&d.Entry))
			case d.prev != prev:
				return fmt.Errorf("slot %d: prev %d, want %d", i-1, d.prev, prev)
			}
			seen[i-1] = true
			prev = i
		}
	}
	for i := range g.ents {
		d := &g.ents[i]
		if seen[i] == d.Tombstone {
			return fmt.Errorf("id %d (tombstone %v) filed: %v", d.ID, d.Tombstone, seen[i])
		}
		if g.slot[d.ID] != i {
			return fmt.Errorf("id %d in slot %d, index says %d", d.ID, i, g.slot[d.ID])
		}
		if !g.mayHold(d.ID) {
			return fmt.Errorf("id %d present but its filter bit is clear", d.ID)
		}
	}
	return nil
}

// tierModel drives a Table the way the index does: an insert names a
// dead object, a move or a delete a live one at its current position.
type tierModel struct {
	tb       *Table
	rng      *rand.Rand
	pos      map[uint64]geom.Point // live objects
	universe uint64
	last     uint64 // the object the previous step named
}

func newTierModel(seed int64, universe uint64) *tierModel {
	m := &tierModel{tb: New(Config{MaxObjects: 1 << 20}), rng: rand.New(rand.NewSource(seed)), pos: map[uint64]geom.Point{}, universe: universe}
	// Half the objects start in the tree, with no delta buffered.
	for id := uint64(0); id < universe; id += 2 {
		m.pos[id] = m.point()
	}
	return m
}

// point draws a position: mostly inside the unit square, some in one
// row or column of cells (long cell lists), some on a lattice of 1/8
// (exact distance ties), some outside the square, a few at ±Inf.
func (m *tierModel) point() geom.Point {
	coord := func() float64 {
		switch u := m.rng.Intn(40); {
		case u < 18:
			return m.rng.Float64()
		case u < 26:
			return 0.5 + m.rng.Float64()/gridSide
		case u < 32:
			return float64(m.rng.Intn(9)) / 8
		case u < 38:
			return m.rng.Float64()*3 - 1
		case u == 38:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	return geom.Point{X: coord(), Y: coord()}
}

// step applies one random absorb or drain transition and names it. A
// quarter of the steps name the previous step's object again: a move
// then a delete of one delta, or a delete then a re-insert.
func (m *tierModel) step() string {
	if m.rng.Intn(4) != 0 {
		m.last = uint64(m.rng.Int63n(int64(m.universe)))
	}
	id := m.last
	switch u := m.rng.Intn(1000); {
	case u < 5:
		if m.tb.flush == nil {
			m.tb.BeginDrain()
			return "BeginDrain"
		}
		m.tb.EndDrain()
		return "EndDrain"
	case u < 200:
		cur, live := m.pos[id]
		if !live {
			p := m.point()
			m.tb.Insert(id, p)
			m.pos[id] = p
			return fmt.Sprintf("Insert(%d, %v)", id, p)
		}
		m.tb.Delete(id, cur)
		delete(m.pos, id)
		return fmt.Sprintf("Delete(%d)", id)
	default:
		cur, live := m.pos[id]
		if !live {
			return "skip"
		}
		p := m.point()
		if m.rng.Intn(2) == 0 && !math.IsInf(cur.X, 0) && !math.IsInf(cur.Y, 0) {
			// A short move, which often stays in its cell.
			p = geom.Point{X: cur.X + (m.rng.Float64()-0.5)/32, Y: cur.Y + (m.rng.Float64()-0.5)/32}
		}
		m.tb.Update(id, p, cur)
		m.pos[id] = p
		return fmt.Sprintf("Update(%d, %v)", id, p)
	}
}

// window draws a query window: ordinary, degenerate, inverted, NaN or
// unbounded.
func (m *tierModel) window() geom.Rect {
	a, b := m.point(), m.point()
	switch m.rng.Intn(8) {
	case 0:
		return geom.Rect{MinX: a.X, MinY: a.Y, MaxX: a.X, MaxY: a.Y} // a point
	case 1:
		return geom.Rect{MinX: a.X, MinY: a.Y, MaxX: a.X, MaxY: b.Y} // a segment, maybe inverted
	case 2:
		return geom.Rect{MinX: math.Max(a.X, b.X), MinY: a.Y, MaxX: math.Min(a.X, b.X), MaxY: b.Y} // inverted
	case 3:
		r := geom.NewRect(a.X, a.Y, b.X, b.Y)
		r.MaxY = math.NaN()
		return r
	case 4:
		return geom.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
	default:
		x, y := m.rng.Float64(), m.rng.Float64()
		s := m.rng.Float64() * 0.2
		return geom.NewRect(x, y, x+s, y+s)
	}
}

func (m *tierModel) queryPoint() geom.Point {
	if m.rng.Intn(16) == 0 {
		return geom.Point{X: math.NaN(), Y: m.rng.Float64()}
	}
	return m.point()
}

func sortByID(h []Hit) []Hit {
	slices.SortFunc(h, func(a, b Hit) int { return compareHits(Hit{ID: a.ID}, Hit{ID: b.ID}) })
	return h
}

// TestGridViewsMatchLinear: over random tables — adds, moves across
// cells, tombstones, cancels, re-creates and drain promotions — the
// grid walks of ViewWindow and ViewNearest report exactly what one pass
// over the dense entries does, for inverted, degenerate, NaN and
// unbounded windows, query points outside the square, at ±Inf and NaN,
// k of 1, 10 and 100, and exact distance ties broken by (distance, id).
func TestGridViewsMatchLinear(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 600
	}
	for seed := int64(1); seed <= 4; seed++ {
		m := newTierModel(seed, 400)
		var history []string
		for s := 0; s < steps; s++ {
			history = append(history, m.step())
			if err := checkGeneration(m.tb.mut); err != nil {
				t.Fatalf("seed %d after %v: mutable generation: %v", seed, history[max(0, len(history)-5):], err)
			}
			if err := checkGeneration(m.tb.flush); err != nil {
				t.Fatalf("seed %d after %v: draining generation: %v", seed, history[max(0, len(history)-5):], err)
			}
			for range 3 {
				q := m.window()
				_, got := m.tb.ViewWindow(q, nil)
				if want := linearWindow(m.tb, q); !slices.Equal(sortByID(got), sortByID(want)) {
					t.Fatalf("seed %d step %d: window %v: grid %v, linear %v", seed, s, q, got, want)
				}
				p := m.queryPoint()
				k := []int{1, 10, 100}[m.rng.Intn(3)]
				_, near := m.tb.ViewNearest(p, k, nil)
				if want := linearNearest(m.tb, p, k); !slices.Equal(near, want) {
					t.Fatalf("seed %d step %d: %d nearest %v: grid %v, linear %v", seed, s, k, p, near, want)
				}
			}
		}
	}
}

// TestViewNearestTies: on a lattice every query point has rings of
// equidistant neighbours, and the k-th place is decided by id.
func TestViewNearestTies(t *testing.T) {
	tb := New(Config{MaxObjects: 1 << 20})
	id := uint64(0)
	for x := 0; x <= 32; x++ {
		for y := 0; y <= 32; y++ {
			tb.Update(id, geom.Point{X: float64(x) / 32, Y: float64(y) / 32}, geom.Point{})
			id += 7 // ids out of lattice order
		}
	}
	for _, p := range []geom.Point{{X: 0.5, Y: 0.5}, {X: 0.25, Y: 0.75}, {X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 0.5}} {
		for _, k := range []int{1, 2, 4, 5, 9, 13, 21, 100} {
			if _, got := tb.ViewNearest(p, k, nil); !slices.Equal(got, linearNearest(tb, p, k)) {
				t.Errorf("%d nearest %v: grid %v, linear %v", k, p, got, linearNearest(tb, p, k))
			}
		}
	}
}

// TestMasksMatchLockedLookup: the filter never reports a present id as
// absent, and Masks answers as the locked map lookup does, for views
// taken at every point of a random history and kept across the
// transitions that follow.
func TestMasksMatchLockedLookup(t *testing.T) {
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for seed := int64(1); seed <= 3; seed++ {
		m := newTierModel(seed, 300)
		var views []View
		for s := 0; s < steps; s++ {
			what := m.step()
			if m.rng.Intn(8) == 0 {
				v, _ := m.tb.ViewWindow(geom.Rect{}, nil)
				if len(views) == 4 {
					views = views[1:]
				}
				views = append(views, v)
			}
			for _, g := range [...]*generation{m.tb.mut, m.tb.flush} {
				if g == nil {
					continue
				}
				for id := range g.slot {
					if !g.mayHold(id) {
						t.Fatalf("seed %d step %d (%s): id %d present but filtered out", seed, s, what, id)
					}
				}
			}
			// A step changes what a view masks for the object it names
			// alone; every 16th step sweeps them all.
			ids := []uint64{m.last}
			if s%16 == 0 {
				ids = ids[:0]
				for id := uint64(0); id < m.universe; id++ {
					ids = append(ids, id)
				}
			}
			for vi, v := range views {
				for _, id := range ids {
					if got, want := v.Masks(id), lockedMasks(v, id); got != want {
						t.Fatalf("seed %d step %d (%s): view %d masks(%d) = %v, locked lookup says %v", seed, s, what, vi, id, got, want)
					}
				}
			}
		}
	}
}

// TestViewsRaceAbsorbs runs absorbs, moves across cells, churn and drains
// against readers that take views and mask (run it under -race). A delta
// a view reports for an object that is only ever moved must be masked by
// that view, whatever the writers and the drainer do meanwhile.
func TestViewsRaceAbsorbs(t *testing.T) {
	const movers, perMover, churned = 2, 200, 100
	rounds := 20000
	if testing.Short() {
		rounds = 4000
	}
	tb := New(Config{MaxObjects: 1 << 20})
	var stop atomic.Bool
	var writers, others sync.WaitGroup
	for w := 0; w < movers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			pos := make([]geom.Point, perMover)
			for r := 0; r < rounds; r++ {
				i := rng.Intn(perMover)
				p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
				tb.Update(uint64(w*perMover+i), p, pos[i])
				pos[i] = p
			}
		}(w)
	}
	writers.Add(1)
	go func() { // churn: tombstones, revivals, cancels
		defer writers.Done()
		rng := rand.New(rand.NewSource(99))
		live := make([]bool, churned)
		for r := 0; r < rounds; r++ {
			i := rng.Intn(churned)
			id := uint64(movers*perMover + i)
			p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			if live[i] {
				tb.Delete(id, p)
			} else {
				tb.Insert(id, p)
			}
			live[i] = !live[i]
		}
	}()
	others.Add(1)
	go func() { // the merge-down
		defer others.Done()
		for !stop.Load() {
			if tb.BeginDrain() != nil {
				tb.EndDrain()
			}
		}
	}()
	errs := make(chan error, 2)
	for rd := 0; rd < 2; rd++ {
		others.Add(1)
		go func(rd int) {
			defer others.Done()
			rng := rand.New(rand.NewSource(int64(100 + rd)))
			for !stop.Load() {
				x, y := rng.Float64(), rng.Float64()
				q := geom.NewRect(x, y, x+0.2, y+0.2)
				view, hits := tb.ViewWindow(q, nil)
				_, near := tb.ViewNearest(geom.Point{X: x, Y: y}, 10, nil)
				if err := checkHits(view, q, hits, near, movers*perMover); err != nil {
					errs <- err
					return
				}
				for range 50 {
					view.Masks(uint64(rng.Intn(movers*perMover + churned)))
				}
			}
		}(rd)
	}
	writers.Wait()
	stop.Store(true)
	others.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func checkHits(view View, q geom.Rect, hits, near []Hit, moved int) error {
	seen := map[uint64]bool{}
	for _, h := range hits {
		switch {
		case seen[h.ID]:
			return fmt.Errorf("id %d reported twice", h.ID)
		case !q.ContainsPoint(h.Pos):
			return fmt.Errorf("id %d at %v reported for window %v", h.ID, h.Pos, q)
		case h.ID < uint64(moved) && !view.Masks(h.ID):
			return fmt.Errorf("id %d reported but not masked", h.ID)
		}
		seen[h.ID] = true
	}
	if !slices.IsSortedFunc(near, compareHits) {
		return fmt.Errorf("nearest out of order: %v", near)
	}
	return nil
}
