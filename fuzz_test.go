package burtree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"burtree/internal/geom"
	"burtree/internal/rtree"
	"burtree/internal/wal"
)

// The model test. One sequence of writes and reads, decoded from bytes,
// runs against a model of what the index must hold: a brute-force map of
// its objects, and a twin — a plain Index of the same strategy — fed the
// same writes one change at a time (runUpdateSequence). The option matrix
// runs fixed-seed sequences through every combination of the options a
// user chooses (TestOptionMatrix), with lifecycle steps between their
// segments; FuzzUpdateSequence runs arbitrary sequences through the
// matrix's -short subset.

// FuzzUpdateSequence decodes arbitrary bytes into an operation sequence
// and runs it, with the lifecycle steps of the option matrix, through
// each cell of the matrix's -short subset (matrixCells): every front-end,
// strategy, durability mode and memtable setting, and every pair of them.
// See runUpdateSequence for the encoding.
func FuzzUpdateSequence(f *testing.F) {
	// Build-then-query, churn, and batch-heavy seeds.
	f.Add([]byte{0, 1, 10, 20, 0, 2, 200, 30, 0, 3, 40, 240, 5, 255, 100, 100, 6, 3, 50, 50})
	f.Add([]byte{0, 1, 10, 20, 2, 1, 240, 240, 4, 1, 0, 0, 2, 1, 9, 9, 0, 1, 7, 7})
	f.Add([]byte{0, 1, 1, 1, 0, 2, 2, 2, 0, 3, 3, 3, 7, 3, 128, 128, 1, 2, 3, 4, 0, 9, 9, 9, 5, 9, 9, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data)
		p := matrixPlan{seed: int64(n), bulk: n%2 == 1, recoverAs: kind(n % 3), loadAs: kind(n / 3 % 3)}
		for _, c := range matrixCells(true) {
			c.run(t, p, data)
		}
	})
}

// TestOptionMatrix runs two fixed-seed sequences, one of them after a bulk
// load, through every cell of the option matrix; with -short, through the
// subset that holds every value of every option and every pair of them.
// The lifecycle steps between the segments of a sequence — a recovery
// before any checkpoint, a checkpoint, a recovery after it, and a save
// loaded into another front-end — change front-end as the sequence's plan
// says, so a one-stack directory is recovered by all three front-ends and
// a four-shard snapshot is merged into one stack.
func TestOptionMatrix(t *testing.T) {
	if err := coversEveryPair(matrixCells(true)); err != nil {
		t.Fatalf("-short subset: %v", err)
	}
	for _, c := range matrixCells(testing.Short()) {
		t.Run(c.String(), func(t *testing.T) {
			cross := 0
			for s := range 2 {
				cross += c.runSeed(t, matrixPlan{
					seed:      int64(2*c.ordinal() + s),
					bulk:      s == 1,
					recoverAs: kind((c.ordinal()/2 + s) % 3),
					loadAs:    kind((c.ordinal() + s) % 3),
				}, matrixSegmentOps, 0).cross
			}
			if c.shards() > 1 && !c.memtable && cross == 0 {
				t.Fatal("no batch moved an object across shards: the cell's sharded legs are vacuous")
			}
		})
	}
}

// matrixSegmentOps is how many operations a segment of a matrix sequence
// decodes to, a batch's changes aside.
const matrixSegmentOps = 40

// matrixCell is one cell of the option matrix.
type matrixCell struct {
	frontEnd int // into matrixFrontEnds
	strategy Strategy
	mode     DurabilityMode
	memtable bool
	nShards  int // a ShardedIndex's shard count other than its front-end's
}

// matrixFrontEnds is the front-end axis: a ShardedIndex is named by its
// shard count.
var matrixFrontEnds = []string{"Index", "ConcurrentIndex", "Sharded1", "Sharded4"}

// shards is the cell's shard count; 0 for Index and ConcurrentIndex.
func (c matrixCell) shards() int {
	if c.nShards != 0 {
		return c.nShards
	}
	return [...]int{0, 0, 1, 4}[c.frontEnd]
}

// matrixCells lists the 48 cells of the matrix: front-end × strategy ×
// durability × memtable. The short subset keeps the 12 cells whose
// strategy and memtable setting follow from their front-end and
// durability mode so that every pair of options meets in some cell.
func matrixCells(short bool) []matrixCell {
	var out []matrixCell
	for fe := range matrixFrontEnds {
		for _, s := range allFacadeStrategies() {
			for mode := DurabilityOff; mode <= DurabilityGroup; mode++ {
				for _, mem := range []bool{false, true} {
					c := matrixCell{frontEnd: fe, strategy: s, mode: mode, memtable: mem}
					if a := c.axes(); short && (a[1] != (fe+int(mode))%2 || a[3] != (fe/2+int(mode))%2) {
						continue
					}
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// axes returns the cell's value on each of the four axes.
func (c matrixCell) axes() [4]int {
	mem := 0
	if c.memtable {
		mem = 1
	}
	return [4]int{c.frontEnd, slices.Index(allFacadeStrategies(), c.strategy), int(c.mode), mem}
}

// ordinal is the cell's place in the full matrix.
func (c matrixCell) ordinal() int {
	a := c.axes()
	return ((a[0]*2+a[1])*3+a[2])*2 + a[3]
}

// coversEveryPair reports the first pair of option values that no cell
// combines.
func coversEveryPair(cells []matrixCell) error {
	sizes := [4]int{len(matrixFrontEnds), len(allFacadeStrategies()), 3, 2}
	for i := range sizes {
		for j := i + 1; j < len(sizes); j++ {
			met := map[[2]int]bool{}
			for _, c := range cells {
				a := c.axes()
				met[[2]int{a[i], a[j]}] = true
			}
			for vi := range sizes[i] {
				for vj := range sizes[j] {
					if !met[[2]int{vi, vj}] {
						return fmt.Errorf("no cell has value %d of axis %d with value %d of axis %d", vi, i, vj, j)
					}
				}
			}
		}
	}
	return nil
}

func (c matrixCell) String() string {
	fe := matrixFrontEnds[c.frontEnd]
	if c.shards() > 0 {
		fe = fmt.Sprintf("Sharded%d", c.shards())
	}
	s := fmt.Sprintf("%s-%v-%v", fe, c.strategy, c.mode)
	if c.memtable {
		s += "-memtable"
	}
	return s
}

// options are the cell's options, logging into dir when durable. Pages
// of 256 bytes and a four-page pool make splits, merges, ε-extensions,
// shifts, ascents and evictions trigger on a few dozen objects, and a
// memtable of 8 objects merges down every few writes.
func (c matrixCell) options(dir string) Options {
	o := Options{Strategy: c.strategy, PageSize: 256, BufferPages: 4, ExpectedObjects: 64}
	if c.mode != DurabilityOff {
		o.Durability = Durability{Mode: c.mode, Dir: dir}
	}
	if c.memtable {
		o.Memtable = Memtable{Enabled: true, MaxObjects: 8}
	}
	return o
}

func (c matrixCell) open(opts Options) (fuzzIndex, error) {
	switch c.frontEnd {
	case 0:
		return asFuzzIndex(Open(opts))
	case 1:
		return asFuzzIndex(OpenConcurrent(opts))
	}
	return asFuzzIndex(OpenSharded(opts, ShardOptions{Shards: c.shards()}))
}

// matrixPlan is what one run of a cell chooses: its seed, whether it
// starts with a bulk load, and the front-end kinds it recovers and loads
// its snapshot as.
type matrixPlan struct {
	seed              int64
	bulk              bool
	recoverAs, loadAs kind
}

// runSeed runs through the cell the five segments of segOps operations
// each that p's seed decodes to (see runUpdateSequence). A nonzero bias
// is the operation the chunk at every 16th byte is set to, the first
// chunk of every four unless a batch took it as a move.
func (c matrixCell) runSeed(t *testing.T, p matrixPlan, segOps int, bias byte) *model {
	data := make([]byte, 5*4*segOps)
	rand.New(rand.NewSource(p.seed)).Read(data)
	for i := 0; bias != 0 && i < len(data); i += 16 {
		data[i] = data[i]&^7 | bias
	}
	return c.run(t, p, data)
}

// run drives data through the cell in five segments, with the model
// carried across the lifecycle steps between them:
//
//	open [BulkInsert] · seg · Close→Recover · moves in parallel · seg ·
//	Checkpoint · seg · Close→Recover · seg · Save→Load · moves in
//	parallel · seg · Close
//
// A volatile cell skips the recoveries and has its Checkpoint refused;
// the moves in parallel run on the front-ends built for concurrent
// clients. Recoveries and loads change front-end as p says. It returns
// the model, with its tallies.
func (c matrixCell) run(t *testing.T, p matrixPlan, data []byte) *model {
	dir := t.TempDir()
	opts := c.options(dir)
	idx, err := c.open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = idx.Close() }()
	m := newModel(t, c.String(), c.strategy)
	m.tiered, m.stacks = c.memtable, max(c.shards(), 1)
	rng := rand.New(rand.NewSource(p.seed))
	if p.bulk {
		m.bulkLoad(t, idx, rng)
	}
	var segs [5][]byte
	for i := range segs {
		n := len(data) / 4 / len(segs) * 4
		segs[i], data = data[:n], data[n:]
		if i == len(segs)-1 {
			segs[i] = append(segs[i], data...)
		}
	}
	durable := c.mode != DurabilityOff
	m.segment(t, idx, segs[0])
	if durable {
		idx = m.recover(t, idx, opts, c.shards(), p.recoverAs)
	}
	m.moveInParallel(t, idx, rng)
	m.segment(t, idx, segs[1])
	m.checkpoint(t, idx, dir)
	m.segment(t, idx, segs[2])
	if durable {
		idx = m.recover(t, idx, opts, c.shards(), p.recoverAs)
	}
	m.segment(t, idx, segs[3])
	idx = m.saveAndLoad(t, idx, p.loadAs)
	loaded, _ := indexOf(idx).stats()
	moves := m.moves
	m.moveInParallel(t, idx, rng)
	m.segment(t, idx, segs[4])
	// The loaded tree's summary and id map were rebuilt from its pages:
	// once past one level, bottom-up updates resolve moves locally on it.
	st, _ := indexOf(idx).stats()
	local := func(o Stats) int64 { return o.Outcomes.InLeaf + o.Outcomes.Extended + o.Outcomes.Shifted }
	if c.strategy == GeneralizedBottomUp && m.stacks == 1 && loaded.Height > 1 && m.moves-moves > 20 && local(st) == local(loaded) {
		t.Fatalf("%s: none of %d moves after the load resolved locally: %+v", m.name, m.moves-moves, st.Outcomes)
	}
	return m
}

// fuzzIndex is what the model test drives on each front-end.
type fuzzIndex interface {
	walFailureIndex
	Search(q Rect) ([]uint64, error)
	Count(q Rect) (int, error)
	Nearest(p Point, k int) ([]Neighbor, error)
	BulkInsert(ids []uint64, pts []Point, method PackMethod) error
	Checkpoint() error
	Save(w io.Writer) error
}

// asFuzzIndex passes on an opened, recovered or loaded front-end, or
// the error that kept it from being built, as a fuzzIndex.
func asFuzzIndex[T fuzzIndex](x T, err error) (fuzzIndex, error) {
	if err != nil {
		return nil, err
	}
	return x, nil
}

// model is what runUpdateSequence holds an index to: the objects it must
// hold, as a brute-force map, and a twin — a plain Index of the same
// strategy — fed every write one change at a time. It also says how the
// index under test stores its writes (a delta tier, how many stacks) and
// tallies the moves they applied, so that Stats can be held to them.
type model struct {
	name    string
	objects map[uint64]Point
	twin    *Index
	tiered  bool
	stacks  int
	moves   int // moves applied, a batch's coalesced changes excluded
	cross   int // moves of batches that changed shards
}

func newModel(t *testing.T, name string, s Strategy) *model {
	twin, err := Open(Options{Strategy: s, PageSize: 256, BufferPages: 4, ExpectedObjects: 64})
	if err != nil {
		t.Fatal(err)
	}
	return &model{name: name, objects: make(map[uint64]Point), twin: twin, stacks: 1}
}

func (m *model) fail(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Fatalf(m.name+": "+format, args...)
}

// decodePoint maps two bytes to a position; coordinates span slightly
// beyond the unit square, so drift beyond the root MBR is exercised too.
func decodePoint(xb, yb byte) Point {
	return Point{X: float64(xb)/255*1.3 - 0.15, Y: float64(yb)/255*1.3 - 0.15}
}

// nudge moves p by at most 0.01 on each axis, as two bytes say: a move
// that bottom-up updates resolve in the leaf or by extending it.
func nudge(p Point, xb, yb byte) Point {
	return Point{X: p.X + (float64(xb)-127.5)/127.5*0.01, Y: p.Y + (float64(yb)-127.5)/127.5*0.01}
}

// runUpdateSequence decodes data into an operation sequence and runs it
// on idx, holding every answer, error and batch result to the model m and
// updating the model with every write that succeeded. After every
// operation it validates the complete invariants.
//
// Encoding: each operation consumes 4 bytes [op, id, x, y]:
//
//	op % 8 == 0,1  insert id at (x, y)
//	op % 8 == 2    update id to (x, y)
//	op % 8 == 3    update id by a nudge of at most 0.01 per axis
//	op % 8 == 4    delete id
//	op % 8 == 5    window query centered near (x, y), side from id byte:
//	               Search, Count and SearchFunc (and a SearchFunc that
//	               stops after one visit)
//	op % 8 == 6    k-NN query at (x, y), k = id%8 + 1
//	op % 8 == 7    UpdateBatch of the next id%4+1 chunks as moves, each
//	               [op, id, x, y]: a nudge for an odd op, else to (x, y)
//
// ids come from a small space (id % 48) so collisions — duplicate
// inserts, updates of deleted objects, one object moved twice in a batch
// — happen constantly; those must fail with the documented errors and
// leave the index untouched, or coalesce to the last move.
func runUpdateSequence(t *testing.T, m *model, idx fuzzIndex, data []byte) {
	t.Helper()
	const maxOps = 192
	fail := func(format string, args ...any) {
		t.Helper()
		m.fail(t, format, args...)
	}
	ops := 0
	for i := 0; i+4 <= len(data) && ops < maxOps; ops++ {
		op, idb, xb, yb := data[i]%8, data[i+1], data[i+2], data[i+3]
		i += 4
		id := uint64(idb % 48)
		p := decodePoint(xb, yb)
		_, exists := m.objects[id]
		switch op {
		case 0, 1:
			err := idx.Insert(id, p)
			if exists {
				if !errors.Is(err, ErrDuplicateObject) {
					fail("op %d: duplicate insert %d: got %v, want ErrDuplicateObject", ops, id, err)
				}
				break
			}
			if err != nil {
				fail("op %d: insert %d at %v: %v", ops, id, p, err)
			}
			m.objects[id] = p
			if err := m.twin.Insert(id, p); err != nil {
				fail("op %d: twin: %v", ops, err)
			}
		case 2, 3:
			if op == 3 && exists {
				p = nudge(m.objects[id], xb, yb)
			}
			err := idx.Update(id, p)
			if !exists {
				if !errors.Is(err, ErrUnknownObject) {
					fail("op %d: update of unknown %d: got %v, want ErrUnknownObject", ops, id, err)
				}
				break
			}
			if err != nil {
				fail("op %d: update %d to %v: %v", ops, id, p, err)
			}
			m.objects[id] = p
			m.moves++
			if err := m.twin.Update(id, p); err != nil {
				fail("op %d: twin: %v", ops, err)
			}
		case 4:
			err := idx.Delete(id)
			if !exists {
				if !errors.Is(err, ErrUnknownObject) {
					fail("op %d: delete of unknown %d: got %v, want ErrUnknownObject", ops, id, err)
				}
				break
			}
			if err != nil {
				fail("op %d: delete %d: %v", ops, id, err)
			}
			delete(m.objects, id)
			if err := m.twin.Delete(id); err != nil {
				fail("op %d: twin: %v", ops, err)
			}
		case 5:
			side := float64(idb) / 255 * 0.8
			m.checkWindow(t, idx, NewRect(p.X-side/2, p.Y-side/2, p.X+side/2, p.Y+side/2))
		case 6:
			m.checkNearest(t, idx, p, int(idb%8)+1)
		case 7:
			var batch []Change
			for j := 0; j < int(idb%4)+1 && i+4 <= len(data); j++ {
				bid := uint64(data[i+1] % 48)
				to := decodePoint(data[i+2], data[i+3])
				if data[i]%2 == 1 {
					if p, ok := m.objects[bid]; ok {
						to = nudge(p, data[i+2], data[i+3])
					}
				}
				i += 4
				batch = append(batch, Change{ID: bid, To: to})
			}
			if len(batch) > 0 {
				m.updateBatch(t, idx, batch)
			}
		}
		if err := idx.CheckInvariants(); err != nil {
			fail("op %d: invariants: %v", ops, err)
		}
		if idx.Len() != len(m.objects) {
			fail("op %d: Len %d, model %d", ops, idx.Len(), len(m.objects))
		}
	}
}

// updateBatch runs one UpdateBatch and holds its result to the model: a
// batch with an unknown id fails whole, and otherwise its changes
// coalesce to the last move of each object, every one counted once — as
// absorbed by a tier, or else as resolved by a leaf group's pass (never
// under TopDown), by a per-object fallback or across shards.
func (m *model) updateBatch(t *testing.T, idx fuzzIndex, batch []Change) {
	t.Helper()
	last := map[uint64]Point{}
	allKnown := true
	for _, c := range batch {
		last[c.ID] = c.To
		if _, ok := m.objects[c.ID]; !ok {
			allKnown = false
		}
	}
	res, err := idx.UpdateBatch(batch)
	if !allKnown {
		if !errors.Is(err, ErrUnknownObject) {
			m.fail(t, "batch with unknown id: got %v, want ErrUnknownObject", err)
		}
		return
	}
	if err != nil {
		m.fail(t, "batch %v: %v", batch, err)
	}
	absorbed := 0
	if m.tiered {
		absorbed = res.Applied
	}
	switch {
	case res.Applied != len(last) || res.Applied+res.Coalesced != len(batch):
		m.fail(t, "batch of %d changes to %d objects: %+v", len(batch), len(last), res)
	case res.Absorbed != absorbed:
		m.fail(t, "batch absorbed %d of %d moves, tiered %v", res.Absorbed, res.Applied, m.tiered)
	case m.stacks == 1 && res.CrossShard != 0:
		m.fail(t, "batch on one stack crossed shards: %+v", res)
	case !m.tiered && res.GroupResolved+res.Fallback+res.CrossShard != res.Applied:
		m.fail(t, "batch moves resolved by no path: %+v", res)
	case !m.tiered && m.twin.options.Strategy == TopDown && res.GroupResolved != 0:
		m.fail(t, "TopDown batch resolved moves group-wise: %+v", res)
	}
	for _, c := range batch {
		m.objects[c.ID] = c.To
		if err := m.twin.Update(c.ID, c.To); err != nil {
			m.fail(t, "twin: %v", err)
		}
	}
	m.moves += res.Applied
	m.cross += res.CrossShard
	m.checkLocations(t, idx)
}

// checkWindow holds every read of window q to the model: Search, Count
// and SearchFunc answer the objects the model has inside q, each once and
// SearchFunc at its position, and so does the twin; a SearchFunc whose
// visitor stops after one visit makes exactly one.
func (m *model) checkWindow(t *testing.T, idx fuzzIndex, q Rect) {
	t.Helper()
	var want []uint64
	for id, p := range m.objects {
		if q.ContainsPoint(p) {
			want = append(want, id)
		}
	}
	slices.Sort(want)
	for who, search := range map[string]func(Rect) ([]uint64, error){"index": idx.Search, "twin": m.twin.Search} {
		got, err := search(q)
		if err != nil {
			m.fail(t, "%s: search %v: %v", who, q, err)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			m.fail(t, "%s: window %v: got %v, model %v", who, q, got, want)
		}
	}
	if n, err := idx.Count(q); err != nil || n != len(want) {
		m.fail(t, "Count %v = %d, %v; model %d", q, n, err, len(want))
	}
	visited := map[uint64]Point{}
	dup := false
	if err := idx.SearchFunc(q, func(id uint64, p Point) bool {
		_, dup = visited[id]
		visited[id] = p
		return !dup
	}); err != nil {
		m.fail(t, "SearchFunc %v: %v", q, err)
	}
	if dup || len(visited) != len(want) {
		m.fail(t, "SearchFunc %v visited %d objects (a repeat: %v), model %d", q, len(visited), dup, len(want))
	}
	for id, p := range visited {
		if m.objects[id] != p {
			m.fail(t, "SearchFunc %v visited %d at %v, model %v", q, id, p, m.objects[id])
		}
	}
	if len(want) > 1 {
		n := 0
		if err := idx.SearchFunc(q, func(uint64, Point) bool { n++; return false }); err != nil || n != 1 {
			m.fail(t, "SearchFunc %v stopped after %d visits, %v; want 1", q, n, err)
		}
	}
}

// checkNearest holds a k-NN query at p to the model: the distances are
// the model's k smallest, every neighbour is a distinct object at its
// position and distance, and the twin's distances agree.
func (m *model) checkNearest(t *testing.T, idx fuzzIndex, p Point, k int) {
	t.Helper()
	var dists []float64
	for _, q := range m.objects {
		dists = append(dists, geom.Dist(p, q))
	}
	sort.Float64s(dists)
	dists = dists[:min(k, len(dists))]
	for who, nearest := range map[string]func(Point, int) ([]Neighbor, error){"index": idx.Nearest, "twin": m.twin.Nearest} {
		ns, err := nearest(p, k)
		if err != nil {
			m.fail(t, "%s: nearest %v k=%d: %v", who, p, k, err)
		}
		if len(ns) != len(dists) {
			m.fail(t, "%s: nearest %v k=%d: %d results, model %d", who, p, k, len(ns), len(dists))
		}
		seen := map[uint64]bool{}
		for j, n := range ns {
			at, ok := m.objects[n.ID]
			switch {
			case n.Dist != dists[j]:
				m.fail(t, "%s: nearest %v k=%d: dist[%d] = %g, model %g", who, p, k, j, n.Dist, dists[j])
			case !ok || seen[n.ID] || at != n.Location || geom.Dist(p, at) != n.Dist:
				m.fail(t, "%s: nearest %v k=%d: neighbour %d is %+v, model %v, %v (seen %v)", who, p, k, j, n, at, ok, seen[n.ID])
			}
			seen[n.ID] = true
		}
	}
}

// checkLocations holds Len and Location to the model, for every object
// it holds and one it does not.
func (m *model) checkLocations(t *testing.T, idx fuzzIndex) {
	t.Helper()
	if idx.Len() != len(m.objects) || m.twin.Len() != len(m.objects) {
		m.fail(t, "Len %d, twin %d, model %d", idx.Len(), m.twin.Len(), len(m.objects))
	}
	for id, want := range m.objects {
		if got, ok := idx.Location(id); !ok || got != want {
			m.fail(t, "object %d at %v, %v; model %v", id, got, ok, want)
		}
	}
	if _, ok := idx.Location(1 << 40); ok {
		m.fail(t, "Location of an object never inserted")
	}
}

// check is the full check after a lifecycle step or a segment: the
// invariants of the index and the twin, every location, and a
// whole-space SearchFunc that visits exactly the model's objects at their
// positions.
func (m *model) check(t *testing.T, idx fuzzIndex) {
	t.Helper()
	if err := idx.CheckInvariants(); err != nil {
		m.fail(t, "invariants: %v", err)
	}
	if err := m.twin.CheckInvariants(); err != nil {
		m.fail(t, "twin: invariants: %v", err)
	}
	m.checkLocations(t, idx)
	got := map[uint64]Point{}
	if err := idx.SearchFunc(NewRect(-10, -10, 10, 10), func(id uint64, p Point) bool {
		got[id] = p
		return true
	}); err != nil {
		m.fail(t, "SearchFunc: %v", err)
	}
	if !maps.Equal(got, m.objects) {
		m.fail(t, "whole space holds %d objects, model %d", len(got), len(m.objects))
	}
}

// segment runs one segment of a sequence and holds Stats to it: an
// untiered index's trees hold every object, grow past one level once
// some stack holds more than a leaf, read leaves from disk once some
// stack outgrows its share of the four-page pool (a page at least), and
// on one stack resolve one update outcome per move applied.
func (m *model) segment(t *testing.T, idx fuzzIndex, data []byte) {
	t.Helper()
	before, _ := indexOf(idx).stats()
	moves := m.moves
	runUpdateSequence(t, m, idx, data)
	m.check(t, idx)
	st, _ := indexOf(idx).stats()
	if m.tiered {
		return
	}
	if st.Size != len(m.objects) || (slices.Max(shardLens(idx)) > leafFanout && st.Height < 2) || (st.Pages-st.ResidentPages > m.stacks*max(4/m.stacks, 1) && st.DiskReads == 0) {
		m.fail(t, "Stats: Size %d, Height %d, %d pages with %d resident read %d from disk; model %d objects",
			st.Size, st.Height, st.Pages, st.ResidentPages, st.DiskReads, len(m.objects))
	}
	if out := st.Outcomes.Total() - before.Outcomes.Total(); m.stacks == 1 && out != int64(m.moves-moves) {
		m.fail(t, "Stats: %d update outcomes for %d moves applied", out, m.moves-moves)
	}
}

// shardLens is the object count of each of idx's stacks.
func shardLens(idx fuzzIndex) []int {
	if sh, ok := idx.(*ShardedIndex); ok {
		return sh.ShardLens()
	}
	return []int{idx.Len()}
}

// leafFanout is the most objects a leaf of the model's 256-byte pages
// holds under TopDown and GeneralizedBottomUp, which keep no parent
// pointers.
var leafFanout = rtree.MaxEntriesFor(256, false, 0)

// bulkLoad bulk-loads 40 objects of the id space into the empty index
// and the twin.
func (m *model) bulkLoad(t *testing.T, idx fuzzIndex, rng *rand.Rand) {
	t.Helper()
	ids, pts := make([]uint64, 40), make([]Point, 40)
	for i := range ids {
		ids[i], pts[i] = uint64(i), decodePoint(byte(rng.Intn(256)), byte(rng.Intn(256)))
		m.objects[ids[i]] = pts[i]
	}
	if err := idx.BulkInsert(ids, pts, PackSTR); err != nil {
		m.fail(t, "BulkInsert: %v", err)
	}
	if err := m.twin.BulkInsert(ids, pts, PackSTR); err != nil {
		m.fail(t, "twin: BulkInsert: %v", err)
	}
	m.check(t, idx)
}

// recover closes idx and recovers its directory as the front-end kind as
// says; the directory of four shards only RecoverSharded reads.
func (m *model) recover(t *testing.T, idx fuzzIndex, opts Options, shards int, as kind) fuzzIndex {
	t.Helper()
	if err := idx.Close(); err != nil {
		m.fail(t, "Close: %v", err)
	}
	if shards > 1 {
		as = kindSharded
	}
	var err error
	switch as {
	case kindIndex:
		idx, err = asFuzzIndex(Recover(opts))
	case kindConcurrent:
		idx, err = asFuzzIndex(RecoverConcurrent(opts))
	default:
		idx, err = asFuzzIndex(RecoverSharded(opts, ShardOptions{Shards: max(shards, 1)}))
	}
	if err != nil {
		m.fail(t, "%s: %v", as.recoverName(), err)
	}
	m.check(t, idx)
	return idx
}

// checkpoint checkpoints idx: a durable index writes its snapshot and
// leaves no record in any stack's log, and a volatile one refuses.
func (m *model) checkpoint(t *testing.T, idx fuzzIndex, dir string) {
	t.Helper()
	err := idx.Checkpoint()
	x := indexOf(idx)
	if x.wals == nil {
		if !errors.Is(err, errNoDurability) {
			m.fail(t, "Checkpoint of a volatile index: %v", err)
		}
		return
	}
	if err != nil {
		m.fail(t, "Checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFileName)); err != nil {
		m.fail(t, "no snapshot after Checkpoint: %v", err)
	}
	for i := range x.shards {
		if recs, _, err := wal.ReadDir(logDir(dir, i), 0); err != nil || len(recs) != 0 {
			m.fail(t, "log %d holds %d records after Checkpoint (%v)", i, len(recs), err)
		}
	}
	m.check(t, idx)
}

// saveAndLoad saves idx, closes it and loads the snapshot as the
// front-end kind as says: a snapshot of several stacks loaded as one
// stack is merged, and one loaded as a ShardedIndex keeps every stack's
// objects. What loads is volatile and untiered.
func (m *model) saveAndLoad(t *testing.T, idx fuzzIndex, as kind) fuzzIndex {
	t.Helper()
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		m.fail(t, "Save: %v", err)
	}
	lens := shardLens(idx)
	if err := idx.Close(); err != nil {
		m.fail(t, "Close: %v", err)
	}
	var err error
	switch as {
	case kindIndex:
		idx, err = asFuzzIndex(Load(&buf))
	case kindConcurrent:
		idx, err = asFuzzIndex(LoadConcurrent(&buf))
	default:
		idx, err = asFuzzIndex(LoadSharded(&buf))
	}
	if err != nil {
		m.fail(t, "load as %v: %v", as, err)
	}
	m.tiered = false
	if sh, ok := idx.(*ShardedIndex); ok {
		if got := sh.ShardLens(); !slices.Equal(got, lens) {
			m.fail(t, "LoadSharded: shard lens %v, saved %v", got, lens)
		}
	} else {
		m.stacks = 1
	}
	m.check(t, idx)
	return idx
}

// moveInParallel moves every object once, by a nudge, from four
// goroutines over disjoint ids with a Count beside every few moves — as
// concurrent clients would on the front-ends built for them (idx is left
// alone otherwise). Whatever the interleaving, the positions end as the
// model's; a GBU index's untiered trees, once past one level, resolve
// some of the moves on the fine-grained path.
func (m *model) moveInParallel(t *testing.T, idx fuzzIndex, rng *rand.Rand) {
	t.Helper()
	if indexOf(idx).kind == kindIndex || len(m.objects) == 0 {
		return
	}
	ids := slices.Sorted(maps.Keys(m.objects))
	to := make([]Point, len(ids))
	for i, id := range ids {
		to[i] = nudge(m.objects[id], byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	st, before := indexOf(idx).stats()
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(ids); i += workers {
				if err := idx.Update(ids[i], to[i]); err != nil {
					errs <- err
					return
				}
				if i%8 == w {
					if _, err := idx.Count(NewRect(to[i].X-0.1, to[i].Y-0.1, to[i].X+0.1, to[i].Y+0.1)); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		m.fail(t, "moves in parallel: %v", err)
	}
	for i, id := range ids {
		m.objects[id] = to[i]
		if err := m.twin.Update(id, to[i]); err != nil {
			m.fail(t, "twin: %v", err)
		}
	}
	m.moves += len(ids)
	m.check(t, idx)
	_, after := indexOf(idx).stats()
	var updates, queries, local int64
	for i := range after {
		updates += after[i].Updates - before[i].Updates
		queries += after[i].Queries - before[i].Queries
		local += after[i].Local - before[i].Local
	}
	if queries == 0 || (!m.tiered && updates == 0) {
		m.fail(t, "moves in parallel: lock layer counted %d updates, %d queries", updates, queries)
	}
	if !m.tiered && m.twin.options.Strategy == GeneralizedBottomUp && st.Height > 1 && local == 0 {
		m.fail(t, "moves in parallel: none of %d moves took the fine-grained path", len(ids))
	}
}

// FuzzLoadSnapshot feeds arbitrary bytes — seeded with a saved snapshot of
// one stack and of three per strategy — to every loader, and drives what
// loads: CheckInvariants, a window query, a k-NN query and a few writes.
// Each may fail, as a snapshot is outside input, but none may panic.
func FuzzLoadSnapshot(f *testing.F) {
	for _, s := range allFacadeStrategies() {
		for _, shards := range []int{1, 3} {
			x, err := OpenSharded(Options{Strategy: s, PageSize: 256, ExpectedObjects: 64}, ShardOptions{Shards: shards})
			if err != nil {
				f.Fatal(err)
			}
			ids, pts := randomPoints(150, int64(shards))
			if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
				f.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if err := x.Update(ids[i], Point{X: pts[i].Y, Y: pts[i].X}); err != nil {
					f.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := x.Save(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, load := range []func() (walFailureIndex, error){
			func() (walFailureIndex, error) { return Load(bytes.NewReader(data)) },
			func() (walFailureIndex, error) { return LoadConcurrent(bytes.NewReader(data)) },
			func() (walFailureIndex, error) { return LoadSharded(bytes.NewReader(data)) },
		} {
			x, err := load()
			if err != nil {
				continue
			}
			_ = x.CheckInvariants()
			var ids []uint64
			_ = x.SearchFunc(NewRect(-1, -1, 2, 2), func(id uint64, _ Point) bool {
				ids = append(ids, id)
				return len(ids) < 8
			})
			_, _ = indexOf(x).Nearest(Point{X: 0.5, Y: 0.5}, 4)
			for i, id := range ids {
				_ = x.Update(id, Point{X: float64(i) / 8, Y: 0.5})
			}
			_ = x.Insert(1<<40, Point{X: 0.25, Y: 0.75})
			if len(ids) > 0 {
				_ = x.Delete(ids[0])
			}
			_, _ = x.UpdateBatch([]Change{{ID: 1 << 40, To: Point{X: 0.75, Y: 0.25}}})
			_ = x.Close()
		}
	})
}
