package burtree

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"burtree/internal/buffer"
)

func openTest(t testing.TB, s Strategy) *Index {
	t.Helper()
	x, err := Open(Options{Strategy: s, ExpectedObjects: 4000, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func allFacadeStrategies() []Strategy {
	return []Strategy{TopDown, GeneralizedBottomUp}
}

func TestOpenRejectsUnknownStrategy(t *testing.T) {
	if _, err := Open(Options{Strategy: Strategy(42)}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestInsertUpdateDeleteLifecycle(t *testing.T) {
	for _, s := range allFacadeStrategies() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			x := openTest(t, s)
			if err := x.Insert(1, Point{X: 0.25, Y: 0.25}); err != nil {
				t.Fatal(err)
			}
			if err := x.Insert(1, Point{X: 0.5, Y: 0.5}); !errors.Is(err, ErrDuplicateObject) {
				t.Fatalf("duplicate insert err = %v", err)
			}
			if err := x.Update(2, Point{X: 0.5, Y: 0.5}); !errors.Is(err, ErrUnknownObject) {
				t.Fatalf("unknown update err = %v", err)
			}
			if err := x.Update(1, Point{X: 0.75, Y: 0.75}); err != nil {
				t.Fatal(err)
			}
			if p, ok := x.Location(1); !ok || p != (Point{X: 0.75, Y: 0.75}) {
				t.Fatalf("Location = %v, %v", p, ok)
			}
			ids, err := x.Search(NewRect(0.7, 0.7, 0.8, 0.8))
			if err != nil || len(ids) != 1 || ids[0] != 1 {
				t.Fatalf("search = %v, %v", ids, err)
			}
			if err := x.Delete(1); err != nil {
				t.Fatal(err)
			}
			if err := x.Delete(1); !errors.Is(err, ErrUnknownObject) {
				t.Fatalf("double delete err = %v", err)
			}
			if x.Len() != 0 {
				t.Fatalf("Len = %d", x.Len())
			}
			if err := x.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFacadeRandomWorkload(t *testing.T) {
	for _, s := range allFacadeStrategies() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			x := openTest(t, s)
			rng := rand.New(rand.NewSource(42))
			const n = 2000
			for i := 0; i < n; i++ {
				if err := x.Insert(uint64(i), Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 6000; step++ {
				id := uint64(rng.Intn(n))
				p, _ := x.Location(id)
				np := Point{X: p.X + (rng.Float64()-0.5)*0.05, Y: p.Y + (rng.Float64()-0.5)*0.05}
				if err := x.Update(id, np); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if err := x.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Oracle queries.
			for q := 0; q < 25; q++ {
				cx, cy := rng.Float64(), rng.Float64()
				window := NewRect(cx, cy, cx+rng.Float64()*0.1, cy+rng.Float64()*0.1)
				got, err := x.Search(window)
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				var want []uint64
				for id := 0; id < n; id++ {
					if p, _ := x.Location(uint64(id)); window.ContainsPoint(p) {
						want = append(want, uint64(id))
					}
				}
				if len(got) != len(want) {
					t.Fatalf("query %v: %d results, want %d", window, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("query %v: result %d mismatch", window, i)
					}
				}
			}
			st := x.Stats()
			if st.Size != n || st.Height < 2 || st.DiskReads == 0 {
				t.Fatalf("stats = %+v", st)
			}
			if st.Outcomes.Total() != 6000 {
				t.Fatalf("outcomes total = %d", st.Outcomes.Total())
			}
		})
	}
}

func TestCountAndSearchFunc(t *testing.T) {
	x := openTest(t, GeneralizedBottomUp)
	for i := 0; i < 100; i++ {
		if err := x.Insert(uint64(i), Point{X: float64(i) / 100, Y: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := x.Count(NewRect(0, 0, 0.5, 1))
	if err != nil || n != 51 { // x = 0.00 .. 0.50 inclusive
		t.Fatalf("Count = %d, %v; want 51", n, err)
	}
	// Early stop.
	seen := 0
	err = x.SearchFunc(NewRect(0, 0, 1, 1), func(uint64, Point) bool {
		seen++
		return seen < 10
	})
	if err != nil || seen != 10 {
		t.Fatalf("early stop saw %d, err %v", seen, err)
	}
}

func TestNearestFacade(t *testing.T) {
	x := openTest(t, GeneralizedBottomUp)
	pts := []Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}, {X: 0.9, Y: 0.9}, {X: 0.5, Y: 0.5}}
	for i, p := range pts {
		if err := x.Insert(uint64(i), p); err != nil {
			t.Fatal(err)
		}
	}
	nb, err := x.Nearest(Point{X: 0.12, Y: 0.12}, 2)
	if err != nil || len(nb) != 2 {
		t.Fatalf("Nearest = %v, %v", nb, err)
	}
	if nb[0].ID != 0 || nb[1].ID != 1 {
		t.Fatalf("neighbors = %+v", nb)
	}
}

func TestStatsResetAndFlush(t *testing.T) {
	x := openTest(t, TopDown)
	if err := x.Insert(1, Point{X: 0.5, Y: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := x.Flush(); err != nil {
		t.Fatal(err)
	}
	if x.Stats().DiskWrites == 0 {
		t.Fatal("no writes recorded")
	}
	x.ResetStats()
	if s := x.Stats(); s.DiskReads != 0 || s.DiskWrites != 0 {
		t.Fatalf("reset failed: %+v", s)
	}
	if x.Stats().Size != 1 {
		t.Fatal("reset clobbered tree state")
	}
}

func TestStrategyNames(t *testing.T) {
	if TopDown.String() != "TopDown" ||
		GeneralizedBottomUp.String() != "GeneralizedBottomUp" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy name empty")
	}
}

func TestConcurrentIndex(t *testing.T) {
	x, err := OpenConcurrent(Options{Strategy: GeneralizedBottomUp, ExpectedObjects: 2000, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 1000
	for i := 0; i < n; i++ {
		if err := x.Insert(uint64(i), Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w + 100)))
			for i := 0; i < 200; i++ {
				if r.Float64() < 0.6 {
					id := uint64(w*100 + r.Intn(100)) // disjoint id ranges per worker
					np := Point{X: r.Float64(), Y: r.Float64()}
					if err := x.Update(id, np); err != nil {
						t.Error(err)
						return
					}
				} else {
					cx, cy := r.Float64(), r.Float64()
					if _, err := x.Count(NewRect(cx, cy, cx+0.05, cy+0.05)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if x.Len() != n {
		t.Fatalf("Len = %d", x.Len())
	}
	st, cs := x.Stats()
	if st.Size != n || cs.Updates == 0 || cs.Queries == 0 {
		t.Fatalf("stats = %+v / %+v", st, cs)
	}
	if cs.Local == 0 {
		t.Fatal("no updates took the fine-grained path")
	}
}

func TestConcurrentIndexErrors(t *testing.T) {
	x, err := OpenConcurrent(Options{Strategy: TopDown})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Update(5, Point{}); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("unknown update err = %v", err)
	}
	if err := x.Insert(5, Point{X: 0.5, Y: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(5, Point{X: 0.5, Y: 0.5}); !errors.Is(err, ErrDuplicateObject) {
		t.Fatalf("duplicate insert err = %v", err)
	}
	if err := x.Delete(9); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("unknown delete err = %v", err)
	}
	if err := x.Delete(5); err != nil {
		t.Fatal(err)
	}
}

func TestBulkInsert(t *testing.T) {
	for _, method := range []PackMethod{PackSTR, PackHilbert} {
		x := openTest(t, GeneralizedBottomUp)
		rng := rand.New(rand.NewSource(9))
		const n = 3000
		ids := make([]uint64, n)
		pts := make([]Point, n)
		for i := range ids {
			ids[i] = uint64(i)
			pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
		}
		if err := x.BulkInsert(ids, pts, method); err != nil {
			t.Fatal(err)
		}
		if x.Len() != n {
			t.Fatalf("Len = %d", x.Len())
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Bottom-up updates work immediately after a bulk load (hash and
		// summary were populated by the load).
		for step := 0; step < 1500; step++ {
			id := uint64(rng.Intn(n))
			p, _ := x.Location(id)
			if err := x.Update(id, Point{X: p.X + 0.002, Y: p.Y + 0.002}); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		out := x.Stats().Outcomes
		if out.InLeaf == 0 {
			t.Fatalf("no in-leaf updates after %v bulk load: %+v", method, out)
		}
	}
}

func TestBulkInsertErrors(t *testing.T) {
	x := openTest(t, TopDown)
	if err := x.BulkInsert([]uint64{1, 2}, []Point{{X: 0.1, Y: 0.1}}, PackSTR); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := x.Insert(5, Point{X: 0.5, Y: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := x.BulkInsert([]uint64{1}, []Point{{X: 0.1, Y: 0.1}}, PackSTR); err == nil {
		t.Fatal("bulk insert into non-empty index accepted")
	}
}

// TestStatsSurfacePoolEvents: with a buffer smaller than the tree, the
// pool's evictions and dirty write-backs show up in Stats on every
// front-end, and never outnumber what they are made of.
func TestStatsSurfacePoolEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := make([]uint64, 3000)
	pts := make([]Point, len(ids))
	for i := range ids {
		ids[i], pts[i] = uint64(i+1), Point{X: rng.Float64(), Y: rng.Float64()}
	}
	opts := Options{Strategy: GeneralizedBottomUp, ExpectedObjects: len(ids), BufferPages: 16}
	check := func(name string, st Stats) {
		t.Helper()
		if st.Evictions == 0 || st.DirtyWriteBacks == 0 {
			t.Fatalf("%s: a 16-page pool under %d objects reports %d evictions, %d dirty write-backs", name, len(ids), st.Evictions, st.DirtyWriteBacks)
		}
		if st.DirtyWriteBacks > st.Evictions || st.DirtyWriteBacks > st.DiskWrites || st.PinFallbacks != 0 {
			t.Fatalf("%s: inconsistent pool events: %+v", name, st)
		}
	}

	x, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	check("Index", x.Stats())

	c, err := OpenConcurrent(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	cst, _ := c.Stats()
	check("ConcurrentIndex", cst)

	s, err := OpenSharded(opts, ShardOptions{Shards: 2, Partition: ShardHilbert})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	sst, _ := s.Stats()
	check("ShardedIndex", sst)

	// A pin that outlives its operation is what CheckInvariants is there
	// to catch, on every front-end.
	for _, fe := range []struct {
		name  string
		pool  *buffer.Pool
		check func() error
	}{
		{"Index", x.shards[0].pool, x.CheckInvariants},
		{"ConcurrentIndex", c.shards[0].pool, c.CheckInvariants},
		{"ShardedIndex", s.shards[1].pool, s.CheckInvariants},
	} {
		if err := fe.check(); err != nil {
			t.Fatalf("%s: %v", fe.name, err)
		}
		h, err := fe.pool.Pin(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := fe.check(); err == nil || !strings.Contains(err.Error(), "pinned") {
			t.Fatalf("%s: CheckInvariants with a leaked pin: %v", fe.name, err)
		}
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
		if err := fe.check(); err != nil {
			t.Fatalf("%s: after the release: %v", fe.name, err)
		}
	}
}

// TestPublicKnobs pins the option surface: every independently settable
// field of the five option structs, by name. Each one doubles the
// configurations tests and benchmarks must cover, so adding or removing
// one has to show up as a diff of this list. Fields that only nest
// another of the structs are not knobs and are not listed.
func TestPublicKnobs(t *testing.T) {
	want := []string{
		"Options.Strategy", "Options.PageSize", "Options.BufferPages",
		"Options.Epsilon", "Options.DistanceThreshold", "Options.ExpectedObjects",
		"Durability.Mode", "Durability.Dir",
		"Memtable.Enabled", "Memtable.MaxObjects",
		"ShardOptions.Shards", "ShardOptions.Partition",
		"RebalanceOptions.HotFactor", "RebalanceOptions.MaxStep", "RebalanceOptions.MinOps",
		"RebalanceOptions.Cooldown", "RebalanceOptions.Interval", "RebalanceOptions.UseOpCounts",
	}
	structs := []reflect.Type{
		reflect.TypeOf(Options{}), reflect.TypeOf(Durability{}), reflect.TypeOf(Memtable{}),
		reflect.TypeOf(ShardOptions{}), reflect.TypeOf(RebalanceOptions{}),
	}
	var got []string
	for _, st := range structs {
		for i := 0; i < st.NumField(); i++ {
			if f := st.Field(i); f.IsExported() && !slices.Contains(structs, f.Type) {
				got = append(got, st.Name()+"."+f.Name)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("public option fields changed:\n got  %d %v\n want %d %v", len(got), got, len(want), want)
	}
}
