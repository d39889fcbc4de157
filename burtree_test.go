package burtree

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
	x := openTest(t, GeneralizedBottomUp)
	rng := rand.New(rand.NewSource(9))
	const n = 3000
	ids := make([]uint64, n)
	pts := make([]Point, n)
	for i := range ids {
		ids[i] = uint64(i)
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
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
		t.Fatalf("no in-leaf updates after a bulk load: %+v", out)
	}
}

// TestBulkInsertRefusesOtherPackers: STR is the one packer, so a
// PackMethod other than PackSTR is refused with an error on every
// front-end, which is left empty and valid; a PackSTR load of the same
// input then succeeds.
func TestBulkInsertRefusesOtherPackers(t *testing.T) {
	type loader interface {
		BulkInsert(ids []uint64, pts []Point, method PackMethod) error
		Len() int
		CheckInvariants() error
	}
	ids, pts := randomPoints(2000, 21)
	for _, fe := range []struct {
		name string
		x    loader
	}{
		{"Index", openTest(t, GeneralizedBottomUp)},
		{"ConcurrentIndex", openConcurrentTest(t, GeneralizedBottomUp)},
		{"ShardedIndex", openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4})},
	} {
		if err := fe.x.BulkInsert(ids, pts, PackMethod(1)); err == nil {
			t.Fatalf("%s: BulkInsert with PackMethod(1) accepted", fe.name)
		}
		if n := fe.x.Len(); n != 0 {
			t.Fatalf("%s: refused BulkInsert left Len = %d", fe.name, n)
		}
		if err := fe.x.CheckInvariants(); err != nil {
			t.Fatalf("%s: after the refusal: %v", fe.name, err)
		}
		if err := fe.x.BulkInsert(ids, pts, PackSTR); err != nil {
			t.Fatalf("%s: PackSTR after the refusal: %v", fe.name, err)
		}
		if n := fe.x.Len(); n != len(ids) {
			t.Fatalf("%s: Len = %d after loading %d", fe.name, n, len(ids))
		}
		if err := fe.x.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", fe.name, err)
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

	s, err := OpenSharded(opts, ShardOptions{Shards: 2})
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
// field of the four option structs, by name. Each one doubles the
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
	}
	structs := []reflect.Type{
		reflect.TypeOf(Options{}), reflect.TypeOf(Durability{}), reflect.TypeOf(Memtable{}),
		reflect.TypeOf(ShardOptions{}),
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
