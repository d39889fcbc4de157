package burtree

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"burtree/internal/pagestore"
	"burtree/internal/shard"
)

func buildForPersist(t *testing.T, s Strategy) (*Index, *rand.Rand) {
	t.Helper()
	x, err := Open(Options{Strategy: s, ExpectedObjects: 2000, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 1500; i++ {
		if err := x.Insert(uint64(i), Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 2000; step++ {
		id := uint64(rng.Intn(1500))
		p, _ := x.Location(id)
		np := Point{X: p.X + (rng.Float64()-0.5)*0.05, Y: p.Y + (rng.Float64()-0.5)*0.05}
		if err := x.Update(id, np); err != nil {
			t.Fatal(err)
		}
	}
	return x, rng
}

// objects returns the table's objects and their positions.
func (t *objectTable) objects() map[uint64]Point {
	out := make(map[uint64]Point, t.Len())
	t.each(func(id uint64, r record) {
		if r.live() {
			out[id] = r.point()
		}
	})
	return out
}

func queriesMatch(t *testing.T, a, b interface{ Search(Rect) ([]uint64, error) }, rng *rand.Rand, n int) {
	t.Helper()
	for q := 0; q < n; q++ {
		cx, cy := rng.Float64(), rng.Float64()
		w := NewRect(cx, cy, cx+rng.Float64()*0.1, cy+rng.Float64()*0.1)
		ra, err := a.Search(w)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Search(w)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ra, func(i, j int) bool { return ra[i] < ra[j] })
		sort.Slice(rb, func(i, j int) bool { return rb[i] < rb[j] })
		if len(ra) != len(rb) {
			t.Fatalf("query %v: %d vs %d results", w, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("query %v: result %d differs", w, i)
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	orig, rng := buildForPersist(t, GeneralizedBottomUp)
	path := t.TempDir() + "/index.bur"
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	queriesMatch(t, orig, loaded, rng, 15)
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Fatal("garbage accepted")
	}
	var empty bytes.Buffer
	if _, err := Load(&empty); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestSaveLoadEmptyIndex(t *testing.T) {
	x, err := Open(Options{Strategy: GeneralizedBottomUp})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 0 {
		t.Fatalf("Len = %d", loaded.Len())
	}
	// And it accepts inserts.
	if err := loaded.Insert(1, Point{X: 0.5, Y: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// reencode decodes a Save stream, lets edit change it and encodes it
// again under the current magic, so a test can plant what a writer never
// would.
func reencode(t *testing.T, saved []byte, edit func(*savedIndex)) []byte {
	t.Helper()
	var s savedIndex
	if err := gob.NewDecoder(bytes.NewReader(saved[len(snapshotMagic):])).Decode(&s); err != nil {
		t.Fatal(err)
	}
	edit(&s)
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, &s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRefusesFormatOne: the snapshots of earlier versions are refused
// by every loader with ErrBadSnapshot, naming what was found, before any
// page is decoded. Format 1's leaves held 40-byte entries, which this
// version's 24-byte point entries would misread; format 2 came in two
// envelopes, a bare stack (BURSNAP2) and a manifest of nested stacks
// (BURSHRD2). Both a body of format 1 or 2 under the current magic and
// either of the old magics are refused.
func TestLoadRefusesFormatOne(t *testing.T) {
	orig, _ := buildForPersist(t, GeneralizedBottomUp)
	var one bytes.Buffer
	if err := orig.Save(&one); err != nil {
		t.Fatal(err)
	}
	sh, err := OpenSharded(Options{Strategy: GeneralizedBottomUp, ExpectedObjects: 2000, BufferPages: 32}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	objects := orig.objects()
	ids := slices.Sorted(maps.Keys(objects))
	pts := make([]Point, len(ids))
	for i, id := range ids {
		pts[i] = objects[id]
	}
	if err := sh.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	var two bytes.Buffer
	if err := sh.Save(&two); err != nil {
		t.Fatal(err)
	}
	withMagic := func(b []byte, magic string) []byte {
		return append([]byte(magic), b[len(snapshotMagic):]...)
	}

	type refused struct {
		name, want string
		stream     []byte
	}
	var cases []refused
	for _, snap := range []struct {
		name string
		b    []byte
	}{{"one stack", one.Bytes()}, {"two stacks", two.Bytes()}} {
		for _, f := range []int{1, 2} {
			cases = append(cases, refused{fmt.Sprintf("%s, format %d", snap.name, f), fmt.Sprintf("format %d", f),
				reencode(t, snap.b, func(s *savedIndex) { s.Format = f })})
		}
		for _, magic := range []string{"BURSNAP2", "BURSHRD2"} {
			cases = append(cases, refused{snap.name + " under " + magic, magic, withMagic(snap.b, magic)})
		}
	}
	loaders := []struct {
		name string
		load func([]byte) error
	}{
		{"Load", func(b []byte) error { _, err := Load(bytes.NewReader(b)); return err }},
		{"LoadConcurrent", func(b []byte) error { _, err := LoadConcurrent(bytes.NewReader(b)); return err }},
		{"LoadSharded", func(b []byte) error { _, err := LoadSharded(bytes.NewReader(b)); return err }},
	}
	for _, c := range cases {
		for _, l := range loaders {
			if err := l.load(c.stream); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s of a %s: err = %v, want ErrBadSnapshot naming %s", l.name, c.name, err, c.want)
			}
		}
	}
}

// TestLoadRefusesFormatThree: format 3 carried each stack's paged
// object-id hash index (its bucket directory and entry count) beside the
// tree pages; this version keeps each object's leaf in the in-memory
// object table and rebuilds it from the leaves. A format-3 snapshot is refused on purpose by every
// loader with ErrBadSnapshot, under its own magic BURSNAP3 and as a
// format-3 body under the current magic.
func TestLoadRefusesFormatThree(t *testing.T) {
	// The shapes format 3 wrote; gob matches fields by name.
	type stackV3 struct {
		Pages         [][]byte
		Freed         []pagestore.PageID
		Root          pagestore.PageID
		Height, Size  int
		HashDirectory []pagestore.PageID
		HashSize      int
		Objects       map[uint64]Point
	}
	type indexV3 struct {
		Format              int
		Options             Options
		Partition           shard.Spec
		WALSeq, RouterEpoch uint64
		Stacks              []stackV3
	}
	orig, _ := buildForPersist(t, GeneralizedBottomUp)
	var cur bytes.Buffer
	if err := orig.Save(&cur); err != nil {
		t.Fatal(err)
	}
	var s savedIndex
	if err := gob.NewDecoder(bytes.NewReader(cur.Bytes()[len(snapshotMagic):])).Decode(&s); err != nil {
		t.Fatal(err)
	}
	v3 := indexV3{Format: 3, Options: s.Options, Partition: s.Partition, WALSeq: s.WALSeq}
	for _, st := range s.Stacks {
		v3.Stacks = append(v3.Stacks, stackV3{Pages: st.Pages, Freed: st.Freed, Root: st.Root, Height: st.Height, Size: st.Size,
			HashDirectory: []pagestore.PageID{1, 2}, HashSize: st.Size, Objects: st.Objects})
	}
	envelope := func(magic string) []byte {
		var buf bytes.Buffer
		buf.WriteString(magic)
		if err := gob.NewEncoder(&buf).Encode(v3); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct{ name, want string }{{"BURSNAP3", "BURSNAP3"}, {string(snapshotMagic[:]), "format 3"}}
	for _, c := range cases {
		stream := envelope(c.name)
		for name, load := range map[string]func([]byte) error{
			"Load":           func(b []byte) error { _, err := Load(bytes.NewReader(b)); return err },
			"LoadConcurrent": func(b []byte) error { _, err := LoadConcurrent(bytes.NewReader(b)); return err },
			"LoadSharded":    func(b []byte) error { _, err := LoadSharded(bytes.NewReader(b)); return err },
		} {
			if err := load(stream); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s of a format-3 body under %s: err = %v, want ErrBadSnapshot naming %s", name, c.name, err, c.want)
			}
		}
	}
}

// TestLoadRefusesRetiredStrategy: every snapshot gob-encodes Options, so
// the Strategy values keep their meaning — TopDown 0, GeneralizedBottomUp
// 2 — and 1, LocalizedBottomUp, which the package no longer offers, is
// refused. A snapshot that names it fails Load, LoadConcurrent,
// LoadSharded, LoadFile and Recover with ErrBadSnapshot at the strategy
// check, before any stack is built, and the opens refuse it too.
func TestLoadRefusesRetiredStrategy(t *testing.T) {
	if TopDown != 0 || GeneralizedBottomUp != 2 {
		t.Fatalf("TopDown = %d, GeneralizedBottomUp = %d; saved snapshots store 0 and 2", TopDown, GeneralizedBottomUp)
	}
	const retired = Strategy(1)
	for name, open := range map[string]func() (io.Closer, error){
		"Open":           func() (io.Closer, error) { return Open(Options{Strategy: retired}) },
		"OpenConcurrent": func() (io.Closer, error) { return OpenConcurrent(Options{Strategy: retired}) },
		"OpenSharded":    func() (io.Closer, error) { return OpenSharded(Options{Strategy: retired}, ShardOptions{Shards: 2}) },
	} {
		if x, err := open(); err == nil {
			x.Close()
			t.Errorf("%s accepted Strategy 1", name)
		}
	}

	orig, _ := buildForPersist(t, GeneralizedBottomUp)
	var cur bytes.Buffer
	if err := orig.Save(&cur); err != nil {
		t.Fatal(err)
	}
	var s savedIndex
	if err := gob.NewDecoder(bytes.NewReader(cur.Bytes()[len(snapshotMagic):])).Decode(&s); err != nil {
		t.Fatal(err)
	}
	s.Options.Strategy = retired
	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	file := filepath.Join(t.TempDir(), "lbu.bur")
	dir := t.TempDir()
	for _, path := range []string{file, filepath.Join(dir, snapshotFileName)} {
		if err := os.WriteFile(path, stream, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, load := range map[string]func() (io.Closer, error){
		"Load":           func() (io.Closer, error) { return Load(bytes.NewReader(stream)) },
		"LoadConcurrent": func() (io.Closer, error) { return LoadConcurrent(bytes.NewReader(stream)) },
		"LoadSharded":    func() (io.Closer, error) { return LoadSharded(bytes.NewReader(stream)) },
		"LoadFile":       func() (io.Closer, error) { return LoadFile(file) },
		"Recover":        func() (io.Closer, error) { return Recover(durableOpts(dir, DurabilityBatch)) },
	} {
		x, err := load()
		if err == nil {
			x.Close()
		}
		if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "unknown strategy 1") {
			t.Errorf("%s of a snapshot saved with Strategy 1: err = %v, want ErrBadSnapshot naming the unknown strategy", name, err)
		}
	}
}

// gridEraSpec is the partition spec BURSNAP4 snapshots carried while a
// ShardedIndex could split space into a grid: Scheme 0 was the grid,
// Scheme 1 Hilbert ranges. gob matches fields by name.
type gridEraSpec struct {
	Scheme       int
	Shards       int
	GridX, GridY int
	Bounds       []uint64
}

// gridEraSnapshot re-encodes a current snapshot with spec as its
// partition, in the encoding snapshots had while the grid existed.
func gridEraSnapshot(t *testing.T, raw []byte, spec gridEraSpec) []byte {
	t.Helper()
	type indexGridEra struct {
		Format              int
		Options             Options
		Partition           gridEraSpec
		WALSeq, RouterEpoch uint64
		Stacks              []savedStack
	}
	var s savedIndex
	if err := gob.NewDecoder(bytes.NewReader(raw[len(snapshotMagic):])).Decode(&s); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	old := indexGridEra{Format: s.Format, Options: s.Options, Partition: spec, WALSeq: s.WALSeq, Stacks: s.Stacks}
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadGridEraOneRange: every Index and ConcurrentIndex snapshot
// written while the grid existed carries a one-cell grid, which is the
// one-range router; such snapshots, and Hilbert ones in that encoding,
// load unchanged and answer as the saved index did.
func TestLoadGridEraOneRange(t *testing.T) {
	orig, rng := buildForPersist(t, GeneralizedBottomUp)
	var cur bytes.Buffer
	if err := orig.Save(&cur); err != nil {
		t.Fatal(err)
	}
	one := gridEraSnapshot(t, cur.Bytes(), gridEraSpec{Scheme: 0, Shards: 1, GridX: 1, GridY: 1})
	type loaded interface {
		Search(Rect) ([]uint64, error)
		CheckInvariants() error
	}
	for name, load := range map[string]func([]byte) (loaded, error){
		"Load":           func(b []byte) (loaded, error) { return Load(bytes.NewReader(b)) },
		"LoadConcurrent": func(b []byte) (loaded, error) { return LoadConcurrent(bytes.NewReader(b)) },
		"LoadSharded":    func(b []byte) (loaded, error) { return LoadSharded(bytes.NewReader(b)) },
	} {
		x, err := load(one)
		if err != nil {
			t.Fatalf("%s of a one-cell grid snapshot: %v", name, err)
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		queriesMatch(t, orig, x, rng, 50)
	}

	sh := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4})
	ids, pts := randomPoints(600, 5)
	if err := sh.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	cur.Reset()
	if err := sh.Save(&cur); err != nil {
		t.Fatal(err)
	}
	hil := gridEraSnapshot(t, cur.Bytes(), gridEraSpec{Scheme: 1, Shards: 4, Bounds: sh.router.Bounds()})
	y, err := LoadSharded(bytes.NewReader(hil))
	if err != nil {
		t.Fatalf("LoadSharded of a Hilbert snapshot in the grid-era encoding: %v", err)
	}
	if got, want := y.ShardLens(), sh.ShardLens(); !slices.Equal(got, want) {
		t.Fatalf("shard occupancy %v, saved %v", got, want)
	}
	queriesMatch(t, sh, y, rng, 50)
}

// TestLoadRefusesGridPartition: the grid scheme is retired, so a
// snapshot whose partition is a grid of more than one cell fails every
// loader and recovery with ErrBadSnapshot naming the grid, and an open
// that asks for a Partition other than ShardHilbert fails too.
func TestLoadRefusesGridPartition(t *testing.T) {
	// Filled by Insert, the four ranges are the 2×2 grid's quadrants.
	sh := openShardedTest(t, GeneralizedBottomUp, ShardOptions{Shards: 4})
	ids, pts := randomPoints(400, 9)
	insertEach(t, sh, ids, pts)
	var cur bytes.Buffer
	if err := sh.Save(&cur); err != nil {
		t.Fatal(err)
	}
	stream := gridEraSnapshot(t, cur.Bytes(), gridEraSpec{Scheme: 0, Shards: 4, GridX: 2, GridY: 2})
	file := filepath.Join(t.TempDir(), "grid.bur")
	dir := t.TempDir()
	for _, path := range []string{file, filepath.Join(dir, snapshotFileName)} {
		if err := os.WriteFile(path, stream, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, load := range map[string]func() (io.Closer, error){
		"Load":            func() (io.Closer, error) { return Load(bytes.NewReader(stream)) },
		"LoadConcurrent":  func() (io.Closer, error) { return LoadConcurrent(bytes.NewReader(stream)) },
		"LoadSharded":     func() (io.Closer, error) { return LoadSharded(bytes.NewReader(stream)) },
		"LoadFile":        func() (io.Closer, error) { return LoadFile(file) },
		"LoadShardedFile": func() (io.Closer, error) { return LoadShardedFile(file) },
		"Recover":         func() (io.Closer, error) { return Recover(durableOpts(dir, DurabilityBatch)) },
		"RecoverSharded": func() (io.Closer, error) {
			return RecoverSharded(durableOpts(dir, DurabilityBatch), ShardOptions{Shards: 4})
		},
	} {
		x, err := load()
		if err == nil {
			x.Close()
		}
		if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "grid") {
			t.Errorf("%s of a 2x2 grid snapshot: err = %v, want ErrBadSnapshot naming the grid", name, err)
		}
	}

	const retired = PartitionScheme(1)
	for name, open := range map[string]func() (io.Closer, error){
		"OpenSharded": func() (io.Closer, error) { return OpenSharded(Options{}, ShardOptions{Shards: 4, Partition: retired}) },
		"RecoverSharded": func() (io.Closer, error) {
			return RecoverSharded(durableOpts(t.TempDir(), DurabilityBatch), ShardOptions{Shards: 4, Partition: retired})
		},
	} {
		if x, err := open(); err == nil {
			x.Close()
			t.Errorf("%s accepted Partition %d", name, retired)
		}
	}
}

// rebalancerEraIndex is what a snapshot carried beside this version's
// fields while ShardedIndex had an online rebalancer: the index's
// RouterEpoch, the count of boundary changes the rebalancer had made,
// and the partition's Uniform mark of the equal-length cut of open. The
// format stayed BURSNAP4; this version's decoder skips both fields.
// gob matches fields by name, so this shape reads them back.
type rebalancerEraIndex struct {
	Format    int
	Partition struct {
		Shards  int
		Bounds  []uint64
		Uniform bool
	}
	RouterEpoch uint64
}

// rebalancerEraFixture returns a snapshot of testdata/snapshots, written
// gzipped while ShardedIndex had an online rebalancer, and the legacy
// fields it carries. Every fixture is a four-shard index (PageSize 256)
// of randomPoints(300, 17), filled by BulkInsert for "nudge" and by
// Insert otherwise, and moved by hammerCorner (1 000 updates at
// (0.02, 0.02), seed 12); the rebalanced ones then stepped the
// rebalancer, took 1 000 more updates at (0.9, 0.9), seed 13, and
// stepped it again. fixtureReference rebuilds the same objects.
func rebalancerEraFixture(t *testing.T, name string) ([]byte, rebalancerEraIndex) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "snapshots", name+".bursnap.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var legacy rebalancerEraIndex
	if err := gob.NewDecoder(bytes.NewReader(raw[len(snapshotMagic):])).Decode(&legacy); err != nil {
		t.Fatal(err)
	}
	return raw, legacy
}

// fixtureReference builds, in this version, the index a fixture holds:
// the same objects at the same positions (see rebalancerEraFixture).
func fixtureReference(t *testing.T, rebalanced, insert bool) (*ShardedIndex, []uint64) {
	t.Helper()
	x, err := OpenSharded(Options{Strategy: GeneralizedBottomUp, PageSize: 256, ExpectedObjects: 300}, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { x.Close() })
	ids, pts := randomPoints(300, 17)
	if insert {
		insertEach(t, x, ids, pts)
	} else if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	hammerCorner(t, x, ids, 0.02, 0.02, 1000, 12)
	if rebalanced {
		hammerCorner(t, x, ids, 0.9, 0.9, 1000, 13)
	}
	return x, ids
}

// sameAnswers requires got to hold want's objects and answer its window,
// count and nearest-neighbour queries alike.
func sameAnswers(t *testing.T, want, got *ShardedIndex, ids []uint64) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	for _, id := range ids {
		if p, ok := got.Location(id); !ok || p != mustLocation(t, want, id) {
			t.Fatalf("object %d at %v (%v), want %v", id, p, ok, mustLocation(t, want, id))
		}
	}
	windows := []Rect{NewRect(-10, -10, 10, 10), NewRect(0, 0, 0.1, 0.1), NewRect(0.85, 0.85, 1, 1)}
	for i := 0; i < 16; i++ {
		x, y := float64(i%4)/4, float64(i/4)/4
		windows = append(windows, NewRect(x, y, x+0.3, y+0.3))
	}
	for _, w := range windows {
		a, b := sortedShardedIDs(t, want.Search, w), sortedShardedIDs(t, got.Search, w)
		if !slices.Equal(a, b) {
			t.Fatalf("Search(%v): %d ids, want %d", w, len(b), len(a))
		}
		if n, err := got.Count(w); err != nil || n != len(a) {
			t.Fatalf("Count(%v) = %d, %v; want %d", w, n, err, len(a))
		}
	}
	for _, p := range []Point{{X: 0.03, Y: 0.03}, {X: 0.5, Y: 0.5}, {X: 0.93, Y: 0.93}, {X: 1, Y: 0}} {
		a, err := want.Nearest(p, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Nearest(p, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("Nearest(%v): %d neighbours, want %d", p, len(b), len(a))
		}
		for i := range a {
			if a[i].Dist != b[i].Dist {
				t.Fatalf("Nearest(%v)[%d] at distance %v, want %v", p, i, b[i].Dist, a[i].Dist)
			}
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func mustLocation(t *testing.T, x *ShardedIndex, id uint64) Point {
	t.Helper()
	p, ok := x.Location(id)
	if !ok {
		t.Fatalf("object %d missing from the reference", id)
	}
	return p
}

// routerBounds is x's Hilbert cut.
func routerBounds(x *ShardedIndex) []uint64 {
	x.gate.RLock()
	defer x.gate.RUnlock()
	return x.router.Bounds()
}

// TestRebalanceSnapshotRoundTrip: a snapshot a rebalanced four-shard
// index wrote — its boundaries moved by a nudge of the balanced cut or a
// re-cut of the uniform one, its RouterEpoch non-zero — loads through
// LoadSharded and RecoverSharded onto the boundaries it was saved with,
// answers as the index that wrote it did, and takes writes, which the
// recovered index logs and recovers again.
func TestRebalanceSnapshotRoundTrip(t *testing.T) {
	for _, row := range []struct {
		name   string
		insert bool
		bounds []uint64
	}{
		{"nudge", false, []uint64{6, 671, 737}},
		{"recut", true, []uint64{6, 10, 682}},
	} {
		t.Run(row.name, func(t *testing.T) {
			raw, legacy := rebalancerEraFixture(t, "rebalanced-"+row.name)
			if legacy.RouterEpoch == 0 || legacy.Partition.Uniform || !slices.Equal(legacy.Partition.Bounds, row.bounds) {
				t.Fatalf("fixture carries epoch %d, uniform %v, bounds %v; want a rebalanced cut %v",
					legacy.RouterEpoch, legacy.Partition.Uniform, legacy.Partition.Bounds, row.bounds)
			}
			ref, ids := fixtureReference(t, true, row.insert)

			loaded, err := LoadSharded(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			if got := routerBounds(loaded); !slices.Equal(got, row.bounds) {
				t.Fatalf("LoadSharded routes by %v, the snapshot by %v", got, row.bounds)
			}
			sameAnswers(t, ref, loaded, ids)

			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapshotFileName), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := durableOpts(dir, DurabilityBatch)
			recovered, err := RecoverSharded(opts, ShardOptions{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			if got := routerBounds(recovered); !slices.Equal(got, row.bounds) {
				t.Fatalf("RecoverSharded routes by %v, the snapshot by %v", got, row.bounds)
			}
			sameAnswers(t, ref, recovered, ids)

			rng := rand.New(rand.NewSource(29))
			for i := 0; i < 100; i++ {
				id, p := ids[rng.Intn(len(ids))], Point{X: rng.Float64(), Y: rng.Float64()}
				for _, x := range []*ShardedIndex{ref, loaded, recovered} {
					if err := x.Update(id, p); err != nil {
						t.Fatal(err)
					}
				}
			}
			sameAnswers(t, ref, loaded, ids)
			if err := recovered.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := RecoverSharded(opts, ShardOptions{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			sameAnswers(t, ref, again, ids)
		})
	}
}

// TestUniformCutSurvivesSnapshot: an index filled by Insert routes by the
// equal-length cut of open, and a snapshot keeps that cut — one this
// version writes, and one written while the partition carried a Uniform
// mark for it, which loads as the same cut and answers as its writer did.
func TestUniformCutSurvivesSnapshot(t *testing.T) {
	uniform := []uint64{256, 512, 768}
	raw, legacy := rebalancerEraFixture(t, "uniform")
	if !legacy.Partition.Uniform || !slices.Equal(legacy.Partition.Bounds, uniform) {
		t.Fatalf("fixture carries uniform %v, bounds %v; want the marked equal-length cut", legacy.Partition.Uniform, legacy.Partition.Bounds)
	}
	ref, ids := fixtureReference(t, false, true)
	if got := routerBounds(ref); !slices.Equal(got, uniform) {
		t.Fatalf("an Insert-filled index routes by %v, want the equal-length cut %v", got, uniform)
	}
	var cur bytes.Buffer
	if err := ref.Save(&cur); err != nil {
		t.Fatal(err)
	}
	for name, stream := range map[string][]byte{"this version's": cur.Bytes(), "the marked": raw} {
		y, err := LoadSharded(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s snapshot: %v", name, err)
		}
		if got := routerBounds(y); !slices.Equal(got, uniform) {
			t.Fatalf("%s snapshot loads onto %v, want the equal-length cut %v", name, got, uniform)
		}
		sameAnswers(t, ref, y, ids)
		if err := y.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
