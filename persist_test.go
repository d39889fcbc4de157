package burtree

import (
	"bytes"
	"encoding/gob"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"burtree/internal/rtree"
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

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, s := range allFacadeStrategies() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			orig, rng := buildForPersist(t, s)
			var buf bytes.Buffer
			if err := orig.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Len() != orig.Len() {
				t.Fatalf("Len = %d, want %d", loaded.Len(), orig.Len())
			}
			if err := loaded.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			queriesMatch(t, orig, loaded, rng, 30)
		})
	}
}

func TestLoadedIndexKeepsWorking(t *testing.T) {
	orig, rng := buildForPersist(t, GeneralizedBottomUp)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	x, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded index must accept the full op mix: updates (all
	// bottom-up paths), inserts, deletes.
	for step := 0; step < 3000; step++ {
		id := uint64(rng.Intn(1500))
		p, ok := x.Location(id)
		if !ok {
			continue
		}
		np := Point{X: p.X + (rng.Float64()-0.5)*0.08, Y: p.Y + (rng.Float64()-0.5)*0.08}
		if err := x.Update(id, np); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for i := 1500; i < 1700; i++ {
		if err := x.Insert(uint64(i), Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := x.Delete(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 1600 {
		t.Fatalf("Len = %d, want 1600", x.Len())
	}
	// Update outcomes should include local resolutions (summary and hash
	// were rebuilt correctly).
	out := x.Stats().Outcomes
	if out.InLeaf+out.Extended+out.Shifted == 0 {
		t.Fatalf("no local resolutions after load: %+v", out)
	}
}

func TestSaveLoadFile(t *testing.T) {
	orig, rng := buildForPersist(t, LocalizedBottomUp)
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

// legacyOptions is Options as snapshots before the removals carry it:
// with λ, reinsertion, split, the group-commit window and the memtable age
// trigger.
type legacyOptions struct {
	Strategy          Strategy
	PageSize          int
	BufferPages       int
	Epsilon           float64
	DistanceThreshold float64
	LevelThreshold    int
	ExpectedObjects   int
	ReinsertFraction  float64
	SplitAlgorithm    int
	Durability        legacyDurability
	Memtable          legacyMemtable
}

type legacyDurability struct {
	Mode        DurabilityMode
	Dir         string
	GroupWindow time.Duration
}

type legacyMemtable struct {
	Enabled    bool
	MaxObjects int
	MaxAge     time.Duration
}

// legacySharded is savedSharded with the legacy Options.
type legacySharded struct {
	Format      int
	Options     legacyOptions
	Scheme      int
	Shards      int
	GridX       int
	GridY       int
	Bounds      []uint64
	Blobs       [][]byte
	Counts      []int
	WALSeq      uint64
	RouterEpoch uint64
}

// reencode decodes a Save stream into old, lets edit change it, writes it
// back under the same magic and decodes the result into check, so the
// caller can assert what the stream really carries.
func reencode[T any](t *testing.T, saved []byte, magic [8]byte, edit func(*T)) (stream []byte, check T) {
	t.Helper()
	var old T
	if err := gob.NewDecoder(bytes.NewReader(saved[len(magic):])).Decode(&old); err != nil {
		t.Fatal(err)
	}
	edit(&old)
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, magic, &old); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[len(magic):])).Decode(&check); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), check
}

// The snapshot formats did not change when option fields left savedIndex
// (DisablePiggyback and DisableSummaryQueries; then LevelThreshold,
// ReinsertFraction and SplitAlgorithm) and savedSharded's Options
// (those three, Durability.GroupWindow and Memtable.MaxAge): gob skips
// stream fields the receiving struct lacks, so the removals bumped no
// format number (the point-shaped leaves did, for their page bytes). A
// snapshot written before the removals — with every removed field set,
// so the encoder does not omit it as a zero value — loads as the same
// index, under the defaults: the tree the old settings built is a valid
// R-tree.
func TestLoadSnapshotWithRemovedOptionFields(t *testing.T) {
	type savedIndexWithKnobs struct {
		Format int

		Strategy              Strategy
		PageSize              int
		BufferPages           int
		Epsilon               float64
		DistanceThreshold     float64
		LevelThreshold        int
		ExpectedObjects       int
		ReinsertFraction      float64
		SplitAlgorithm        int
		DisablePiggyback      bool
		DisableSummaryQueries bool

		Pages [][]byte
		Freed []uint64

		Root   uint64
		Height int
		Size   int

		HashDirectory []uint64
		HashSize      int

		Objects map[uint64]Point

		WALSeq uint64
	}
	orig, rng := buildForPersist(t, GeneralizedBottomUp)
	loaded := func(t *testing.T, idx interface {
		Search(Rect) ([]uint64, error)
		CheckInvariants() error
		Len() int
	}, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("loading a snapshot with the removed fields: %v", err)
		}
		if idx.Len() != orig.Len() {
			t.Fatalf("Len = %d, want %d", idx.Len(), orig.Len())
		}
		if err := idx.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		queriesMatch(t, orig, idx, rng, 30)
	}

	t.Run("blob", func(t *testing.T) {
		var cur bytes.Buffer
		if err := orig.Save(&cur); err != nil {
			t.Fatal(err)
		}
		stream, old := reencode(t, cur.Bytes(), snapshotMagic, func(s *savedIndexWithKnobs) {
			s.LevelThreshold, s.ReinsertFraction, s.SplitAlgorithm = 2, -1, int(rtree.SplitRStar)
			s.DisablePiggyback, s.DisableSummaryQueries = true, true
		})
		if old.LevelThreshold != 2 || old.ReinsertFraction != -1 || old.SplitAlgorithm != int(rtree.SplitRStar) ||
			!old.DisablePiggyback || !old.DisableSummaryQueries {
			t.Fatalf("setup: the removed fields are not in the stream: %+v", old)
		}
		x, err := Load(bytes.NewReader(stream))
		loaded(t, x, err)
	})

	t.Run("manifest", func(t *testing.T) {
		sh, err := OpenSharded(Options{Strategy: GeneralizedBottomUp, ExpectedObjects: 2000, BufferPages: 32}, ShardOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		ids := slices.Sorted(maps.Keys(orig.objects))
		pts := make([]Point, len(ids))
		for i, id := range ids {
			pts[i] = orig.objects[id]
		}
		if err := sh.BulkInsert(ids, pts, PackSTR); err != nil {
			t.Fatal(err)
		}
		var cur bytes.Buffer
		if err := sh.Save(&cur); err != nil {
			t.Fatal(err)
		}
		stream, old := reencode(t, cur.Bytes(), shardedMagic, func(s *legacySharded) {
			o := &s.Options
			o.LevelThreshold, o.ReinsertFraction, o.SplitAlgorithm = 2, -1, int(rtree.SplitRStar)
			o.Durability.GroupWindow = 100 * time.Microsecond
			o.Memtable = legacyMemtable{Enabled: true, MaxObjects: 64, MaxAge: 5 * time.Millisecond}
		})
		if o := old.Options; o.LevelThreshold != 2 || o.ReinsertFraction != -1 || o.SplitAlgorithm != int(rtree.SplitRStar) ||
			o.Durability.GroupWindow == 0 || o.Memtable.MaxAge == 0 {
			t.Fatalf("setup: the removed fields are not in the stream: %+v", o)
		}
		merged, err := Load(bytes.NewReader(stream))
		loaded(t, merged, err)
		restored, err := LoadSharded(bytes.NewReader(stream))
		loaded(t, restored, err)
	})
}

// TestLoadRefusesFormatOne: a format-1 snapshot's leaves hold 40-byte
// entries, which this version's 24-byte point entries would misread. A
// blob, a manifest, or a current manifest carrying a format-1 blob is
// refused by every loader with ErrBadSnapshot, naming the format, before
// any page is decoded.
func TestLoadRefusesFormatOne(t *testing.T) {
	orig, _ := buildForPersist(t, GeneralizedBottomUp)
	var blob bytes.Buffer
	if err := orig.Save(&blob); err != nil {
		t.Fatal(err)
	}
	oldBlob, _ := reencode(t, blob.Bytes(), snapshotMagic, func(s *savedIndex) { s.Format = 1 })

	sh, err := OpenSharded(Options{Strategy: GeneralizedBottomUp, ExpectedObjects: 2000, BufferPages: 32}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ids := slices.Sorted(maps.Keys(orig.objects))
	pts := make([]Point, len(ids))
	for i, id := range ids {
		pts[i] = orig.objects[id]
	}
	if err := sh.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	var manifest bytes.Buffer
	if err := sh.Save(&manifest); err != nil {
		t.Fatal(err)
	}
	oldManifest, _ := reencode(t, manifest.Bytes(), shardedMagic, func(m *savedSharded) { m.Format = 1 })
	oldShard, _ := reencode(t, manifest.Bytes(), shardedMagic, func(m *savedSharded) {
		m.Blobs[1], _ = reencode(t, m.Blobs[1], snapshotMagic, func(s *savedIndex) { s.Format = 1 })
	})

	loaders := []struct {
		name string
		load func([]byte) error
	}{
		{"Load", func(b []byte) error { _, err := Load(bytes.NewReader(b)); return err }},
		{"LoadConcurrent", func(b []byte) error { _, err := LoadConcurrent(bytes.NewReader(b)); return err }},
		{"LoadSharded", func(b []byte) error { _, err := LoadSharded(bytes.NewReader(b)); return err }},
	}
	for _, c := range []struct {
		name    string
		stream  []byte
		sharded bool
	}{{"blob", oldBlob, false}, {"manifest", oldManifest, true}, {"manifest with a format-1 blob", oldShard, true}} {
		for _, l := range loaders {
			if l.name == "LoadSharded" && !c.sharded {
				continue // refuses any single-tree snapshot
			}
			err := l.load(c.stream)
			if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "format 1") {
				t.Errorf("%s of a %s: err = %v, want ErrBadSnapshot naming format 1", l.name, c.name, err)
			}
		}
	}
}
