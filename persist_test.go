package burtree

import (
	"bytes"
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
	ids := slices.Sorted(maps.Keys(orig.objects))
	pts := make([]Point, len(ids))
	for i, id := range ids {
		pts[i] = orig.objects[id]
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
// tree pages; this version keeps the id → leaf map in memory and rebuilds
// it from the leaves. A format-3 snapshot is refused on purpose by every
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
	v3 := indexV3{Format: 3, Options: s.Options, Partition: s.Partition, WALSeq: s.WALSeq, RouterEpoch: s.RouterEpoch}
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
