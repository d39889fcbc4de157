package burtree

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// Error-path coverage for the persistence layer: truncated files,
// corrupt bodies, wrong magic and partition/stack mismatches must all
// surface as errors — never panics — from every load entry point.

// loadEntryPoints runs all three loaders on the same bytes; each must
// return an error (and must not panic).
func loadEntryPoints(t *testing.T, label string, raw []byte) {
	t.Helper()
	for name, load := range map[string]func() error{
		"Load":           func() error { _, err := Load(bytes.NewReader(raw)); return err },
		"LoadConcurrent": func() error { _, err := LoadConcurrent(bytes.NewReader(raw)); return err },
		"LoadSharded":    func() error { _, err := LoadSharded(bytes.NewReader(raw)); return err },
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: %s panicked: %v", label, name, r)
				}
			}()
			if err := load(); err == nil {
				t.Errorf("%s: %s returned nil error", label, name)
			}
		}()
	}
}

func savedSingleSnapshot(t *testing.T) []byte {
	t.Helper()
	idx, err := Open(Options{Strategy: GeneralizedBottomUp, ExpectedObjects: 256})
	if err != nil {
		t.Fatal(err)
	}
	ids, pts := randomPoints(400, 31)
	if err := idx.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func savedShardedSnapshot(t *testing.T) []byte {
	t.Helper()
	sh, err := OpenSharded(Options{Strategy: GeneralizedBottomUp, ExpectedObjects: 512}, ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	ids, pts := randomPoints(400, 32)
	if err := sh.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadTruncated(t *testing.T) {
	for label, raw := range map[string][]byte{
		"single":  savedSingleSnapshot(t),
		"sharded": savedShardedSnapshot(t),
	} {
		// Cut at the empty prefix, inside the magic, just after the magic,
		// and at several points inside the gob body.
		cuts := []int{0, 3, 8, 9, len(raw) / 4, len(raw) / 2, len(raw) - 1}
		for _, cut := range cuts {
			loadEntryPoints(t, fmt.Sprintf("%s truncated at %d/%d", label, cut, len(raw)), raw[:cut])
		}
	}
}

func TestLoadWrongMagic(t *testing.T) {
	raw := savedSingleSnapshot(t)
	bad := append([]byte(nil), raw...)
	copy(bad, []byte("NOTBURTR"))
	loadEntryPoints(t, "wrong magic", bad)

	var errBad error
	_, errBad = Load(bytes.NewReader(bad))
	if !errors.Is(errBad, ErrBadSnapshot) {
		t.Fatalf("wrong magic error is not ErrBadSnapshot: %v", errBad)
	}
	// Garbage after a valid magic must fail in the decoder, not panic.
	garbage := append(append([]byte(nil), raw[:8]...), []byte("complete nonsense, not gob")...)
	loadEntryPoints(t, "garbage body", garbage)
}

// TestLoadCorruptBody flips bytes throughout the body and requires
// every loader to either fail cleanly or produce a structurally valid
// index — never panic, never return a silently broken index.
func TestLoadCorruptBody(t *testing.T) {
	raw := savedSingleSnapshot(t)
	step := len(raw) / 40
	if step == 0 {
		step = 1
	}
	for pos := 9; pos < len(raw); pos += step {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0xA5
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte flip at %d: Load panicked: %v", pos, r)
				}
			}()
			idx, err := Load(bytes.NewReader(bad))
			if err != nil {
				return // clean failure
			}
			// The flip may have landed in page payload or the object table
			// — that can load, but the structure must still be coherent
			// enough to validate or to fail validation cleanly.
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte flip at %d: CheckInvariants panicked: %v", pos, r)
				}
			}()
			_ = idx.CheckInvariants()
		}()
	}
}

// TestLoadShardedManifestMismatch rewrites a three-stack snapshot so its
// partition and its stacks disagree.
func TestLoadShardedManifestMismatch(t *testing.T) {
	raw := savedShardedSnapshot(t)

	// The partition declares more stacks than the snapshot carries.
	loadEntryPoints(t, "count mismatch (declared high)", reencode(t, raw, func(s *savedIndex) { s.Partition.Shards++ }))
	// One id in two stacks, each copy at a position its own stack owns.
	loadEntryPoints(t, "object in two stacks", reencode(t, raw, func(s *savedIndex) {
		for id := range s.Stacks[1].Objects {
			for _, p := range s.Stacks[0].Objects {
				s.Stacks[0].Objects[id] = p
				return
			}
		}
	}))
	// A stack lost its pages.
	loadEntryPoints(t, "stack without pages", reencode(t, raw, func(s *savedIndex) { s.Stacks[1].Pages = nil }))

	// A corrupt partition spec (grid that does not factor the count).
	badSpec := reencode(t, raw, func(s *savedIndex) { s.Partition.GridX, s.Partition.GridY = 7, 9 })
	if _, err := LoadSharded(bytes.NewReader(badSpec)); err == nil {
		t.Fatal("LoadSharded accepted an inconsistent partition spec")
	}

	// The untampered snapshot still loads everywhere (the fixture is not
	// vacuous).
	if _, err := LoadSharded(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConcurrent(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
}

// TestLoadShardedRejectsMisrouted covers the cross-check that every
// object in a stack actually routes to that stack.
func TestLoadShardedRejectsMisrouted(t *testing.T) {
	// Swap two stacks: their object sets no longer match the partition.
	raw := reencode(t, savedShardedSnapshot(t), func(s *savedIndex) { s.Stacks[0], s.Stacks[1] = s.Stacks[1], s.Stacks[0] })
	if _, err := LoadSharded(bytes.NewReader(raw)); err == nil {
		t.Fatal("LoadSharded accepted misrouted shard contents")
	}
}

// TestLoadShardedRestoresOneStack: a one-stack snapshot loads into a
// one-shard ShardedIndex page for page — the same pages and height, a
// valid index, and the same answers.
func TestLoadShardedRestoresOneStack(t *testing.T) {
	orig, rng := buildForPersist(t, GeneralizedBottomUp)
	var raw bytes.Buffer
	if err := orig.Save(&raw); err != nil {
		t.Fatal(err)
	}
	sh, err := LoadSharded(&raw)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if sh.NumShards() != 1 {
		t.Fatalf("%d shards, want 1", sh.NumShards())
	}
	want, got := orig.Stats(), func() Stats { st, _ := sh.Stats(); return st }()
	if got.Pages != want.Pages || got.Height != want.Height || got.Size != want.Size {
		t.Fatalf("pages/height/size %d/%d/%d, the saved index %d/%d/%d", got.Pages, got.Height, got.Size, want.Pages, want.Height, want.Size)
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	queriesMatch(t, orig, sh, rng, 30)
	for q := 0; q < 10; q++ {
		p := Point{X: rng.Float64(), Y: rng.Float64()}
		a, err := orig.Nearest(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sh.Nearest(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("Nearest(%v): %d vs %d neighbours", p, len(a), len(b))
		}
		for i := range a {
			if a[i].Dist != b[i].Dist {
				t.Fatalf("Nearest(%v): neighbour %d at %g, want %g", p, i, b[i].Dist, a[i].Dist)
			}
		}
	}
}
