package burtree

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// saveSharded snapshots idx into a byte slice.
func saveSharded(t *testing.T, idx *ShardedIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTripAll loads a sharded snapshot through every front-end loader
// and verifies the object count each time.
func roundTripAll(t *testing.T, snap []byte, wantLen int) {
	t.Helper()
	sh, err := LoadSharded(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("LoadSharded: %v", err)
	}
	if sh.Len() != wantLen {
		t.Fatalf("LoadSharded: %d objects, want %d", sh.Len(), wantLen)
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatalf("LoadSharded invariants: %v", err)
	}
	idx, err := Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("merge Load: %v", err)
	}
	if idx.Len() != wantLen {
		t.Fatalf("merge Load: %d objects, want %d", idx.Len(), wantLen)
	}
	ci, err := LoadConcurrent(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("merge LoadConcurrent: %v", err)
	}
	if ci.Len() != wantLen {
		t.Fatalf("merge LoadConcurrent: %d objects, want %d", ci.Len(), wantLen)
	}
}

// TestEmptyShardRoundTrips pins down the manifest/blob agreement for
// zero-entry shards: a shard that never held objects, one emptied by
// deletes, and a wholly empty index must all round-trip through
// LoadSharded and the merge loaders.
func TestEmptyShardRoundTrips(t *testing.T) {
	t.Run("never-populated", func(t *testing.T) {
		idx, err := OpenSharded(Options{Strategy: GeneralizedBottomUp}, ShardOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Everything in one corner, inserted into the uniform ranges of
		// open: the quadrants of shards 1..3 stay empty.
		ids := []uint64{1, 2, 3, 4, 5}
		pts := []Point{{X: 0.01, Y: 0.01}, {X: 0.02, Y: 0.02}, {X: 0.03, Y: 0.01}, {X: 0.04, Y: 0.04}, {X: 0.05, Y: 0.02}}
		insertEach(t, idx, ids, pts)
		if lens := idx.ShardLens(); lens[0] != 5 {
			t.Fatalf("shard occupancy %v, want all 5 in shard 0", lens)
		}
		roundTripAll(t, saveSharded(t, idx), 5)
	})

	t.Run("emptied-by-deletes", func(t *testing.T) {
		idx, err := OpenSharded(Options{Strategy: GeneralizedBottomUp}, ShardOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		ids := []uint64{1, 2, 3, 4}
		pts := []Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}, {X: 0.9, Y: 0.9}, {X: 0.8, Y: 0.8}}
		if err := idx.BulkInsert(ids, pts, PackSTR); err != nil {
			t.Fatal(err)
		}
		for _, id := range []uint64{3, 4} {
			if err := idx.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		roundTripAll(t, saveSharded(t, idx), 2)
	})

	t.Run("wholly-empty", func(t *testing.T) {
		idx, err := OpenSharded(Options{Strategy: GeneralizedBottomUp}, ShardOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		roundTripAll(t, saveSharded(t, idx), 0)
	})

	t.Run("hilbert-empty-range", func(t *testing.T) {
		idx, err := OpenSharded(Options{Strategy: GeneralizedBottomUp}, ShardOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Fewer distinct positions than shards: some range gets nothing.
		ids := []uint64{1, 2}
		pts := []Point{{X: 0.1, Y: 0.1}, {X: 0.10001, Y: 0.10001}}
		if err := idx.BulkInsert(ids, pts, PackSTR); err != nil {
			t.Fatal(err)
		}
		roundTripAll(t, saveSharded(t, idx), 2)
	})
}

// TestShardCountMismatchRejected verifies the snapshot's stack count
// check: a partition that declares more stacks than the snapshot carries,
// or fewer — the signature of a truncated or mixed-up snapshot — fails
// with ErrBadSnapshot in every loader rather than loading short.
func TestShardCountMismatchRejected(t *testing.T) {
	idx, err := OpenSharded(Options{Strategy: GeneralizedBottomUp}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{1, 2, 3, 4}
	pts := []Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}, {X: 0.9, Y: 0.9}, {X: 0.8, Y: 0.8}}
	if err := idx.BulkInsert(ids, pts, PackSTR); err != nil {
		t.Fatal(err)
	}
	snap := saveSharded(t, idx)
	for name, edit := range map[string]func(*savedIndex){
		"a stack missing": func(s *savedIndex) { s.Stacks = s.Stacks[:1] },
		"a stack too many": func(s *savedIndex) {
			s.Stacks = append(s.Stacks, savedStack{Pages: s.Stacks[0].Pages, Root: s.Stacks[0].Root})
		},
	} {
		bad := reencode(t, snap, edit)
		for loader, load := range map[string]func() error{
			"LoadSharded":    func() error { _, err := LoadSharded(bytes.NewReader(bad)); return err },
			"Load":           func() error { _, err := Load(bytes.NewReader(bad)); return err },
			"LoadConcurrent": func() error { _, err := LoadConcurrent(bytes.NewReader(bad)); return err },
		} {
			if err := load(); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "declares 2 stacks") {
				t.Errorf("%s with %s: err = %v, want ErrBadSnapshot on the declared count", loader, name, err)
			}
		}
	}
}
