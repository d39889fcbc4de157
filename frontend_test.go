package burtree

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"burtree/internal/wal"
)

// TestFrontEndMethodSets pins the exported surface of the three front-ends
// to what it was before they became one type: embedding the one index must
// not leak what only a ShardedIndex offers (Rebalance, ShardLoads,
// SetIOLatency, …) onto Index, nor drop anything.
func TestFrontEndMethodSets(t *testing.T) {
	shared := "BulkInsert CheckInvariants Checkpoint Close Count Delete Flush Insert Len Location Nearest " +
		"ResetStats Save SaveFile Search SearchFunc Stats Update UpdateBatch"
	for _, fe := range []struct {
		typ   reflect.Type
		extra string
	}{
		{reflect.TypeOf((*Index)(nil)), ""},
		{reflect.TypeOf((*ConcurrentIndex)(nil)), "SetIOLatency"},
		{reflect.TypeOf((*ShardedIndex)(nil)), "NumShards Partition Rebalance RouterEpoch SetIOLatency SetRebalance ShardLens ShardLoads"},
	} {
		want := map[string]bool{}
		for _, name := range strings.Fields(shared + " " + fe.extra) {
			want[name] = true
		}
		for i := 0; i < fe.typ.NumMethod(); i++ {
			if name := fe.typ.Method(i).Name; !want[name] {
				t.Errorf("%v gained method %s", fe.typ, name)
			} else {
				delete(want, name)
			}
		}
		for name := range want {
			t.Errorf("%v lost method %s", fe.typ, name)
		}
	}
}

// TestOnDiskLayoutByKind: the kind decides no format. Index,
// ConcurrentIndex and a ShardedIndex of one shard or of four each write
// the one snapshot magic and one log directory per stack (Dir/shard-NNN),
// nothing directly under Dir. The three one-stack front-ends recover each
// other's directories. Recover and RecoverConcurrent of the four-shard
// directory fail with ErrRecovery, since one stack would leave three
// shards' records unread, while RecoverSharded restores the snapshot's
// four shards whatever count it is asked for. A directory with segments
// directly under Dir — the layout earlier versions gave a one-stack index
// — is refused by every Recover* with ErrRecovery and by every durable
// Open* with ErrExistingState.
func TestOnDiskLayoutByKind(t *testing.T) {
	index, concurrent, four := walFailureFrontEnds[0], walFailureFrontEnds[1], walFailureFrontEnds[2]
	one := walFailureFrontEnd{name: "ShardedOneShard",
		open:    func(o Options) (walFailureIndex, error) { return OpenSharded(o, ShardOptions{Shards: 1}) },
		recover: func(o Options) (walFailureIndex, error) { return RecoverSharded(o, ShardOptions{Shards: 1}) }}
	oneStack := []walFailureFrontEnd{index, concurrent, one}
	for _, fe := range []walFailureFrontEnd{index, concurrent, one, four} {
		t.Run(fe.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := durableOpts(dir, DurabilityBatch)
			x, err := fe.open(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := map[uint64]Point{}
			write := func(from, to uint64) {
				for id := from; id < to; id++ {
					want[id] = Point{X: float64(id%7) / 7, Y: float64(id%5) / 5}
					if err := x.Insert(id, want[id]); err != nil {
						t.Fatal(err)
					}
				}
			}
			write(0, 40)
			if err := indexOf(x).Checkpoint(); err != nil {
				t.Fatal(err)
			}
			write(40, 60) // the log tail the snapshot does not cover
			if err := x.Close(); err != nil {
				t.Fatal(err)
			}

			snap, err := os.ReadFile(filepath.Join(dir, snapshotFileName))
			if err != nil || !bytes.HasPrefix(snap, snapshotMagic[:]) {
				t.Errorf("snapshot starts %q (%v), want %q", snap[:min(8, len(snap))], err, snapshotMagic[:])
			}
			segs, err := logSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			stacks := len(indexOf(x).shards)
			dirs := map[string]bool{}
			for _, seg := range segs {
				dirs[filepath.Dir(seg)] = true
			}
			for i := range stacks {
				delete(dirs, logDir(dir, i))
			}
			if len(dirs) != 0 || len(segs) < stacks {
				t.Errorf("log segments %v, want one log directory for each of %d stacks and nothing else", segs, stacks)
			}

			recoverers := oneStack
			if stacks > 1 {
				// RecoverSharded restores the snapshot's four shards whatever
				// count it is given; the one-stack kinds must refuse.
				for _, r := range oneStack[:2] {
					if rec, err := r.recover(opts); !errors.Is(err, ErrRecovery) {
						if err == nil {
							rec.Close()
						}
						t.Errorf("%s recovering the directory: %v, want ErrRecovery", r.name, err)
					}
				}
				recoverers = []walFailureFrontEnd{fe, one}
			}
			for _, r := range recoverers {
				rec, err := r.recover(opts)
				if err != nil {
					t.Fatalf("%s recovering the directory: %v", r.name, err)
				}
				expectState(t, rec, want)
				if err := rec.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}

	t.Run("EarlierLayout", func(t *testing.T) {
		dir := t.TempDir()
		l, err := wal.Open(dir, wal.Options{Sync: wal.SyncEach})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(wal.TypeInsert, []wal.Op{{ID: 1, X: 0.1, Y: 0.1}}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		opts := durableOpts(dir, DurabilityBatch)
		for _, fe := range []walFailureFrontEnd{index, concurrent, one, four} {
			if x, err := fe.recover(opts); !errors.Is(err, ErrRecovery) {
				if err == nil {
					x.Close()
				}
				t.Errorf("%s recovering segments directly under the directory: %v, want ErrRecovery", fe.name, err)
			}
			if x, err := fe.open(opts); !errors.Is(err, ErrExistingState) {
				if err == nil {
					x.Close()
				}
				t.Errorf("%s opening over segments directly under the directory: %v, want ErrExistingState", fe.name, err)
			}
		}
	})
}
