package burtree

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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

// TestOnDiskLayoutByKind: whether an index is sharded alone decides the
// two format points. Index and ConcurrentIndex keep a bare BURSNAP2
// snapshot and their log segments directly under the durability directory
// and recover each other's (TestConcurrentSaveLoadRoundTrip loads each
// other's snapshots); a ShardedIndex, of one shard or of four, keeps a
// BURSHRD2 manifest and one log directory per shard.
func TestOnDiskLayoutByKind(t *testing.T) {
	index, concurrent, four := walFailureFrontEnds[0], walFailureFrontEnds[1], walFailureFrontEnds[2]
	one := walFailureFrontEnd{name: "ShardedOneShard",
		open:    func(o Options) (walFailureIndex, error) { return OpenSharded(o, ShardOptions{Shards: 1}) },
		recover: func(o Options) (walFailureIndex, error) { return RecoverSharded(o, ShardOptions{Shards: 1}) }}
	for _, fe := range []struct {
		walFailureFrontEnd
		magic          [8]byte
		reopen, refuse walFailureFrontEnd // recovers the directory; is of the other layout
	}{
		{index, snapshotMagic, concurrent, four}, {concurrent, snapshotMagic, index, one},
		{one, shardedMagic, one, index}, {four, shardedMagic, four, concurrent},
	} {
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
			if err != nil || !bytes.HasPrefix(snap, fe.magic[:]) {
				t.Errorf("snapshot starts %q (%v), want %q", snap[:min(8, len(snap))], err, fe.magic[:])
			}
			top, perShard, err := logSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if sharded := fe.magic == shardedMagic; sharded != (len(top) == 0) || sharded != (len(perShard) == len(indexOf(x).shards)) {
				t.Errorf("log segments: %v under the directory, %v under shard directories", top, perShard)
			}
			if _, err := fe.refuse.recover(opts); !errors.Is(err, ErrRecovery) {
				t.Errorf("%s recovering the directory: %v, want ErrRecovery", fe.refuse.name, err)
			}
			rec, err := fe.reopen.recover(opts)
			if err != nil {
				t.Fatalf("%s recovering the directory: %v", fe.reopen.name, err)
			}
			defer rec.Close()
			expectState(t, rec, want)
		})
	}
}
