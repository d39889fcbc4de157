package burtree

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"burtree/internal/vfs"
	"burtree/internal/vfs/vfstest"
)

// This file is the index's fault enumeration. Each scenario runs once
// over the fault-injecting file system to count the calls its logs and
// its snapshot writer make, then once for each call with that call
// failed (vfstest.Enumerate). Every run is held to the contract:
//
//   - an injected failure is never swallowed: some call of the scenario
//     returns an error;
//   - every call that returned nil is in what Recover reads back;
//   - a write that errored is served as if never made, and is absent
//     after recovery, unless its own fsync failed: then it is in doubt,
//     present or absent after recovery, and nothing else changed;
//   - a failed Checkpoint or SaveFile leaves a loadable snapshot: the
//     previous one, unless the failure came after the new one was renamed
//     in, and then it truncated no log.
//
// The scenarios run on Index, ConcurrentIndex and a 4-shard ShardedIndex:
// two writes, with the tree tier and with the memtable tier, and
// Checkpoint, SaveFile and Close.

// onFS moves x's logs and snapshot writer onto fsys: each log is closed
// and opened again over it, continuing the shared sequence.
func onFS(t *testing.T, x *index, fsys vfs.FS) {
	t.Helper()
	for _, l := range x.wals {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	x.fs = fsys
	if err := x.openLogs(x.options.Durability, x.lsn.Load()); err != nil {
		t.Fatal(err)
	}
}

func syncFailed(fired []vfstest.Fault) bool {
	return slices.ContainsFunc(fired, func(f vfstest.Fault) bool { return f.Kind == vfstest.Sync })
}

// faultBase is what every scenario starts from: two objects in one
// quadrant, so in one shard.
var faultBase = map[uint64]Point{1: {X: 0.1, Y: 0.1}, 2: {X: 0.2, Y: 0.3}}

// openFaultIndex opens a durable index of fe in a fresh directory and
// inserts faultBase.
func openFaultIndex(t *testing.T, fe walFailureFrontEnd, memtable bool) (walFailureIndex, Options) {
	t.Helper()
	opts := durableOpts(t.TempDir(), DurabilityBatch)
	opts.Memtable = Memtable{Enabled: memtable}
	idx, err := fe.open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range faultBase {
		if err := idx.Insert(id, p); err != nil {
			t.Fatal(err)
		}
	}
	return idx, opts
}

// expectRecovered recovers the directory of opts and requires it to hold
// want, except that each in-doubt object may instead be where its write
// would have put it.
func expectRecovered(t *testing.T, fe walFailureFrontEnd, opts Options, want, doubt map[uint64]Point) {
	t.Helper()
	rec, err := fe.recover(opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()
	got := objectsOf(t, rec)
	for id, p := range doubt {
		if q, ok := got[id]; ok && q == p {
			if old, ok := want[id]; ok {
				got[id] = old
			} else {
				delete(got, id)
			}
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("recovered %v, want %v (in doubt: %v)", got, want, doubt)
	}
}

// expectNotSwallowed fails the run when a fault fired and no call of the
// scenario returned an error.
func expectNotSwallowed(t *testing.T, fs *vfstest.FS, errored bool) {
	t.Helper()
	if fired := fs.Fired(); len(fired) > 0 && !errored {
		t.Fatalf("injected %v swallowed: every call returned nil", fired)
	}
}

// faultWrites is a move of object 1 to another quadrant — across shards
// on the sharded index — and an insert beside its destination, in the
// same log: refused, and absent after recovery, when the move's failed
// fsync poisoned that log.
func faultWrites(fe walFailureFrontEnd, memtable bool) func(*testing.T, *vfstest.FS) {
	return func(t *testing.T, fs *vfstest.FS) {
		idx, opts := openFaultIndex(t, fe, memtable)
		defer idx.Close()
		onFS(t, indexOf(idx), fs)
		live, doubt := maps.Clone(faultBase), map[uint64]Point{}
		errored := false
		fs.Arm()
		for _, w := range []struct {
			id   uint64
			to   Point
			call func(uint64, Point) error
		}{{1, Point{X: 0.9, Y: 0.9}, idx.Update}, {3, Point{X: 0.85, Y: 0.9}, idx.Insert}} {
			before := len(fs.Fired())
			err := w.call(w.id, w.to)
			switch {
			case err == nil:
				live[w.id] = w.to
			case syncFailed(fs.Fired()[before:]):
				doubt[w.id] = w.to
			}
			errored = errored || err != nil
			if got := objectsOf(t, idx); !maps.Equal(got, live) {
				t.Fatalf("after write %d returned %v the index serves %v, want %v", w.id, err, got, live)
			}
		}
		fs.Disarm()
		expectNotSwallowed(t, fs, errored)
		_ = idx.Close() // a poisoned log reports its failure again
		expectRecovered(t, fe, opts, live, doubt)
	}
}

// faultCheckpoint is a Checkpoint over an earlier one, with a write in
// the log between them.
func faultCheckpoint(fe walFailureFrontEnd) func(*testing.T, *vfstest.FS) {
	return func(t *testing.T, fs *vfstest.FS) {
		idx, opts := openFaultIndex(t, fe, false)
		defer idx.Close()
		x := indexOf(idx)
		if err := x.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want := maps.Clone(faultBase)
		want[3] = Point{X: 0.3, Y: 0.1}
		if err := idx.Insert(3, want[3]); err != nil {
			t.Fatal(err)
		}
		onFS(t, x, fs)
		dir := opts.Durability.Dir
		snap := filepath.Join(dir, snapshotFileName)
		prev := readFile(t, snap)
		segs, err := logSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		fs.Arm()
		err = x.Checkpoint()
		fs.Disarm()
		expectNotSwallowed(t, fs, err != nil)
		if _, lerr := loadFile(snap, x.kind); lerr != nil {
			t.Fatalf("after Checkpoint returned %v the snapshot does not load: %v", err, lerr)
		}
		if err != nil && bytes.Equal(readFile(t, snap), prev) {
			for _, seg := range segs {
				if _, serr := os.Stat(seg); serr != nil {
					t.Errorf("Checkpoint failed with %v before its snapshot, yet truncated %s", err, seg)
				}
			}
		}
		expectNoTempFiles(t, dir)
		if got := objectsOf(t, idx); !maps.Equal(got, want) {
			t.Fatalf("the index serves %v, want %v", got, want)
		}
		_ = idx.Close()
		expectRecovered(t, fe, opts, want, nil)
	}
}

// faultSaveFile is a SaveFile over an earlier one, with a write between
// them. Failed before its rename, it leaves the earlier file; failed after
// it — at the directory's open, sync or close, the second call of each
// kind — the new one.
func faultSaveFile(fe walFailureFrontEnd) func(*testing.T, *vfstest.FS) {
	return func(t *testing.T, fs *vfstest.FS) {
		idx, _ := openFaultIndex(t, fe, false)
		defer idx.Close()
		x := indexOf(idx)
		path := filepath.Join(t.TempDir(), "export.burtree")
		if err := x.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		cur := maps.Clone(faultBase)
		cur[3] = Point{X: 0.3, Y: 0.1}
		if err := idx.Insert(3, cur[3]); err != nil {
			t.Fatal(err)
		}
		onFS(t, x, fs)
		fs.Arm()
		err := x.SaveFile(path)
		fs.Disarm()
		expectNotSwallowed(t, fs, err != nil)
		want := cur
		if fired := fs.Fired(); err != nil && (fired[0].N == 1 || fired[0].Kind == vfstest.Write) {
			want = faultBase
		}
		saved, lerr := loadFile(path, x.kind)
		if lerr != nil {
			t.Fatalf("after SaveFile returned %v the file does not load: %v", err, lerr)
		}
		defer saved.Close()
		if got := objectsOf(t, saved); !maps.Equal(got, want) {
			t.Fatalf("after SaveFile returned %v the file holds %v, want %v", err, got, want)
		}
		expectNoTempFiles(t, filepath.Dir(path))
	}
}

// faultClose is Close: every log's final fsync and close.
func faultClose(fe walFailureFrontEnd) func(*testing.T, *vfstest.FS) {
	return func(t *testing.T, fs *vfstest.FS) {
		idx, opts := openFaultIndex(t, fe, false)
		onFS(t, indexOf(idx), fs)
		fs.Arm()
		err := idx.Close()
		fs.Disarm()
		expectNotSwallowed(t, fs, err != nil)
		expectRecovered(t, fe, opts, faultBase, nil)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func expectNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

// TestFaultEnumeration fails, one at a time, every call each scenario's
// logs and snapshot writer make through the file seam, on every
// front-end.
func TestFaultEnumeration(t *testing.T) {
	for _, fe := range walFailureFrontEnds[:3] {
		for _, sc := range []struct {
			name string
			run  func(*testing.T, *vfstest.FS)
		}{
			{"WriteTree", faultWrites(fe, false)},
			{"WriteMemtable", faultWrites(fe, true)},
			{"Checkpoint", faultCheckpoint(fe)},
			{"SaveFile", faultSaveFile(fe)},
			{"Close", faultClose(fe)},
		} {
			t.Run(fe.name+"/"+sc.name, func(t *testing.T) {
				t.Parallel()
				vfstest.Enumerate(t, sc.run)
			})
		}
	}
}
