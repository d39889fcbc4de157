package wal

import (
	"errors"
	"os"
	"slices"
	"sync"
	"syscall"
	"testing"

	"burtree/internal/vfs/vfstest"
)

// This file is the log's fault enumeration: each scenario runs once over
// the fault-injecting file system to count its calls, then once for each
// call with that call failed (vfstest.Enumerate), and every run is held
// to the contract against what ReadDir reads back:
//
//   - an injected failure is never swallowed: some call of the scenario
//     returns an error;
//   - every append that returned nil is read back;
//   - an append that errored is absent, unless its own fsync failed: then
//     it is in doubt, present or absent;
//   - nothing else is read back.

// faultCall is one call of a scenario: the record it appends (0 for a
// call that appends none), what it returned, and whether its record is in
// doubt.
type faultCall struct {
	id      uint64
	err     error
	inDoubt bool
}

// faultRun is one run of a scenario over fs: the records appended before
// fs was armed, and the calls made while it was.
type faultRun struct {
	fs    *vfstest.FS
	base  []uint64
	calls []faultCall
}

func syncFailed(fired []vfstest.Fault) bool {
	return slices.ContainsFunc(fired, func(f vfstest.Fault) bool { return f.Kind == vfstest.Sync })
}

// do makes one call of a sequential scenario and records it: an errored
// call under which an injected Sync failed is in doubt.
func (r *faultRun) do(id uint64, call func() error) error {
	before := len(r.fs.Fired())
	err := call()
	r.calls = append(r.calls, faultCall{id: id, err: err, inDoubt: err != nil && syncFailed(r.fs.Fired()[before:])})
	return err
}

// appendOne appends the one-op record of id.
func appendOne(l *Log, id uint64) error {
	_, err := l.Append(TypeInsert, []Op{{ID: id, X: float64(id)}})
	return err
}

// check holds the run to the contract against the log in dir.
func (r *faultRun) check(t *testing.T, dir string) {
	t.Helper()
	recs, _, err := ReadDir(dir, 0)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	got := map[uint64]bool{}
	for _, rec := range recs {
		for _, op := range rec.Ops {
			got[op.ID] = true
		}
	}
	want, maybe := map[uint64]bool{}, map[uint64]bool{}
	for _, id := range r.base {
		want[id] = true
	}
	errored := false
	for _, c := range r.calls {
		switch {
		case c.err == nil && c.id != 0:
			want[c.id] = true
		case c.inDoubt:
			maybe[c.id] = true
		}
		errored = errored || c.err != nil
	}
	if fired := r.fs.Fired(); len(fired) > 0 && !errored {
		t.Errorf("injected %v swallowed: every call returned nil", fired)
	}
	for id := range want {
		if !got[id] {
			t.Errorf("record %d was acked but is not read back", id)
		}
	}
	for id := range got {
		if !want[id] && !maybe[id] {
			t.Errorf("record %d is read back, but its append errored and was not in doubt", id)
		}
	}
}

// openBase opens a log in a fresh directory over fs (unarmed) and appends
// the base records.
func openBase(t *testing.T, fs *vfstest.FS, opts Options, base ...uint64) (string, *Log) {
	t.Helper()
	dir := t.TempDir()
	opts.FS = fs
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range base {
		if err := appendOne(l, id); err != nil {
			t.Fatal(err)
		}
	}
	return dir, l
}

// appendsEach is three SyncEach appends, into segments of segmentBytes:
// a small size makes each of them rotate first.
func appendsEach(segmentBytes int64) func(t *testing.T, fs *vfstest.FS) {
	return func(t *testing.T, fs *vfstest.FS) {
		dir, l := openBase(t, fs, Options{Sync: SyncEach, SegmentBytes: segmentBytes}, 1)
		r := &faultRun{fs: fs, base: []uint64{1}}
		fs.Arm()
		for id := uint64(2); id <= 4; id++ {
			r.do(id, func() error { return appendOne(l, id) })
		}
		fs.Disarm()
		_ = l.Close() // a poisoned log reports its failure again
		r.check(t, dir)
	}
}

// appendsGroup is four committers appending three records each to a
// SyncGroup log, so they share fsyncs. The calls a run makes depend on
// the interleaving; an errored append is in doubt when any sync failed.
func appendsGroup(t *testing.T, fs *vfstest.FS) {
	dir, l := openBase(t, fs, Options{Sync: SyncGroup})
	r := &faultRun{fs: fs}
	var mu sync.Mutex
	var wg sync.WaitGroup
	fs.Arm()
	for g := uint64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); i <= 3; i++ {
				id := 10*g + i
				err := appendOne(l, id)
				mu.Lock()
				r.calls = append(r.calls, faultCall{id: id, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fs.Disarm()
	_ = l.Close()
	doubt := syncFailed(fs.Fired())
	for i := range r.calls {
		r.calls[i].inDoubt = r.calls[i].err != nil && doubt
	}
	r.check(t, dir)
}

// syncThenAppend is an explicit Sync and an append after it.
func syncThenAppend(t *testing.T, fs *vfstest.FS) {
	dir, l := openBase(t, fs, Options{Sync: SyncEach}, 1, 2)
	r := &faultRun{fs: fs, base: []uint64{1, 2}}
	fs.Arm()
	r.do(0, l.Sync)
	r.do(3, func() error { return appendOne(l, 3) })
	fs.Disarm()
	_ = l.Close()
	r.check(t, dir)
}

// closeThenAppend is Close, then an append that must be refused, and
// read back as refused, whatever Close returned.
func closeThenAppend(t *testing.T, fs *vfstest.FS) {
	dir, l := openBase(t, fs, Options{Sync: SyncEach}, 1, 2)
	r := &faultRun{fs: fs, base: []uint64{1, 2}}
	fs.Arm()
	r.do(0, l.Close)
	fs.Disarm()
	if err := appendOne(l, 3); !errors.Is(err, ErrClosed) {
		t.Errorf("append after Close: %v, want ErrClosed", err)
	}
	r.check(t, dir)
}

// openTornTail opens a log whose last segment ends in half a record,
// then appends to it.
func openTornTail(t *testing.T, fs *vfstest.FS) {
	dir, l := openBase(t, vfstest.New(), Options{Sync: SyncEach}, 1, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(fs, dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	torn := encodeRecord(nil, 3, TypeInsert, []Op{{ID: 3}})
	f, err := os.OpenFile(segs[0].path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r := &faultRun{fs: fs, base: []uint64{1, 2}}
	fs.Arm()
	r.do(0, func() error {
		l, err = Open(dir, Options{Sync: SyncEach, FS: fs})
		return err
	})
	if l != nil {
		r.do(4, func() error { return appendOne(l, 4) })
	}
	fs.Disarm()
	if l != nil {
		_ = l.Close()
	}
	r.check(t, dir)
}

// TestFaultEnumeration fails, one at a time, every call each scenario
// makes through the file seam.
func TestFaultEnumeration(t *testing.T) {
	for _, sc := range []struct {
		name string
		run  func(*testing.T, *vfstest.FS)
	}{
		{"AppendSyncEach", appendsEach(0)},
		{"AppendSyncGroup", appendsGroup},
		{"Rotation", appendsEach(64)},
		{"Sync", syncThenAppend},
		{"Close", closeThenAppend},
		{"OpenTornTail", openTornTail},
	} {
		t.Run(sc.name, func(t *testing.T) { vfstest.Enumerate(t, sc.run) })
	}
	// A torn append whose rollback fails too must poison the log: an
	// append after it would be acked past damage that recovery stops at.
	t.Run("AppendSyncEach/Write#1-short-EIO+Truncate#1-EIO", func(t *testing.T) {
		fs := vfstest.New(
			vfstest.Fault{Kind: vfstest.Write, N: 1, Err: syscall.EIO, Short: true},
			vfstest.Fault{Kind: vfstest.Truncate, N: 1, Err: syscall.EIO})
		appendsEach(0)(t, fs)
		if n := len(fs.Fired()); n != 2 {
			t.Fatalf("%d of 2 faults fired", n)
		}
	})
}
