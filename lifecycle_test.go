package burtree

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"burtree/internal/wal"
)

// This file checks what an index leaves behind. After Close, and after an
// open or a recovery that fails, no goroutine the index started may still
// run and no file it opened may still be open. A snapshot save that fails
// must leave the previous snapshot as it was. None of these tests calls
// t.Parallel: the goroutine and file checks read process-wide state.

// libraryFrame matches a stack frame in this module, or the line naming
// the module function that created the goroutine.
var libraryFrame = regexp.MustCompile(`(?m)^(created by )?burtree[./]`)

// libraryGoroutines returns the stack of every live goroutine with a
// frame in this module, keyed by goroutine id. Ids are never reused, so
// two calls compare by identity: a goroutine an earlier test left behind
// is in both.
func libraryGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		// The header reads "goroutine 7 [select]:".
		if fields := strings.Fields(g); len(fields) > 1 && libraryFrame.MatchString(g) {
			out[fields[1]] = g
		}
	}
	return out
}

// goroutinesSince returns the stacks of the library goroutines that did
// not exist in before. A joined goroutine may still be unwinding when its
// owner's Wait returns, so it allows a few seconds for them to exit.
func goroutinesSince(before map[string]string) []string {
	var extra []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		extra = extra[:0]
		for id, g := range libraryGoroutines() {
			if _, old := before[id]; !old {
				extra = append(extra, g)
			}
		}
		if len(extra) == 0 || time.Now().After(deadline) {
			return extra
		}
	}
}

// filesOpenUnder lists the files under dir that this process holds open,
// read from /proc/self/fd. ok is false where /proc is absent.
func filesOpenUnder(dir string) (open []string, ok bool) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil, false
	}
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real // the links name resolved paths
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			open = append(open, target)
		}
	}
	return open, true
}

// expectNothingLeft fails the test if a file under dir is still open, or
// if a library goroutine not in before is still running. The files are
// looked at first: an unreachable os.File is closed by its finalizer once
// a collection runs.
func expectNothingLeft(t *testing.T, before map[string]string, dir string) {
	t.Helper()
	if open, ok := filesOpenUnder(dir); ok && len(open) > 0 {
		t.Errorf("files still open: %v", open)
	}
	if extra := goroutinesSince(before); len(extra) > 0 {
		t.Errorf("%d goroutine(s) still running:\n\n%s", len(extra), strings.Join(extra, "\n\n"))
	}
}

// TestCloseJoinsEveryGoroutine: each front-end, with and without the
// delta tier and the group-commit log, is driven until its background
// goroutines have run, and Close must join all of them. The delta tier's
// merger (one per stack: four on ShardedIndex), the log's sync leader and
// the batch and read scatters all start goroutines here.
func TestCloseJoinsEveryGoroutine(t *testing.T) {
	kinds := []struct {
		name string
		open func(Options) (walFailureIndex, error)
	}{
		{"Index", func(o Options) (walFailureIndex, error) { return Open(o) }},
		{"ConcurrentIndex", func(o Options) (walFailureIndex, error) { return OpenConcurrent(o) }},
		{"ShardedIndex", func(o Options) (walFailureIndex, error) { return OpenSharded(o, ShardOptions{Shards: 4}) }},
	}
	for _, k := range kinds {
		for _, memtable := range []bool{false, true} {
			for _, mode := range []DurabilityMode{DurabilityOff, DurabilityGroup} {
				t.Run(fmt.Sprintf("%s/memtable=%v/%v", k.name, memtable, mode), func(t *testing.T) {
					dir := t.TempDir()
					opts := durableOpts(dir, mode)
					if mode == DurabilityOff {
						opts.Durability = Durability{}
					}
					opts.Memtable = Memtable{Enabled: memtable, MaxObjects: 16}
					before := libraryGoroutines()
					x, err := k.open(opts)
					if err != nil {
						t.Fatal(err)
					}
					driveAllPaths(t, x)
					if err := x.Close(); err != nil {
						t.Fatal(err)
					}
					expectNothingLeft(t, before, dir)
				})
			}
		}
	}
}

// driveAllPaths runs enough writes to trip the delta tier's size trigger
// many times over and keep the log's sync leader busy, skewed into one
// corner so that one shard's tier fills fastest, and reads that scatter
// over every shard.
func driveAllPaths(t *testing.T, x walFailureIndex) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	corner := func() Point { return Point{X: 0.4 * rng.Float64(), Y: 0.4 * rng.Float64()} }
	const n = 300
	for id := uint64(0); id < n; id++ {
		if err := x.Insert(id, corner()); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(0); id < n; id++ {
		if err := x.Update(id, corner()); err != nil {
			t.Fatal(err)
		}
	}
	changes := make([]Change, 0, n)
	for id := uint64(0); id < n; id++ {
		changes = append(changes, Change{ID: id, To: Point{X: rng.Float64(), Y: rng.Float64()}})
	}
	if _, err := x.UpdateBatch(changes); err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < n; id += 3 {
		if err := x.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := indexOf(x).Search(NewRect(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := indexOf(x).Nearest(Point{X: 0.5, Y: 0.5}, 8); err != nil {
		t.Fatal(err)
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedOpenLeavesNothingRunning: a durable OpenSharded that cannot
// create a shard's log directory fails after it has built every stack
// (with a merger each, the tier being on) and opened the logs before that
// shard's. The failure must close all of them.
func TestFailedOpenLeavesNothingRunning(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-001"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := durableOpts(dir, DurabilityGroup)
	opts.Memtable = Memtable{Enabled: true}
	before := libraryGoroutines()
	if x, err := OpenSharded(opts, ShardOptions{Shards: 4}); err == nil {
		_ = x.Close()
		t.Fatal("OpenSharded over a file where a shard directory belongs succeeded")
	}
	expectNothingLeft(t, before, dir)
}

// TestFailedRecoveryStopsItsMerger: a log whose replay fails (two inserts
// of one id) fails recovery with ErrRecovery after the index, and its
// mergers, were built. The failure must close them, on every front-end.
func TestFailedRecoveryStopsItsMerger(t *testing.T) {
	for _, fe := range walFailureFrontEnds[:3] {
		t.Run(fe.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := wal.Open(logDir(dir, 0), wal.Options{Sync: wal.SyncEach})
			if err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if _, err := l.Append(wal.TypeInsert, []wal.Op{{ID: 1, X: 0.1, Y: 0.1}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			opts := durableOpts(dir, DurabilityBatch)
			opts.Memtable = Memtable{Enabled: true}
			before := libraryGoroutines()
			x, err := fe.recover(opts)
			if !errors.Is(err, ErrRecovery) {
				if err == nil {
					_ = x.Close()
				}
				t.Fatalf("recovering a log that inserts one id twice returned %v, want ErrRecovery", err)
			}
			expectNothingLeft(t, before, dir)
		})
	}
}

// TestFailedCheckpointKeepsPreviousSnapshot: a save whose merge-down fails
// part-way must leave the snapshot the previous save wrote, loadable and
// holding exactly the objects it held, with no temp file beside it. It
// runs on every front-end with the delta tier on, through Checkpoint (the
// snapshot in the durability directory) and through SaveFile.
func TestFailedCheckpointKeepsPreviousSnapshot(t *testing.T) {
	for _, fe := range walFailureFrontEnds[:3] {
		for _, via := range []string{"Checkpoint", "SaveFile"} {
			t.Run(fe.name+"/"+via, func(t *testing.T) {
				dir := t.TempDir()
				opts := durableOpts(dir, DurabilityBatch)
				path := filepath.Join(dir, snapshotFileName)
				if via == "SaveFile" {
					opts.Durability = Durability{}
					path = filepath.Join(dir, "index.bur")
				}
				opts.Memtable = Memtable{Enabled: true}
				idx, err := fe.open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer idx.Close() // reports the sticky merge failure; the checks below are the test
				x := indexOf(idx)
				save := func() error {
					if via == "SaveFile" {
						return x.SaveFile(path)
					}
					return x.Checkpoint()
				}
				want := make(map[uint64]Point)
				for id := uint64(0); id < 20; id++ {
					want[id] = Point{X: 0.05 + 0.045*float64(id), Y: 0.95 - 0.045*float64(id)}
					if err := x.Insert(id, want[id]); err != nil {
						t.Fatal(err)
					}
				}
				if err := save(); err != nil {
					t.Fatal(err)
				}
				// Deltas the next save has to merge down.
				for id := uint64(0); id < 20; id += 2 {
					if err := x.Update(id, Point{X: 0.95 - 0.045*float64(id), Y: 0.05 + 0.045*float64(id)}); err != nil {
						t.Fatal(err)
					}
				}
				failNextMutation(idx, nil)
				if err := save(); !errors.Is(err, errInjected) {
					t.Fatalf("%s with a failing merge-down returned %v, want the injected error", via, err)
				}
				prev, err := loadFile(path, x.kind)
				if err != nil {
					t.Fatalf("the previous snapshot no longer loads: %v", err)
				}
				if got := objectsOf(t, prev); !reflect.DeepEqual(got, want) {
					t.Fatalf("the previous snapshot holds %v, want %v", got, want)
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if strings.Contains(e.Name(), ".tmp-") {
						t.Errorf("temp file %s left behind by the failed save", e.Name())
					}
				}
			})
		}
	}
}
