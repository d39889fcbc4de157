// Package vfstest is the fault-injecting vfs.FS that the durability
// tests run the log, the atomic writer and the index over. It passes
// every call to vfs.OS, counts the calls of each kind while armed, and
// fails the n-th call of a kind with a chosen error. A test runs a
// scenario once to count its calls, then once per call with that call
// failed (Enumerate), and checks what the scenario returned
// against what a reader finds on disk. SlowSync makes every sync slow
// instead, for the tests that count a commit policy's syncs.
package vfstest

import (
	"fmt"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"burtree/internal/vfs"
)

// Kind is a kind of call through the seam.
type Kind int

const (
	// Open is FS.OpenFile, FS.CreateTemp, FS.ReadFile and FS.ReadDir.
	Open Kind = iota
	// Write is File.Write.
	Write
	// Sync is File.Sync.
	Sync
	// Truncate is File.Truncate.
	Truncate
	// Close is File.Close.
	Close
	numKinds
)

var kindNames = [numKinds]string{"Open", "Write", "Sync", "Truncate", "Close"}

func (k Kind) String() string { return kindNames[k] }

// counts is how many calls of each kind an armed FS saw.
type counts [numKinds]int

// Fault fails the N-th call of Kind (counted from 1 since Arm) with Err.
// A failed Write with Short set writes the first half of its bytes
// first; otherwise a failed call does nothing. A failed Close still
// releases the file, as close(2) does.
type Fault struct {
	Kind  Kind
	N     int
	Err   error
	Short bool
}

func (f Fault) String() string {
	s := fmt.Sprintf("%v#%d", f.Kind, f.N)
	if f.Short {
		s += "-short"
	}
	if errno, ok := f.Err.(syscall.Errno); ok {
		switch errno {
		case syscall.EIO:
			s += "-EIO"
		case syscall.ENOSPC:
			s += "-ENOSPC"
		}
	}
	return s
}

// faultsFor lists one fault for each call counted: a Write fails twice,
// short with EIO and whole with ENOSPC; every other call fails with EIO.
func faultsFor(c counts) []Fault {
	var out []Fault
	for k := Kind(0); k < numKinds; k++ {
		for n := 1; n <= c[k]; n++ {
			if k == Write {
				out = append(out, Fault{Kind: k, N: n, Err: syscall.EIO, Short: true},
					Fault{Kind: k, N: n, Err: syscall.ENOSPC})
				continue
			}
			out = append(out, Fault{Kind: k, N: n, Err: syscall.EIO})
		}
	}
	return out
}

// FS is the fault-injecting file system. It is safe for concurrent use.
type FS struct {
	mu        sync.Mutex
	armed     bool
	counts    counts
	faults    []Fault
	fired     []Fault
	syncDelay time.Duration
}

var _ vfs.FS = (*FS)(nil)

// New returns an unarmed FS that will fail the given calls once armed.
func New(faults ...Fault) *FS { return &FS{faults: faults} }

// SlowSync returns an FS that fails nothing and makes every successful
// Sync take d longer: a device slow enough that a test can count the
// syncs a commit policy issues.
func SlowSync(d time.Duration) *FS { return &FS{syncDelay: d} }

// Arm starts counting calls, from zero, and failing the planned ones.
func (fs *FS) Arm() {
	fs.mu.Lock()
	fs.armed, fs.counts = true, counts{}
	fs.mu.Unlock()
}

// Disarm stops counting and failing; every later call passes through.
func (fs *FS) Disarm() {
	fs.mu.Lock()
	fs.armed = false
	fs.mu.Unlock()
}

// Fired returns the faults that have failed a call.
func (fs *FS) Fired() []Fault {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]Fault(nil), fs.fired...)
}

// hit counts one call of kind k and reports the fault planned for it.
func (fs *FS) hit(k Kind) (Fault, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.armed {
		return Fault{}, false
	}
	fs.counts[k]++
	for _, f := range fs.faults {
		if f.Kind == k && f.N == fs.counts[k] {
			fs.fired = append(fs.fired, f)
			return f, true
		}
	}
	return Fault{}, false
}

func (fs *FS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if f, ok := fs.hit(Open); ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: f.Err}
	}
	f, err := vfs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{File: f, fs: fs}, nil
}

func (fs *FS) CreateTemp(dir, pattern string) (vfs.File, error) {
	if f, ok := fs.hit(Open); ok {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: f.Err}
	}
	f, err := vfs.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &file{File: f, fs: fs}, nil
}

func (fs *FS) ReadFile(name string) ([]byte, error) {
	if f, ok := fs.hit(Open); ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: f.Err}
	}
	return vfs.OS.ReadFile(name)
}

func (fs *FS) ReadDir(name string) ([]os.DirEntry, error) {
	if f, ok := fs.hit(Open); ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: f.Err}
	}
	return vfs.OS.ReadDir(name)
}

// file is an open file of an FS.
type file struct {
	vfs.File
	fs *FS
}

func (f *file) Write(p []byte) (int, error) {
	if ft, ok := f.fs.hit(Write); ok {
		n := 0
		if ft.Short {
			n, _ = f.File.Write(p[:len(p)/2])
		}
		return n, ft.Err
	}
	return f.File.Write(p)
}

func (f *file) Sync() error {
	if ft, ok := f.fs.hit(Sync); ok {
		return ft.Err
	}
	err := f.File.Sync()
	if err == nil && f.fs.syncDelay > 0 {
		time.Sleep(f.fs.syncDelay)
	}
	return err
}

func (f *file) Truncate(size int64) error {
	if ft, ok := f.fs.hit(Truncate); ok {
		return ft.Err
	}
	return f.File.Truncate(size)
}

func (f *file) Close() error {
	if ft, ok := f.fs.hit(Close); ok {
		_ = f.File.Close() // the injected failure is the one to report
		return ft.Err
	}
	return f.File.Close()
}

// Enumerate runs scenario once over a fault-free FS to count the calls it
// makes while armed, then once for each of those calls over an FS that
// fails it, each run a subtest named after its fault. A scenario
// whose calls vary between runs (concurrent committers) may make fewer
// calls on a re-run; the planned fault then does not fire.
func Enumerate(t *testing.T, scenario func(t *testing.T, fs *FS)) {
	t.Helper()
	counter := New()
	scenario(t, counter)
	if t.Failed() {
		return
	}
	counter.mu.Lock()
	c := counter.counts
	counter.mu.Unlock()
	for _, f := range faultsFor(c) {
		t.Run(f.String(), func(t *testing.T) { scenario(t, New(f)) })
	}
}
