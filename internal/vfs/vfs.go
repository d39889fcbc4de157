// Package vfs is the file seam under the write-ahead log (internal/wal)
// and the atomic artifact writer (internal/atomicfile): the only way
// either package opens, reads, writes, syncs, truncates or closes a log
// segment, a temp file or a directory. Making a directory, and renaming
// or removing a file, go to package os directly.
//
// OS is the one implementation the library runs. The other, vfstest's
// fault-injecting FS, wraps it in tests: it fails a chosen call — a short
// or refused Write, a Sync, a Truncate, a Close — so that every error on
// the durable path is shown to stop the call that met it.
package vfs

import (
	"io"
	"os"
)

// File is an open file: what the log and the atomic writer do with one.
// *os.File implements it.
type File interface {
	io.Writer
	io.Seeker
	Name() string
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FS opens files and reads whole files and directories.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
