// Package atomicfile is the one sanctioned way to (re)write a durable
// artifact — a snapshot, manifest, trace, or benchmark report. The
// bytes go to a temp file in the destination's directory, are fsynced,
// and only then renamed over the destination; the directory entry is
// fsynced afterwards so the rename itself survives a crash. A failure
// at any point leaves the previous artifact intact and removes the
// temp file — the destination is never truncated before its
// replacement is safely on disk.
//
// Every temp file and directory is opened, written, synced and closed
// through the file seam, internal/vfs: Write runs over vfs.OS, WriteFS
// over the FS it is given. The root package's fault enumeration
// (faults_test.go) fails each of those calls under a Checkpoint and a
// SaveFile in turn, and requires the call to report it and the previous
// snapshot to load as it was.
//
// This is the bug class PR 4 fixed in the snapshot writer (it used to
// truncate the old snapshot before writing the new one): a crash
// mid-write left a torn artifact that loaders misparse. The root
// package's TestFailedCheckpointKeepsPreviousSnapshot makes a Checkpoint
// and a SaveFile fail after a good snapshot and requires that snapshot
// to load as it was, so a writer that truncates first fails it.
package atomicfile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"burtree/internal/vfs"
)

// Write atomically replaces path with the bytes produced by save.
// save receives the temp file; it must not retain the writer.
func Write(path string, save func(io.Writer) error) error {
	return WriteFS(vfs.OS, path, save)
}

// WriteFS is Write through the file system fsys.
func WriteFS(fsys vfs.FS, path string, save func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			// Error path: the write already failed, the close/remove
			// outcome cannot make the artifact any less durable.
			_ = f.Close()
			_ = os.Remove(tmp)
		}
	}()
	if err = save(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	// Persist the rename itself; without this a crash can roll the
	// directory entry back to the old artifact (which is still intact)
	// or to nothing on filesystems that reorder metadata.
	return SyncDir(fsys, dir)
}

// WriteBytes atomically replaces path with data.
func WriteBytes(path string, data []byte) error {
	return Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// SyncDir fsyncs a directory so a rename, or a file created or removed
// in it, survives a crash. Platforms whose directories cannot be fsynced
// report os.ErrInvalid, which is tolerated; any other failure is
// surfaced.
func SyncDir(fsys vfs.FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	serr := d.Sync()
	if errors.Is(serr, os.ErrInvalid) {
		serr = nil
	}
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("atomicfile: sync dir: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("atomicfile: %w", cerr)
	}
	return nil
}
