package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"burtree/internal/vfs/vfstest"
)

func TestWriteReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.bin")
	if err := WriteBytes(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteBytes(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("got %q, want %q", got, "new")
	}
	leftovers(t, dir, path)
}

func TestFailedSaveKeepsOldArtifact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.bin")
	if err := WriteBytes(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		// A partial write before the failure must not reach path.
		if _, werr := w.Write([]byte("torn")); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != "old" {
		t.Fatalf("old artifact clobbered: %q", got)
	}
	leftovers(t, dir, path)
}

func TestWriteIntoMissingDirFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "x")
	if err := WriteBytes(path, []byte("x")); err == nil {
		t.Fatal("expected error writing into missing directory")
	}
}

// leftovers fails the test if any temp file survived.
func leftovers(t *testing.T, dir, keep string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Join(dir, e.Name()) == keep {
			continue
		}
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestFaultEnumeration fails, one at a time, every call a Write over a
// previous artifact makes through the file seam. A failed Write must say
// so, leave no temp file, and leave the previous artifact in place,
// unless the failure came after the rename — at the directory's open,
// sync or close, the second call of each kind — when the new one is in
// place whole.
func TestFaultEnumeration(t *testing.T) {
	vfstest.Enumerate(t, func(t *testing.T, fs *vfstest.FS) {
		dir := t.TempDir()
		path := filepath.Join(dir, "artifact.bin")
		if err := WriteBytes(path, []byte("old")); err != nil {
			t.Fatal(err)
		}
		fs.Arm()
		err := WriteFS(fs, path, func(w io.Writer) error {
			for _, part := range []string{"ne", "w"} {
				if _, err := w.Write([]byte(part)); err != nil {
					return err
				}
			}
			return nil
		})
		fs.Disarm()
		fired := fs.Fired()
		if len(fired) > 0 && err == nil {
			t.Fatalf("injected %v swallowed", fired)
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		want := "new"
		if err != nil {
			f := fired[0]
			if f.N == 1 || f.Kind == vfstest.Write {
				want = "old"
			}
		}
		if string(got) != want {
			t.Fatalf("after Write returned %v: artifact holds %q, want %q", err, got, want)
		}
		leftovers(t, dir, path)
	})
}
