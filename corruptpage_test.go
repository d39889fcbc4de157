package burtree

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"burtree/internal/pagestore"
)

// A page id stored in a page is outside input: snapshots carry no
// checksum, and the summary table and the pool's frame table are arrays
// indexed by page id. These tests plant a page pointer the store never
// allocated and require an error — no panic, and no table sized by the
// pointer.

// Page-format offsets the tests patch (internal/rtree/node.go).
const (
	nodeMagicByte  = 0xA7
	nodeFirstEntry = 40 // header of a tree without parent pointers
)

// strayPointers are far beyond any store here: the first would panic in
// makeslice if it sized a table, the second would quietly allocate
// hundreds of megabytes, and the third is negative as an int.
var strayPointers = []uint64{1 << 40, 1 << 24, 1 << 63}

// poolSizes are the buffer pools the tests run under: with none, every
// page access goes straight to the store; with one, through the pool's
// frame table first.
var poolSizes = []int{0, 32}

// corruptSnapshot saves a 2 000-object GBU index with a pool of
// bufferPages, hands the decoded snapshot's one stack to patch, and writes
// the result to a file.
func corruptSnapshot(t *testing.T, bufferPages int, patch func(s *savedStack)) string {
	t.Helper()
	x, err := Open(Options{Strategy: GeneralizedBottomUp, ExpectedObjects: 256, BufferPages: bufferPages})
	if err != nil {
		t.Fatal(err)
	}
	ids, pts := randomPoints(2000, 77)
	for i := range ids {
		if err := x.Insert(ids[i], pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var s savedIndex
	if err := gob.NewDecoder(bufio.NewReader(bytes.NewReader(buf.Bytes()[8:]))).Decode(&s); err != nil {
		t.Fatal(err)
	}
	patch(&s.Stacks[0])
	path := filepath.Join(t.TempDir(), "corrupt.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEnvelope(f, &s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// allocatedBy returns the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadRejectsStrayChildPointer plants a child pointer the store never
// allocated in the root, and a freed-list entry beyond every page: loading
// must fail with ErrPageBounds, allocating no more than a clean load does.
func TestLoadRejectsStrayChildPointer(t *testing.T) {
	type plant struct {
		name  string
		patch func(s *savedStack)
	}
	var plants []plant
	for _, stray := range strayPointers {
		plants = append(plants, plant{fmt.Sprintf("child pointer %d", stray), func(s *savedStack) {
			root := s.Pages[s.Root-1]
			if root[0] != nodeMagicByte || s.Height < 2 {
				t.Fatalf("root page is not an internal node (magic %#x, height %d)", root[0], s.Height)
			}
			binary.LittleEndian.PutUint64(root[nodeFirstEntry:], stray)
		}})
	}
	plants = append(plants, plant{"freed page 1<<63", func(s *savedStack) { s.Freed = append(s.Freed, 1<<63) }})
	for _, pool := range poolSizes {
		clean := corruptSnapshot(t, pool, func(*savedStack) {})
		base := allocatedBy(func() {
			if _, err := LoadFile(clean); err != nil {
				t.Fatal(err)
			}
		})
		for _, p := range plants {
			path := corruptSnapshot(t, pool, p.patch)
			var err error
			got := allocatedBy(func() { _, err = LoadFile(path) })
			if !errors.Is(err, pagestore.ErrPageBounds) {
				t.Fatalf("%s, pool %d: LoadFile error = %v, want ErrPageBounds", p.name, pool, err)
			}
			if got > base+1<<20 {
				t.Fatalf("%s, pool %d: load allocated %d bytes, a clean load %d", p.name, pool, got, base)
			}
		}
	}
}
