package rtree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"burtree/internal/geom"
	"burtree/internal/pagestore"
)

// fullNode builds a node at level with count random entries of the shape
// the level stores: points in a leaf, rectangles above.
func fullNode(rng *rand.Rand, level, count int, parentPointers bool) *Node {
	n := &Node{Page: 5, Level: level, Self: geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()), Parent: pagestore.InvalidPage}
	if parentPointers {
		n.Parent = pagestore.PageID(1 + rng.Intn(1000))
	}
	for i := 0; i < count; i++ {
		if level == 0 {
			n.Entries = append(n.Entries, Entry{Rect: geom.RectFromPoint(uniformPoint(rng)), OID: rng.Uint64()})
			continue
		}
		r := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		n.Entries = append(n.Entries, Entry{Rect: r, Child: pagestore.PageID(1 + rng.Intn(1<<30))})
	}
	return n
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestNodeFormatRoundTrip: for both entry shapes, page sizes at and
// around the minimum and the usual ones, and both header layouts, a node
// filled to its fanout uses the page as tightly as the entry width
// allows, decodes to itself — through the view and through the reference
// decoder — and one entry more is refused with the page untouched. The
// minimum page is set by the 40-byte internal entry: below it an internal
// node cannot reach fanout 4, while a 200-byte leaf holds 6 entries.
func TestNodeFormatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, level := range []int{0, 1} {
		for _, ps := range []int{200, 208, 256, 1024, 4096} {
			for _, pp := range []bool{false, true} {
				t.Run(fmt.Sprintf("level%d/%dB/parent=%v", level, ps, pp), func(t *testing.T) {
					if ps < MinPageSize(pp) {
						if !panics(func() { MaxEntriesFor(ps, pp, 1) }) {
							t.Fatalf("an internal node fits in %d bytes, below the minimum page %d", ps, MinPageSize(pp))
						}
						return
					}
					m := MaxEntriesFor(ps, pp, level)
					if ps == 200 && level == 0 && m != 6 {
						t.Fatalf("a 200-byte leaf holds %d entries, want 6", m)
					}
					width := entrySize(level)
					if used := headerSize(pp) + m*width; used > ps || used+width <= ps {
						t.Fatalf("fanout %d of %d-byte entries uses %d of %d bytes", m, width, used, ps)
					}
					n := fullNode(rng, level, m, pp)
					buf := make([]byte, ps)
					if err := encodeNode(n, buf, pp); err != nil {
						t.Fatal(err)
					}
					got := &Node{}
					if err := decodeNode(got, buf, pp); err != nil {
						t.Fatal(err)
					}
					if err := sameNode(got, n); err != nil {
						t.Fatal(err)
					}
					ref := &Node{}
					if err := refDecodeNode(ref, buf, pp); err != nil {
						t.Fatal(err)
					}
					if err := sameNode(ref, n); err != nil {
						t.Fatalf("reference decoder: %v", err)
					}

					n.Entries = append(n.Entries, n.Entries[0])
					before := bytes.Clone(buf)
					if err := encodeNode(n, buf, pp); err == nil {
						t.Fatalf("%d entries encoded into a %d-byte page", len(n.Entries), ps)
					}
					if !bytes.Equal(before, buf) {
						t.Fatal("a refused encode changed the page")
					}
				})
			}
		}
	}
}

// TestNonPointDataRefused: Insert, Update, BulkLoad and BulkLoadHilbert
// of a rectangle that is not a point fail with ErrNotPoint and leave the
// tree as it was — invariants, size and every page byte — and patching a
// leaf entry to one panics before it stores a byte.
func TestNonPointDataRefused(t *testing.T) {
	box := geom.NewRect(0.2, 0.2, 0.3, 0.3)
	for _, pp := range []bool{false, true} {
		t.Run(fmt.Sprintf("parent=%v", pp), func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			tr := newTestTree(t, 512, 16, Config{ParentPointers: pp, ReinsertFraction: 0.3})
			o := oracle{}
			for i := 0; i < 500; i++ {
				r := geom.RectFromPoint(uniformPoint(rng))
				if err := tr.Insert(OID(i), r); err != nil {
					t.Fatal(err)
				}
				o[OID(i)] = r
			}
			pages := func() [][]byte {
				t.Helper()
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
				_, p, _ := tr.Pool().Store().Dump()
				return p
			}
			before, size := pages(), tr.Size()
			for _, op := range []struct {
				name string
				do   func() error
			}{
				{"Insert", func() error { return tr.Insert(9999, box) }},
				{"Update", func() error { return tr.Update(7, o[7], box) }},
			} {
				if err := op.do(); !errors.Is(err, ErrNotPoint) {
					t.Fatalf("%s of %v: err = %v, want ErrNotPoint", op.name, box, err)
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("after %s: %v", op.name, err)
				}
				if tr.Size() != size || !reflect.DeepEqual(pages(), before) {
					t.Fatalf("%s of a rectangle changed the tree (size %d, was %d)", op.name, tr.Size(), size)
				}
			}

			ref, err := tr.PinNodeForPatch(tr.Root())
			if err != nil {
				t.Fatal(err)
			}
			for ref.Level() > 0 {
				child := ref.Child(0)
				if err := ref.Release(); err != nil {
					t.Fatal(err)
				}
				if ref, err = tr.PinNodeForPatch(child); err != nil {
					t.Fatal(err)
				}
			}
			if !panics(func() { ref.SetRect(0, box) }) {
				t.Fatal("SetRect stored a rectangle in a leaf")
			}
			if err := ref.Release(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pages(), before) {
				t.Fatal("a refused SetRect changed the leaf")
			}
		})
	}

	for _, load := range []struct {
		name string
		do   func(*Tree, []Item) error
	}{
		{"BulkLoad", func(tr *Tree, items []Item) error { return tr.BulkLoad(items, 0.66) }},
		{"BulkLoadHilbert", func(tr *Tree, items []Item) error { return tr.BulkLoadHilbert(items, 0.66) }},
	} {
		rng := rand.New(rand.NewSource(13))
		items, _ := bulkItems(rng, 300)
		items[150].Rect = box
		tr := newTestTree(t, 512, 16, Config{})
		if err := load.do(tr, items); !errors.Is(err, ErrNotPoint) {
			t.Fatalf("%s with a rectangle among the items: err = %v, want ErrNotPoint", load.name, err)
		}
		if tr.Size() != 0 || tr.Height() != 0 || tr.Pool().Store().NumPages() != 0 {
			t.Fatalf("%s refused its items but left size %d, height %d, %d pages", load.name, tr.Size(), tr.Height(), tr.Pool().Store().NumPages())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
