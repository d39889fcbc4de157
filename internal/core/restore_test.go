package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"burtree/internal/buffer"
	"burtree/internal/geom"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/stats"
)

// rebuildStore round-trips a store through Dump/NewFromDump.
func rebuildStore(t *testing.T, s *pagestore.Store) *pagestore.Store {
	t.Helper()
	ps, pages, freed := s.Dump()
	out, err := pagestore.NewFromDump(ps, pages, freed, &stats.IO{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCoreSaveRestoreEveryStrategy(t *testing.T) {
	var all []Options
	for _, kind := range []Kind{TD, LBU, GBU, Naive} {
		all = append(all, Options{Strategy: kind, Locator: paged(800)})
	}
	for _, kind := range []Kind{LBU, GBU, Naive} {
		all = append(all, Options{Strategy: kind})
	}
	for _, opts := range all {
		name := opts.Strategy.String()
		if opts.Locator == nil {
			name += "-MemoryLocator"
		}
		t.Run(name, func(t *testing.T) {
			u := newUpdater(t, 512, 8, opts)
			w := newWorld(71)
			w.populate(t, u, 800)
			for i := 0; i < 1200; i++ {
				w.move(t, u, 0.04)
			}
			if err := u.Tree().Flush(); err != nil {
				t.Fatal(err)
			}
			st := SaveState(u)
			store2 := rebuildStore(t, u.Tree().Pool().Store())
			pool2 := buffer.New(store2, 8)
			u2, err := Restore(pool2, bind(pool2, opts), st)
			if err != nil {
				t.Fatal(err)
			}
			validateAll(t, u2)
			if u2.Tree().Size() != 800 {
				t.Fatalf("restored size = %d", u2.Tree().Size())
			}
			// The restored strategy keeps working with full bottom-up
			// machinery: run more moves and compare searches with the
			// original.
			w2 := &world{rng: w.rng, pos: map[rtree.OID]geom.Point{}, ids: w.ids}
			for oid, p := range w.pos {
				w2.pos[oid] = p
			}
			for i := 0; i < 800; i++ {
				oid := w2.ids[w2.rng.Intn(len(w2.ids))]
				old := w2.pos[oid]
				np := geom.Point{X: old.X + 0.01, Y: old.Y - 0.01}
				if err := u2.Update(oid, old, np); err != nil {
					t.Fatalf("post-restore update: %v", err)
				}
				w2.pos[oid] = np
			}
			validateAll(t, u2)
			checkSearchMatches(t, u2, w2, 15)
		})
	}
}

func TestRestoreEmpty(t *testing.T) {
	opts := Options{Strategy: GBU, Locator: paged(16)}
	store := pagestore.New(512, &stats.IO{})
	pool := buffer.New(store, 0)
	u, err := Restore(pool, bind(pool, opts), RestoreState{})
	if err != nil {
		t.Fatal(err)
	}
	if u.Tree().Size() != 0 || u.Tree().Height() != 0 {
		t.Fatalf("empty restore: size=%d height=%d", u.Tree().Size(), u.Tree().Height())
	}
	if err := u.Insert(1, geom.Point{X: 0.5, Y: 0.5}); err != nil {
		t.Fatal(err)
	}
	validateAll(t, u)
}

func TestRestoreRejectsBadMetadata(t *testing.T) {
	u := newUpdater(t, 512, 0, Options{Strategy: GBU, Locator: paged(100)})
	w := newWorld(72)
	w.populate(t, u, 100)
	if err := u.Tree().Flush(); err != nil {
		t.Fatal(err)
	}
	st := SaveState(u)
	store2 := rebuildStore(t, u.Tree().Pool().Store())
	pool2 := buffer.New(store2, 0)

	bad := st
	bad.Height = st.Height + 2 // root level will not match
	if _, err := Restore(pool2, bind(pool2, Options{Strategy: GBU, Locator: paged(100)}), bad); err == nil {
		t.Fatal("bad height accepted")
	}

	store3 := rebuildStore(t, u.Tree().Pool().Store())
	pool3 := buffer.New(store3, 0)
	bad2 := st
	bad2.Root = 999999 // out of range page
	if _, err := Restore(pool3, bind(pool3, Options{Strategy: GBU, Locator: paged(100)}), bad2); err == nil {
		t.Fatal("bad root accepted")
	}
}

// TestRestoreRejectsStrayChild: a child pointer the store never allocated
// fails Restore with ErrPageBounds for every bottom-up strategy, over
// either locator and with or without a buffer pool: the leaf walk that
// re-fills the locator reads no page the store never allocated.
func TestRestoreRejectsStrayChild(t *testing.T) {
	for _, kind := range []Kind{Naive, LBU, GBU} {
		for _, memory := range []bool{false, true} {
			opts := Options{Strategy: kind}
			if !memory {
				opts.Locator = paged(400)
			}
			u := newUpdater(t, 512, 0, opts)
			newWorld(73).populate(t, u, 400)
			if u.Tree().Height() < 2 {
				t.Fatal("root is a leaf; the test needs an internal root")
			}
			ps, pages, freed := u.Tree().Pool().Store().Dump()
			// The first entry's child pointer opens the entry, after the
			// 40-byte header (48 with LBU's parent pointer).
			off := 40
			if kind == LBU {
				off = 48
			}
			binary.LittleEndian.PutUint64(pages[u.Tree().Root()-1][off:], 1<<40)
			store, err := pagestore.NewFromDump(ps, pages, freed, &stats.IO{})
			if err != nil {
				t.Fatal(err)
			}
			for _, frames := range []int{0, 8} {
				pool := buffer.New(store, frames)
				if _, err := Restore(pool, bind(pool, opts), SaveState(u)); !errors.Is(err, pagestore.ErrPageBounds) {
					t.Errorf("%v, memory locator %v, %d frames: Restore over a stray child pointer: %v, want ErrPageBounds", kind, memory, frames, err)
				}
			}
		}
	}
}
