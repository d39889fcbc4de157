package burtree

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"burtree/internal/atomicfile"
	"burtree/internal/buffer"
	"burtree/internal/core"
	"burtree/internal/pagestore"
	"burtree/internal/shard"
)

// snapshotMagic opens every snapshot, so a reader can refuse a file that
// is not one, or is one of an earlier format, before any decoding.
var snapshotMagic = [8]byte{'B', 'U', 'R', 'S', 'N', 'A', 'P', '4'}

// ErrBadSnapshot reports a reader that does not hold a burtree snapshot
// this version reads (wrong magic, earlier format, truncated header, or
// corrupt body).
var ErrBadSnapshot = errors.New("burtree: not a valid snapshot")

// saveFormat is the version of savedIndex a snapshot carries. Format 1
// held 40-byte leaf entries; format 2 had two envelopes, a bare stack
// (BURSNAP2) for Index and ConcurrentIndex and a manifest of nested stacks
// (BURSHRD2) for ShardedIndex; format 3 (BURSNAP3) carried each stack's
// paged object-id hash index. Load refuses all three.
const saveFormat = 4

// savedIndex is the on-disk form of every index, whatever the front-end:
// the index-wide options, the partitioning, the log position, and N ≥ 1
// stacks. A stack's durable state is its tree pages; the summary
// structure and the object table's leaf placements are main-memory only
// and are rebuilt on load, one walk over each tree. Snapshots written
// while ShardedIndex had an online rebalancer also carry its count of
// boundary changes and the partition's mark of the equal-length cut; the
// decoder skips both, and a reader of that time decodes their absence as
// zero.
type savedIndex struct {
	Format int

	// Options are the index-wide options, totals as passed at open, with
	// the page size the stores use filled in. Each stack's own are derived
	// from them (stackOptions), as a fresh stack's are.
	Options Options
	// Partition is the router's spec; it declares the stack count.
	Partition shard.Spec

	// WALSeq is the log sequence the snapshot covers: recovery replays
	// only records with greater sequences. Zero without durability.
	WALSeq uint64

	Stacks []savedStack
}

// savedStack is one stack: its page store, its tree's root and shape, and
// the objects the router places in it.
type savedStack struct {
	Pages [][]byte
	Freed []pagestore.PageID

	Root   pagestore.PageID
	Height int
	Size   int

	Objects map[uint64]Point
}

// snapshot fills st's tree state from the stack; the caller has placed
// the stack's objects in it. The delta tier is merged down first: the
// caller's exclusive gate keeps writers from refilling it, so the snapshot
// holds every acknowledged operation in the tree and never depends on
// memtable contents, and a log truncation after it (Checkpoint) cannot
// drop records whose effects lived only in the memtable.
func (s *treeStack) snapshot(st *savedStack) error {
	if err := s.drainMemtable(); err != nil {
		return err
	}
	return s.tree.Exclusive(func(u core.Updater) error {
		if err := s.pool.Flush(); err != nil {
			return fmt.Errorf("burtree: save: %w", err)
		}
		rs := core.SaveState(u)
		_, st.Pages, st.Freed = s.store.Dump()
		st.Root, st.Height, st.Size = rs.Root, rs.Height, rs.Size
		return nil
	})
}

// writeEnvelope writes a snapshot: the magic, then the gob-encoded body.
func writeEnvelope(w io.Writer, s *savedIndex) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("burtree: save: %w", err)
	}
	if err := gob.NewEncoder(bw).Encode(s); err != nil {
		return fmt.Errorf("burtree: save: %w", err)
	}
	return bw.Flush()
}

// Save serializes the complete index to w, in the one snapshot format
// every front-end writes and reads: the index-wide options, the
// partitioning, and one stack per shard (one for Index and
// ConcurrentIndex) with its pages, its structural metadata and its share
// of the object table. The whole index is gated exclusively for the
// duration — the buffer flush and page dump must not interleave with
// updates — so the snapshot is a globally quiescent point: every
// operation that completed before Save returned is in it, none that
// started after, and no cross-shard move is captured half-applied. No
// operation is caught between applying and logging either, so with
// durability enabled the embedded log sequence is exact and the snapshot
// can serve as a recovery base.
func (x *index) Save(w io.Writer) error {
	x.gate.Lock()
	defer x.gate.Unlock()
	return x.saveLocked(w)
}

// saveLocked is Save with the gate already held. Each stack is saved with
// the router's partition of the one object table as its object set.
func (x *index) saveLocked(w io.Writer) error {
	s := savedIndex{
		Format:    saveFormat,
		Options:   x.options,
		Partition: x.router.Spec(),
		WALSeq:    x.lsn.Load(),
		Stacks:    make([]savedStack, len(x.shards)),
	}
	s.Options.PageSize = x.shards[0].store.PageSize()
	for i := range s.Stacks {
		s.Stacks[i].Objects = make(map[uint64]Point, x.Len()/len(s.Stacks))
	}
	x.each(func(id uint64, r record) {
		if r.live() {
			s.Stacks[x.router.ShardOf(r.point())].Objects[id] = r.point()
		}
	})
	for i, sh := range x.shards {
		if err := sh.snapshot(&s.Stacks[i]); err != nil {
			return err
		}
	}
	return writeEnvelope(w, &s)
}

// SaveFile writes the snapshot to a file, like Save, atomically: a
// failure at any point leaves the previous snapshot intact — the
// destination is never truncated before its replacement is safely on
// disk.
func (x *index) SaveFile(path string) error {
	return atomicfile.WriteFS(x.fs, path, x.Save)
}

// decodeSnapshot reads the magic and decodes the body of a snapshot of
// this version's format.
func decodeSnapshot(r io.Reader) (savedIndex, error) {
	var s savedIndex
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return s, fmt.Errorf("%w: reading magic: %v", ErrBadSnapshot, err)
	}
	if magic != snapshotMagic {
		return s, fmt.Errorf("%w: magic %q, this version reads %q", ErrBadSnapshot, magic[:], snapshotMagic[:])
	}
	if err := gob.NewDecoder(br).Decode(&s); err != nil {
		return s, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if s.Format != saveFormat {
		return s, fmt.Errorf("%w: snapshot format %d, this version reads format %d", ErrBadSnapshot, s.Format, saveFormat)
	}
	return s, nil
}

// load reconstructs an index of kind k from a Save snapshot; it is the one
// place that reads the format. Everything in the snapshot is outside
// input, checked before a stack is built: the partition spec and the
// stacks it declares, the options, each stack's structural bounds, and
// every object — in one stack only, and the one its position routes to.
// A one-stack kind given several stacks merges them: their objects are
// bulk-loaded into one fresh tree under the snapshot's options. Every
// other snapshot restores stack for stack and page for page, partition
// and all (the main-memory summary structure and the table's leaf
// placements are rebuilt by tree walks per stack).
func load(r io.Reader, k kind) (*index, error) {
	s, err := decodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	router, err := shard.FromSpec(s.Partition)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	n := len(s.Stacks)
	if n != s.Partition.Shards {
		return nil, fmt.Errorf("%w: partition declares %d stacks but snapshot carries %d", ErrBadSnapshot, s.Partition.Shards, n)
	}
	// Loaders are not log- or memtable-aware: Recover re-attaches the logs
	// and re-enables the tier explicitly.
	s.Options.Durability, s.Options.Memtable = Durability{}, Memtable{}
	per := stackOptions(s.Options, n)
	co, err := per.coreOptions()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	// The table of the index being loaded is the check for an object in
	// two stacks.
	x := newIndex(k, router, s.Options, ShardOptions{Shards: n})
	for i, st := range s.Stacks {
		switch {
		case st.Size < 0 || st.Height < 0:
			return nil, fmt.Errorf("%w: stack %d: negative structural counts", ErrBadSnapshot, i)
		case st.Root > pagestore.PageID(len(st.Pages)):
			return nil, fmt.Errorf("%w: stack %d: root page %d beyond %d pages", ErrBadSnapshot, i, st.Root, len(st.Pages))
		case st.Root == pagestore.InvalidPage && st.Size > 0:
			return nil, fmt.Errorf("%w: stack %d: %d objects but no root page", ErrBadSnapshot, i, st.Size)
		}
		for id, p := range st.Objects {
			if !x.add(id, p) {
				return nil, fmt.Errorf("%w: object %d present in multiple stacks", ErrBadSnapshot, id)
			}
			if owner := router.ShardOf(p); owner != i {
				return nil, fmt.Errorf("%w: object %d at %v stored in stack %d but routes to %d", ErrBadSnapshot, id, p, i, owner)
			}
		}
	}
	if n > 1 && !k.sharded() {
		if x, err = merged(s.Options, k, &x.objectTable); err != nil {
			return nil, err
		}
	} else {
		x.shards = make([]*treeStack, n)
		for i, st := range s.Stacks {
			parts, err := restoreParts(st, per, co, x.view(i))
			if err != nil {
				return nil, fmt.Errorf("burtree: load stack %d: %w", i, err)
			}
			x.shards[i] = newStack(parts, k.background())
		}
	}
	x.walSeq = s.WALSeq
	return x, nil
}

// merged opens a fresh one-stack index of kind k under opts and bulk-loads
// the objects of t into it, in ascending id order so the merge is
// deterministic.
func merged(opts Options, k kind, t *objectTable) (*index, error) {
	x, err := open(opts, single, k)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, 0, t.Len())
	t.each(func(id uint64, _ record) { ids = append(ids, id) })
	slices.Sort(ids)
	pts := make([]Point, len(ids))
	for i, id := range ids {
		pts[i], _ = t.Location(id)
	}
	if err := x.BulkInsert(ids, pts, PackSTR); err != nil {
		return nil, err
	}
	return x, nil
}

// restoreParts rebuilds the machinery of a saved stack under per, the
// stack's options (co for its strategy), as openParts builds an empty
// one's: page store, buffer pool and the re-attached strategy, whose
// summary structure is rebuilt from the tree and whose locator, loc —
// the stack's view of the object table — is told every leaf placement.
func restoreParts(st savedStack, per Options, co core.Options, loc core.Locator) (indexParts, error) {
	store, err := pagestore.NewFromDump(per.PageSize, st.Pages, st.Freed, nil)
	if err != nil {
		return indexParts{}, err
	}
	co.Locator = loc
	return stackParts(store, per, func(pool *buffer.Pool) (core.Updater, error) {
		return core.Restore(pool, co, core.RestoreState{Root: st.Root, Height: st.Height, Size: st.Size})
	})
}

// loadFile opens path and loads the snapshot in it as kind k.
func loadFile(path string, k kind) (*index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return load(f, k)
}

// front wraps a built index in its exported front-end type, or passes on
// the error that kept it from being built; the three types differ in
// their method sets only.
func front[T Index | ConcurrentIndex | ShardedIndex](x *index, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	f := T(struct{ *index }{x})
	return &f, nil
}

// Load reconstructs an Index from a Save snapshot of any front-end. A
// snapshot of one stack — an Index's, a ConcurrentIndex's or a one-shard
// ShardedIndex's — restores identically to the original: same pages,
// strategy, options and object table. A snapshot of several shards is
// merged: the union of their objects is bulk-loaded into one fresh tree
// under the snapshot's options. Malformed input fails with
// ErrBadSnapshot, and so do a page size the strategy's tree cannot use
// and the snapshots of earlier versions (formats 1 to 3, under the
// magics BURSNAP2, BURSHRD2 and BURSNAP3), which this version does not
// read.
func Load(r io.Reader) (*Index, error) {
	return front[Index](load(r, kindIndex))
}

// LoadFile reads an index snapshot from a file.
func LoadFile(path string) (*Index, error) {
	return front[Index](loadFile(path, kindIndex))
}

// LoadConcurrent reconstructs a ConcurrentIndex from a Save snapshot of
// any front-end, exactly as Load does.
func LoadConcurrent(r io.Reader) (*ConcurrentIndex, error) {
	return front[ConcurrentIndex](load(r, kindConcurrent))
}

// LoadConcurrentFile reads a snapshot from a file into a
// ConcurrentIndex.
func LoadConcurrentFile(path string) (*ConcurrentIndex, error) {
	return front[ConcurrentIndex](loadFile(path, kindConcurrent))
}

// LoadSharded reconstructs a ShardedIndex from a Save snapshot of any
// front-end, restoring the saved partitioning (scheme, shard count and
// range boundaries) and every shard's tree page for page. A snapshot of
// an Index or a ConcurrentIndex restores as a one-shard ShardedIndex; to
// re-partition, BulkInsert the objects into a fresh sharded index.
// Malformed input fails as it does for Load.
func LoadSharded(r io.Reader) (*ShardedIndex, error) {
	return front[ShardedIndex](load(r, kindSharded))
}

// LoadShardedFile reads a snapshot from a file into a ShardedIndex.
func LoadShardedFile(path string) (*ShardedIndex, error) {
	return front[ShardedIndex](loadFile(path, kindSharded))
}
