package burtree

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"burtree/internal/atomicfile"
	"burtree/internal/buffer"
	"burtree/internal/core"
	"burtree/internal/pagestore"
	"burtree/internal/rtree"
	"burtree/internal/shard"
	"burtree/internal/stats"
)

// Snapshot envelopes start with an 8-byte magic so a reader can tell a
// single-tree snapshot from a sharded one (and reject files that are
// neither) before any decoding happens.
var (
	snapshotMagic = [8]byte{'B', 'U', 'R', 'S', 'N', 'A', 'P', '2'}
	shardedMagic  = [8]byte{'B', 'U', 'R', 'S', 'H', 'R', 'D', '2'}
)

// ErrBadSnapshot reports a reader that does not hold a burtree snapshot
// (wrong magic, truncated header, or corrupt body).
var ErrBadSnapshot = errors.New("burtree: not a valid snapshot")

// savedIndex is the on-disk form of an Index: the full simulated page
// store plus the metadata needed to re-attach the strategy. The summary
// structure is main-memory only (as in the paper) and is rebuilt on
// load. The format is shared by Index and ConcurrentIndex, so a
// snapshot taken from either can be restored as either.
//
// Snapshots written before the λ, reinsertion and split options left
// Options still carry LevelThreshold, ReinsertFraction and SplitAlgorithm;
// gob skips stream fields the struct lacks, so the format number stayed.
// The page bytes are another matter: format 2 is the first whose leaves
// hold 24-byte point entries, and a reader must never decode format 1's
// 40-byte leaf entries as those.
type savedIndex struct {
	Format int // format version

	Strategy          Strategy
	PageSize          int
	BufferPages       int
	Epsilon           float64
	DistanceThreshold float64
	ExpectedObjects   int

	Pages [][]byte
	Freed []uint64

	Root   uint64
	Height int
	Size   int

	HashDirectory []uint64
	HashSize      int

	Objects map[uint64]Point

	// WALSeq is the write-ahead log sequence this snapshot covers:
	// recovery replays only records with greater sequences. Zero for
	// snapshots taken without durability (gob also leaves it zero when
	// decoding snapshots from before the field existed).
	WALSeq uint64
}

// saveFormat is the version of savedIndex a snapshot carries. Format 1
// held 40-byte leaf entries (id and rectangle); format 2 holds 24-byte
// ones (id and point). Load refuses any other.
const saveFormat = 2

// savedSharded is the on-disk form of a ShardedIndex: a manifest (the
// partitioning spec and the index-wide options) plus one complete
// single-index snapshot per shard. Any front-end can load it — Load and
// LoadConcurrent merge the shards into one tree, LoadSharded restores
// the partition as saved.
type savedSharded struct {
	Format int

	Options Options // index-wide options (totals, as passed to OpenSharded)

	// Partitioning spec (mirrors shard.Spec).
	Scheme int
	Shards int
	GridX  int
	GridY  int
	Bounds []uint64

	// Blobs holds one complete single-index snapshot (magic included)
	// per shard; len(Blobs) must equal Shards.
	Blobs [][]byte

	// Counts is the manifest's per-shard object count, written alongside
	// the blobs so a reader can verify that manifest and blobs agree —
	// in particular that a zero-entry shard really is empty rather than
	// a truncated blob. Nil in snapshots from before the field existed
	// (the check is skipped then).
	Counts []int

	// WALSeq is the shared log sequence this snapshot covers (see
	// savedIndex.WALSeq); the per-shard log tails replay from it.
	WALSeq uint64

	// RouterEpoch counts the boundary changes the saved index had
	// performed (rebalancer steps and partition upgrades); restored so
	// monitors see a monotone epoch across snapshots. Zero in snapshots
	// from before the field existed.
	RouterEpoch uint64
}

// shardedFormat is the version of savedSharded a manifest carries: 2
// since its blobs hold format-2 pages, so a format-1 manifest is refused
// before a blob is opened.
const shardedFormat = 2

// saveSnapshot flushes the pool and encodes the stack's complete state
// to w, with objects as its object set. The caller holds the tree
// exclusively, so the snapshot is quiescent.
func (s *treeStack) saveSnapshot(w io.Writer, u core.Updater, objects map[uint64]Point, walSeq uint64) error {
	opts := s.options
	if err := s.pool.Flush(); err != nil {
		return fmt.Errorf("burtree: save: %w", err)
	}
	st, err := core.SaveState(u)
	if err != nil {
		return fmt.Errorf("burtree: save: %w", err)
	}
	pageSize, pages, freed := s.store.Dump()

	img := savedIndex{
		Format:            saveFormat,
		Strategy:          opts.Strategy,
		PageSize:          pageSize,
		BufferPages:       opts.BufferPages,
		Epsilon:           opts.Epsilon,
		DistanceThreshold: opts.DistanceThreshold,
		ExpectedObjects:   opts.ExpectedObjects,
		Pages:             pages,
		Root:              uint64(st.Root),
		Height:            st.Height,
		Size:              st.Size,
		HashSize:          st.HashSize,
		Objects:           objects,
		WALSeq:            walSeq,
	}
	for _, f := range freed {
		img.Freed = append(img.Freed, uint64(f))
	}
	for _, p := range st.HashDirectory {
		img.HashDirectory = append(img.HashDirectory, uint64(p))
	}
	return writeEnvelope(w, snapshotMagic, &img)
}

// writeEnvelope writes a snapshot: the magic that names its kind, then
// the gob-encoded body.
func writeEnvelope(w io.Writer, magic [8]byte, body any) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return fmt.Errorf("burtree: save: %w", err)
	}
	if err := gob.NewEncoder(bw).Encode(body); err != nil {
		return fmt.Errorf("burtree: save: %w", err)
	}
	return bw.Flush()
}

// Save serializes the complete index — pages, structural metadata and
// the object table — to w: Index and ConcurrentIndex write their one
// stack's snapshot, a ShardedIndex a manifest carrying the partitioning
// spec plus one complete stack snapshot per shard. The whole index is
// gated exclusively for the duration — the buffer flush and page dump
// must not interleave with updates — so the snapshot is a globally
// quiescent point: every operation that completed before Save returned is
// in it, none that started after, and no cross-shard move is captured
// half-applied. No operation is caught between applying and logging
// either, so with durability enabled the embedded log sequence is exact
// and the snapshot can serve as a recovery base.
func (x *index) Save(w io.Writer) error {
	x.gate.Lock()
	defer x.gate.Unlock()
	return x.saveLocked(w)
}

// saveLocked is Save with the gate already held. A single-stack index
// writes the stack's snapshot with the whole table as its object set. A
// sharded one gives each shard's blob the router's partition of the table
// as its object set, and the manifest records each partition's size next
// to its blob so a reader can verify the two agree — a zero-count shard
// must decode as an empty tree, not pass as a damaged blob.
func (x *index) saveLocked(w io.Writer) error {
	if !x.kind.sharded() {
		return x.shards[0].save(w, &x.objectTable, x.lsn.Load())
	}
	spec := x.router.Spec()
	s := savedSharded{
		Format:      shardedFormat,
		Options:     x.options,
		Scheme:      int(spec.Scheme),
		Shards:      spec.Shards,
		GridX:       spec.GridX,
		GridY:       spec.GridY,
		Bounds:      spec.Bounds,
		Blobs:       make([][]byte, len(x.shards)),
		Counts:      make([]int, len(x.shards)),
		WALSeq:      x.lsn.Load(),
		RouterEpoch: x.routerEpoch,
	}
	parts := make([]objectTable, len(x.shards))
	for i := range parts {
		parts[i].objects = make(map[uint64]Point, x.Len()/len(parts))
	}
	x.mu.RLock()
	for id, p := range x.objects {
		parts[x.router.ShardOf(p)].objects[id] = p
	}
	x.mu.RUnlock()
	for i, sh := range x.shards {
		var buf bytes.Buffer
		if err := sh.save(&buf, &parts[i], 0); err != nil {
			return fmt.Errorf("burtree: save shard %d: %w", i, err)
		}
		s.Blobs[i] = buf.Bytes()
		s.Counts[i] = len(parts[i].objects)
	}
	return writeEnvelope(w, shardedMagic, &s)
}

// SaveFile writes the snapshot to a file, like Save, atomically: a
// failure at any point leaves the previous snapshot intact — the
// destination is never truncated before its replacement is safely on
// disk.
func (x *index) SaveFile(path string) error {
	return atomicfile.Write(path, x.Save)
}

// readMagic consumes and returns the 8-byte envelope magic.
func readMagic(br *bufio.Reader) ([8]byte, error) {
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return m, fmt.Errorf("%w: reading magic: %v", ErrBadSnapshot, err)
	}
	return m, nil
}

// decodeSavedIndex decodes and sanity-checks a single-index snapshot
// body, so corrupt input fails with an error instead of panicking in
// the rebuild machinery.
func decodeSavedIndex(br *bufio.Reader) (savedIndex, error) {
	var s savedIndex
	if err := gob.NewDecoder(br).Decode(&s); err != nil {
		return s, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if s.Format != saveFormat {
		return s, fmt.Errorf("%w: snapshot format %d, this version reads format %d", ErrBadSnapshot, s.Format, saveFormat)
	}
	if _, err := s.options().coreOptions(); err != nil {
		return s, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if s.Size < 0 || s.Height < 0 || s.HashSize < 0 {
		return s, fmt.Errorf("%w: negative structural counts", ErrBadSnapshot)
	}
	if s.Root > uint64(len(s.Pages)) {
		return s, fmt.Errorf("%w: root page %d beyond %d pages", ErrBadSnapshot, s.Root, len(s.Pages))
	}
	if s.Root == 0 && s.Size > 0 {
		return s, fmt.Errorf("%w: %d objects but no root page", ErrBadSnapshot, s.Size)
	}
	return s, nil
}

// options are the index options the snapshot was saved under.
func (s savedIndex) options() Options {
	return Options{
		Strategy:          s.Strategy,
		PageSize:          s.PageSize,
		BufferPages:       s.BufferPages,
		Epsilon:           s.Epsilon,
		DistanceThreshold: s.DistanceThreshold,
		ExpectedObjects:   s.ExpectedObjects,
	}
}

// buildFromSaved rebuilds the shared machinery from a decoded snapshot:
// page store, buffer pool, re-attached strategy and object table.
func buildFromSaved(s savedIndex) (indexParts, map[uint64]Point, error) {
	var parts indexParts
	opts := s.options()
	co, err := opts.coreOptions()
	if err != nil {
		return parts, nil, fmt.Errorf("burtree: load: %w", err)
	}
	io := &stats.IO{}
	freed := make([]pagestore.PageID, len(s.Freed))
	for i, f := range s.Freed {
		freed[i] = pagestore.PageID(f)
	}
	store, err := pagestore.NewFromDump(s.PageSize, s.Pages, freed, io)
	if err != nil {
		return parts, nil, fmt.Errorf("burtree: load: %w", err)
	}
	pool := buffer.New(store, s.BufferPages)
	dir := make([]rtree.PageID, len(s.HashDirectory))
	for i, p := range s.HashDirectory {
		dir[i] = rtree.PageID(p)
	}
	u, err := core.Restore(pool, co, core.RestoreState{
		Root:          rtree.PageID(s.Root),
		Height:        s.Height,
		Size:          s.Size,
		HashDirectory: dir,
		HashSize:      s.HashSize,
	})
	if err != nil {
		return parts, nil, fmt.Errorf("burtree: load: %w", err)
	}
	objects := s.Objects
	if objects == nil {
		objects = make(map[uint64]Point)
	}
	return indexParts{store: store, pool: pool, io: io, u: u, opts: opts}, objects, nil
}

// decodeSavedSharded decodes and sanity-checks a sharded snapshot body.
func decodeSavedSharded(br *bufio.Reader) (savedSharded, error) {
	var s savedSharded
	if err := gob.NewDecoder(br).Decode(&s); err != nil {
		return s, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if s.Format != shardedFormat {
		return s, fmt.Errorf("%w: sharded snapshot format %d, this version reads format %d", ErrBadSnapshot, s.Format, shardedFormat)
	}
	if len(s.Blobs) != s.Shards {
		return s, fmt.Errorf("%w: manifest declares %d shards but snapshot carries %d", ErrBadSnapshot, s.Shards, len(s.Blobs))
	}
	if s.Counts != nil && len(s.Counts) != s.Shards {
		return s, fmt.Errorf("%w: manifest carries %d shard counts for %d shards", ErrBadSnapshot, len(s.Counts), s.Shards)
	}
	for i, c := range s.Counts {
		if c < 0 {
			return s, fmt.Errorf("%w: shard %d declares negative object count %d", ErrBadSnapshot, i, c)
		}
	}
	// Load opens a fresh index under these options, so refuse them here as
	// outside input rather than there.
	o := s.Options
	o.PageSize = cmp.Or(o.PageSize, pagestore.DefaultPageSize)
	if _, err := o.coreOptions(); err != nil {
		return s, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	// Loaders are not log- or memtable-aware: drop any durability or
	// delta-tier config the manifest carried (Recover re-attaches logs and
	// re-enables the tier explicitly).
	s.Options.Durability = Durability{}
	s.Options.Memtable = Memtable{}
	return s, nil
}

// decodeShard decodes shard i's blob of a sharded snapshot — a complete
// single-tree snapshot — and verifies it against the manifest's declared
// object count (skipped for pre-count snapshots, whose manifests carry
// no Counts).
func decodeShard(s savedSharded, i int) (savedIndex, error) {
	br := bufio.NewReader(bytes.NewReader(s.Blobs[i]))
	magic, err := readMagic(br)
	if err != nil {
		return savedIndex{}, fmt.Errorf("burtree: load shard %d: %w", i, err)
	}
	if magic != snapshotMagic {
		return savedIndex{}, fmt.Errorf("%w: shard %d blob has wrong magic", ErrBadSnapshot, i)
	}
	dec, err := decodeSavedIndex(br)
	if err != nil {
		return dec, fmt.Errorf("burtree: load shard %d: %w", i, err)
	}
	if s.Counts != nil && len(dec.Objects) != s.Counts[i] {
		return dec, fmt.Errorf("%w: shard %d blob holds %d objects, manifest declares %d", ErrBadSnapshot, i, len(dec.Objects), s.Counts[i])
	}
	return dec, nil
}

// mergedObjects collects the object sets of every shard blob without
// rebuilding the shard trees, verifying that no object appears twice.
func mergedObjects(s savedSharded) (map[uint64]Point, error) {
	merged := make(map[uint64]Point)
	for i := range s.Blobs {
		dec, err := decodeShard(s, i)
		if err != nil {
			return nil, err
		}
		for id, p := range dec.Objects {
			if _, dup := merged[id]; dup {
				return nil, fmt.Errorf("%w: object %d present in multiple shards", ErrBadSnapshot, id)
			}
			merged[id] = p
		}
	}
	return merged, nil
}

// mergeInto bulk-loads the union of a sharded snapshot's objects into a
// freshly opened front-end (ids in ascending order, so the merge is
// deterministic).
func mergeInto(s savedSharded, bulk func(ids []uint64, pts []Point) error) error {
	objects, err := mergedObjects(s)
	if err != nil {
		return err
	}
	ids := make([]uint64, 0, len(objects))
	for id := range objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	pts := make([]Point, len(ids))
	for i, id := range ids {
		pts[i] = objects[id]
	}
	return bulk(ids, pts)
}

// load reconstructs an index of kind k from a Save snapshot; it is the one
// place that understands the envelope. A snapshot of k's own layout
// restores identically to the original: same pages, same strategy, same
// object table, same partitioning (the main-memory summary structure is
// rebuilt by one tree walk per stack). A single-stack kind merges a
// sharded snapshot: the union of the shards' objects is bulk-loaded into
// one fresh tree under the manifest's options. The sharded kind refuses a
// single-tree snapshot.
func load(r io.Reader, k kind) (*index, error) {
	br := bufio.NewReader(r)
	magic, err := readMagic(br)
	if err != nil {
		return nil, err
	}
	switch {
	case magic == snapshotMagic && !k.sharded():
		s, err := decodeSavedIndex(br)
		if err != nil {
			return nil, err
		}
		parts, objects, err := buildFromSaved(s)
		if err != nil {
			return nil, err
		}
		router, err := shard.NewGrid(1)
		if err != nil {
			return nil, err
		}
		x := newIndex(k, router, parts.opts, single, objects)
		x.shards, x.walSeq = []*treeStack{newStack(parts, k.background())}, s.WALSeq
		return x, nil
	case magic == snapshotMagic:
		return nil, fmt.Errorf("burtree: LoadSharded: single-tree snapshot; load it with Load or LoadConcurrent and BulkInsert into a new sharded index")
	case magic != shardedMagic:
		return nil, fmt.Errorf("%w: unrecognized magic %q", ErrBadSnapshot, magic[:])
	}
	s, err := decodeSavedSharded(br)
	if err != nil {
		return nil, err
	}
	if !k.sharded() {
		x, err := open(s.Options, single, k)
		if err != nil {
			return nil, err
		}
		err = mergeInto(s, func(ids []uint64, pts []Point) error {
			return x.BulkInsert(ids, pts, PackSTR)
		})
		if err != nil {
			return nil, err
		}
		return x, nil
	}
	router, err := shard.FromSpec(shard.Spec{
		Scheme: shard.Scheme(s.Scheme),
		Shards: s.Shards,
		GridX:  s.GridX,
		GridY:  s.GridY,
		Bounds: s.Bounds,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	shards := make([]*treeStack, s.Shards)
	objects := make(map[uint64]Point)
	for i := range s.Blobs {
		dec, err := decodeShard(s, i)
		if err != nil {
			return nil, err
		}
		parts, part, err := buildFromSaved(dec)
		if err != nil {
			return nil, fmt.Errorf("burtree: load shard %d: %w", i, err)
		}
		shards[i] = newStack(parts, k.background())
		for id, p := range part {
			if _, dup := objects[id]; dup {
				return nil, fmt.Errorf("%w: object %d present in multiple shards", ErrBadSnapshot, id)
			}
			if owner := router.ShardOf(p); owner != i {
				return nil, fmt.Errorf("%w: object %d at %v stored in shard %d but routes to %d", ErrBadSnapshot, id, p, i, owner)
			}
			objects[id] = p
		}
	}
	scheme := ShardGrid
	if shard.Scheme(s.Scheme) == shard.HilbertRange {
		scheme = ShardHilbert
	}
	x := newIndex(k, router, s.Options, ShardOptions{Shards: s.Shards, Partition: scheme}, objects)
	x.shards, x.walSeq, x.routerEpoch = shards, s.WALSeq, s.RouterEpoch
	return x, nil
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

// Load reconstructs an index from a Save snapshot. A single-tree
// snapshot restores identically to the original; a sharded snapshot is
// merged into one tree under the manifest's options.
//
// A snapshot saved while Options still offered LevelThreshold,
// ReinsertFraction and SplitAlgorithm loads under their defaults (λ
// unrestricted, reinsertion 0.3, quadratic split), whatever it was saved
// with. Those settings only steer future splits and ascents: the tree
// they built is a valid R-tree and is restored page for page. A page size
// the strategy's tree cannot use fails with ErrBadSnapshot, as any other
// malformed input does.
func Load(r io.Reader) (*Index, error) {
	return front[Index](load(r, kindIndex))
}

// LoadFile reads an index snapshot from a file.
func LoadFile(path string) (*Index, error) {
	return front[Index](loadFile(path, kindIndex))
}

// LoadConcurrent reconstructs a ConcurrentIndex from a Save snapshot.
// Snapshots are interchangeable between the front-ends: a single-tree
// snapshot written by an Index restores directly, and a sharded
// snapshot is merged into one tree exactly as Load does.
func LoadConcurrent(r io.Reader) (*ConcurrentIndex, error) {
	return front[ConcurrentIndex](load(r, kindConcurrent))
}

// LoadConcurrentFile reads a snapshot from a file into a
// ConcurrentIndex.
func LoadConcurrentFile(path string) (*ConcurrentIndex, error) {
	return front[ConcurrentIndex](loadFile(path, kindConcurrent))
}

// LoadSharded reconstructs a ShardedIndex from a sharded snapshot,
// restoring the saved partitioning (scheme, shard count and range
// boundaries) and every shard's tree exactly. Single-tree snapshots are
// rejected: load those through Load or LoadConcurrent, then BulkInsert
// into a fresh sharded index to re-partition.
func LoadSharded(r io.Reader) (*ShardedIndex, error) {
	return front[ShardedIndex](load(r, kindSharded))
}

// LoadShardedFile reads a sharded snapshot from a file.
func LoadShardedFile(path string) (*ShardedIndex, error) {
	return front[ShardedIndex](loadFile(path, kindSharded))
}
