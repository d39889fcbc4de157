package burtree

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"burtree/internal/wal"
)

// DurabilityMode selects how updates are made crash-safe.
type DurabilityMode int

const (
	// DurabilityOff disables the write-ahead log entirely (the default).
	// The index is volatile between explicit SaveFile snapshots.
	DurabilityOff DurabilityMode = iota
	// DurabilityBatch fsyncs the log once per acknowledged operation
	// (per update, per batch): when a call returns, its changes are on
	// disk. The durable baseline — every commit pays a device sync.
	DurabilityBatch
	// DurabilityGroup enables group commit: concurrent committers
	// append their records and piggyback on one shared fsync, so the
	// durable write path stays O(1) amortized per update. When a call
	// returns, a sync covering its record has completed — the guarantee
	// is the same as DurabilityBatch, only the syncs are shared.
	DurabilityGroup
)

func (m DurabilityMode) String() string {
	switch m {
	case DurabilityOff:
		return "off"
	case DurabilityBatch:
		return "per-batch"
	case DurabilityGroup:
		return "group-commit"
	default:
		return fmt.Sprintf("DurabilityMode(%d)", int(m))
	}
}

// Durability configures crash safety. With a Mode other than
// DurabilityOff, every acknowledged insert, delete, update and batched
// update is appended to a segmented, checksummed, redo-only write-ahead
// log under Dir before the call returns; Checkpoint writes an atomic
// snapshot and truncates the log; Recover (or RecoverConcurrent /
// RecoverSharded) rebuilds the index after a crash by loading the
// latest snapshot and replaying the log tail through the batched
// update path.
//
// A ShardedIndex gives each shard its own log (Dir/shard-NNN) so commit
// streams share no fsync, lock or buffer — their records carry
// sequences from one shared atomic counter, so recovery merges the
// per-shard streams back into a single total order.
type Durability struct {
	// Mode selects the commit policy; DurabilityOff disables logging.
	Mode DurabilityMode
	// Dir is where the log segments and the checkpoint snapshot live.
	// Required when Mode is not DurabilityOff.
	Dir string
	// GroupWindow is how long a group-commit sync leader waits for
	// concurrent committers to pile on before issuing the shared fsync
	// (DurabilityGroup only). Zero still piggybacks naturally:
	// committers that arrive while a sync is in flight are covered by
	// the next one. Larger windows trade commit latency for fewer
	// device syncs.
	GroupWindow time.Duration
}

// enabled reports whether the configuration asks for logging.
func (d Durability) enabled() bool { return d.Mode != DurabilityOff }

// validate checks an enabled configuration.
func (d Durability) validate() error {
	switch d.Mode {
	case DurabilityOff, DurabilityBatch, DurabilityGroup:
	default:
		return fmt.Errorf("burtree: unknown durability mode %d", int(d.Mode))
	}
	if d.enabled() && d.Dir == "" {
		return errors.New("burtree: durability requires Options.Durability.Dir")
	}
	return nil
}

// logOptions converts the public config to wal options.
func (d Durability) logOptions(startAfter uint64, nextSeq func() uint64) wal.Options {
	sync := wal.SyncEach
	if d.Mode == DurabilityGroup {
		sync = wal.SyncGroup
	}
	return wal.Options{
		Sync:        sync,
		GroupWindow: d.GroupWindow,
		NextSeq:     nextSeq,
		StartAfter:  startAfter,
	}
}

// snapshotFileName is the checkpoint snapshot inside Durability.Dir.
const snapshotFileName = "snapshot.burtree"

// shardLogDir returns shard i's log directory under the durability dir.
func shardLogDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// ErrRecovery reports that crash recovery could not replay the log tail
// onto the snapshot. The index state on disk is left untouched.
var ErrRecovery = errors.New("burtree: recovery failed")

// ErrExistingState reports an Open with durability enabled on a
// directory that already holds a snapshot or log segments; opening
// fresh would shadow (and eventually truncate) real data. Use Recover
// to resume from it, or point Dir at an empty directory.
var ErrExistingState = errors.New("burtree: durability dir already holds state; use Recover")

// hasDurableState reports whether dir holds a snapshot or log segments
// (top-level or per-shard).
func hasDurableState(dir string) (bool, error) {
	if _, err := os.Stat(filepath.Join(dir, snapshotFileName)); err == nil {
		return true, nil
	} else if !os.IsNotExist(err) {
		return false, err
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return false, err
	}
	if len(segs) > 0 {
		return true, nil
	}
	shardSegs, err := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.seg"))
	if err != nil {
		return false, err
	}
	return len(shardSegs) > 0, nil
}

// shardLogSegments lists per-shard log segments under dir.
func shardLogSegments(dir string) []string {
	segs, _ := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.seg"))
	return segs
}

// topLogSegments lists top-level (single-index) log segments under dir.
func topLogSegments(dir string) []string {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	return segs
}

// checkFreshDir validates that an Open with durability enabled targets
// a directory without prior durable state.
func checkFreshDir(dir string) error {
	has, err := hasDurableState(dir)
	if err != nil {
		return fmt.Errorf("burtree: durability dir: %w", err)
	}
	if has {
		return fmt.Errorf("%w: %s", ErrExistingState, dir)
	}
	return nil
}

// applier is the mutation surface shared by the three front-ends,
// used to replay log records during recovery (with logging detached,
// so replay does not re-log itself).
type applier interface {
	Insert(id uint64, p Point) error
	Delete(id uint64) error
	UpdateBatch(changes []Change) (BatchResult, error)
}

// replayRecords applies a sequence-ordered record stream. Any apply
// failure aborts with ErrRecovery: a record that was acknowledged
// against the pre-crash state must apply cleanly onto the snapshot
// plus the records before it, so a failure means the log and snapshot
// disagree.
func replayRecords(a applier, recs []wal.Record) error {
	for _, r := range recs {
		var err error
		switch r.Type {
		case wal.TypeInsert:
			if len(r.Ops) != 1 {
				err = fmt.Errorf("insert record carries %d ops", len(r.Ops))
				break
			}
			err = a.Insert(r.Ops[0].ID, Point{X: r.Ops[0].X, Y: r.Ops[0].Y})
		case wal.TypeDelete:
			if len(r.Ops) != 1 {
				err = fmt.Errorf("delete record carries %d ops", len(r.Ops))
				break
			}
			err = a.Delete(r.Ops[0].ID)
		case wal.TypeBatch:
			changes := make([]Change, len(r.Ops))
			for i, op := range r.Ops {
				changes[i] = Change{ID: op.ID, To: Point{X: op.X, Y: op.Y}}
			}
			_, err = a.UpdateBatch(changes)
		default:
			err = fmt.Errorf("unknown record type %d", r.Type)
		}
		if err != nil {
			return fmt.Errorf("%w: replaying record %d: %v", ErrRecovery, r.Seq, err)
		}
	}
	return nil
}

// loadOrFresh is the snapshot-or-empty step of recovery: it loads the
// checkpoint snapshot when one exists and opens an empty index
// (durability stripped; the caller attaches the log) otherwise.
func loadOrFresh[T any](opts Options, loadSnap func(string) (T, error), open func(Options) (T, error)) (T, error) {
	var zero T
	snapPath := filepath.Join(opts.Durability.Dir, snapshotFileName)
	if _, err := os.Stat(snapPath); err == nil {
		idx, err := loadSnap(snapPath)
		if err != nil {
			return zero, fmt.Errorf("%w: %v", ErrRecovery, err)
		}
		return idx, nil
	} else if !os.IsNotExist(err) {
		return zero, fmt.Errorf("%w: %v", ErrRecovery, err)
	}
	fresh := opts
	fresh.Durability = Durability{}
	return open(fresh)
}

// recoverEngine rebuilds an engine from its durability directory, under
// Recover and RecoverConcurrent (caller names the one in use).
func recoverEngine(opts Options, caller string, background bool) (*engine, error) {
	d := opts.Durability
	if err := d.validate(); err != nil {
		return nil, err
	}
	if !d.enabled() {
		return nil, fmt.Errorf("burtree: %s requires a durability mode", caller)
	}
	load := func(r io.Reader) (*engine, error) { return loadEngine(r, background) }
	e, err := loadOrFresh(opts,
		func(path string) (*engine, error) { return loadFile(path, load) },
		func(o Options) (*engine, error) { return openEngine(o, background) })
	if err != nil {
		return nil, err
	}
	// Like Durability, the delta tier is the caller's runtime choice,
	// not snapshot state: re-enable it (if asked for) before the replay,
	// so the log tail is absorbed exactly as the pre-crash writes were.
	e.ensureMemtable(opts.Memtable)
	// A directory holding per-shard logs belongs to a ShardedIndex:
	// refusing it here keeps a mistaken Recover / RecoverConcurrent from
	// silently dropping the acked records in the shard logs (the
	// top-level scan would never see them).
	if segs := shardLogSegments(d.Dir); len(segs) > 0 {
		return nil, fmt.Errorf("%w: %s holds per-shard logs; recover it with RecoverSharded", ErrRecovery, d.Dir)
	}
	recs, _, err := wal.ReadDir(d.Dir, e.walSeq)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRecovery, err)
	}
	// The log is attached only after the replay, so replay does not
	// re-log itself.
	if err := replayRecords(e, recs); err != nil {
		return nil, err
	}
	e.wal, err = wal.Open(d.Dir, d.logOptions(e.walSeq, nil))
	if err != nil {
		return nil, err
	}
	e.options.Durability = d
	return e, nil
}

// Recover rebuilds an Index from its durability directory: the latest
// checkpoint snapshot (if one exists) plus a replay of the log tail
// through the batched update path, exactly the acknowledged prefix the
// configured sync policy made durable. The options are used as given
// when no snapshot exists yet (an empty or never-checkpointed
// directory); otherwise the snapshot's embedded options win, as with
// Load. The returned index continues logging to the same directory.
func Recover(opts Options) (*Index, error) {
	e, err := recoverEngine(opts, "Recover", false)
	if err != nil {
		return nil, err
	}
	return &Index{e}, nil
}

// RecoverConcurrent rebuilds a ConcurrentIndex from its durability
// directory, exactly as Recover does for an Index.
func RecoverConcurrent(opts Options) (*ConcurrentIndex, error) {
	e, err := recoverEngine(opts, "RecoverConcurrent", true)
	if err != nil {
		return nil, err
	}
	return &ConcurrentIndex{e}, nil
}

// RecoverSharded rebuilds a ShardedIndex from its durability directory:
// the latest checkpoint snapshot (which carries the saved partitioning)
// plus the per-shard log tails merged back into one total order by
// their shared sequence counter and replayed through the sharded update
// path. With no snapshot yet, the index starts from opts/sopts as
// OpenSharded would. The returned index continues logging, one log per
// shard.
func RecoverSharded(opts Options, sopts ShardOptions) (*ShardedIndex, error) {
	d := opts.Durability
	if err := d.validate(); err != nil {
		return nil, err
	}
	if !d.enabled() {
		return nil, errors.New("burtree: RecoverSharded requires a durability mode")
	}
	// A fresh (never-checkpointed) index opens with the partitioning only:
	// the rebalancer is applied last, below, so its background loop never
	// races the replay.
	x, err := loadOrFresh(opts, LoadShardedFile, func(o Options) (*ShardedIndex, error) {
		return OpenSharded(o, ShardOptions{Shards: sopts.Shards, Partition: sopts.Partition})
	})
	if err != nil {
		return nil, err
	}

	// Refuse to recover past acked data this scan would never see:
	// top-level segments belong to a single-index log (use Recover),
	// and shard directories beyond the count being restored belong to a
	// crashed instance with more shards and no checkpoint yet.
	if segs := topLogSegments(d.Dir); len(segs) > 0 {
		return nil, fmt.Errorf("%w: %s holds a single-index log; recover it with Recover or RecoverConcurrent", ErrRecovery, d.Dir)
	}
	for _, seg := range shardLogSegments(d.Dir) {
		var i int
		if _, err := fmt.Sscanf(filepath.Base(filepath.Dir(seg)), "shard-%d", &i); err == nil && i >= len(x.shards) {
			return nil, fmt.Errorf("%w: log directory %s exceeds the %d shards being restored (recover with the original shard count)",
				ErrRecovery, filepath.Dir(seg), len(x.shards))
		}
	}

	// Re-enable the per-shard delta tiers (the caller's runtime choice,
	// as with Durability) before the replay, so the log tails are
	// absorbed exactly as the pre-crash writes were.
	x.ensureMemtable(opts.Memtable)

	var all []wal.Record
	maxSeq := x.walSeq
	for i := range x.shards {
		recs, _, err := wal.ReadDir(shardLogDir(d.Dir, i), x.walSeq)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d log: %v", ErrRecovery, i, err)
		}
		all = append(all, recs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	for i := 1; i < len(all); i++ {
		if all[i].Seq == all[i-1].Seq {
			return nil, fmt.Errorf("%w: sequence %d appears in two shard logs", ErrRecovery, all[i].Seq)
		}
	}
	if err := replayRecords(x, all); err != nil {
		return nil, err
	}
	if n := len(all); n > 0 {
		maxSeq = all[n-1].Seq
	}

	if err := x.openLogs(d, maxSeq); err != nil {
		return nil, err
	}
	x.options.Durability = d
	// Rebalancing, like the delta tier, is the caller's runtime choice
	// rather than snapshot state: apply it last so the background loop
	// never races the replay.
	x.SetRebalance(sopts.Rebalance)
	return x, nil
}
