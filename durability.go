package burtree

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

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
	// append their records and piggyback on one shared fsync — those
	// that arrive while a sync is in flight are covered by the next one —
	// so the durable write path stays O(1) amortized per update. When a
	// call returns, a sync covering its record has completed — the
	// guarantee is the same as DurabilityBatch, only the syncs are shared.
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
// Every index keeps one log per stack, in its own directory
// (Dir/shard-NNN: Dir/shard-000 alone for Index and ConcurrentIndex), and
// its checkpoint snapshot in Dir/snapshot.burtree, so the three
// front-ends' directories have one layout: Index, ConcurrentIndex and a
// one-shard ShardedIndex recover each other's. The logs of a ShardedIndex
// share no fsync, lock or buffer — their records carry sequences from one
// shared atomic counter, so recovery merges the per-shard streams back
// into a single total order. Log segments directly under Dir are the
// layout of earlier versions, which this one refuses rather than skips:
// Open reports them as ErrExistingState and Recover as ErrRecovery.
type Durability struct {
	// Mode selects the commit policy; DurabilityOff disables logging.
	Mode DurabilityMode
	// Dir is where the log segments and the checkpoint snapshot live.
	// Required when Mode is not DurabilityOff.
	Dir string
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
		Sync:       sync,
		NextSeq:    nextSeq,
		StartAfter: startAfter,
	}
}

// snapshotFileName is the checkpoint snapshot inside Durability.Dir.
const snapshotFileName = "snapshot.burtree"

// ErrRecovery reports that crash recovery could not replay the log tail
// onto the snapshot. The index state on disk is left untouched. A
// snapshot recovery cannot load also wraps the load's error, so a
// refused one is ErrBadSnapshot as well.
var ErrRecovery = errors.New("burtree: recovery failed")

// ErrExistingState reports an Open with durability enabled on a
// directory that already holds a snapshot or log segments; opening
// fresh would shadow (and eventually truncate) real data. Use Recover
// to resume from it, or point Dir at an empty directory.
var ErrExistingState = errors.New("burtree: durability dir already holds state; use Recover")

// logSegments is the one probe of a durability directory: every log
// segment in it, in the stacks' directories or — the layout of earlier
// versions — directly under it.
func logSegments(dir string) ([]string, error) {
	top, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	stacks, err := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.seg"))
	return append(top, stacks...), err
}

// checkFreshDir validates that an Open with durability enabled targets
// a directory without prior durable state: no snapshot, and no log
// segments.
func checkFreshDir(dir string) error {
	_, err := os.Stat(filepath.Join(dir, snapshotFileName))
	has := err == nil
	if os.IsNotExist(err) {
		var segs []string
		segs, err = logSegments(dir)
		has = len(segs) > 0
	}
	switch {
	case has:
		return fmt.Errorf("%w: %s", ErrExistingState, dir)
	case err != nil:
		return fmt.Errorf("burtree: durability dir: %w", err)
	}
	return nil
}

// replayRecords applies a sequence-ordered record stream through the
// one write pipeline, each record as the write of the kind it was logged
// by (with logging detached, so replay does not re-log itself). Any apply
// failure aborts with ErrRecovery: a record that was acknowledged against
// the pre-crash state must apply cleanly onto the snapshot plus the
// records before it, so a failure means the log and snapshot disagree.
func replayRecords(a *index, recs []wal.Record) error {
	for _, r := range recs {
		k := slices.Index(logTypes[:], r.Type)
		var err error
		switch {
		case k < 0:
			err = fmt.Errorf("unknown record type %d", r.Type)
		case opKind(k) != opMove && len(r.Ops) != 1:
			err = fmt.Errorf("record of type %d carries %d ops", r.Type, len(r.Ops))
		default:
			changes := make([]Change, len(r.Ops))
			for i, op := range r.Ops {
				changes[i] = Change{ID: op.ID, To: Point{X: op.X, Y: op.Y}}
			}
			_, err = a.write(opKind(k), changes)
		}
		if err != nil {
			return fmt.Errorf("%w: replaying record %d: %v", ErrRecovery, r.Seq, err)
		}
	}
	return nil
}

// recoverIndex rebuilds an index of kind k from its durability directory:
// the latest checkpoint snapshot (if one exists; it carries the saved
// partitioning, and its embedded options win, as with Load) or else an
// empty index under opts and sopts, plus a replay of the log tails —
// merged back into one total order by their shared sequence counter —
// through the batched update path: exactly the acknowledged prefix the
// configured sync policy made durable. The returned index continues
// logging to the same directory, one log per stack.
func recoverIndex(opts Options, sopts ShardOptions, k kind) (*index, error) {
	d := opts.Durability
	if err := d.validate(); err != nil {
		return nil, err
	}
	if err := sopts.check(); err != nil {
		return nil, err
	}
	if !d.enabled() {
		return nil, fmt.Errorf("burtree: %s requires a durability mode", k.recoverName())
	}
	segs, err := logSegments(d.Dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRecovery, err)
	}

	// The snapshot, or else an empty index — with durability stripped (the
	// logs are attached after the replay, so it does not re-log itself).
	var x *index
	snapPath := filepath.Join(d.Dir, snapshotFileName)
	if _, serr := os.Stat(snapPath); serr == nil {
		if x, err = loadFile(snapPath, k); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrRecovery, err)
		}
	} else if !os.IsNotExist(serr) {
		return nil, fmt.Errorf("%w: %v", ErrRecovery, serr)
	} else {
		fresh := opts
		fresh.Durability = Durability{}
		if x, err = open(fresh, ShardOptions{Shards: sopts.Shards}, k); err != nil {
			return nil, err
		}
	}

	// Like Durability, the delta tier is the caller's runtime choice, not
	// snapshot state: re-enable it (if asked for) before the replay, so the
	// log tails are absorbed exactly as the pre-crash writes were.
	x.options.Memtable = opts.Memtable
	tier := stackOptions(x.options, len(x.shards)).Memtable
	for _, s := range x.shards {
		s.ensureMemtable(tier)
	}
	if err := x.replayLogs(d, segs); err != nil {
		// The stacks' mergers and any log already opened stop with it.
		return nil, errors.Join(err, x.Close())
	}
	x.options.Durability = d
	return x, nil
}

// replayLogs is the tail of recoverIndex, on the index it built: the log
// tails in d are read, merged into one sequence order and replayed, and
// then one log per stack is opened to continue them. segs lists every
// segment the directory holds; each must lie in the log directory of a
// stack being restored, or its acked records would never be replayed.
func (x *index) replayLogs(d Durability, segs []string) error {
	for _, seg := range segs {
		var i int
		dir := filepath.Dir(seg)
		if _, err := fmt.Sscanf(filepath.Base(dir), "shard-%d", &i); err != nil || dir != logDir(d.Dir, i) {
			// Segments directly under Dir: the layout of earlier versions.
			return fmt.Errorf("%w: log segment %s lies outside every stack's log directory (Dir/shard-NNN): an earlier version's layout, which this one does not read",
				ErrRecovery, seg)
		}
		if i >= len(x.shards) {
			// A crashed instance with more stacks and no checkpoint yet.
			return fmt.Errorf("%w: log directory %s exceeds the %d shards being restored (recover with RecoverSharded and the original shard count)",
				ErrRecovery, dir, len(x.shards))
		}
	}
	var all []wal.Record
	for i := range x.shards {
		recs, _, err := wal.ReadDir(logDir(d.Dir, i), x.walSeq)
		if err != nil {
			return fmt.Errorf("%w: log %d: %v", ErrRecovery, i, err)
		}
		all = append(all, recs...)
	}
	slices.SortFunc(all, func(a, b wal.Record) int { return cmp.Compare(a.Seq, b.Seq) })
	for i := 1; i < len(all); i++ {
		if all[i].Seq == all[i-1].Seq {
			return fmt.Errorf("%w: sequence %d appears in two logs", ErrRecovery, all[i].Seq)
		}
	}
	if err := replayRecords(x, all); err != nil {
		return err
	}
	maxSeq := x.walSeq
	if n := len(all); n > 0 {
		maxSeq = all[n-1].Seq
	}
	return x.openLogs(d, maxSeq)
}

// Recover rebuilds an Index from its durability directory: the latest
// checkpoint snapshot (if one exists) plus a replay of the log tail
// through the batched update path, exactly the acknowledged prefix the
// configured sync policy made durable. The options are used as given
// when no snapshot exists yet (an empty or never-checkpointed
// directory); otherwise the snapshot's embedded options win, as with
// Load. The directory may be that of any one-stack index — an Index, a
// ConcurrentIndex or a one-shard ShardedIndex; one holding the logs of
// more shards fails with ErrRecovery, since one stack would leave their
// records unread. The returned index continues logging to the same
// directory.
func Recover(opts Options) (*Index, error) {
	return front[Index](recoverIndex(opts, single, kindIndex))
}

// RecoverConcurrent rebuilds a ConcurrentIndex from its durability
// directory, exactly as Recover does for an Index.
func RecoverConcurrent(opts Options) (*ConcurrentIndex, error) {
	return front[ConcurrentIndex](recoverIndex(opts, single, kindConcurrent))
}

// RecoverSharded rebuilds a ShardedIndex from its durability directory:
// the latest checkpoint snapshot (which carries the saved partitioning)
// plus the per-shard log tails merged back into one total order by
// their shared sequence counter and replayed through the sharded update
// path. With no snapshot yet, the index starts from opts/sopts as
// OpenSharded would. The directory may be any front-end's: a snapshot of
// one stack restores as one shard. The returned index continues logging,
// one log per shard.
func RecoverSharded(opts Options, sopts ShardOptions) (*ShardedIndex, error) {
	return front[ShardedIndex](recoverIndex(opts, sopts, kindSharded))
}
