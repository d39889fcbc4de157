// Package wal implements the write-ahead log behind the index's
// durability modes: a segmented, checksummed, redo-only log of applied
// changes. Unlike the page store — which simulates a disk to reproduce
// the paper's I/O counts — the log writes real files: together with an
// atomically written snapshot it is the crash-consistency story of the
// index, the way the LSM-based R-tree follow-up work gets durability
// for update-intensive spatial data (log small deltas, never rewrite
// structure on the commit path).
//
// A record is one applied operation (an insert, a delete, or a batch of
// coalesced moves) framed as
//
//	[length u32][crc32c u32][seq u64][type u8][count u32][count × (id u64, x f64, y f64)]
//
// with the checksum covering everything after the crc field. Records
// carry absolute positions, so replay is order-sensitive but
// state-idempotent: re-applying a move lands the object where it
// already is.
//
// Commit policies:
//
//   - SyncEach fsyncs every append before returning — one device sync
//     per batch, the durable baseline.
//   - SyncGroup implements group commit: an appender publishes its
//     record and waits; one committer becomes the sync leader and issues
//     a single fsync covering every record appended so far. Committers
//     that append while that sync is in flight are covered by the next
//     one, so concurrent committers piggyback on one device sync without
//     the leader ever waiting for them, which is what keeps the durable
//     write path O(1) amortized per update.
//
// The reader replays the longest valid prefix: a torn or corrupt record
// ends the log (crash semantics — everything before it is intact,
// everything after was never acknowledged under the sync policy).
//
// A failed write, fsync, truncate or close stops the call that met it:
// the call returns the error, and a failed fsync poisons the log, so it
// appends nothing more and no later commit reports success. Every
// segment and directory is opened, written, synced, truncated and closed
// through the file seam, internal/vfs (Options.FS); the package's fault
// enumeration (faults_test.go) fails each such call of its scenarios in
// turn.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"burtree/internal/atomicfile"
	"burtree/internal/vfs"
)

// Type discriminates log records.
type Type uint8

const (
	// TypeInsert is a single object insertion (one op).
	TypeInsert Type = 1
	// TypeDelete is a single object deletion (one op; position unused).
	TypeDelete Type = 2
	// TypeBatch is a batch of coalesced moves (one op per object, each
	// carrying the object's final position).
	TypeBatch Type = 3
)

// Op is one object in a record: an id plus a position.
type Op struct {
	ID   uint64
	X, Y float64
}

// Record is one decoded log record.
type Record struct {
	Seq  uint64
	Type Type
	Ops  []Op
}

// SyncPolicy selects when Append is durable.
type SyncPolicy int

const (
	// SyncEach fsyncs every record before Append returns.
	SyncEach SyncPolicy = iota
	// SyncGroup batches concurrent commits onto one fsync (group
	// commit); Append returns once a sync covering its record completed.
	SyncGroup
)

// Options configures a Log.
type Options struct {
	// Sync is the commit policy.
	Sync SyncPolicy
	// SegmentBytes caps a segment file; the log rotates past it
	// (default 16 MiB).
	SegmentBytes int64
	// NextSeq, when set, assigns record sequence numbers from an
	// external source (the sharded index shares one atomic counter
	// across its per-shard logs so their streams merge into one total
	// order). It is called with the log's append latch held and must
	// return globally increasing values. Nil uses an internal counter.
	NextSeq func() uint64
	// StartAfter floors the internal sequence counter: new records get
	// sequences strictly greater than both it and anything found in the
	// directory. Recovery passes the snapshot's sequence so a truncated
	// log never re-issues sequences the snapshot already covers.
	StartAfter uint64
	// FS is the file system the log runs over; nil is vfs.OS. Tests set a
	// fault-injecting one.
	FS vfs.FS
}

const (
	defaultSegmentBytes = 16 << 20
	segPrefix           = "wal-"
	segSuffix           = ".seg"
	headerSize          = 8
	recHeaderSize       = 8       // length + crc
	maxRecordBody       = 1 << 26 // sanity bound on the length field
)

var segMagic = [headerSize]byte{'B', 'U', 'R', 'W', 'A', 'L', '0', '1'}

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log is closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only segmented log. It is safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex // append latch: file, buffer, sequence
	f        vfs.File
	buf      []byte // encode scratch
	segIdx   int    // index of the active segment
	segSize  int64  // bytes written to the active segment
	appended int64  // logical bytes appended across all segments
	lastSeq  uint64
	closed   bool

	gc groupCommit
}

// groupCommit tracks how far the log is durably synced, in logical
// bytes. Committers wait until syncedTo covers their record; one of
// them leads each sync round.
type groupCommit struct {
	mu       sync.Mutex
	cond     *sync.Cond
	syncedTo int64
	syncing  bool
	err      error // sticky: a failed fsync poisons the log

	// leaderWG joins the background leader goroutine: Close waits for it
	// (after releasing l.mu, which the leader's exit check needs) so the
	// log never outlives its owner with a sync loop still running.
	leaderWG sync.WaitGroup
}

// Open creates or re-opens the log in dir for appending. Existing
// segments are scanned; a torn or corrupt tail is truncated away (and
// any segments past the damage deleted) so the durable prefix that a
// reader would replay is exactly what the log continues from.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.FS == nil {
		opts.FS = vfs.OS
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	l.gc.cond = sync.NewCond(&l.gc.mu)
	l.lastSeq = opts.StartAfter

	segs, err := segments(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	// Scan for the valid prefix — exactly what ReadDir would replay: the
	// last good segment keeps its valid bytes, anything past the first
	// damage (which a reader would never reach) is dropped.
	keep := 0
	var tailEnd int64
	var prev uint64
	for i, seg := range segs {
		recs, end, damaged, err := scanSegment(opts.FS, seg.path, prev)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			prev = r.Seq
			if r.Seq > l.lastSeq {
				l.lastSeq = r.Seq
			}
		}
		keep, tailEnd = i+1, end
		if damaged {
			break
		}
	}
	for i := keep; i < len(segs); i++ {
		if err := os.Remove(segs[i].path); err != nil {
			return nil, fmt.Errorf("wal: dropping segment past damage: %w", err)
		}
	}
	if keep > 0 && tailEnd < headerSize {
		// The last surviving segment does not even hold a header (crash
		// during creation); replace it rather than appending headerless.
		if err := os.Remove(segs[keep-1].path); err != nil {
			return nil, fmt.Errorf("wal: dropping headerless segment: %w", err)
		}
		keep--
		if keep > 0 {
			// Re-open the previous (clean, fully scanned) segment.
			_, end, _, err := scanSegment(opts.FS, segs[keep-1].path, 0)
			if err != nil {
				return nil, err
			}
			tailEnd = end
		}
	}
	if keep > 0 {
		seg := segs[keep-1]
		f, err := opts.FS.OpenFile(seg.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if err := f.Truncate(tailEnd); err != nil {
			_ = f.Close() // error path: the preceding failure is the one to surface
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			_ = f.Close() // error path: the preceding failure is the one to surface
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.segIdx, l.segSize = f, seg.idx, tailEnd
		l.appended = tailEnd
	} else {
		if err := l.newSegmentLocked(1); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// segRef is one segment file in index order.
type segRef struct {
	idx  int
	path string
}

// segments lists the directory's segment files in index order.
func segments(fsys vfs.FS, dir string) ([]segRef, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segRef
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &idx); err != nil {
			continue
		}
		segs = append(segs, segRef{idx: idx, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	return segs, nil
}

// newSegmentLocked starts segment idx and writes its header. Caller
// holds l.mu (or owns the log exclusively during Open).
func (l *Log) newSegmentLocked(idx int) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix))
	f, err := l.opts.FS.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		_ = f.Close() // error path: the preceding failure is the one to surface
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // error path: the preceding failure is the one to surface
		return fmt.Errorf("wal: %w", err)
	}
	if err := atomicfile.SyncDir(l.opts.FS, l.dir); err != nil {
		_ = f.Close() // error path: the preceding failure is the one to surface
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.segIdx, l.segSize = f, idx, headerSize
	l.appended += headerSize
	return nil
}

// finishSync publishes a sync outcome to the group-commit state: on
// success the durable horizon lifts to covered, on failure the log is
// poisoned (a lost fsync means unknown bytes may be missing — no later
// commit may report success); either way waiters wake. Returns the
// sticky error.
func (l *Log) finishSync(covered int64, err error) error {
	l.gc.mu.Lock()
	if err != nil {
		if l.gc.err == nil { // the first failure is the cause
			l.gc.err = fmt.Errorf("wal: sync: %w", err)
		}
	} else if covered > l.gc.syncedTo {
		l.gc.syncedTo = covered
	}
	out := l.gc.err
	l.gc.cond.Broadcast()
	l.gc.mu.Unlock()
	return out
}

// rollbackTailLocked truncates the active segment back to the last
// good record boundary (l.segSize) after a failed record write and
// repositions the file offset there. Caller holds l.mu.
func (l *Log) rollbackTailLocked() error {
	if err := l.f.Truncate(l.segSize); err != nil {
		return err
	}
	_, err := l.f.Seek(l.segSize, io.SeekStart)
	return err
}

// rotateLocked finishes the active segment (fsync, close) and starts
// the next one. Everything appended so far is durable after the fsync,
// so the group-commit horizon lifts and waiters never fsync the closed
// file. A failed close or a next segment that cannot be started leaves
// l.f on a closed file, so either poisons the log with its cause: every
// later call reports it, not the closed file. Caller holds l.mu.
func (l *Log) rotateLocked() error {
	err := l.f.Sync()
	if serr := l.finishSync(l.appended, err); serr != nil {
		return serr
	}
	if err := l.f.Close(); err != nil {
		return l.finishSync(0, err)
	}
	if err := l.newSegmentLocked(l.segIdx + 1); err != nil {
		return l.finishSync(0, err)
	}
	return nil
}

// encodeRecord appends the framed record to dst and returns it.
func encodeRecord(dst []byte, seq uint64, typ Type, ops []Op) []byte {
	body := 8 + 1 + 4 + len(ops)*24
	dst = dst[:0]
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(body))
	dst = append(dst, u32[:]...)
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], seq)
	dst = append(dst, u64[:]...)
	dst = append(dst, byte(typ))
	binary.LittleEndian.PutUint32(u32[:], uint32(len(ops)))
	dst = append(dst, u32[:]...)
	for _, op := range ops {
		binary.LittleEndian.PutUint64(u64[:], op.ID)
		dst = append(dst, u64[:]...)
		binary.LittleEndian.PutUint64(u64[:], math.Float64bits(op.X))
		dst = append(dst, u64[:]...)
		binary.LittleEndian.PutUint64(u64[:], math.Float64bits(op.Y))
		dst = append(dst, u64[:]...)
	}
	crc := crc32.Checksum(dst[recHeaderSize:], castagnoli)
	binary.LittleEndian.PutUint32(dst[4:8], crc)
	return dst
}

// maxOpsPerRecord keeps every encoded record within maxRecordBody, so
// a record that was acknowledged can never be rejected as damage by
// the reader's length sanity bound.
const maxOpsPerRecord = (maxRecordBody - 13) / 24

// Append logs the ops as one record (split into several when they
// exceed the per-record size bound — the chunks stay adjacent and
// ordered) and returns once everything is durable under the configured
// policy. The last assigned sequence number is returned.
func (l *Log) Append(typ Type, ops []Op) (uint64, error) {
	seq, target, done, err := l.append(typ, ops)
	if done {
		return seq, err
	}
	return seq, l.waitSynced(target)
}

// append is what Append and AppendAsync share: the record(s) go out under
// l.mu and, under SyncEach, are synced in the same hold. It returns the
// last assigned sequence number and the post-append logical extent; done
// says the call is over — the append failed, or the sync has happened.
func (l *Log) append(typ Type, ops []Op) (seq uint64, target int64, done bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq, target, err = l.appendLocked(typ, ops); err != nil {
		return 0, 0, true, err
	}
	if l.opts.Sync != SyncEach {
		return seq, target, false, nil
	}
	return seq, target, true, l.finishSync(target, l.f.Sync())
}

// AppendAsync logs the ops like Append but does not wait for the bytes
// to reach disk under SyncGroup: it returns as soon as the record is in
// the OS buffer, after nudging a background group-commit leader that
// advances the durable horizon at the device's pace. The caller's
// durability window is therefore one group-sync cycle. Under SyncEach
// it is identical to Append — every record is synced before the call
// returns — so per-record-durability configurations keep their
// acked-implies-durable guarantee.
func (l *Log) AppendAsync(typ Type, ops []Op) (uint64, error) {
	seq, _, done, err := l.append(typ, ops)
	if done {
		return seq, err
	}
	l.kickSync()
	// Surface a sync failure that came after the write: the record is in
	// doubt, like any whose covering fsync failed.
	return seq, l.poisoned()
}

// poisoned returns the sticky error of a failed fsync, or nil.
func (l *Log) poisoned() error {
	l.gc.mu.Lock()
	defer l.gc.mu.Unlock()
	return l.gc.err
}

// appendLocked encodes and writes the ops, splitting into adjacent
// records as needed. Caller holds l.mu in all cases; on success the
// last assigned sequence number and the post-append logical extent are
// returned. A poisoned log writes nothing: a record refused after a
// failed fsync must not come back on replay, so only the records whose
// own fsync failed are in doubt.
func (l *Log) appendLocked(typ Type, ops []Op) (uint64, int64, error) {
	if l.closed {
		return 0, 0, ErrClosed
	}
	if err := l.poisoned(); err != nil {
		return 0, 0, err
	}
	var seq uint64
	rest := ops
	for {
		chunk := rest
		if len(chunk) > maxOpsPerRecord {
			chunk = chunk[:maxOpsPerRecord]
		}
		rest = rest[len(chunk):]
		if l.opts.NextSeq != nil {
			seq = l.opts.NextSeq()
		} else {
			seq = l.lastSeq + 1
		}
		l.buf = encodeRecord(l.buf, seq, typ, chunk)
		if l.segSize > headerSize && l.segSize+int64(len(l.buf)) > l.opts.SegmentBytes {
			if err := l.rotateLocked(); err != nil {
				return 0, 0, err
			}
		}
		if _, err := l.f.Write(l.buf); err != nil {
			// The write may have landed partially, leaving torn bytes at
			// the segment tail. Roll the file back to the last good record
			// boundary so later (acked) appends don't land beyond damage
			// that recovery would truncate at — and if even the rollback
			// fails, poison the log so no later append can claim
			// durability.
			if terr := l.rollbackTailLocked(); terr != nil {
				l.finishSync(0, fmt.Errorf("append failed (%v) and tail rollback failed: %w", err, terr))
			}
			return 0, 0, fmt.Errorf("wal: append: %w", err)
		}
		l.segSize += int64(len(l.buf))
		l.appended += int64(len(l.buf))
		l.lastSeq = seq
		if len(rest) == 0 {
			break
		}
	}
	return seq, l.appended, nil
}

// waitSynced blocks until the log is durably synced through target
// logical bytes, leading a group-commit sync round if nobody else is.
func (l *Log) waitSynced(target int64) error {
	g := &l.gc
	g.mu.Lock()
	for g.err == nil && g.syncedTo < target {
		if g.syncing {
			g.cond.Wait()
			continue
		}
		g.syncing = true
		g.mu.Unlock()

		l.syncRound()
		g.mu.Lock()
		g.syncing = false
		g.cond.Broadcast()
	}
	err := g.err
	g.mu.Unlock()
	return err
}

// syncRound is one group-commit sync: snapshot the appended extent,
// fsync, and publish the new durable horizon. Caller holds the
// gc.syncing leadership flag (not the mutexes).
func (l *Log) syncRound() {
	l.mu.Lock()
	f := l.f
	covered := l.appended
	closed := l.closed
	l.mu.Unlock()
	var err error
	if !closed {
		err = f.Sync()
		if errors.Is(err, os.ErrClosed) {
			// Rotation or Close took the file between our snapshot of
			// l.f and the fsync. Both fsync everything before closing,
			// so the bytes covered here (appended before our snapshot,
			// hence in that file) are already durable. os.File.Sync on
			// a closed handle is guarded internally — it never touches
			// a reused descriptor.
			err = nil
		}
	}
	l.finishSync(covered, err)
}

// kickSync starts a background group-commit leader unless a sync is
// already in flight. The leader keeps issuing rounds until the durable
// horizon covers every appended byte, so asynchronous appends are
// synced at the device's natural cadence without any committer
// blocking.
func (l *Log) kickSync() {
	g := &l.gc
	g.mu.Lock()
	if g.err != nil || g.syncing {
		g.mu.Unlock()
		return
	}
	g.syncing = true
	g.leaderWG.Add(1)
	g.mu.Unlock()
	go func() {
		defer g.leaderWG.Done()
		for {
			l.syncRound()
			// Exit check with both locks nested (l.mu before gc.mu, the
			// order finishSync already establishes): holding l.mu pins
			// appended, so an append that lands after our read will find
			// syncing == false when it kicks, and starts a new leader
			// rather than being stranded behind a stale exit decision.
			l.mu.Lock()
			appended := l.appended
			closed := l.closed
			g.mu.Lock()
			done := g.err != nil || closed || g.syncedTo >= appended
			if done {
				g.syncing = false
			}
			g.cond.Broadcast() // wake waiters the last round covered
			g.mu.Unlock()
			l.mu.Unlock()
			if done {
				return
			}
		}
	}()
}

// Sync forces everything appended so far to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.finishSync(l.appended, l.f.Sync())
}

// LastSeq returns the sequence of the last appended record (or the
// StartAfter floor if nothing was appended).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// TruncateThrough drops every record with sequence <= seq: the active
// segment is rotated out and every sealed segment whose records are all
// covered is deleted. Called after a checkpoint whose snapshot embeds
// seq, so the log only retains the tail the snapshot does not cover.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.segSize > headerSize {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	segs, err := segments(l.opts.FS, l.dir)
	if err != nil {
		return err
	}
	removed := false
	for _, s := range segs {
		if s.idx == l.segIdx {
			continue
		}
		recs, _, _, err := scanSegment(l.opts.FS, s.path, 0)
		if err != nil {
			return err
		}
		keep := false
		for _, r := range recs {
			if r.Seq > seq {
				keep = true
				break
			}
		}
		if keep {
			continue
		}
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		removed = true
	}
	if removed {
		if err := atomicfile.SyncDir(l.opts.FS, l.dir); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	return nil
}

// Close flushes, syncs and closes the log. Further appends fail. A
// failed final fsync poisons the group-commit state before waiters are
// woken, so a concurrent Append blocked on that sync reports the error
// instead of claiming durability (waitSynced's closed-file path relies
// on the close having synced successfully).
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	// Publish the sync outcome BEFORE closing the handle: a racing
	// group-commit leader whose fsync hits the closed file treats
	// os.ErrClosed as covered-by-the-closer, which is only sound if a
	// failed close-time sync has already poisoned the state it checks.
	serr := l.finishSync(l.appended, l.f.Sync())
	cerr := l.f.Close()
	l.mu.Unlock()
	// Join the group-commit leader outside l.mu (its exit check takes
	// that lock): it sees l.closed on its next round and terminates, and
	// waiting here keeps the loop from touching the log after Close
	// returns.
	l.gc.leaderWG.Wait()
	if serr != nil {
		return fmt.Errorf("wal: close: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: close: %w", cerr)
	}
	return nil
}

// ReadStats reports what a ReadDir scan found.
type ReadStats struct {
	// Records is the number of records returned (after the sequence
	// filter).
	Records int
	// Damaged reports that the scan ended at a torn or corrupt record
	// instead of a clean end of log; everything before it was returned.
	Damaged bool
}

// ReadDir replays the log in dir and returns, in order, every record
// with sequence strictly greater than afterSeq. The scan stops at the
// first torn or corrupt record (crash semantics: the valid prefix is
// the durable log); Damaged reports whether that happened. Records must
// be strictly increasing in sequence — a regression marks the log
// damaged at that point.
func ReadDir(dir string, afterSeq uint64) ([]Record, ReadStats, error) {
	var st ReadStats
	segs, err := segments(vfs.OS, dir)
	if err != nil {
		return nil, st, err
	}
	var out []Record
	var lastSeq uint64
	for _, seg := range segs {
		recs, _, damaged, err := scanSegment(vfs.OS, seg.path, lastSeq)
		if err != nil {
			return nil, st, err
		}
		for _, r := range recs {
			lastSeq = r.Seq
			if r.Seq > afterSeq {
				out = append(out, r)
			}
		}
		if damaged {
			st.Damaged = true
			break
		}
	}
	st.Records = len(out)
	return out, st, nil
}

// scanSegment decodes one segment file. It returns the records whose
// sequences are strictly increasing from prevSeq, the byte offset of
// the end of the valid prefix, and whether the scan stopped at damage
// (torn tail, checksum mismatch, nonsense framing, or a sequence
// regression) rather than a clean end of file. A missing or short
// header counts as damage at offset 0.
func scanSegment(fsys vfs.FS, path string, prevSeq uint64) (recs []Record, validEnd int64, damaged bool, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: %w", err)
	}
	if len(data) < headerSize || [headerSize]byte(data[:headerSize]) != segMagic {
		return nil, 0, true, nil
	}
	off := int64(headerSize)
	for {
		rec, next, ok := decodeRecord(data, off)
		if !ok {
			// Either a clean end (off == len) or damage.
			return recs, off, off != int64(len(data)), nil
		}
		if rec.Seq <= prevSeq {
			return recs, off, true, nil
		}
		prevSeq = rec.Seq
		recs = append(recs, rec)
		off = next
	}
}

// decodeRecord decodes the record at off; ok is false at end of data or
// on any framing/checksum failure.
func decodeRecord(data []byte, off int64) (rec Record, next int64, ok bool) {
	if off+recHeaderSize > int64(len(data)) {
		return rec, 0, false
	}
	body := int64(binary.LittleEndian.Uint32(data[off : off+4]))
	if body < 13 || body > maxRecordBody || off+recHeaderSize+body > int64(len(data)) {
		return rec, 0, false
	}
	crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
	payload := data[off+recHeaderSize : off+recHeaderSize+body]
	if crc32.Checksum(payload, castagnoli) != crc {
		return rec, 0, false
	}
	rec.Seq = binary.LittleEndian.Uint64(payload[0:8])
	rec.Type = Type(payload[8])
	count := int64(binary.LittleEndian.Uint32(payload[9:13]))
	if rec.Type != TypeInsert && rec.Type != TypeDelete && rec.Type != TypeBatch {
		return rec, 0, false
	}
	if 13+count*24 != body {
		return rec, 0, false
	}
	rec.Ops = make([]Op, count)
	for i := int64(0); i < count; i++ {
		p := payload[13+i*24:]
		rec.Ops[i] = Op{
			ID: binary.LittleEndian.Uint64(p[0:8]),
			X:  math.Float64frombits(binary.LittleEndian.Uint64(p[8:16])),
			Y:  math.Float64frombits(binary.LittleEndian.Uint64(p[16:24])),
		}
	}
	return rec, off + recHeaderSize + body, true
}
