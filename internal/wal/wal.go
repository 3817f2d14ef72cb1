// Package wal is the durability layer: a write-ahead fact log with
// torn-write-tolerant crash recovery.
//
// The contract with the epoch machinery above it (ldl.System) is
// write-ahead ordering: an InsertFacts batch is appended — and, per the
// fsync policy, made durable — *before* the new epoch is atomically
// published to readers. The log holds only what is newer than the
// durable base state, which lives outside it (the segment tier's
// manifest, internal/segment): a checkpoint rotates the log, commits
// the base elsewhere, and then retires the log prefix the base covers.
// Recovery skips records at or below the base epoch and replays the
// tail, stopping cleanly at a torn or corrupt tail record while
// treating corruption in the middle of the log — acknowledged data with
// later records intact after it — as an unrecoverable, typed error.
//
// On-disk layout inside the log directory:
//
//	log-<base epoch, hex>       append-only record segments
//
// A segment named log-B holds records with epochs strictly greater
// than B; rotation to log-E happens while the writer lock of the epoch
// machinery is held, so every record with epoch <= E lands in an older
// segment and a checkpoint at E makes those segments garbage. A file of
// the retired snapshot checkpoint format makes the directory unreadable
// (see Segments) rather than silently dropping the facts it holds.
package wal

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy says when Commit makes appended records durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every Commit returns: an acknowledged
	// batch survives any crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.Interval (plus on
	// rotation, checkpoint and close): a crash may lose the last
	// interval's acknowledged batches, never more, and recovery still
	// sees a clean prefix.
	SyncInterval
	// SyncNever leaves syncing to the operating system: contents
	// survive a process crash but not a machine crash.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy reads the flag spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures a Log.
type Options struct {
	// FS is the filesystem seam; nil means the real OS filesystem.
	FS FS
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// Interval is the SyncInterval cadence (default 50ms).
	Interval time.Duration
	// Now is the clock SyncInterval reads; nil means time.Now.
	Now func() time.Time
	// BaseEpoch tells recovery that state up to and including this
	// epoch is already durable elsewhere (the segment tier's manifest):
	// records at or below it are skipped instead of replayed. Zero
	// means no external base.
	BaseEpoch uint64
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OS()
	}
	if o.Interval <= 0 {
		o.Interval = 50 * time.Millisecond
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Log is the append side of the write-ahead log. AppendCommit, Commit,
// Rotate, Retire and Close are safe for concurrent use; the single-writer
// discipline above it means contention is rare.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        File   // active segment
	base     uint64 // epoch the active segment follows
	size     int64  // bytes in the active segment
	lastSync time.Time
	buf      []byte // reusable encode buffer
	// wedged latches the first append/sync failure: once bytes of
	// unknown extent are on disk, further appends would put valid
	// records after a torn region and turn a recoverable tail into
	// unrecoverable mid-log corruption. Every later operation returns
	// the original error.
	wedged error

	// Group-commit state. appended/syncedTo are monotonic byte counts
	// across all segments (unlike size, which resets on rotation):
	// AppendCommit returns the appended watermark as the record's LSN,
	// and Commit(lsn) returns once syncedTo covers it — one cohort
	// leader fsyncs on behalf of every writer that appended while the
	// previous fsync was in flight. syncing marks a cohort fsync in
	// progress (it runs outside mu); syncCond wakes its waiters.
	appended int64
	syncedTo int64
	syncing  bool
	syncCond *sync.Cond

	// lastCkpt is the epoch of the newest checkpoint — the boot base or
	// the latest Retire — the durability-health signal STATS exposes.
	lastCkpt uint64
}

func segmentName(base uint64) string { return fmt.Sprintf("log-%016x", base) }

// parseSeq extracts the hex sequence number from a "prefix-xxxx" name.
func parseSeq(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):], 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// AppendCommit is the group-commit append: it encodes b as one record
// and writes it to the active segment but never fsyncs, returning the
// record's LSN (the monotonic appended-byte watermark). The batch is
// durable only after a Commit call covering the LSN returns nil;
// callers must not acknowledge (or publish) the batch before then. On
// a write failure the log wedges: the error is returned now and by
// every later call.
func (l *Log) AppendCommit(b Batch) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		return 0, l.wedged
	}
	buf, err := AppendRecord(l.buf[:0], b)
	if err != nil {
		return 0, err // encoding error: nothing reached the disk, not wedged
	}
	l.buf = buf
	if _, err := l.f.Write(buf); err != nil {
		l.wedged = fmt.Errorf("wal: append: %w", err)
		l.syncCond.Broadcast()
		return 0, l.wedged
	}
	l.size += int64(len(buf))
	l.appended += int64(len(buf))
	return l.appended, nil
}

// Commit makes the record at lsn durable per the fsync policy. Under
// SyncAlways it group-commits: if a cohort fsync is already in flight
// the caller waits for it (and leaves satisfied if it covered lsn);
// otherwise the caller becomes the next cohort's leader and its single
// fsync covers every record appended so far — N concurrent writers pay
// ~2 fsyncs, not N. Under SyncInterval it fsyncs when the interval has
// elapsed since the last sync; under SyncNever it never does. A sync
// failure wedges the log.
func (l *Log) Commit(lsn int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opts.Sync != SyncAlways {
		if l.wedged != nil {
			return l.wedged
		}
		if l.opts.Sync == SyncNever {
			return nil
		}
		if now := l.opts.Now(); now.Sub(l.lastSync) >= l.opts.Interval {
			if err := l.f.Sync(); err != nil {
				l.wedged = fmt.Errorf("wal: fsync: %w", err)
				l.syncCond.Broadcast()
				return l.wedged
			}
			l.lastSync = now
			l.syncedTo = l.appended
		}
		return nil
	}
	for {
		if l.wedged != nil {
			return l.wedged
		}
		if l.syncedTo >= lsn {
			return nil
		}
		if !l.syncing {
			break
		}
		l.syncCond.Wait()
	}
	// Become the cohort leader: fsync outside mu so the writers of the
	// next cohort can append (and then queue on syncCond) meanwhile.
	l.syncing = true
	cohort, f := l.appended, l.f
	l.mu.Unlock()
	serr := f.Sync()
	l.mu.Lock()
	l.syncing = false
	if serr != nil {
		l.wedged = fmt.Errorf("wal: fsync: %w", serr)
	} else if cohort > l.syncedTo {
		l.syncedTo = cohort
	}
	l.syncCond.Broadcast()
	return l.wedged
}

// AppendTerm persists a leader-term bump: a RecTerm record stamped with
// t at the given head epoch, committed per the fsync policy before it
// returns. Recovery restores the term high-water mark from these
// records, so a caller that retires the segments holding them must
// re-append the mark first (the storage tier's checkpoint does).
func (l *Log) AppendTerm(t, epoch uint64) error {
	lsn, err := l.AppendCommit(Batch{Kind: RecTerm, Term: t, Epoch: epoch})
	if err != nil {
		return err
	}
	return l.Commit(lsn)
}

// SegmentSize reports the byte size of the active segment — the
// "log bytes since the last checkpoint" signal the size-triggered
// checkpointer watches.
func (l *Log) SegmentSize() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Rotate switches appends to a fresh segment log-<epoch>. The caller
// must guarantee — by holding its writer lock across the call — that
// every record with epoch <= epoch has already been appended (they land
// in older segments) and every later append carries a greater epoch.
// The old segment is synced and closed so the upcoming checkpoint
// covers fully durable data.
func (l *Log) Rotate(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Let an in-flight cohort fsync finish before swapping the file out
	// from under it.
	for l.syncing && l.wedged == nil {
		l.syncCond.Wait()
	}
	if l.wedged != nil {
		return l.wedged
	}
	if epoch == l.base && l.size == 0 {
		return nil // nothing logged since the segment opened
	}
	if err := l.f.Sync(); err != nil {
		l.wedged = fmt.Errorf("wal: rotate: sync old segment: %w", err)
		return l.wedged
	}
	if err := l.f.Close(); err != nil {
		l.wedged = fmt.Errorf("wal: rotate: close old segment: %w", err)
		return l.wedged
	}
	f, size, err := l.opts.FS.OpenAppend(join(l.dir, segmentName(epoch)))
	if err != nil {
		l.wedged = fmt.Errorf("wal: rotate: %w", err)
		return l.wedged
	}
	// Make the new segment's directory entry durable before records
	// land in it: otherwise a crash could lose the file wholesale while
	// its records were acknowledged.
	if err := l.opts.FS.SyncDir(l.dir); err != nil {
		f.Close()
		l.wedged = fmt.Errorf("wal: rotate: %w", err)
		return l.wedged
	}
	l.f, l.base, l.size = f, epoch, size
	l.syncedTo = l.appended // the old segment was synced in full above
	return nil
}

// Retire deletes the log segments a checkpoint at epoch supersedes. The
// caller must have Rotated to epoch first and made its base state
// durable outside the log (a segment manifest): after Retire, recovery
// of the remaining log replays only records beyond epoch. Cleanup
// failures are harmless (recovery tolerates stale files) and not
// reported.
func (l *Log) Retire(epoch uint64) error {
	fs := l.opts.FS
	l.mu.Lock()
	if epoch > l.lastCkpt {
		l.lastCkpt = epoch
	}
	active := segmentName(l.base)
	l.mu.Unlock()
	names, err := fs.List(l.dir)
	if err != nil {
		return nil
	}
	for _, name := range names {
		if name == active {
			continue
		}
		if b, ok := parseSeq(name, "log-"); ok && b < epoch {
			fs.Remove(join(l.dir, name))
		}
	}
	fs.SyncDir(l.dir)
	return nil
}

// LastCheckpoint reports the epoch of the newest checkpoint: the base
// epoch Open recovered from, or the latest Retire (0 = none).
func (l *Log) LastCheckpoint() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastCkpt
}

// Close syncs and closes the active segment. The log is unusable
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing && l.wedged == nil {
		l.syncCond.Wait()
	}
	if l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	if l.wedged != nil {
		f.Close()
		return l.wedged
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	return f.Close()
}

// Wedged reports the latched append failure, if any.
func (l *Log) Wedged() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wedged
}

// Open recovers the log in dir — streaming every record past
// opts.BaseEpoch to apply, in epoch order — then truncates any torn
// tail and opens the log for appending where it left off. A missing or
// empty dir is a fresh log.
// The returned report says what recovery found; the returned error is
// non-nil only for unrecoverable states (mid-log corruption, I/O
// failures), in which case no Log is returned.
func Open(dir string, opts Options, apply func(Batch) error) (*Log, *RecoveryReport, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	rep, err := recoverDir(dir, fs, opts.BaseEpoch, apply)
	if err != nil {
		return nil, nil, err
	}
	// Drop the torn tail before appending: new records must follow the
	// last valid one, not garbage.
	if rep.TornSegment != "" {
		if err := fs.Truncate(join(dir, rep.TornSegment), rep.lastSegmentSize); err != nil {
			return nil, nil, fmt.Errorf("wal: open: truncating torn tail of %s: %w", rep.TornSegment, err)
		}
	}
	base, size := rep.lastSegmentBase, rep.lastSegmentSize
	name := segmentName(base)
	if !rep.haveSegment {
		// Fresh directory (or base-only): start a segment at the
		// recovered epoch so every future record (epoch > rep.Epoch) is
		// properly beyond the base.
		base, size = rep.Epoch, 0
		name = segmentName(base)
	}
	f, fsize, err := fs.OpenAppend(join(dir, name))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	if rep.haveSegment && fsize != size {
		// The file changed between scan and open — another process owns
		// the directory.
		f.Close()
		return nil, nil, fmt.Errorf("wal: open: %s is %d bytes, expected %d (concurrent writer?)", name, fsize, size)
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{dir: dir, opts: opts, f: f, base: base, size: fsize, lastSync: opts.Now()}
	l.syncCond = sync.NewCond(&l.mu)
	l.lastCkpt = rep.CheckpointEpoch
	return l, rep, nil
}
