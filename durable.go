package ldl

// Durability: the glue between the epoch machinery and internal/wal.
//
// A System opened with WithStorageDir(dir) logs every committed batch
// (a leader's InsertFacts, a follower's ApplyReplicated) to a
// write-ahead log *before* publishing the new epoch — so a batch the
// caller saw acknowledged is on disk (per the fsync policy) by the time
// any reader can observe it — and periodically checkpoints by flushing
// the fact base to segment files (storage.go), so recovery replays only
// the log past the newest manifest. On the next Load with the same
// directory the segments are attached and the log tail replayed on top
// of the program's own facts; the System resumes at the recovered
// epoch.
//
// Scope: the log persists the *fact base updates*. The program text
// (rules and its initial facts) is not logged — it is reloaded from
// source on every boot, exactly like the LDL++ system reloaded its rule
// base while the EDB lived in the fact store. Statistics need no log of
// their own: every epoch's catalog is gathered from its facts, and the
// manifest persists that catalog so a clean boot gathers nothing.
//
// A System without WithStorageDir skips the log: the commit path's
// only durability cost is a nil check.

import (
	"time"

	"ldl/internal/store"
	"ldl/internal/wal"
)

// FsyncPolicy says when the write-ahead log makes acknowledged batches
// durable: FsyncAlways (every batch, the default), FsyncInterval (at
// most once per interval — bounded loss on a machine crash), FsyncNever
// (the OS decides — survives process crashes only).
type FsyncPolicy = wal.SyncPolicy

// The three fsync policies.
const (
	FsyncAlways   = wal.SyncAlways
	FsyncInterval = wal.SyncInterval
	FsyncNever    = wal.SyncNever
)

// ParseFsyncPolicy reads the flag spelling ("always", "interval",
// "never") of a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// RecoveryReport is what boot-time recovery found: the manifest epoch
// it started from, records and tuples replayed from the log tail, and
// any torn tail it had to drop. Its String renders the one-line boot
// log message.
type RecoveryReport = wal.RecoveryReport

// SystemOption configures a System at Load time.
type SystemOption func(*sysConfig)

type sysConfig struct {
	segDir    string
	walFS     wal.FS
	fsync     FsyncPolicy
	interval  time.Duration
	ckptBytes int64
	mat       matConfig
}

// WithFsyncPolicy selects the log's fsync policy (default FsyncAlways).
// interval is the FsyncInterval cadence and is ignored by the other
// policies; 0 keeps the 50ms default.
func WithFsyncPolicy(p FsyncPolicy, interval time.Duration) SystemOption {
	return func(c *sysConfig) { c.fsync, c.interval = p, interval }
}

// WithCheckpointBytes sets the log size that triggers a background
// checkpoint (default 4 MiB; negative disables automatic checkpoints —
// call Checkpoint or Close yourself).
func WithCheckpointBytes(n int64) SystemOption {
	return func(c *sysConfig) { c.ckptBytes = n }
}

// withWALFS injects the log's filesystem — the fault-injection seam the
// durability tests use.
func withWALFS(fs wal.FS) SystemOption {
	return func(c *sysConfig) { c.walFS = fs }
}

// openLog recovers the log in cfg.segDir on top of db — every replayed
// batch goes through applyBatch, like a live commit — and opens it for
// the System's future batches. Records at or below base are already in
// db (the storage tier's manifest) and are skipped. Called by Load with
// the program facts already in db; recovered tuples merge on top (set
// semantics make the overlap harmless).
func (s *System) openLog(db *store.Database, cfg sysConfig, base uint64) error {
	log, rep, err := wal.Open(cfg.segDir, wal.Options{FS: cfg.walFS, Sync: cfg.fsync, Interval: cfg.interval, BaseEpoch: base},
		func(b wal.Batch) error { _, _, err := s.applyBatch(db, b); return err })
	if err != nil {
		return err
	}
	s.wal, s.recovery = log, rep
	s.term = max(s.term, rep.Term) // restore the fencing high-water mark
	s.ckptBytes = cfg.ckptBytes
	if s.ckptBytes == 0 {
		s.ckptBytes = 4 << 20
	}
	return nil
}

// Recovery reports what boot-time recovery found; nil for a
// non-durable System.
func (s *System) Recovery() *RecoveryReport { return s.recovery }

// maybeCheckpoint fires the background checkpointer when the active log
// segment has outgrown the configured threshold. At most one checkpoint
// runs at a time; a failed attempt leaves the log intact (recovery just
// replays more), is counted with its error in DurabilityStats, and the
// next batch retries.
func (s *System) maybeCheckpoint() {
	if s.wal == nil || s.ckptBytes <= 0 || s.wal.SegmentSize() < s.ckptBytes {
		return
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.ckptBusy.Store(false)
		if err := s.Checkpoint(); err != nil {
			s.ckptErr.Store(err.Error())
			s.ckptFailures.Add(1)
		}
	}()
}

// Checkpoint flushes the current epoch's base relations to segment
// files, commits the manifest naming them, and retires the log prefix
// it covers. Readers are never stalled (the epoch is immutable) and the
// writer only briefly, for the log rotation. No-op on a non-durable
// System.
func (s *System) Checkpoint() (err error) {
	defer guard(&err)
	if s.wal == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.segCheckpoint()
}

// rotateAtHead freezes the epoch<->log boundary a checkpoint needs and
// returns the boundary epoch: after it, every record <= its id is in the
// retiring segments and every later batch lands in the new one. The
// boundary is the *head*, and any in-flight group commit is drained (and
// its epochs published) first — otherwise the retiring segments could
// hold acknowledged records beyond the checkpoint. Caller holds writeMu,
// which keeps the boundary frozen across the rotate.
func (s *System) rotateAtHead() (*epochState, error) {
	ep := s.headState()
	if s.headLSN > 0 {
		if err := s.wal.Commit(s.headLSN); err != nil {
			return nil, err
		}
		s.publish(ep)
	}
	return ep, s.wal.Rotate(ep.id)
}

// Close shuts a durable System down cleanly: a final checkpoint, then
// the log is synced and closed. The System must not be used afterwards.
// No-op (nil) on a non-durable System.
func (s *System) Close() (err error) {
	defer guard(&err)
	if s.wal == nil {
		return nil
	}
	cerr := s.Checkpoint()
	if err := s.wal.Close(); err != nil && cerr == nil {
		cerr = err
	}
	return cerr
}
