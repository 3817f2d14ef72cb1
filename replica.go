package ldl

// Replication support: the follower side of log shipping, and the
// leader-side accessors the shipper needs.
//
// A follower is an ordinary System (same program, same query engine)
// whose fact base advances only through ApplyReplicated — the shipped
// wal.Batch stream, fed through the commit path leader writes take —
// and whose InsertFacts refuses with a *ReadOnlyError naming the
// leader. Because batches apply in leader-epoch order and each publishes
// atomically, every read the follower serves sees an exact epoch-prefix
// of the leader's acknowledged history; staleness is visible as the gap
// between the follower's Epoch and the leader's. Promote flips the
// switch for manual failover: the follower keeps its applied prefix and
// starts accepting writes, numbering new epochs after the last applied
// one.

import (
	"errors"
	"fmt"

	"ldl/internal/wal"
)

// ErrReadOnly is matched (errors.Is) by the error InsertFacts returns
// on a replica. The concrete type is *ReadOnlyError, which names the
// leader to redirect writes to.
var ErrReadOnly = errors.New("ldl: read-only replica")

// ReadOnlyError rejects a write on a replica; Leader is the address to
// redirect to ("" when unknown).
type ReadOnlyError struct {
	Leader string
}

func (e *ReadOnlyError) Error() string {
	if e.Leader == "" {
		return "ldl: read-only replica"
	}
	return fmt.Sprintf("ldl: read-only replica (leader %s)", e.Leader)
}

func (e *ReadOnlyError) Is(target error) bool { return target == ErrReadOnly }

// ErrFenced is matched (errors.Is) by the error ApplyReplicated returns
// for a stream from a deposed leader. The concrete type is *FencedError.
var ErrFenced = errors.New("ldl: fenced (stale leader term)")

// FencedError rejects a replicated batch whose leader term is below the
// local high-water mark — the stream comes from a leader that has since
// been superseded and must never be applied.
type FencedError struct {
	Local  uint64 // the high-water term this system has observed
	Stream uint64 // the stale term the batch carried
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("ldl: fenced: stream term %d below local term %d", e.Stream, e.Local)
}

func (e *FencedError) Is(target error) bool { return target == ErrFenced }

// SetReadOnly puts the System in replica mode: InsertFacts fails with a
// *ReadOnlyError pointing at leader until Promote. ApplyReplicated and
// reads are unaffected.
func (s *System) SetReadOnly(leader string) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.readOnly = true
	s.leaderAddr = leader
}

// ReadOnly reports whether the System is in replica mode and the leader
// address writes should be redirected to.
func (s *System) ReadOnly() (bool, string) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.readOnly, s.leaderAddr
}

// Term reports the leader-term high-water mark: the term this system
// writes under when it leads, and the newest term it has observed (and
// fences older streams against) when it follows.
func (s *System) Term() uint64 {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.term
}

// FencedEvents counts fencing events: stale-term batches refused by
// ApplyReplicated and read-only demotions latched by ObserveTerm.
func (s *System) FencedEvents() int64 { return s.fenced.Load() }

// ObserveTerm adopts a leader term seen on the wire (a replication
// welcome, a heartbeat, a peer's HELLO probe). Terms at or below the
// high-water mark change nothing. A higher term raises the mark — and
// if this system currently leads, latches it read-only: a higher term
// means it was deposed, and accepting further writes would split the
// brain. demoted reports that latch. On a durable system the bump is
// persisted as a term record so the fence survives a restart.
func (s *System) ObserveTerm(t uint64) (demoted bool) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if t <= s.term {
		return false
	}
	s.term = t
	if !s.readOnly {
		s.readOnly = true
		s.leaderAddr = ""
		s.fenced.Add(1)
		demoted = true
	}
	if s.wal != nil {
		// Best effort: a failed append wedges the log, which already
		// refuses writes — the in-memory mark keeps fencing regardless.
		s.wal.AppendTerm(t, s.headState().id)
	}
	return demoted
}

// Promote ends replica mode — failover. The System keeps every epoch it
// has applied, bumps the leader term past every term it has observed,
// persists the bump (durable systems refuse to promote if the term
// record cannot be written — an unpersisted bump could un-fence a stale
// stream after a restart), and starts accepting InsertFacts, numbering
// new epochs after the returned one. The term bump is what makes
// concurrent failover safe: followers fence every stream below their
// high-water mark, so once any write of the new term is applied, the
// old leader's stream is dead on arrival.
func (s *System) Promote() (epoch, term uint64, err error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	head := s.headState().id
	next := s.term + 1
	if s.wal != nil {
		if err := s.wal.AppendTerm(next, head); err != nil {
			return head, s.term, fmt.Errorf("ldl: promote: persisting term %d: %w", next, err)
		}
	}
	s.term = next
	s.readOnly = false
	s.leaderAddr = ""
	return head, next, nil
}

// ApplyReplicated applies one shipped batch — an incremental InsertFacts
// record or a checkpoint seed — to the fact base, publishing it under
// the leader's epoch number so follower and leader epochs correspond
// 1:1. Batches at or below the current epoch are duplicates (redelivery
// after a reconnect, or a seed the follower already covers) and are
// skipped, so the stream may be at-least-once; batches must otherwise
// arrive in increasing epoch order. The batch takes the leader's own
// commit path (see commit): same insert, catalog update and incremental
// view maintenance — the shipped rows are the epoch's seed delta, so
// catch-up cost tracks the stream, not the database — and on a durable
// follower the same write-ahead log record, durable before the epoch
// publishes.
func (s *System) ApplyReplicated(b wal.Batch) (err error) {
	defer guard(&err)
	_, _, err = s.commit(b, false)
	return err
}

// DurabilityStats is the WAL health snapshot STATS exposes.
type DurabilityStats struct {
	// Durable reports whether the System has a WAL at all; the other
	// fields are zero when it does not.
	Durable bool
	// SegmentBytes is the size of the active log segment.
	SegmentBytes int64
	// Wedged reports a latched log failure: the fact base still serves
	// reads but acknowledges no further writes.
	Wedged bool
	// LastCheckpoint is the epoch of the newest checkpoint: the manifest
	// boot attached, or the latest flush since (0 = none).
	LastCheckpoint uint64
	// CheckpointFailures counts background checkpoints that failed, and
	// CheckpointLastError is the newest one's error ("" = none). A
	// failure leaves the log intact; it only keeps growing until a
	// checkpoint succeeds.
	CheckpointFailures  int64
	CheckpointLastError string
}

// Durability reports the WAL health counters.
func (s *System) Durability() DurabilityStats {
	if s.wal == nil {
		return DurabilityStats{}
	}
	lastErr, _ := s.ckptErr.Load().(string)
	return DurabilityStats{
		Durable:             true,
		SegmentBytes:        s.wal.SegmentSize(),
		Wedged:              s.wal.Wedged() != nil,
		LastCheckpoint:      s.wal.LastCheckpoint(),
		CheckpointFailures:  s.ckptFailures.Load(),
		CheckpointLastError: lastErr,
	}
}

// WALAccess exposes the storage directory and filesystem of a durable
// System — what a leader-side shipper needs to plan follower catch-up
// from its manifest and log (segment.PlanShip) and tail the log
// (wal.ReadLive). ok is false for a non-durable System, which has
// nothing to ship.
func (s *System) WALAccess() (dir string, fs wal.FS, ok bool) {
	if s.seg == nil {
		return "", nil, false
	}
	return s.seg.dir, s.seg.fs, true
}
