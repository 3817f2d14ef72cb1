package wal

// Crash recovery: replay the log tail past the durable base epoch,
// tolerating exactly the damage a crash can cause (a torn or
// half-synced final record) and refusing to guess past any other
// damage.

import (
	"errors"
	"fmt"
)

// CorruptError is the typed, unrecoverable corruption report: damage in
// the middle of the log (valid records exist after the bad region), or
// a record whose checksum passes but whose payload is malformed. Torn
// or truncated tails are NOT CorruptErrors — recovery drops them and
// reports the loss in the RecoveryReport instead.
type CorruptError struct {
	Name   string // file the corruption is in
	Offset int64  // byte offset of the bad record
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: unrecoverable corruption in %s at byte %d: %s", e.Name, e.Offset, e.Reason)
}

// IsCorrupt reports whether err is (or wraps) a *CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// RecoveryReport says what recovery found and what it had to drop.
type RecoveryReport struct {
	// CheckpointEpoch is the base epoch recovery started from — the
	// segment manifest boot attached (0 = none, the log was replayed
	// from scratch).
	CheckpointEpoch uint64
	// Epoch is the last epoch the recovered state reflects: the newest
	// of the base epoch and every replayed record.
	Epoch uint64
	// RecordsReplayed / TuplesReplayed count the log records applied on
	// top of the base.
	RecordsReplayed int
	TuplesReplayed  int
	// RecordsSkipped counts valid records not applied because the base
	// already covered their epoch.
	RecordsSkipped int
	// Term is the leader-term high-water mark: the largest term stamped
	// on any record in the directory, including skipped ones (0 = the
	// log predates terms / was never promoted).
	Term uint64
	// TermRecords counts RecTerm records seen (they restore Term but
	// are never applied as facts).
	TermRecords int
	// BytesDropped is the size of the torn tail discarded from the last
	// segment (0 = the log ended cleanly).
	BytesDropped int64
	// TornSegment names the segment whose tail was dropped ("" = none).
	TornSegment string

	// Open's continuation state: where appending resumes.
	haveSegment     bool
	lastSegmentBase uint64
	lastSegmentSize int64 // valid bytes (the post-truncation size)
}

// String renders the one-line boot log message.
func (r *RecoveryReport) String() string {
	s := fmt.Sprintf("recovered to epoch %d: checkpoint@%d + %d records (%d tuples) replayed",
		r.Epoch, r.CheckpointEpoch, r.RecordsReplayed, r.TuplesReplayed)
	if r.BytesDropped > 0 {
		s += fmt.Sprintf(", %d-byte torn tail dropped from %s", r.BytesDropped, r.TornSegment)
	}
	return s
}

// Recover replays the log in dir read-only, streaming every record to
// apply in epoch order. fs nil means the real filesystem. Use Open to
// recover and continue appending; Recover alone is the inspection path
// (and the crash-matrix test's oracle).
func Recover(dir string, fs FS, apply func(Batch) error) (*RecoveryReport, error) {
	if fs == nil {
		fs = OS()
	}
	return recoverDir(dir, fs, 0, apply)
}

func recoverDir(dir string, fs FS, baseEpoch uint64, apply func(Batch) error) (*RecoveryReport, error) {
	segs, err := Segments(dir, fs)
	if err != nil {
		return nil, fmt.Errorf("wal: recover: %w", err)
	}
	rep := &RecoveryReport{Epoch: baseEpoch, CheckpointEpoch: baseEpoch}

	// Replay the segments oldest-first. Records at or below the applied
	// epoch are redundant (covered by the base, or duplicated by a
	// segment that survived a failed cleanup) and skipped; everything
	// else must be strictly increasing.
	for i, base := range segs {
		name := segmentName(base)
		data, err := fs.ReadFile(join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("wal: recover: %w", err)
		}
		last := i == len(segs)-1
		if last {
			rep.haveSegment = true
			rep.lastSegmentBase = base
		}
		off := 0
		for off < len(data) {
			b, n, derr := ReadRecord(data[off:])
			if derr != nil {
				if !last {
					// Valid segments follow this one, so the damage is
					// not a tail: refuse.
					return nil, &CorruptError{Name: name, Offset: int64(off), Reason: derr.Error()}
				}
				if tornTail(data[off:], derr) {
					rep.BytesDropped = int64(len(data) - off)
					rep.TornSegment = name
					break
				}
				return nil, &CorruptError{Name: name, Offset: int64(off), Reason: derr.Error()}
			}
			// Terms are tracked across *every* valid record, skipped or
			// not: a term bump shares the head epoch of the batch before
			// it, so the epoch dedup below would otherwise lose it.
			if b.Term > rep.Term {
				rep.Term = b.Term
			}
			if b.kind() == RecTerm {
				rep.TermRecords++
				off += n
				continue
			}
			if b.Epoch <= rep.Epoch {
				rep.RecordsSkipped++
				off += n
				continue
			}
			if err := apply(b); err != nil {
				return nil, fmt.Errorf("wal: recover: applying record at %s+%d: %w", name, off, err)
			}
			rep.Epoch = b.Epoch
			rep.RecordsReplayed++
			rep.TuplesReplayed += b.Tuples()
			off += n
		}
		if last {
			rep.lastSegmentSize = int64(off)
			if rep.TornSegment != "" {
				rep.lastSegmentSize = int64(len(data)) - rep.BytesDropped
			}
		}
	}
	return rep, nil
}

// tornTail decides whether a decode failure in the *last* segment is
// tolerable tail damage. A frame that runs past the end of the file is
// a short write, torn by definition. A checksum or payload failure is
// torn only when the bad record is the final one in the file — a
// half-synced or bit-flipped last record; the same failure with more
// bytes after the record means interior damage and is refused. (A
// corrupted length field can make interior damage look like it extends
// to EOF; that ambiguity is inherent to length-prefixed framing and is
// resolved in favor of tail-drop, which at worst under-recovers
// unacknowledged data.)
func tornTail(data []byte, derr error) bool {
	if errors.Is(derr, errShortFrame) {
		return true
	}
	if len(data) < frameHeader {
		return true
	}
	declared := int(uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24)
	return frameHeader+declared >= len(data)
}
