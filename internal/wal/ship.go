package wal

// The shipping read side: the API a log-shipping replicator uses to
// stream a leader's durable history to followers. Shipping and crash
// recovery are the same apply loop over the same files; the difference
// is that a shipper runs *concurrently with the writer* and *forever*,
// so it reads incrementally through a Cursor instead of scanning once,
// tolerates the growing tail of the active segment (an incomplete frame
// at the end means "wait", not "torn"), and must notice when a
// checkpoint retires the segment under it (ErrRetired) so it can
// re-plan — resuming from a newer segment, or re-seeding the follower
// from the checkpoint when the records it still needs are gone.
//
// Concurrency contract: the writer appends whole framed records with a
// single File.Write and only ever appends; a reader therefore sees a
// byte prefix of valid frames, possibly ending mid-frame. Segment files
// are never modified after rotation, only deleted (by Retire).

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrRetired reports that the segment a Cursor points into was deleted
// by a checkpoint while the reader was between reads. The reader must
// re-plan from the follower's applied epoch (segment.PlanShip), which
// either resumes from a surviving segment or re-seeds from the
// checkpoint that did the retiring.
var ErrRetired = errors.New("wal: segment retired under the reader")

// Cursor is a reader's position in the segment stream: which segment,
// the byte offset of the next unread frame in it, and the highest epoch
// delivered (or deliberately skipped) so far. Epoch, not offset, is the
// resume token across re-plans and reconnects — offsets die with their
// segment, epochs are forever.
type Cursor struct {
	Base  uint64 // base epoch of the segment being read
	Off   int64  // offset of the next frame within it
	Epoch uint64 // highest epoch delivered or skipped
}

// ShipPlan says how to bring a follower at some applied epoch up to
// date: an optional seed batch (the full checkpoint state the follower
// must load first, because the incremental records it needs were
// retired) and the cursor to start tailing from. segment.PlanShip
// makes one.
type ShipPlan struct {
	Seed   *Batch
	Cursor Cursor
}

// ReadLive reads every complete record past cur with epoch in
// (cur.Epoch, maxEpoch], calls emit with each one's payload bytes as
// they were logged, and returns the advanced cursor. It checks each
// frame and decodes only the payload's header (kind, term, epoch): a
// shipper forwards the bytes without decoding or interning the rows.
// The payload is valid only during the emit call. ReadLive returns
// with a nil error when it runs out of complete frames (the writer has
// not produced more yet — read again after the next publish);
// ErrRetired when cur's segment was deleted under it (re-plan);
// *CorruptError on mid-stream damage. maxEpoch caps delivery at the
// writer's published epoch so a record appended but not yet
// acknowledged is never shipped.
func ReadLive(dir string, fs FS, cur Cursor, maxEpoch uint64, emit func(payload []byte) error) (Cursor, error) {
	if fs == nil {
		fs = OS()
	}
	for {
		segs, err := Segments(dir, fs)
		if err != nil {
			return cur, err
		}
		if !containsSeq(segs, cur.Base) {
			for _, b := range segs {
				if b > cur.Base {
					return cur, ErrRetired
				}
			}
			return cur, nil // the writer has not created the segment yet
		}
		data, err := fs.ReadFile(join(dir, segmentName(cur.Base)))
		if err != nil {
			return cur, fmt.Errorf("wal: read live: %w", err)
		}
		for int(cur.Off) < len(data) {
			payload, _, derr := ReadFrame(data[cur.Off:], maxRecordSize)
			if errors.Is(derr, errShortFrame) {
				// The frame is still being written (or is a torn tail
				// the writer will truncate at reopen): wait.
				return cur, nil
			}
			var h Batch
			if derr == nil {
				h, _, derr = DecodeHeader(payload)
			}
			if derr != nil {
				return cur, &CorruptError{Name: segmentName(cur.Base), Offset: cur.Off, Reason: derr.Error()}
			}
			if h.Epoch > maxEpoch {
				// Appended but not yet published: leave the cursor
				// before it and retry after the writer acknowledges.
				return cur, nil
			}
			if h.Epoch > cur.Epoch {
				if err := emit(payload); err != nil {
					return cur, err
				}
				cur.Epoch = h.Epoch
			}
			cur.Off += int64(frameHeader + len(payload))
		}
		// Clean end of this segment: hop to the next one if rotation
		// has opened it, else wait for more appends here.
		next, ok := nextSeq(segs, cur.Base)
		if !ok {
			return cur, nil
		}
		cur.Base, cur.Off = next, 0
	}
}

// Segments lists the base epochs of dir's log segments, oldest first.
// A file of the retired snapshot checkpoint format is an error naming
// it: recovery and shipping would otherwise run without the facts it
// holds.
func Segments(dir string, fs FS) ([]uint64, error) {
	names, err := fs.List(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var segs []uint64
	for _, name := range names {
		if strings.HasPrefix(name, "snapshot-") {
			return nil, fmt.Errorf("wal: %s holds %s, a snapshot checkpoint this version no longer reads", dir, name)
		}
		if b, ok := parseSeq(name, "log-"); ok {
			segs = append(segs, b)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

func containsSeq(sorted []uint64, v uint64) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v })
	return i < len(sorted) && sorted[i] == v
}

// nextSeq returns the smallest element greater than v.
func nextSeq(sorted []uint64, v uint64) (uint64, bool) {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	if i < len(sorted) {
		return sorted[i], true
	}
	return 0, false
}
