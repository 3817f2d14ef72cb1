package repl

// The leader side: replay the WAL to one follower connection, then keep
// tailing it live. One Shipper serves any number of connections (it is
// stateless between calls); the front end calls Serve with the epoch
// the follower announced in its hello and the connection the handshake
// arrived on. Tailing is event-driven: after each read of the log the
// shipper sleeps until the next epoch publishes (Changed), with the
// heartbeat timer as the backstop, so a commit ships as soon as it is
// acknowledged and an idle stream costs nothing between heartbeats.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"ldl/internal/segment"
	"ldl/internal/wal"
)

// Shipper streams a storage directory's WAL to followers.
type Shipper struct {
	// Dir and FS locate the leader's log (ldl.System.WALAccess).
	Dir string
	FS  wal.FS
	// Head reports the leader's *published* epoch. Delivery is capped at
	// it: a record appended but not yet acknowledged to its writer is
	// never shipped, so a follower can never be ahead of what the leader
	// has promised.
	Head func() uint64
	// Changed returns a channel closed at the next publication of Head
	// (ldl.System.Changed). Serve takes it before each read of Head, so a
	// publish racing the read still wakes the next wait. Required.
	Changed func() <-chan struct{}
	// Term reports the leader-term high-water mark stamped on every
	// heartbeat (nil = 0, a pre-term stream followers accept blindly).
	Term func() uint64
	// Advertise is the address sent in the welcome line — where the
	// follower's clients should send writes.
	Advertise string
	// Heartbeat is the idle-connection heartbeat interval (default 2s).
	// Every heartbeat also refreshes the follower's view of the leader
	// head epoch, which is what its staleness bound is measured against,
	// and re-reads the log, so a missed wake-up costs at most one
	// interval.
	Heartbeat time.Duration
}

// Serve replays and then tails the log to conn, blocking until the
// connection fails (the follower vanished — it will reconnect and get a
// fresh Serve) or the log reports unrecoverable corruption. The caller
// has already read the follower's hello; from is the epoch it resumes
// at. Closing conn makes Serve return within a heartbeat interval.
func (s *Shipper) Serve(conn io.Writer, from uint64) error {
	hb := s.Heartbeat
	if hb <= 0 {
		hb = 2 * time.Second
	}

	plan, err := segment.PlanShip(s.Dir, s.FS, from)
	if err != nil {
		return fmt.Errorf("repl: plan: %w", err)
	}
	if err := s.sendSeed(conn, plan); err != nil {
		return err
	}
	cur := plan.Cursor

	// Logged records ship as the bytes the log holds.
	emit := func(payload []byte) error { return writeFrame(conn, kindBatch, payload) }

	lastBeat := time.Now()
	for {
		changed := s.Changed()
		next, err := wal.ReadLive(s.Dir, s.FS, cur, s.Head(), emit)
		switch {
		case errors.Is(err, wal.ErrRetired):
			// A checkpoint deleted the segment under the cursor between
			// reads. Re-plan from the follower's position: it either
			// resumes from a surviving segment or gets re-seeded from
			// the manifest of the flush that did the retiring.
			plan, err = segment.PlanShip(s.Dir, s.FS, next.Epoch)
			if err != nil {
				return fmt.Errorf("repl: replan: %w", err)
			}
			if err := s.sendSeed(conn, plan); err != nil {
				return err
			}
			cur = plan.Cursor
			continue
		case err != nil:
			return err
		}
		if next.Epoch > cur.Epoch {
			lastBeat = time.Now() // shipped data doubles as a heartbeat
		} else if time.Since(lastBeat) >= hb {
			var hbuf [2 * binary.MaxVarintLen64]byte
			if err := writeFrame(conn, kindHeartbeat, heartbeatPayload(hbuf[:0], s.Head(), s.term())); err != nil {
				return err
			}
			lastBeat = time.Now()
		}
		cur = next
		beat := time.NewTimer(time.Until(lastBeat.Add(hb)))
		select {
		case <-changed:
		case <-beat.C:
		}
		beat.Stop()
	}
}

func (s *Shipper) term() uint64 {
	if s.Term == nil {
		return 0
	}
	return s.Term()
}

func (s *Shipper) sendSeed(conn io.Writer, plan wal.ShipPlan) error {
	if plan.Seed == nil {
		return nil
	}
	payload, err := wal.EncodeBatchPayload(nil, *plan.Seed)
	if err != nil {
		return err
	}
	return writeFrame(conn, kindSeed, payload)
}
