// Package repl implements log-shipping replication over a byte stream:
// a leader-side Shipper that replays the write-ahead log (checkpoint
// seed + incremental batches) to a follower connection, and a Follower
// loop that applies the stream and keeps reconnecting until told to
// stop.
//
// The protocol is deliberately minimal — one text handshake line each
// way, then a one-directional sequence of CRC-framed binary frames from
// leader to follower:
//
//	follower → leader:  "REPL <last applied epoch> term=<t>\n"
//	leader → follower:  "OK repl epoch=<head> leader=<advertise> term=<t>\n"
//	leader → follower:  frames: len u32 | crc u32 | kind byte | payload
//
// Frame kinds: 'S' (seed — a full checkpoint state the follower loads
// before tailing, sent when the records it needs were retired), 'B'
// (one InsertFacts batch, payload in the WAL's record encoding), 'H'
// (heartbeat, payload = uvarint leader head epoch, uvarint leader
// term). The epoch inside each batch is the resume token: a follower
// reconnects with the last epoch it applied and the leader replans from
// there, so delivery is at-least-once and the apply side deduplicates
// by epoch. CRC framing means a corrupt frame is detected, the
// connection dropped, and the data re-requested by the reconnect —
// never applied.
//
// Every direction carries the sender's leader-term high-water mark.
// The follower fences any stream whose term falls below its own mark
// (the welcome, every heartbeat, and every batch's embedded term are
// checked), and a leader that hears a higher term in a hello knows it
// was deposed. The separate "HELLO term=<t>" probe verb (answered with
// "OK hello role=<r> term=<t> epoch=<e> leader=<addr>") is how an
// orphaned follower walks its successor list looking for the live
// leader without committing to a stream.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"

	"ldl/internal/wal"
)

// Frame kinds.
const (
	kindSeed      = 'S'
	kindBatch     = 'B'
	kindHeartbeat = 'H'
)

// maxFrame bounds a declared frame length: the WAL's maximum record
// size plus framing slack. A corrupted length field fails fast instead
// of allocating gigabytes.
const maxFrame = 64<<20 + 64

// ErrCorruptFrame reports a frame whose checksum did not match — noise
// on the wire or a torn write. The receiver drops the connection and
// re-requests the data by reconnecting from its applied epoch.
var ErrCorruptFrame = errors.New("repl: corrupt frame (crc mismatch)")

// appendFrame encodes one frame into buf: the WAL's len|crc frame
// around the kind byte and the payload.
func appendFrame(buf []byte, kind byte, payload []byte) []byte {
	buf, at := wal.OpenFrame(buf)
	buf = append(append(buf, kind), payload...)
	return wal.CloseFrame(buf, at)
}

// writeFrame sends one frame with a single Write call — the granularity
// the fault-injection seam (FaultConn) relies on: one injected fault
// hits exactly one frame.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	_, err := w.Write(appendFrame(nil, kind, payload))
	return err
}

// readFrame reads and validates one frame.
func readFrame(r *bufio.Reader) (kind byte, payload []byte, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("repl: frame length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return 0, nil, ErrCorruptFrame
	}
	return body[0], body[1:], nil
}

// HelloLine renders the follower's handshake line: its last applied
// epoch and its leader-term high-water mark. The term tells a deposed
// leader it has been superseded the moment any up-to-date follower
// dials it.
func HelloLine(applied, term uint64) string {
	return fmt.Sprintf("REPL %d term=%d", applied, term)
}

// ParseHello reads the follower handshake, returning its last applied
// epoch and term high-water mark (0 when the term field is absent — a
// pre-term follower). The server front end calls this on a "REPL ..."
// command line.
func ParseHello(line string) (applied, term uint64, err error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields) > 3 || fields[0] != "REPL" {
		return 0, 0, fmt.Errorf("repl: malformed hello %q (want \"REPL <epoch> [term=<t>]\")", line)
	}
	if applied, err = strconv.ParseUint(fields[1], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("repl: malformed hello epoch %q", fields[1])
	}
	if len(fields) == 3 {
		if term, err = parseField(fields[2], "term="); err != nil {
			return 0, 0, fmt.Errorf("repl: malformed hello term in %q", line)
		}
	}
	return applied, term, nil
}

// WelcomeLine renders the leader's handshake response: its published
// head epoch, the address it advertises for write redirects, and its
// leader term.
func WelcomeLine(head uint64, leader string, term uint64) string {
	return fmt.Sprintf("OK repl epoch=%d leader=%s term=%d", head, leader, term)
}

// ParseWelcome reads the leader handshake response. An absent term
// field yields term 0 (a pre-term leader); a malformed or overflowing
// one is an error.
func ParseWelcome(line string) (head uint64, leader string, term uint64, err error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "OK" || fields[1] != "repl" {
		return 0, "", 0, fmt.Errorf("repl: malformed welcome %q", line)
	}
	for _, f := range fields[2:] {
		switch {
		case strings.HasPrefix(f, "epoch="):
			if head, err = parseField(f, "epoch="); err != nil {
				return 0, "", 0, fmt.Errorf("repl: malformed welcome epoch in %q", line)
			}
		case strings.HasPrefix(f, "leader="):
			leader = f[len("leader="):]
		case strings.HasPrefix(f, "term="):
			if term, err = parseField(f, "term="); err != nil {
				return 0, "", 0, fmt.Errorf("repl: malformed welcome term in %q", line)
			}
		}
	}
	return head, leader, term, nil
}

// parseField strictly parses the decimal value of a "key=<v>" field:
// the key must match and the whole value must be digits that fit a
// uint64.
func parseField(f, prefix string) (uint64, error) {
	if !strings.HasPrefix(f, prefix) {
		return 0, fmt.Errorf("repl: field %q does not start with %q", f, prefix)
	}
	return strconv.ParseUint(f[len(prefix):], 10, 64)
}

// ParseRedirect extracts the leader address from an "ERR read-only
// leader=<addr>" (or any ERR line carrying a leader= field) — the
// re-target hint a follower or client gets when it writes to, or tries
// to stream from, a peer that knows where the live leader is.
func ParseRedirect(line string) (leader string, ok bool) {
	if !strings.HasPrefix(line, "ERR") {
		return "", false
	}
	for _, f := range strings.Fields(line) {
		if strings.HasPrefix(f, "leader=") && len(f) > len("leader=") {
			return f[len("leader="):], true
		}
	}
	return "", false
}

// ProbeRole values reported in a HELLO reply.
const (
	RoleLeader  = "leader"
	RoleReplica = "replica"
)

// Probe is one peer's answer to a HELLO: what it is, how far it has
// published, which term it serves under, and where it thinks writes
// should go. An orphaned follower walks its successor list collecting
// these and re-attaches to the highest-term writable peer.
type Probe struct {
	Role   string // RoleLeader or RoleReplica
	Term   uint64
	Epoch  uint64 // published head epoch
	Leader string // advertised write address ("" when unknown)
}

// ProbeLine renders the HELLO request, carrying the prober's own term
// so a deposed leader learns of its succession from the probe itself.
func ProbeLine(term uint64) string { return fmt.Sprintf("HELLO term=%d", term) }

// ParseProbe reads a HELLO request, returning the prober's term (0 when
// absent).
func ParseProbe(line string) (term uint64, err error) {
	fields := strings.Fields(line)
	if len(fields) < 1 || len(fields) > 2 || !strings.EqualFold(fields[0], "HELLO") {
		return 0, fmt.Errorf("repl: malformed probe %q (want \"HELLO [term=<t>]\")", line)
	}
	if len(fields) == 2 {
		if term, err = parseField(fields[1], "term="); err != nil {
			return 0, fmt.Errorf("repl: malformed probe term in %q", line)
		}
	}
	return term, nil
}

// ProbeReplyLine renders the HELLO response.
func ProbeReplyLine(p Probe) string {
	return fmt.Sprintf("OK hello role=%s term=%d epoch=%d leader=%s", p.Role, p.Term, p.Epoch, p.Leader)
}

// ParseProbeReply reads a HELLO response.
func ParseProbeReply(line string) (Probe, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "OK" || fields[1] != "hello" {
		return Probe{}, fmt.Errorf("repl: malformed probe reply %q", line)
	}
	var p Probe
	var err error
	for _, f := range fields[2:] {
		switch {
		case strings.HasPrefix(f, "role="):
			p.Role = f[len("role="):]
		case strings.HasPrefix(f, "term="):
			if p.Term, err = parseField(f, "term="); err != nil {
				return Probe{}, fmt.Errorf("repl: malformed probe term in %q", line)
			}
		case strings.HasPrefix(f, "epoch="):
			if p.Epoch, err = parseField(f, "epoch="); err != nil {
				return Probe{}, fmt.Errorf("repl: malformed probe epoch in %q", line)
			}
		case strings.HasPrefix(f, "leader="):
			p.Leader = f[len("leader="):]
		}
	}
	if p.Role != RoleLeader && p.Role != RoleReplica {
		return Probe{}, fmt.Errorf("repl: malformed probe role in %q", line)
	}
	return p, nil
}

// heartbeatPayload encodes a heartbeat frame's payload: the leader's
// published head epoch and its term.
func heartbeatPayload(buf []byte, head, term uint64) []byte {
	buf = binary.AppendUvarint(buf, head)
	return binary.AppendUvarint(buf, term)
}

// parseHeartbeat decodes a heartbeat payload. A payload holding only
// the head epoch is a pre-term heartbeat (term 0); trailing bytes
// beyond the two fields are corruption.
func parseHeartbeat(payload []byte) (head, term uint64, err error) {
	head, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, 0, errors.New("repl: malformed heartbeat")
	}
	rest := payload[n:]
	if len(rest) == 0 {
		return head, 0, nil
	}
	term, n = binary.Uvarint(rest)
	if n <= 0 || len(rest[n:]) != 0 {
		return 0, 0, errors.New("repl: malformed heartbeat term")
	}
	return head, term, nil
}
