package wal

// Record and term codec. One log record encodes one InsertFacts batch:
// the epoch it published plus, per touched relation, the relation tag
// and its new ground rows. The frame, varint, string and term helpers
// are shared with the segment files and manifests (internal/segment).
//
// Framing (little-endian):
//
//	+---------+---------+----------------------+
//	| len u32 | crc u32 | payload (len bytes)  |
//	+---------+---------+----------------------+
//
// crc is the IEEE CRC-32 of the payload. The payload of a record:
//
//	byte kind ('B' batch, 'T' term bump)
//	uvarint term (the leader term the record was written under)
//	uvarint epoch
//	kind 'B' only:
//	  uvarint #relations
//	  per relation:
//	    uvarint len(tag), tag bytes
//	    uvarint arity
//	    uvarint #rows
//	    per row: arity terms
//
// A 'T' record carries no facts: it persists a leader-term bump
// (PROMOTE, or a higher term observed on the wire) so recovery can
// restore the term high-water mark and fence stale streams after a
// restart. Its epoch is the head epoch at the time of the bump.
//
// Terms are a tagged prefix encoding of the ground-term algebra:
//
//	'a' uvarint len bytes          atom
//	'i' zigzag-varint              integer
//	's' uvarint len bytes          string
//	'c' uvarint len functor, uvarint #args, args...   compound
//
// In memory a batch holds its rows as interned term.ID columns, the
// store's row form: encoding writes each cell's interned term, and
// decoding interns each term it reads. The bytes never hold an ID.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"ldl/internal/term"
)

// RelFacts is one relation's slice of a batch: its tag ("name/arity"),
// arity, and Rows ground rows as interned ID columns — Cols[c][i] is
// column c of row i, the column-major shape store.Relation.InsertRows
// and segment files use.
type RelFacts struct {
	Tag   string
	Arity int
	Rows  int
	Cols  [][]term.ID
}

// Record kinds. The zero Kind encodes as RecBatch so plain
// Batch{Epoch, Rels} literals keep meaning "a fact batch".
const (
	RecBatch byte = 'B' // an InsertFacts batch (or a replication seed)
	RecTerm  byte = 'T' // a leader-term bump, no facts
)

// Batch is the unit of logging and replay: the fact batch that
// published Epoch, stamped with the leader term it was written under.
// A Kind of RecTerm marks a term-bump record instead: Term is the new
// high-water mark, Epoch the head at bump time, and Rels is empty.
type Batch struct {
	Kind  byte // RecBatch (also the zero value) or RecTerm
	Term  uint64
	Epoch uint64
	Rels  []RelFacts
}

// kind normalizes the zero value to RecBatch.
func (b Batch) kind() byte {
	if b.Kind == 0 {
		return RecBatch
	}
	return b.Kind
}

// Tuples sums the row count across relations.
func (b Batch) Tuples() int {
	n := 0
	for _, r := range b.Rels {
		n += r.Rows
	}
	return n
}

// Frame and decode limits. Records are bounded so a corrupt length
// field cannot make the reader allocate unboundedly, and term nesting
// is bounded so a hostile payload cannot blow the decode stack.
const (
	frameHeader   = 8                // len u32 + crc u32
	maxRecordSize = 64 * 1024 * 1024 // 64 MiB per record
	maxTermDepth  = 512
)

// errShortFrame marks an incomplete frame at the end of a buffer — the
// torn-tail signature recovery tolerates.
var errShortFrame = errors.New("wal: short frame")

// errBadCRC marks a checksum mismatch.
var errBadCRC = errors.New("wal: crc mismatch")

// errDecode marks a structurally invalid payload (a record whose CRC
// passes but whose content cannot be a batch — only possible for bytes
// the log itself never wrote).
var errDecode = errors.New("wal: malformed record payload")

// OpenFrame appends a frame header placeholder to buf and returns the
// header's offset; CloseFrame fills it in once the payload has been
// appended after it, so a payload is encoded in place, never copied.
func OpenFrame(buf []byte) ([]byte, int) {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0), len(buf)
}

// CloseFrame completes the frame OpenFrame started at offset at: its
// payload is everything appended since.
func CloseFrame(buf []byte, at int) []byte {
	payload := buf[at+frameHeader:]
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[at+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// ReadFrame peels one frame off the head of b, returning its payload
// and the bytes after it. A frame declaring more than limit payload
// bytes is a hard decode error, never an allocation; an incomplete
// frame is errShortFrame, a checksum mismatch errBadCRC.
func ReadFrame(b []byte, limit uint32) (payload, rest []byte, err error) {
	if len(b) < frameHeader {
		return nil, nil, errShortFrame
	}
	n := binary.LittleEndian.Uint32(b)
	if n > limit {
		return nil, nil, fmt.Errorf("%w: declared payload of %d bytes", errDecode, n)
	}
	if uint64(len(b)-frameHeader) < uint64(n) {
		return nil, nil, errShortFrame
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, nil, errBadCRC
	}
	return payload, b[frameHeader+int(n):], nil
}

// DecodeUvarint reads a uvarint from the head of b.
func DecodeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errDecode
	}
	return v, b[n:], nil
}

// DecodeLen reads a uvarint that must fit as a byte count within the
// remaining buffer — the guard that keeps hostile lengths from turning
// into huge allocations.
func DecodeLen(b []byte) (int, []byte, error) {
	v, rest, err := DecodeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if v > uint64(len(rest)) {
		return 0, nil, errDecode
	}
	return int(v), rest, nil
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeString reads a string written by AppendString.
func DecodeString(b []byte) (string, []byte, error) {
	n, rest, err := DecodeLen(b)
	if err != nil {
		return "", nil, err
	}
	return string(rest[:n]), rest[n:], nil
}

// AppendID appends the codec encoding of the term interned under id.
func AppendID(buf []byte, id term.ID) []byte {
	return appendTerm(buf, term.InternedTerm(id))
}

// appendTerm appends the codec encoding of a ground term. Interned
// terms are ground by the intern table's contract.
func appendTerm(buf []byte, t term.Term) []byte {
	switch x := t.(type) {
	case term.Atom:
		buf = append(buf, 'a')
		return AppendString(buf, string(x))
	case term.Int:
		buf = append(buf, 'i')
		return binary.AppendVarint(buf, int64(x))
	case term.Str:
		buf = append(buf, 's')
		return AppendString(buf, string(x))
	case term.Comp:
		buf = append(buf, 'c')
		buf = AppendString(buf, x.Functor)
		buf = binary.AppendUvarint(buf, uint64(len(x.Args)))
		for _, a := range x.Args {
			buf = appendTerm(buf, a)
		}
		return buf
	default:
		panic(fmt.Sprintf("wal: cannot encode non-ground term %s", t))
	}
}

// DecodeID reads one term encoded by AppendID and interns it,
// returning its ID and the remaining bytes. Hostile input yields an
// error, never a panic or an oversized allocation (lengths are bounded
// by the buffer, nesting by the codec's depth cap); so does a term the
// intern table refuses.
func DecodeID(b []byte) (term.ID, []byte, error) {
	t, rest, err := decodeTerm(b, 0)
	if err != nil {
		return 0, nil, err
	}
	id, _, ok := term.TryIntern(t)
	if !ok {
		return 0, nil, errDecode
	}
	return id, rest, nil
}

// decodeTerm reads one term.
func decodeTerm(b []byte, depth int) (term.Term, []byte, error) {
	if depth > maxTermDepth {
		return nil, nil, errDecode
	}
	if len(b) == 0 {
		return nil, nil, errDecode
	}
	kind, b := b[0], b[1:]
	switch kind {
	case 'a':
		s, rest, err := DecodeString(b)
		return term.Atom(s), rest, err
	case 'i':
		v, n := binary.Varint(b)
		if n <= 0 {
			return nil, nil, errDecode
		}
		return term.Int(v), b[n:], nil
	case 's':
		s, rest, err := DecodeString(b)
		return term.Str(s), rest, err
	case 'c':
		functor, rest, err := DecodeString(b)
		if err != nil {
			return nil, nil, err
		}
		argc, rest, err := DecodeUvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		// Each argument needs at least one byte; anything larger is a
		// corrupt count.
		if argc == 0 || argc > uint64(len(rest)) {
			return nil, nil, errDecode
		}
		args := make([]term.Term, argc)
		for i := range args {
			if args[i], rest, err = decodeTerm(rest, depth+1); err != nil {
				return nil, nil, err
			}
		}
		return term.Comp{Functor: functor, Args: args}, rest, nil
	default:
		return nil, nil, errDecode
	}
}

// EncodeBatchPayload appends the unframed payload encoding of b. The
// replication stream carries the log's record payloads, so one codec
// (and one fuzz target) covers disk and wire.
func EncodeBatchPayload(buf []byte, b Batch) ([]byte, error) {
	kind := b.kind()
	if kind != RecBatch && kind != RecTerm {
		return nil, fmt.Errorf("wal: unknown record kind %q", kind)
	}
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, b.Term)
	buf = binary.AppendUvarint(buf, b.Epoch)
	if kind == RecTerm {
		if len(b.Rels) != 0 {
			return nil, fmt.Errorf("wal: term record cannot carry relations")
		}
		return buf, nil
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.Rels)))
	for _, r := range b.Rels {
		if len(r.Cols) != r.Arity {
			return nil, fmt.Errorf("wal: %s: %d columns for arity %d", r.Tag, len(r.Cols), r.Arity)
		}
		for _, col := range r.Cols {
			if len(col) < r.Rows {
				return nil, fmt.Errorf("wal: %s: column of %d rows, want %d", r.Tag, len(col), r.Rows)
			}
		}
		buf = AppendString(buf, r.Tag)
		buf = binary.AppendUvarint(buf, uint64(r.Arity))
		buf = binary.AppendUvarint(buf, uint64(r.Rows))
		for i := 0; i < r.Rows; i++ {
			for _, col := range r.Cols {
				buf = AppendID(buf, col[i])
			}
		}
	}
	return buf, nil
}

// DecodeHeader decodes only a record payload's kind, term and epoch,
// returned as a Batch without relations, and the bytes after them: the
// shipper and the follower route and fence a record by its header
// without decoding, or interning, its rows.
func DecodeHeader(b []byte) (Batch, []byte, error) {
	var h Batch
	var err error
	if len(b) == 0 {
		return Batch{}, nil, errDecode
	}
	h.Kind, b = b[0], b[1:]
	if h.Kind != RecBatch && h.Kind != RecTerm {
		return Batch{}, nil, errDecode
	}
	if h.Term, b, err = DecodeUvarint(b); err != nil {
		return Batch{}, nil, err
	}
	if h.Epoch, b, err = DecodeUvarint(b); err != nil {
		return Batch{}, nil, err
	}
	return h, b, nil
}

// DecodeBatchPayload decodes an unframed batch payload, interning every
// term. Arbitrary input is safe: bounded allocation, bounded term depth,
// no panics. The whole payload must be consumed — trailing garbage is
// corruption.
func DecodeBatchPayload(b []byte) (Batch, error) {
	out, b, err := DecodeHeader(b)
	if err != nil {
		return Batch{}, err
	}
	if out.Kind == RecTerm {
		if len(b) != 0 {
			return Batch{}, errDecode
		}
		return out, nil
	}
	nrels, b, err := DecodeUvarint(b)
	if err != nil {
		return Batch{}, err
	}
	if nrels > uint64(len(b)) {
		return Batch{}, errDecode
	}
	out.Rels = make([]RelFacts, 0, nrels)
	for i := uint64(0); i < nrels; i++ {
		var r RelFacts
		if r.Tag, b, err = DecodeString(b); err != nil {
			return Batch{}, err
		}
		arity, rest, err := DecodeUvarint(b)
		if err != nil {
			return Batch{}, err
		}
		if arity == 0 || arity > math.MaxInt32 {
			return Batch{}, errDecode
		}
		nrows, rest, err := DecodeUvarint(rest)
		if err != nil {
			return Batch{}, err
		}
		b = rest
		// A row costs at least 2 bytes per term; reject counts the
		// remaining bytes cannot possibly hold. Both factors are first
		// bounded by the buffer length so the product cannot overflow.
		if nrows > 0 && (nrows > uint64(len(b)) || arity > uint64(len(b)) || nrows*arity > uint64(len(b))) {
			return Batch{}, errDecode
		}
		r.Arity, r.Rows = int(arity), int(nrows)
		cells := make([]term.ID, r.Arity*r.Rows)
		r.Cols = make([][]term.ID, r.Arity)
		for c := range r.Cols {
			r.Cols[c] = cells[c*r.Rows : (c+1)*r.Rows : (c+1)*r.Rows]
		}
		for j := 0; j < r.Rows; j++ {
			for _, col := range r.Cols {
				if col[j], b, err = DecodeID(b); err != nil {
					return Batch{}, err
				}
			}
		}
		out.Rels = append(out.Rels, r)
	}
	if len(b) != 0 {
		return Batch{}, errDecode
	}
	return out, nil
}

// batchEqual compares two batches row for row by term ID.
func batchEqual(a, b Batch) bool {
	if a.kind() != b.kind() || a.Term != b.Term || a.Epoch != b.Epoch || len(a.Rels) != len(b.Rels) {
		return false
	}
	for i, ra := range a.Rels {
		rb := b.Rels[i]
		if ra.Tag != rb.Tag || ra.Arity != rb.Arity || ra.Rows != rb.Rows || len(ra.Cols) != len(rb.Cols) {
			return false
		}
		for c := range ra.Cols {
			if !slices.Equal(ra.Cols[c][:ra.Rows], rb.Cols[c][:rb.Rows]) {
				return false
			}
		}
	}
	return true
}

// AppendRecord appends the framed encoding of b to buf — the append
// path of the log.
func AppendRecord(buf []byte, b Batch) ([]byte, error) {
	buf, at := OpenFrame(buf)
	buf, err := EncodeBatchPayload(buf, b)
	if err != nil {
		return nil, err
	}
	if n := len(buf) - at - frameHeader; n > maxRecordSize {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d byte limit", n, maxRecordSize)
	}
	buf = CloseFrame(buf, at)
	debugCheckRecord(buf[at:], b)
	return buf, nil
}

// ReadRecord decodes one framed record from the head of data, returning
// the batch and the number of bytes consumed. Arbitrary input is safe:
// it never panics and never over-reads. Errors distinguish an
// incomplete frame (errShortFrame — the torn-tail case) from a checksum
// or structural failure.
func ReadRecord(data []byte) (Batch, int, error) {
	payload, _, err := ReadFrame(data, maxRecordSize)
	if err != nil {
		return Batch{}, 0, err
	}
	b, err := DecodeBatchPayload(payload)
	return b, frameHeader + len(payload), err
}
