package wal

// Record and term codec. One log record encodes one InsertFacts batch:
// the epoch it published plus, per touched relation, the relation tag
// and its new ground tuples. Checkpoint files reuse the same framing
// and relation encoding with a different magic, so one decoder (and one
// fuzz target) covers both.
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
//	    uvarint #tuples
//	    per tuple: arity terms
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
// Only ground terms are encodable — the fact base never stores a
// variable — so decoding always yields insertable tuples.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"ldl/internal/term"
)

// RelFacts is one relation's slice of a batch or checkpoint: its tag
// ("name/arity"), arity, and ground tuples.
type RelFacts struct {
	Tag    string
	Arity  int
	Tuples [][]term.Term
}

// Record kinds. The zero Kind encodes as RecBatch so plain
// Batch{Epoch, Rels} literals keep meaning "a fact batch".
const (
	RecBatch byte = 'B' // an InsertFacts batch (or checkpoint state)
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

// Tuples sums the tuple count across relations.
func (b Batch) Tuples() int {
	n := 0
	for _, r := range b.Rels {
		n += len(r.Tuples)
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

// appendUvarint appends v in unsigned varint encoding.
func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// appendTerm appends the codec encoding of a ground term. It returns an
// error (not a panic) on variables so callers at API boundaries can
// reject non-ground input gracefully.
func appendTerm(buf []byte, t term.Term) ([]byte, error) {
	switch x := t.(type) {
	case term.Atom:
		buf = append(buf, 'a')
		buf = appendUvarint(buf, uint64(len(x)))
		return append(buf, x...), nil
	case term.Int:
		buf = append(buf, 'i')
		return binary.AppendVarint(buf, int64(x)), nil
	case term.Str:
		buf = append(buf, 's')
		buf = appendUvarint(buf, uint64(len(x)))
		return append(buf, x...), nil
	case term.Comp:
		buf = append(buf, 'c')
		buf = appendUvarint(buf, uint64(len(x.Functor)))
		buf = append(buf, x.Functor...)
		buf = appendUvarint(buf, uint64(len(x.Args)))
		var err error
		for _, a := range x.Args {
			if buf, err = appendTerm(buf, a); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("wal: cannot encode non-ground term %s", t)
	}
}

// AppendTerm appends the codec encoding of one ground term — the
// shared term wire format the segment tier reuses for its dictionaries,
// so a term round-trips identically through log records and segment
// files. Returns an error (not a panic) on non-ground terms.
func AppendTerm(buf []byte, t term.Term) ([]byte, error) { return appendTerm(buf, t) }

// DecodeTerm reads one term encoded by AppendTerm, returning it and the
// remaining bytes. Hostile input yields an error, never a panic or an
// oversized allocation (lengths are bounded by the buffer, nesting by
// the codec's depth cap).
func DecodeTerm(b []byte) (term.Term, []byte, error) { return decodeTerm(b, 0) }

// decodeUvarint reads a uvarint bounded by the remaining buffer.
func decodeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errDecode
	}
	return v, b[n:], nil
}

// decodeLen reads a uvarint that must fit as a byte count within the
// remaining buffer — the guard that keeps hostile lengths from turning
// into huge allocations.
func decodeLen(b []byte) (int, []byte, error) {
	v, rest, err := decodeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if v > uint64(len(rest)) {
		return 0, nil, errDecode
	}
	return int(v), rest, nil
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
		n, rest, err := decodeLen(b)
		if err != nil {
			return nil, nil, err
		}
		return term.Atom(rest[:n]), rest[n:], nil
	case 'i':
		v, n := binary.Varint(b)
		if n <= 0 {
			return nil, nil, errDecode
		}
		return term.Int(v), b[n:], nil
	case 's':
		n, rest, err := decodeLen(b)
		if err != nil {
			return nil, nil, err
		}
		return term.Str(rest[:n]), rest[n:], nil
	case 'c':
		n, rest, err := decodeLen(b)
		if err != nil {
			return nil, nil, err
		}
		functor := string(rest[:n])
		rest = rest[n:]
		argc, rest, err := decodeUvarint(rest)
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
			var a term.Term
			if a, rest, err = decodeTerm(rest, depth+1); err != nil {
				return nil, nil, err
			}
			args[i] = a
		}
		return term.Comp{Functor: functor, Args: args}, rest, nil
	default:
		return nil, nil, errDecode
	}
}

// appendBatchPayload appends the (unframed) payload encoding of b.
func appendBatchPayload(buf []byte, b Batch) ([]byte, error) {
	kind := b.kind()
	if kind != RecBatch && kind != RecTerm {
		return nil, fmt.Errorf("wal: unknown record kind %q", kind)
	}
	buf = append(buf, kind)
	buf = appendUvarint(buf, b.Term)
	buf = appendUvarint(buf, b.Epoch)
	if kind == RecTerm {
		if len(b.Rels) != 0 {
			return nil, fmt.Errorf("wal: term record cannot carry relations")
		}
		return buf, nil
	}
	buf = appendUvarint(buf, uint64(len(b.Rels)))
	var err error
	for _, r := range b.Rels {
		buf = appendUvarint(buf, uint64(len(r.Tag)))
		buf = append(buf, r.Tag...)
		buf = appendUvarint(buf, uint64(r.Arity))
		buf = appendUvarint(buf, uint64(len(r.Tuples)))
		for _, t := range r.Tuples {
			if len(t) != r.Arity {
				return nil, fmt.Errorf("wal: %s: tuple arity %d != relation arity %d", r.Tag, len(t), r.Arity)
			}
			for _, x := range t {
				if buf, err = appendTerm(buf, x); err != nil {
					return nil, err
				}
			}
		}
	}
	return buf, nil
}

// decodeBatchPayload decodes an unframed batch payload. The whole
// payload must be consumed — trailing garbage is corruption.
func decodeBatchPayload(b []byte) (Batch, error) {
	var out Batch
	var err error
	if len(b) == 0 {
		return Batch{}, errDecode
	}
	out.Kind, b = b[0], b[1:]
	if out.Kind != RecBatch && out.Kind != RecTerm {
		return Batch{}, errDecode
	}
	if out.Term, b, err = decodeUvarint(b); err != nil {
		return Batch{}, err
	}
	if out.Epoch, b, err = decodeUvarint(b); err != nil {
		return Batch{}, err
	}
	if out.Kind == RecTerm {
		if len(b) != 0 {
			return Batch{}, errDecode
		}
		return out, nil
	}
	nrels, b, err := decodeUvarint(b)
	if err != nil {
		return Batch{}, err
	}
	if nrels > uint64(len(b)) {
		return Batch{}, errDecode
	}
	out.Rels = make([]RelFacts, 0, nrels)
	for i := uint64(0); i < nrels; i++ {
		var r RelFacts
		n, rest, err := decodeLen(b)
		if err != nil {
			return Batch{}, err
		}
		r.Tag = string(rest[:n])
		b = rest[n:]
		arity, rest2, err := decodeUvarint(b)
		if err != nil {
			return Batch{}, err
		}
		if arity == 0 || arity > math.MaxInt32 {
			return Batch{}, errDecode
		}
		r.Arity = int(arity)
		b = rest2
		ntup, rest3, err := decodeUvarint(b)
		if err != nil {
			return Batch{}, err
		}
		b = rest3
		// A tuple costs at least 2 bytes per term; reject counts the
		// remaining bytes cannot possibly hold. Both factors are first
		// bounded by the buffer length so the product cannot overflow.
		if ntup > 0 && (ntup > uint64(len(b)) || arity > uint64(len(b)) || ntup*arity > uint64(len(b))) {
			return Batch{}, errDecode
		}
		r.Tuples = make([][]term.Term, 0, ntup)
		for j := uint64(0); j < ntup; j++ {
			tup := make([]term.Term, r.Arity)
			for c := 0; c < r.Arity; c++ {
				var x term.Term
				if x, b, err = decodeTerm(b, 0); err != nil {
					return Batch{}, err
				}
				tup[c] = x
			}
			r.Tuples = append(r.Tuples, tup)
		}
		out.Rels = append(out.Rels, r)
	}
	if len(b) != 0 {
		return Batch{}, errDecode
	}
	return out, nil
}

// batchEqual compares two batches structurally (term-for-term).
func batchEqual(a, b Batch) bool {
	if a.kind() != b.kind() || a.Term != b.Term || a.Epoch != b.Epoch || len(a.Rels) != len(b.Rels) {
		return false
	}
	for i, ra := range a.Rels {
		rb := b.Rels[i]
		if ra.Tag != rb.Tag || ra.Arity != rb.Arity || len(ra.Tuples) != len(rb.Tuples) {
			return false
		}
		for j, ta := range ra.Tuples {
			tb := rb.Tuples[j]
			if len(ta) != len(tb) {
				return false
			}
			for c := range ta {
				if !term.Equal(ta[c], tb[c]) {
					return false
				}
			}
		}
	}
	return true
}

// AppendRecord appends the framed encoding of b to buf — the append
// path of the log and (with a header in front) of checkpoints.
func AppendRecord(buf []byte, b Batch) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	buf, err := appendBatchPayload(buf, b)
	if err != nil {
		return nil, err
	}
	payload := buf[start+frameHeader:]
	if len(payload) > maxRecordSize {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d byte limit", len(payload), maxRecordSize)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	debugCheckRecord(buf[start:], b)
	return buf, nil
}

// ReadRecord decodes one framed record from the head of data, returning
// the batch and the number of bytes consumed. Arbitrary input is safe:
// it never panics and never over-reads. Errors distinguish an
// incomplete frame (errShortFrame — the torn-tail case) from a checksum
// or structural failure.
func ReadRecord(data []byte) (Batch, int, error) {
	if len(data) < frameHeader {
		return Batch{}, 0, errShortFrame
	}
	n := binary.LittleEndian.Uint32(data)
	if n > maxRecordSize {
		return Batch{}, 0, fmt.Errorf("%w: declared payload of %d bytes", errDecode, n)
	}
	if uint64(len(data)) < frameHeader+uint64(n) {
		return Batch{}, 0, errShortFrame
	}
	payload := data[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:]) {
		return Batch{}, 0, errBadCRC
	}
	b, err := decodeBatchPayload(payload)
	if err != nil {
		return Batch{}, 0, err
	}
	return b, frameHeader + int(n), nil
}
