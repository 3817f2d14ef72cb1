// Package segment implements the persistent columnar storage tier:
// immutable segment files of interned rows and the manifest that names
// the live set. A segment holds one relation's flushed row run as
// per-column arrays of dictionary ordinals plus the term dictionary
// itself (encoded with the WAL's term codec), so the on-disk form is
// process-independent — term.IDs are process-local, dictionary
// ordinals are not — and re-interning at open is one pass over the
// distinct terms, not over the rows. Each segment carries its pruning
// metadata: a bloom filter per column over structural term hashes
// (process-stable, so filters persist), one over full-row hashes, and
// an integer zone map per all-Int column.
//
// Layout: CRC-framed sections (the WAL's len|crc framing) — header,
// dictionary, one section per column, stats — closed by a fixed-size
// footer holding the body length and a whole-body CRC. A reader
// validates the footer first, then the body checksum, then parses; a
// torn or doctored file fails closed. Files are written tmp → fsync →
// rename → dir-sync, and a manifest names the exact segment set per
// relation, so a crash anywhere leaves the previous manifest's state
// intact. The segment tier is the only durable base state: a follower
// whose log records were retired re-seeds from the manifest's rows
// (PlanShip).
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"ldl/internal/store"
	"ldl/internal/term"
	"ldl/internal/wal"
)

const (
	fileMagic = uint64(0x4c444c5345473100) // "LDLSEG1\0"
	version   = 1

	// footerSize: bodyLen u64 | bodyCRC u32 | version u32 | magic u64 |
	// footer CRC u32.
	footerSize = 28

	frameHeader = 8 // len u32 | crc u32, mirroring the WAL record frame

	// maxArity bounds decoded arities: column masks are uint32 bitsets
	// upstream.
	maxArity = 30

	// bloomBitsPerKey sizes the persisted filters (~10 bits/key ≈ 1%
	// false positives at k=3).
	bloomBitsPerKey = 10
)

var errCorrupt = errors.New("segment: corrupt file")

// Segment is a decoded, re-interned segment: column IDs valid in this
// process, row hashes recomputed from the structural hashes, and the
// pruning metadata ready to attach to a store.Relation part.
type Segment struct {
	Tag    string
	Arity  int
	Rows   int
	Cols   [][]term.ID
	Hashes []uint64

	RowBloom  store.Bloom
	ColBlooms []store.Bloom
	ZoneOK    []bool
	ZoneMin   []int64
	ZoneMax   []int64
}

// PartData packages the segment for store.Relation.AttachPart.
func (s *Segment) PartData() store.PartData {
	return store.PartData{
		Cols:      s.Cols,
		Hashes:    s.Hashes,
		RowBloom:  s.RowBloom,
		ColBlooms: s.ColBlooms,
		ZoneOK:    s.ZoneOK,
		ZoneMin:   s.ZoneMin,
		ZoneMax:   s.ZoneMax,
	}
}

// appendFrame wraps payload in the len|crc frame.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// readFrame peels one frame off b, returning the payload and the rest.
func readFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < frameHeader {
		return nil, nil, errCorrupt
	}
	n := binary.LittleEndian.Uint32(b)
	crc := binary.LittleEndian.Uint32(b[4:])
	if uint64(n) > uint64(len(b)-frameHeader) {
		return nil, nil, errCorrupt
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, nil, errCorrupt
	}
	return payload, b[frameHeader+int(n):], nil
}

func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func decodeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errCorrupt
	}
	return v, b[n:], nil
}

// decodeLen reads a uvarint bounded by the remaining buffer length —
// the guard that keeps hostile counts from becoming huge allocations.
func decodeLen(b []byte) (int, []byte, error) {
	v, rest, err := decodeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if v > uint64(len(rest)) {
		return 0, nil, errCorrupt
	}
	return int(v), rest, nil
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeString(b []byte) (string, []byte, error) {
	n, rest, err := decodeLen(b)
	if err != nil {
		return "", nil, err
	}
	return string(rest[:n]), rest[n:], nil
}

func appendBloom(buf []byte, bl store.Bloom) []byte {
	words := bl.Words()
	buf = appendUvarint(buf, uint64(bl.K()))
	buf = appendUvarint(buf, uint64(len(words)))
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

func decodeBloom(b []byte) (store.Bloom, []byte, error) {
	k, b, err := decodeUvarint(b)
	if err != nil {
		return store.Bloom{}, nil, err
	}
	n, b, err := decodeUvarint(b)
	if err != nil {
		return store.Bloom{}, nil, err
	}
	if n*8 > uint64(len(b)) || k > 16 {
		return store.Bloom{}, nil, errCorrupt
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(b)
		b = b[8:]
	}
	return store.BloomFromWords(words, int(k)), b, nil
}

// Encode serializes rows [0, rows) of the given ID columns as a
// segment file image, computing the dictionary, blooms, and zone maps
// in the same pass. cols[c][i] is column c of row i; all terms must be
// interned (they are, by the store's insert invariant).
func Encode(tag string, arity int, cols [][]term.ID, rows int) ([]byte, error) {
	if arity < 0 || arity > maxArity {
		return nil, fmt.Errorf("segment: %s: arity %d out of range", tag, arity)
	}
	if len(cols) < arity {
		return nil, fmt.Errorf("segment: %s: %d columns for arity %d", tag, len(cols), arity)
	}
	// Dictionary: first-seen order over all columns.
	ord := make(map[term.ID]uint32)
	var dict []term.ID
	for c := 0; c < arity; c++ {
		for i := 0; i < rows; i++ {
			id := cols[c][i]
			if _, ok := ord[id]; !ok {
				ord[id] = uint32(len(dict))
				dict = append(dict, id)
			}
		}
	}

	// Header.
	var payload []byte
	payload = appendString(payload, tag)
	payload = appendUvarint(payload, uint64(arity))
	payload = appendUvarint(payload, uint64(rows))
	payload = appendUvarint(payload, uint64(len(dict)))
	body := appendFrame(nil, payload)

	// Dictionary: the terms themselves, in ordinal order, in the WAL's
	// term codec.
	payload = payload[:0]
	var err error
	for _, id := range dict {
		if payload, err = wal.AppendTerm(payload, term.InternedTerm(id)); err != nil {
			return nil, fmt.Errorf("segment: %s: %w", tag, err)
		}
	}
	body = appendFrame(body, payload)

	// Columns: ordinal per row, plus blooms/zone maps gathered in the
	// same pass.
	colBlooms := make([]store.Bloom, arity)
	zoneOK := make([]bool, arity)
	zoneMin := make([]int64, arity)
	zoneMax := make([]int64, arity)
	for c := 0; c < arity; c++ {
		payload = payload[:0]
		bl := store.NewBloom(rows, bloomBitsPerKey)
		allInt := rows > 0
		var mn, mx int64
		for i := 0; i < rows; i++ {
			id := cols[c][i]
			payload = appendUvarint(payload, uint64(ord[id]))
			bl.Add(term.IDHash(id))
			if allInt {
				if v, ok := term.InternedTerm(id).(term.Int); ok {
					if i == 0 || int64(v) < mn {
						mn = int64(v)
					}
					if i == 0 || int64(v) > mx {
						mx = int64(v)
					}
				} else {
					allInt = false
				}
			}
		}
		colBlooms[c] = bl
		zoneOK[c], zoneMin[c], zoneMax[c] = allInt, mn, mx
		body = appendFrame(body, payload)
	}

	// Stats: row bloom, then per-column bloom + zone map.
	rowBloom := store.NewBloom(rows, bloomBitsPerKey)
	rowbuf := make([]term.ID, arity)
	for i := 0; i < rows; i++ {
		for c := 0; c < arity; c++ {
			rowbuf[c] = cols[c][i]
		}
		rowBloom.Add(store.IDRowHash(rowbuf))
	}
	payload = appendBloom(payload[:0], rowBloom)
	for c := 0; c < arity; c++ {
		payload = appendBloom(payload, colBlooms[c])
		if zoneOK[c] {
			payload = append(payload, 1)
			payload = binary.AppendVarint(payload, zoneMin[c])
			payload = binary.AppendVarint(payload, zoneMax[c])
		} else {
			payload = append(payload, 0)
		}
	}
	body = appendFrame(body, payload)

	// Footer.
	out := body
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint64(out, fileMagic)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[len(body):]))
	return out, nil
}

// Decode parses and validates a segment file image, re-interning its
// dictionary. Any malformed input yields an error; Decode never panics
// and never allocates beyond a small multiple of the input size (the
// fuzz target's contract).
func Decode(data []byte) (*Segment, error) {
	if len(data) < footerSize {
		return nil, errCorrupt
	}
	foot := data[len(data)-footerSize:]
	if crc32.ChecksumIEEE(foot[:footerSize-4]) != binary.LittleEndian.Uint32(foot[footerSize-4:]) {
		return nil, errCorrupt
	}
	bodyLen := binary.LittleEndian.Uint64(foot)
	bodyCRC := binary.LittleEndian.Uint32(foot[8:])
	ver := binary.LittleEndian.Uint32(foot[12:])
	magic := binary.LittleEndian.Uint64(foot[16:])
	if magic != fileMagic || ver != version || bodyLen != uint64(len(data)-footerSize) {
		return nil, errCorrupt
	}
	body := data[:bodyLen]
	if crc32.ChecksumIEEE(body) != bodyCRC {
		return nil, errCorrupt
	}

	// Header.
	payload, body, err := readFrame(body)
	if err != nil {
		return nil, err
	}
	tag, payload, err := decodeString(payload)
	if err != nil {
		return nil, err
	}
	arity64, payload, err := decodeUvarint(payload)
	if err != nil || arity64 > maxArity {
		return nil, errCorrupt
	}
	arity := int(arity64)
	rows64, payload, err := decodeUvarint(payload)
	if err != nil {
		return nil, errCorrupt
	}
	dictN64, payload, err := decodeUvarint(payload)
	if err != nil || len(payload) != 0 {
		return nil, errCorrupt
	}
	// Every row contributes at least one ordinal byte per column, and
	// every dictionary entry at least one encoded byte, so both counts
	// are bounded by the input size.
	if rows64 > uint64(len(data)) || dictN64 > uint64(len(data)) {
		return nil, errCorrupt
	}
	rows, dictN := int(rows64), int(dictN64)

	// Dictionary.
	payload, body, err = readFrame(body)
	if err != nil {
		return nil, err
	}
	ordToID := make([]term.ID, dictN)
	for d := 0; d < dictN; d++ {
		var t term.Term
		t, payload, err = wal.DecodeTerm(payload)
		if err != nil {
			return nil, errCorrupt
		}
		id, _, ok := term.TryIntern(t)
		if !ok {
			return nil, errCorrupt
		}
		ordToID[d] = id
	}
	if len(payload) != 0 {
		return nil, errCorrupt
	}

	// Columns.
	seg := &Segment{Tag: tag, Arity: arity, Rows: rows, Cols: make([][]term.ID, arity)}
	for c := 0; c < arity; c++ {
		payload, body, err = readFrame(body)
		if err != nil {
			return nil, err
		}
		col := make([]term.ID, rows)
		for i := 0; i < rows; i++ {
			var o uint64
			o, payload, err = decodeUvarint(payload)
			if err != nil || o >= uint64(dictN) {
				return nil, errCorrupt
			}
			col[i] = ordToID[o]
		}
		if len(payload) != 0 {
			return nil, errCorrupt
		}
		seg.Cols[c] = col
	}

	// Stats.
	payload, body, err = readFrame(body)
	if err != nil {
		return nil, err
	}
	seg.RowBloom, payload, err = decodeBloom(payload)
	if err != nil {
		return nil, err
	}
	seg.ColBlooms = make([]store.Bloom, arity)
	seg.ZoneOK = make([]bool, arity)
	seg.ZoneMin = make([]int64, arity)
	seg.ZoneMax = make([]int64, arity)
	for c := 0; c < arity; c++ {
		seg.ColBlooms[c], payload, err = decodeBloom(payload)
		if err != nil {
			return nil, err
		}
		if len(payload) == 0 {
			return nil, errCorrupt
		}
		hasZone := payload[0]
		payload = payload[1:]
		if hasZone == 1 {
			mn, n := binary.Varint(payload)
			if n <= 0 {
				return nil, errCorrupt
			}
			payload = payload[n:]
			mx, n := binary.Varint(payload)
			if n <= 0 {
				return nil, errCorrupt
			}
			payload = payload[n:]
			seg.ZoneOK[c], seg.ZoneMin[c], seg.ZoneMax[c] = true, mn, mx
		} else if hasZone != 0 {
			return nil, errCorrupt
		}
	}
	if len(payload) != 0 || len(body) != 0 {
		return nil, errCorrupt
	}

	// Row hashes: recomputed from the re-interned IDs (structural
	// hashes are process-stable, so this matches what the writer's
	// relation held).
	seg.Hashes = make([]uint64, rows)
	rowbuf := make([]term.ID, arity)
	for i := 0; i < rows; i++ {
		for c := 0; c < arity; c++ {
			rowbuf[c] = seg.Cols[c][i]
		}
		seg.Hashes[i] = store.IDRowHash(rowbuf)
	}
	return seg, nil
}

// Write encodes and durably writes one segment file under dir/name:
// tmp → write → fsync → rename → dir-sync.
func Write(fs wal.FS, dir, name, tag string, arity int, cols [][]term.ID, rows int) error {
	data, err := Encode(tag, arity, cols, rows)
	if err != nil {
		return err
	}
	return writeDurable(fs, dir, name, data)
}

// Open reads and decodes the segment file dir/name.
func Open(fs wal.FS, dir, name string) (*Segment, error) {
	data, err := fs.ReadFile(dir + "/" + name)
	if err != nil {
		return nil, fmt.Errorf("segment: open %s: %w", name, err)
	}
	seg, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("segment: open %s: %w", name, err)
	}
	return seg, nil
}

// writeDurable is the shared tmp → fsync → rename → dir-sync tail.
func writeDurable(fs wal.FS, dir, name string, data []byte) error {
	tmp := dir + "/" + name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("segment: write %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("segment: write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("segment: write %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("segment: write %s: %w", name, err)
	}
	if err := fs.Rename(tmp, dir+"/"+name); err != nil {
		return fmt.Errorf("segment: write %s: %w", name, err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("segment: write %s: %w", name, err)
	}
	return nil
}
