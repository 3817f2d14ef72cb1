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
// Layout: CRC-framed sections (the WAL's len|crc frame: wal.OpenFrame,
// wal.ReadFrame) — header, dictionary, one section per column, stats —
// closed by a fixed-size footer holding the body length and a
// whole-body CRC. A reader validates the footer first, then the body
// checksum, then parses; a torn or doctored file fails closed. Files are written tmp → fsync →
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
	"math"

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

func appendBloom(buf []byte, bl store.Bloom) []byte {
	words := bl.Words()
	buf = binary.AppendUvarint(buf, uint64(bl.K()))
	buf = binary.AppendUvarint(buf, uint64(len(words)))
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

func decodeBloom(b []byte) (store.Bloom, []byte, error) {
	k, b, err := wal.DecodeUvarint(b)
	if err != nil {
		return store.Bloom{}, nil, errCorrupt
	}
	n, b, err := wal.DecodeUvarint(b)
	if err != nil {
		return store.Bloom{}, nil, errCorrupt
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
	body, at := wal.OpenFrame(nil)
	body = wal.AppendString(body, tag)
	body = binary.AppendUvarint(body, uint64(arity))
	body = binary.AppendUvarint(body, uint64(rows))
	body = binary.AppendUvarint(body, uint64(len(dict)))
	body = wal.CloseFrame(body, at)

	// Dictionary: the terms themselves, in ordinal order, in the WAL's
	// term codec.
	body, at = wal.OpenFrame(body)
	for _, id := range dict {
		body = wal.AppendID(body, id)
	}
	body = wal.CloseFrame(body, at)

	// Columns: ordinal per row, plus blooms/zone maps gathered in the
	// same pass.
	colBlooms := make([]store.Bloom, arity)
	zoneOK := make([]bool, arity)
	zoneMin := make([]int64, arity)
	zoneMax := make([]int64, arity)
	for c := 0; c < arity; c++ {
		body, at = wal.OpenFrame(body)
		bl := store.NewBloom(rows, bloomBitsPerKey)
		allInt := rows > 0
		var mn, mx int64
		for i := 0; i < rows; i++ {
			id := cols[c][i]
			body = binary.AppendUvarint(body, uint64(ord[id]))
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
		body = wal.CloseFrame(body, at)
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
	body, at = wal.OpenFrame(body)
	body = appendBloom(body, rowBloom)
	for c := 0; c < arity; c++ {
		body = appendBloom(body, colBlooms[c])
		if zoneOK[c] {
			body = append(body, 1)
			body = binary.AppendVarint(body, zoneMin[c])
			body = binary.AppendVarint(body, zoneMax[c])
		} else {
			body = append(body, 0)
		}
	}
	body = wal.CloseFrame(body, at)

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
	payload, body, err := wal.ReadFrame(body, math.MaxUint32)
	if err != nil {
		return nil, errCorrupt
	}
	tag, payload, err := wal.DecodeString(payload)
	if err != nil {
		return nil, errCorrupt
	}
	arity64, payload, err := wal.DecodeUvarint(payload)
	if err != nil || arity64 > maxArity {
		return nil, errCorrupt
	}
	arity := int(arity64)
	rows64, payload, err := wal.DecodeUvarint(payload)
	if err != nil {
		return nil, errCorrupt
	}
	dictN64, payload, err := wal.DecodeUvarint(payload)
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
	payload, body, err = wal.ReadFrame(body, math.MaxUint32)
	if err != nil {
		return nil, errCorrupt
	}
	ordToID := make([]term.ID, dictN)
	for d := range ordToID {
		if ordToID[d], payload, err = wal.DecodeID(payload); err != nil {
			return nil, errCorrupt
		}
	}
	if len(payload) != 0 {
		return nil, errCorrupt
	}

	// Columns.
	seg := &Segment{Tag: tag, Arity: arity, Rows: rows, Cols: make([][]term.ID, arity)}
	for c := 0; c < arity; c++ {
		payload, body, err = wal.ReadFrame(body, math.MaxUint32)
		if err != nil {
			return nil, errCorrupt
		}
		col := make([]term.ID, rows)
		for i := 0; i < rows; i++ {
			var o uint64
			o, payload, err = wal.DecodeUvarint(payload)
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
	payload, body, err = wal.ReadFrame(body, math.MaxUint32)
	if err != nil {
		return nil, errCorrupt
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
