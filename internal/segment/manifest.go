// The manifest is the storage tier's root pointer: a single small file
// naming, for every relation, the exact segment files that make up its
// flushed prefix, the row watermark they cover, and the planner
// statistics gathered when they were written. Boot reads the newest
// valid manifest, attaches its segments, and replays only the WAL
// suffix past the manifest's epoch — open, not replay. Writing a new
// manifest is the commit point of a flush: until the rename lands, the
// old manifest (and the longer WAL suffix it implies) fully describes
// the durable state.

package segment

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ldl/internal/stats"
	"ldl/internal/term"
	"ldl/internal/wal"
)

const manifestMagic = uint64(0x4c444c4d414e3100) // "LDLMAN1\0"

// RelEntry is one relation's flushed state in a manifest.
type RelEntry struct {
	Tag      string
	Arity    int
	Rows     int      // flush watermark: rows covered by Segments
	Segments []string // segment file names, oldest first
	Stats    stats.RelStats
}

// Manifest names the live segment set as of Epoch.
type Manifest struct {
	Epoch uint64
	Rels  []RelEntry
}

// SegName returns the canonical segment file name for the part of tag
// flushed at epoch with per-epoch sequence seq. The epoch prefix keeps
// names unique across flushes; the manifest, not the name, decides
// liveness.
func SegName(epoch uint64, tag string, seq int) string {
	return fmt.Sprintf("seg-%016x-%03d-%s", epoch, seq, sanitize(tag))
}

// ManifestName returns the manifest file name for epoch.
func ManifestName(epoch uint64) string {
	return fmt.Sprintf("manifest-%016x", epoch)
}

// sanitize maps a relation tag onto filename-safe characters.
func sanitize(tag string) string {
	var b strings.Builder
	for _, r := range tag {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('~')
		}
	}
	return b.String()
}

// manifestEpoch parses a manifest file name, reporting ok=false for
// anything else.
func manifestEpoch(name string) (uint64, bool) {
	rest, found := strings.CutPrefix(name, "manifest-")
	if !found || len(rest) != 16 {
		return 0, false
	}
	e, err := strconv.ParseUint(rest, 16, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// isSegName reports whether name looks like a segment file.
func isSegName(name string) bool {
	return strings.HasPrefix(name, "seg-") && !strings.HasSuffix(name, ".tmp")
}

// encodeManifest serializes m as one CRC frame over a magic-prefixed
// payload.
func encodeManifest(m *Manifest) []byte {
	p, at := wal.OpenFrame(nil)
	p = binary.LittleEndian.AppendUint64(p, manifestMagic)
	p = binary.LittleEndian.AppendUint64(p, m.Epoch)
	p = binary.AppendUvarint(p, uint64(len(m.Rels)))
	for _, r := range m.Rels {
		p = wal.AppendString(p, r.Tag)
		p = binary.AppendUvarint(p, uint64(r.Arity))
		p = binary.AppendUvarint(p, uint64(r.Rows))
		p = binary.AppendUvarint(p, uint64(len(r.Segments)))
		for _, s := range r.Segments {
			p = wal.AppendString(p, s)
		}
		p = binary.LittleEndian.AppendUint64(p, uint64(int64(r.Stats.Card*256)))
		p = binary.AppendUvarint(p, uint64(len(r.Stats.Distinct)))
		for _, d := range r.Stats.Distinct {
			p = binary.LittleEndian.AppendUint64(p, uint64(int64(d*256)))
		}
		if r.Stats.Acyclic {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
	}
	return wal.CloseFrame(p, at)
}

// decodeManifest parses an encoded manifest, rejecting malformed input
// without panicking.
func decodeManifest(data []byte) (*Manifest, error) {
	p, rest, err := wal.ReadFrame(data, math.MaxUint32)
	if err != nil || len(rest) != 0 {
		return nil, errCorrupt
	}
	if len(p) < 16 || binary.LittleEndian.Uint64(p) != manifestMagic {
		return nil, errCorrupt
	}
	m := &Manifest{Epoch: binary.LittleEndian.Uint64(p[8:])}
	p = p[16:]
	nRels, p, err := wal.DecodeUvarint(p)
	if err != nil || nRels > uint64(len(data)) {
		return nil, errCorrupt
	}
	for i := uint64(0); i < nRels; i++ {
		var r RelEntry
		if r.Tag, p, err = wal.DecodeString(p); err != nil {
			return nil, errCorrupt
		}
		var v uint64
		if v, p, err = wal.DecodeUvarint(p); err != nil || v > maxArity {
			return nil, errCorrupt
		}
		r.Arity = int(v)
		if v, p, err = wal.DecodeUvarint(p); err != nil {
			return nil, errCorrupt
		}
		r.Rows = int(v)
		var nSegs int
		if nSegs, p, err = wal.DecodeLen(p); err != nil {
			return nil, errCorrupt
		}
		for s := 0; s < nSegs; s++ {
			var name string
			if name, p, err = wal.DecodeString(p); err != nil || !isSegName(name) {
				return nil, errCorrupt
			}
			r.Segments = append(r.Segments, name)
		}
		if len(p) < 8 {
			return nil, errCorrupt
		}
		r.Stats.Card = float64(int64(binary.LittleEndian.Uint64(p))) / 256
		p = p[8:]
		var nDist uint64
		if nDist, p, err = wal.DecodeUvarint(p); err != nil || nDist > maxArity || nDist*8 > uint64(len(p)) {
			return nil, errCorrupt
		}
		for d := uint64(0); d < nDist; d++ {
			r.Stats.Distinct = append(r.Stats.Distinct, float64(int64(binary.LittleEndian.Uint64(p)))/256)
			p = p[8:]
		}
		if len(p) < 1 || p[0] > 1 {
			return nil, errCorrupt
		}
		r.Stats.Acyclic = p[0] == 1
		p = p[1:]
		m.Rels = append(m.Rels, r)
	}
	if len(p) != 0 {
		return nil, errCorrupt
	}
	return m, nil
}

// WriteManifest durably writes m as dir/manifest-<epoch>. The rename is
// the flush's commit point.
func WriteManifest(fs wal.FS, dir string, m *Manifest) error {
	return writeDurable(fs, dir, ManifestName(m.Epoch), encodeManifest(m))
}

// LoadManifest returns the newest manifest in dir that validates, or
// (nil, nil) when none exists. Invalid manifests are skipped in favor
// of older ones — a half-written manifest from a crashed flush must not
// mask the previous good state.
func LoadManifest(fs wal.FS, dir string) (*Manifest, error) {
	names, err := fs.List(dir)
	if err != nil {
		return nil, fmt.Errorf("segment: load manifest: %w", err)
	}
	var epochs []uint64
	for _, n := range names {
		if e, ok := manifestEpoch(n); ok {
			epochs = append(epochs, e)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })
	for _, e := range epochs {
		data, err := fs.ReadFile(dir + "/" + ManifestName(e))
		if err != nil {
			continue
		}
		m, derr := decodeManifest(data)
		if derr != nil || m.Epoch != e {
			continue
		}
		return m, nil
	}
	return nil, nil
}

// OpenRel opens the segments re names, oldest first, and checks them
// against the entry: they must hold its relation, arity and row count.
// Boot attaches the result; PlanShip turns it into a seed.
func OpenRel(fs wal.FS, dir string, re RelEntry) ([]*Segment, error) {
	segs := make([]*Segment, 0, len(re.Segments))
	rows := 0
	for _, name := range re.Segments {
		sg, err := Open(fs, dir, name)
		if err != nil {
			return nil, err
		}
		if sg.Tag != re.Tag || sg.Arity != re.Arity {
			return nil, fmt.Errorf("segment: %s holds %s/%d, manifest expects %s/%d", name, sg.Tag, sg.Arity, re.Tag, re.Arity)
		}
		rows += sg.Rows
		segs = append(segs, sg)
	}
	if rows != re.Rows {
		return nil, fmt.Errorf("segment: %s: segments hold %d rows, manifest records %d", re.Tag, rows, re.Rows)
	}
	return segs, nil
}

// PlanShip decides how to ship dir's history to a follower whose last
// applied epoch is from (0 = fresh follower, nothing applied).
//
// If a log segment with base <= from survives, every record the
// follower is missing is still on disk: resume from that segment,
// skipping records at or below from. Otherwise the records in (from,
// oldest base] were retired by a flush, and the follower re-seeds from
// the newest valid manifest's rows before tailing the log after it.
func PlanShip(dir string, fs wal.FS, from uint64) (wal.ShipPlan, error) {
	if fs == nil {
		fs = wal.OS()
	}
	logs, err := wal.Segments(dir, fs)
	if err != nil {
		return wal.ShipPlan{}, err
	}
	// Resume path: the newest segment with base <= from covers the
	// boundary; everything older holds only epochs <= from.
	for i := len(logs) - 1; i >= 0; i-- {
		if logs[i] <= from {
			return wal.ShipPlan{Cursor: wal.Cursor{Base: logs[i], Epoch: from}}, nil
		}
	}
	man, err := LoadManifest(fs, dir)
	if err != nil {
		return wal.ShipPlan{}, err
	}
	if man == nil {
		if len(logs) > 0 {
			// Records beyond from were retired, yet no manifest covers
			// them: acknowledged history is unreachable. Refuse rather
			// than guess.
			return wal.ShipPlan{}, &wal.CorruptError{
				Name:   fmt.Sprintf("log-%016x", logs[0]),
				Reason: fmt.Sprintf("records in (%d, %d] retired with no valid manifest to reseed from", from, logs[0]),
			}
		}
		// Empty directory: nothing to ship yet. Tail from wherever the
		// writer starts; ReadLive treats a missing segment as "not yet".
		return wal.ShipPlan{Cursor: wal.Cursor{Base: from, Epoch: from}}, nil
	}
	// A segment that vanished since the manifest read fails the plan
	// whole: the caller drops the follower, which reconnects and
	// re-plans, and never receives a partial seed.
	seed, err := manifestRows(fs, dir, man)
	if err != nil {
		return wal.ShipPlan{}, err
	}
	// Tail from the segment the flush's rotation opened, or from the
	// oldest survivor if a later flush retired that one too.
	cur := wal.Cursor{Base: man.Epoch, Epoch: man.Epoch}
	if len(logs) > 0 && !slices.Contains(logs, man.Epoch) {
		cur.Base = logs[0]
	}
	return wal.ShipPlan{Seed: seed, Cursor: cur}, nil
}

// manifestRows reads every row man commits to as one batch at its
// epoch: per relation, its segments' ID columns concatenated (the
// first segment's columns, freshly decoded and owned here, extended by
// the rest's).
func manifestRows(fs wal.FS, dir string, man *Manifest) (*wal.Batch, error) {
	b := &wal.Batch{Epoch: man.Epoch, Rels: make([]wal.RelFacts, 0, len(man.Rels))}
	for _, re := range man.Rels {
		segs, err := OpenRel(fs, dir, re)
		if err != nil {
			return nil, err
		}
		rf := wal.RelFacts{Tag: re.Tag, Arity: re.Arity, Rows: re.Rows, Cols: make([][]term.ID, re.Arity)}
		for i, sg := range segs {
			if i == 0 {
				rf.Cols = sg.Cols
				continue
			}
			for c, col := range sg.Cols {
				rf.Cols[c] = append(rf.Cols[c], col...)
			}
		}
		b.Rels = append(b.Rels, rf)
	}
	return b, nil
}

// Sweep removes storage-tier debris from dir: *.tmp files left by
// crashed flushes, manifests other than keep, and segment files keep
// does not reference. keep == nil removes every manifest and segment.
// Removal failures are ignored — stale files are harmless to recovery,
// which is exactly why sweeping them is safe.
func Sweep(fs wal.FS, dir string, keep *Manifest) {
	live := make(map[string]bool)
	var keepName string
	if keep != nil {
		keepName = ManifestName(keep.Epoch)
		for _, r := range keep.Rels {
			for _, s := range r.Segments {
				live[s] = true
			}
		}
	}
	names, err := fs.List(dir)
	if err != nil {
		return
	}
	removed := false
	for _, n := range names {
		switch {
		case strings.HasSuffix(n, ".tmp") && (strings.HasPrefix(n, "seg-") || strings.HasPrefix(n, "manifest-")):
		case isSegName(n) && !live[n]:
		default:
			if _, ok := manifestEpoch(n); !ok || n == keepName {
				continue
			}
		}
		if fs.Remove(dir+"/"+n) == nil {
			removed = true
		}
	}
	if removed {
		fs.SyncDir(dir)
	}
}
