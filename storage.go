package ldl

// The persistent columnar segment tier: beyond-RAM fact bases and
// open-not-replay boot.
//
// A System opened with WithStorageDir keeps its fact base in three
// layers under one directory: immutable columnar segment files (the
// flushed prefix of every base relation, as dictionary-compressed
// term columns with bloom filters and zone maps), a manifest naming
// the exact live segment set plus the planner statistics gathered
// when it was written, and the ordinary write-ahead log carrying
// everything newer than the manifest. Checkpoint — background,
// explicit, or at Close — flushes each relation's in-memory tail to a
// new segment, writes the next manifest (tmp → fsync → rename, the
// flush's single commit point), and only then retires the covered log
// prefix, so a crash at any step leaves either the old manifest with
// the longer log suffix or the new manifest with the shorter one —
// both exactly the acknowledged state.
//
// Boot inverts checkpoint instead of replaying it: read the newest
// valid manifest, attach each segment as an immutable relation part
// (re-interning only the per-segment term dictionary, not the rows),
// seed the statistics catalog from the manifest entries, and replay
// only the WAL records newer than the manifest epoch. Opening a
// fact base costs the segment bytes plus the unflushed suffix — not a
// replay of history — and the attached parts keep serving probes
// through their persisted blooms and zone maps.

import (
	"fmt"

	"ldl/internal/segment"
	"ldl/internal/store"
	"ldl/internal/term"
	"ldl/internal/wal"
)

// WithStorageDir makes the System durable on the persistent columnar
// storage tier rooted at dir (created if missing): InsertFacts batches
// are write-ahead logged under dir before the epoch publishes, segment
// files hold each base relation's flushed prefix, and Load recovers
// whatever a previous process left in dir by attaching segments
// instead of replaying history. WithFsyncPolicy and
// WithCheckpointBytes tune it; combine with Close for a clean shutdown
// (final flush). A directory holding a checkpoint of the retired
// snapshot format is refused, not half-loaded.
func WithStorageDir(dir string) SystemOption {
	return func(c *sysConfig) { c.segDir = dir }
}

// segState is the storage tier's runtime state. man is the manifest
// the directory currently commits to; it is read at boot and advanced
// only by segCheckpoint (under ckptMu). The statistics a manifest
// persists are its epoch's catalog, which is gathered from the facts.
type segState struct {
	dir string
	fs  wal.FS
	man *segment.Manifest
}

// attachSegments mounts the storage directory's committed prefix into
// the empty db: it loads the newest valid manifest and attaches each
// segment as an immutable relation part. Load then inserts the program
// facts and replays the log suffix past the returned manifest's epoch.
func (s *System) attachSegments(db *store.Database, cfg sysConfig) (*segment.Manifest, error) {
	fs, dir := cfg.walFS, cfg.segDir
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("ldl: storage: %w", err)
	}
	man, err := segment.LoadManifest(fs, dir)
	if err != nil {
		return nil, fmt.Errorf("ldl: storage: %w", err)
	}
	// Clear crash debris before touching anything: stale *.tmp files
	// from an interrupted flush, superseded manifests, and segment
	// files nothing references.
	segment.Sweep(fs, dir, man)
	if man == nil {
		man = &segment.Manifest{}
	}
	for _, re := range man.Rels {
		segs, err := segment.OpenRel(fs, dir, re)
		if err != nil {
			return nil, fmt.Errorf("ldl: storage: %w", err)
		}
		rel := db.Ensure(re.Tag, re.Arity)
		for i, sg := range segs {
			if err := rel.AttachPart(sg.PartData()); err != nil {
				return nil, fmt.Errorf("ldl: storage: attaching %s: %w", re.Segments[i], err)
			}
		}
	}
	s.seg = &segState{dir: dir, fs: fs, man: man}
	return man, nil
}

// segCheckpoint is Checkpoint on the storage tier: freeze the epoch's
// relation tails into immutable parts, flush every relation's rows
// past its manifest watermark to a new segment file, commit the new
// manifest, and retire the covered log prefix. Caller holds ckptMu.
//
// Ordering is the crash-safety argument. The log rotates at the head
// epoch before anything is written, so the retiring prefix and the
// manifest cover exactly the same records; segments land before the
// manifest that names them (rename is the commit point); the log
// prefix retires only after the manifest is durable. A crash before
// the manifest rename leaves orphan segment files (swept at next
// boot) and the old manifest + full log; a crash after it leaves the
// new manifest + a log suffix recovery already knows to skip.
func (s *System) segCheckpoint() error {
	// Phase 1, under writeMu: rotate at the head (see rotateAtHead) and
	// republish the same epoch with every tail frozen. Freezing here is
	// what makes the flush below read stable arrays — and what makes
	// every later epoch fork pay O(delta). A head at the manifest epoch
	// is already flushed and published: nothing to do.
	s.writeMu.Lock()
	if s.headState().id == s.seg.man.Epoch {
		s.writeMu.Unlock()
		return nil
	}
	ep, err := s.rotateAtHead()
	// The manifest has no term field, so the term must survive in the
	// log itself: re-anchor the mark in the fresh active segment before
	// Retire deletes the segments that held the old term records.
	if err == nil && s.term > 1 {
		err = s.wal.AppendTerm(s.term, ep.id)
	}
	if err != nil {
		s.writeMu.Unlock()
		return err
	}
	frozen := &epochState{id: ep.id, db: ep.db.FrozenFork(), cat: ep.cat, hints: ep.hints, mat: ep.mat}
	s.head = frozen
	// Same epoch id, same facts: publish() refuses id <= current, so
	// swap directly. Safe because head cannot advance while writeMu is
	// held and a racing phase-2 publish of this id is a no-op.
	s.epoch.Store(frozen)
	s.writeMu.Unlock()

	// Phase 2, no locks: write the new segments and the manifest. The
	// epoch is immutable, so the flush races nothing; a failure leaves
	// the old manifest in force and the next checkpoint retries from
	// the same watermarks.
	prev := s.seg.man
	prevRows := make(map[string]int, len(prev.Rels))
	prevSegs := make(map[string][]string, len(prev.Rels))
	for _, re := range prev.Rels {
		prevRows[re.Tag] = re.Rows
		prevSegs[re.Tag] = re.Segments
	}
	next := &segment.Manifest{Epoch: ep.id}
	seq := 0
	for _, tag := range frozen.db.Tags() {
		r := frozen.db.Relation(tag)
		w, n := prevRows[tag], r.Len()
		segs := prevSegs[tag]
		if n > w {
			name := segment.SegName(ep.id, tag, seq)
			seq++
			cols := make([][]term.ID, r.Arity)
			for c := range cols {
				cols[c] = r.ColumnSince(c, w)
			}
			if err := segment.Write(s.seg.fs, s.seg.dir, name, tag, r.Arity, cols, n-w); err != nil {
				return err
			}
			segs = append(segs[:len(segs):len(segs)], name)
		}
		next.Rels = append(next.Rels, segment.RelEntry{Tag: tag, Arity: r.Arity, Rows: n, Segments: segs, Stats: ep.cat.Stats(tag)})
	}
	if err := segment.WriteManifest(s.seg.fs, s.seg.dir, next); err != nil {
		return err
	}
	s.seg.man = next
	s.segFlushes.Add(1)

	// The manifest is durable: the log prefix it covers is dead weight,
	// as are the previous manifest and any segment it alone referenced.
	if err := s.wal.Retire(ep.id); err != nil {
		return err
	}
	segment.Sweep(s.seg.fs, s.seg.dir, next)
	return nil
}

// StorageStats is the segment-tier health snapshot STATS exposes.
type StorageStats struct {
	// Enabled reports whether the System runs on WithStorageDir; the
	// other fields are zero when it does not.
	Enabled bool
	// ManifestEpoch is the epoch of the manifest the directory commits
	// to (0 = nothing flushed yet).
	ManifestEpoch uint64
	// Segments and SegmentRows count the live segment files and the
	// rows they hold; TailRows is the in-memory suffix the next flush
	// will cover.
	Segments    int
	SegmentRows int
	TailRows    int
	// Flushes counts successful segment flushes by this process.
	Flushes int64
	// BloomPrunes / ZonePrunes / RowBloomSkips are the process-wide
	// part-pruning counters: probes a segment's column bloom filter,
	// zone map, or row bloom answered without touching row data.
	BloomPrunes   int64
	ZonePrunes    int64
	RowBloomSkips int64
}

// StorageStats reports the segment-tier counters.
func (s *System) StorageStats() StorageStats {
	bloom, zone, row := store.PruneStats()
	st := StorageStats{BloomPrunes: bloom, ZonePrunes: zone, RowBloomSkips: row}
	if s.seg == nil {
		return st
	}
	st.Enabled = true
	st.Flushes = s.segFlushes.Load()
	s.ckptMu.Lock()
	man := s.seg.man
	s.ckptMu.Unlock()
	st.ManifestEpoch = man.Epoch
	for _, re := range man.Rels {
		st.Segments += len(re.Segments)
		st.SegmentRows += re.Rows
	}
	db := s.snapshot().db // one epoch for the whole sum
	for _, tag := range db.Tags() {
		st.TailRows += db.Relation(tag).Len()
	}
	st.TailRows -= st.SegmentRows
	if st.TailRows < 0 {
		st.TailRows = 0
	}
	return st
}
