package store

// Shared immutable prefix parts. A Relation is a sequence of immutable
// Parts (rows flushed to segment files, or tails frozen by an earlier
// epoch) followed by an owned in-memory tail that absorbs inserts.
// Global row index = concatenation order: part 0's rows, part 1's, ...,
// then the tail. Rows never move, so all published row indexes stay
// valid across freezes and merges.
//
// Lifecycle: a commit freezes every relation it wrote before the epoch
// publishes (Frozen), so a published written relation has an empty
// tail and the next epoch's copy-on-write clone copies nothing. Frozen
// keeps the chain short with a size-tiered (binary-counter) merge:
// while the second-to-last part has fewer than twice the rows of the
// last, the two are concatenated into one new part. Consecutive parts
// therefore at least halve in size, so n rows live in at most
// ⌊log2 n⌋+1 parts; and every part a merge recopies grows by more than
// half, so each row is recopied O(log n) times over its life.
//
// Parts are shared by pointer across epochs and clones: their lazily
// built dedup sets, column indexes and per-column distinct sets are
// built once and reused by every relation that shares the part. A
// merge builds a new part and leaves the old ones untouched, so older
// epochs keep reading exactly the parts they captured.
//
// Concurrency: a Part is immutable after construction except for its
// lazily built caches (set, indexes, distinct), which publish
// atomically under buildMu — the same discipline as the Relation's own
// lazy builds, and safe under concurrent readers from many epochs at
// once.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ldl/internal/term"
)

// Part is one immutable run of rows, stored in the same form as a
// relation's tail (row indexes are part-local).
type Part struct {
	idRows

	// Lazily built caches, shared by every relation holding the part.
	set      atomic.Pointer[rowSet]
	indexes  atomic.Pointer[map[uint32]*colIndex]
	distinct atomic.Pointer[[]idSet] // per column, nil until built
	buildMu  sync.Mutex

	// idxBias maps a stored index slot value to a part-local row:
	// local = stored - idxBias. Frozen tails adopt their relation's
	// indexes, whose slots hold global indexes (bias = the tail's old
	// base); indexes built fresh on the part store local rows (bias 0).
	idxBias int

	// Pruning metadata, persisted by the segment tier. Zero values mean
	// "absent" and never prune.
	rowBloom  Bloom   // over full-row hashes
	colBlooms []Bloom // per column, over structural term hashes
	zoneOK    []bool  // column is all-Int with a valid [min,max]
	zoneMin   []int64
	zoneMax   []int64
}

// Process-wide pruning counters: how many per-part probes the bloom
// filters and zone maps short-circuited. Served via PruneStats for the
// server's seg_* STATS keys.
var (
	bloomPrunes   atomic.Int64
	zonePrunes    atomic.Int64
	rowBloomSkips atomic.Int64
)

// PruneStats reports the process-wide part-pruning counters: probes
// skipped by column bloom filters, by zone maps, and dedup probes
// skipped by row blooms.
func PruneStats() (bloom, zone, row int64) {
	return bloomPrunes.Load(), zonePrunes.Load(), rowBloomSkips.Load()
}

// find probes the part's dedup set for an ID row, returning the
// part-local row index or -1. The row bloom short-circuits misses
// without building (or touching) the set.
func (p *Part) find(h uint64, ids []term.ID) int {
	if !p.rowBloom.Empty() && !p.rowBloom.MayContain(h) {
		rowBloomSkips.Add(1)
		return -1
	}
	return p.ensureSet().find(&p.idRows, h, ids)
}

func (p *Part) ensureSet() *rowSet {
	if s := p.set.Load(); s != nil {
		return s
	}
	p.buildMu.Lock()
	defer p.buildMu.Unlock()
	if s := p.set.Load(); s != nil {
		return s
	}
	s := newRowSet(tableSize(p.len()), p.hashes)
	p.set.Store(&s)
	return &s
}

// mayMatch consults the part's zone maps and column blooms for a masked
// ID probe: false means no row of the part can match.
func (p *Part) mayMatch(cols uint32, probe []term.ID) bool {
	for c := range p.cols {
		if cols&(1<<uint(c)) == 0 {
			continue
		}
		if c < len(p.zoneOK) && p.zoneOK[c] {
			if v, ok := term.InternedTerm(probe[c]).(term.Int); !ok || int64(v) < p.zoneMin[c] || int64(v) > p.zoneMax[c] {
				zonePrunes.Add(1)
				return false
			}
		}
		if c < len(p.colBlooms) && !p.colBlooms[c].Empty() && !p.colBlooms[c].MayContain(term.IDHash(probe[c])) {
			bloomPrunes.Add(1)
			return false
		}
	}
	return true
}

func (p *Part) ensureIndex(cols uint32) *colIndex {
	if m := p.indexes.Load(); m != nil {
		if ci, ok := (*m)[cols]; ok {
			return ci
		}
	}
	p.buildMu.Lock()
	defer p.buildMu.Unlock()
	var old map[uint32]*colIndex
	if m := p.indexes.Load(); m != nil {
		if ci, ok := (*m)[cols]; ok {
			return ci
		}
		old = *m
	}
	ci := p.buildIndex(cols, p.idxBias)
	p.indexes.Store(withIndex(old, cols, ci))
	return ci
}

// ---- Relation plumbing ---------------------------------------------

// PartRows reports how many of the relation's rows live in immutable
// shared parts (the flushed/frozen prefix); rows at index >= PartRows
// are the owned in-memory tail.
func (r *Relation) PartRows() int { return r.partRows }

// Parts reports the number of immutable parts in the shared prefix.
func (r *Relation) Parts() int { return len(r.parts) }

// rowAt maps global row i to the run holding it — the owned tail or a
// part — and the row's index within that run.
func (r *Relation) rowAt(i int) (*idRows, int) {
	if ti := i - r.partRows; ti >= 0 {
		return &r.idRows, ti
	}
	k := r.partIndex(i)
	return &r.parts[k].idRows, i - r.partOff[k]
}

// partIndex binary-searches partOff for the part holding prefix row i.
func (r *Relation) partIndex(i int) int {
	lo, hi := 0, len(r.partOff)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if r.partOff[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// colViewCache holds the lazily built combined column view a
// parts-backed relation serves ColumnAt from: one dense slice per
// column covering prefix + tail, built once under buildMu and
// thereafter extended in place by appendRow (writers are never
// concurrent with readers, per the package contract, so the in-place
// extension is safe exactly like the tail slices themselves).
type colViewCache struct{ cols []idColumn }

// allColView returns column c as one dense borrowed ID slice covering
// prefix + tail.
func (r *Relation) allColView(c int) []term.ID {
	if len(r.parts) == 0 {
		return r.cols[c]
	}
	if v := r.allC.Load(); v != nil {
		return v.cols[c]
	}
	return r.buildColView().cols[c]
}

func (r *Relation) buildColView() *colViewCache {
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	if v := r.allC.Load(); v != nil {
		return v
	}
	cols := make([]idColumn, r.Arity)
	for c := range cols {
		col := make(idColumn, 0, r.Len())
		for _, p := range r.parts {
			col = append(col, p.cols[c]...)
		}
		cols[c] = append(col, r.cols[c]...)
	}
	v := &colViewCache{cols: cols}
	r.allC.Store(v)
	return v
}

// Frozen returns a relation with the same rows whose current tail has
// become one more immutable shared part, adopting the tail's ID rows,
// dedup set, and column indexes wholesale, then merged by size tier
// (see the file comment): the new part and every trailing part that
// has fewer than twice the rows of the parts after it are concatenated
// into one. The cost is O(tail + merged rows) — amortized O(log n) per
// row — and row order is unchanged. The new relation's tail is empty
// and it carries the receiver's distinct counts. The receiver remains
// readable but MUST NOT be written to afterwards (its dedup set is now
// shared with the part). Epoch publication makes this natural: a commit
// freezes what it wrote as it publishes, and later writes go to clones.
func (r *Relation) Frozen() *Relation {
	if r.idRows.len() == 0 {
		return r
	}
	p := &Part{idRows: r.idRows, idxBias: r.partRows}
	set := r.set
	p.set.Store(&set)
	p.indexes.Store(r.indexes.Load())
	parts := append(append(make([]*Part, 0, len(r.parts)+1), r.parts...), p)
	offs := append(append(make([]int, 0, len(r.parts)+1), r.partOff...), r.partRows)
	j, tier := len(parts)-1, p.len()
	for j > 0 && parts[j-1].len() < 2*tier {
		j--
		tier += parts[j].len()
	}
	if j < len(parts)-1 {
		parts = append(parts[:j], mergeParts(parts[j:]))
		offs = offs[:j+1]
	} else {
		p.buildPruning()
	}
	nr := &Relation{Name: r.Name, Arity: r.Arity, parts: parts, partOff: offs, partRows: r.partRows + p.len()}
	nr.cols = make([]idColumn, r.Arity)
	nr.set = newRowSet(tableSize(0), nil)
	nr.indexes.Store(&noIndexes)
	if d := r.dist.Load(); d != nil {
		nr.dist.Store(&distinctState{counts: slices.Clone(d.counts), fresh: make([]idSet, r.Arity)})
	}
	return nr
}

// mergeParts concatenates consecutive parts into one new part: columns
// and hashes. Its dedup set, indexes and distinct sets build lazily on
// first use; its blooms and zone maps are rebuilt now. The inputs are
// not touched — older epochs keep reading them.
func mergeParts(ps []*Part) *Part {
	n := 0
	for _, q := range ps {
		n += q.len()
	}
	m := &Part{idRows: idRows{cols: make([]idColumn, len(ps[0].cols)), hashes: make([]uint64, 0, n)}}
	for c := range m.cols {
		m.cols[c] = make(idColumn, 0, n)
	}
	for _, q := range ps {
		for c := range m.cols {
			m.cols[c] = append(m.cols[c], q.cols[c]...)
		}
		m.hashes = append(m.hashes, q.hashes...)
	}
	m.buildPruning()
	return m
}

// partBloomBitsPerKey matches the density the segment encoder uses, so
// runtime-frozen parts prune with the same selectivity as reopened ones.
const partBloomBitsPerKey = 10

// buildPruning fills in the part's row bloom, column blooms and zone
// maps from its columns — O(rows × arity), the same delta cost the
// freeze already implies. Segment-attached parts skip this: their
// pruning metadata was persisted with the file.
func (p *Part) buildPruning() {
	n := p.len()
	p.rowBloom = NewBloom(n, partBloomBitsPerKey)
	for _, h := range p.hashes {
		p.rowBloom.Add(h)
	}
	p.colBlooms = make([]Bloom, len(p.cols))
	p.zoneOK = make([]bool, len(p.cols))
	p.zoneMin = make([]int64, len(p.cols))
	p.zoneMax = make([]int64, len(p.cols))
	for c, col := range p.cols {
		bl := NewBloom(n, partBloomBitsPerKey)
		allInt := n > 0
		var mn, mx int64
		for i, id := range col {
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
		p.colBlooms[c] = bl
		p.zoneOK[c], p.zoneMin[c], p.zoneMax[c] = allInt, mn, mx
	}
}

// PartData carries a decoded segment's columns and pruning metadata
// into AttachPart. Cols must hold Arity same-length columns of interned
// IDs; Hashes, if nil, is recomputed from the IDs. The pruning fields
// are optional (absent values never prune).
type PartData struct {
	Cols      [][]term.ID
	Hashes    []uint64
	RowBloom  Bloom
	ColBlooms []Bloom
	ZoneOK    []bool
	ZoneMin   []int64
	ZoneMax   []int64
}

// AttachPart appends an immutable part built from d to the relation's
// shared prefix. Only valid while the relation's tail is empty (the
// boot path attaches segment parts before any facts load); rows are
// trusted to be duplicate-free within and across the attached parts,
// which the segment tier guarantees by construction (each segment is a
// flushed suffix of a deduplicated relation).
func (r *Relation) AttachPart(d PartData) error {
	if r.idRows.len() != 0 {
		return fmt.Errorf("store: %s: AttachPart on a relation with a non-empty tail", r.Name)
	}
	if len(d.Cols) != r.Arity {
		return fmt.Errorf("store: %s: AttachPart with %d columns into arity %d relation", r.Name, len(d.Cols), r.Arity)
	}
	n := 0
	if r.Arity > 0 {
		n = len(d.Cols[0])
		for c := 1; c < r.Arity; c++ {
			if len(d.Cols[c]) != n {
				return fmt.Errorf("store: %s: AttachPart with ragged columns", r.Name)
			}
		}
	}
	if n == 0 {
		return nil
	}
	hashes := d.Hashes
	if hashes == nil {
		hashes = make([]uint64, n)
		row := make([]term.ID, r.Arity)
		for i := 0; i < n; i++ {
			for c := 0; c < r.Arity; c++ {
				row[c] = d.Cols[c][i]
			}
			hashes[i] = idRowHash(row)
		}
	} else if len(hashes) != n {
		return fmt.Errorf("store: %s: AttachPart with %d hashes for %d rows", r.Name, len(hashes), n)
	}
	cols := make([]idColumn, r.Arity)
	for c := range cols {
		cols[c] = d.Cols[c]
	}
	p := &Part{
		idRows:    idRows{cols: cols, hashes: hashes},
		rowBloom:  d.RowBloom,
		colBlooms: d.ColBlooms,
		zoneOK:    d.ZoneOK,
		zoneMin:   d.ZoneMin,
		zoneMax:   d.ZoneMax,
	}
	r.parts = append(r.parts, p)
	r.partOff = append(r.partOff, r.partRows)
	r.partRows += n
	r.allC.Store(nil)
	r.dist.Store(nil)
	return nil
}
