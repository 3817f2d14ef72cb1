package store

// Shared immutable prefix parts. A Relation is a sequence of immutable
// Parts (rows flushed to segment files, or tails frozen by an earlier
// epoch) followed by an owned in-memory tail that absorbs inserts.
// Global row index = concatenation order: part 0's rows, part 1's, ...,
// then the tail. Rows never move, so all published row indexes stay
// valid across freezes.
//
// Parts are shared by pointer across epochs and clones: their lazily
// built dedup sets and column indexes are built once and reused by
// every relation that shares the part, which is what makes a
// copy-on-write clone O(tail) instead of O(n) — the satellite fix for
// incremental view maintenance's per-epoch clone.
//
// Concurrency: a Part is immutable after construction except for its
// lazily built caches (rows, set, indexes), which publish atomically
// under buildMu — the same discipline as the Relation's own lazy
// builds, and safe under concurrent readers from many epochs at once.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ldl/internal/term"
)

// maxParts bounds the shared prefix's part count: a probe visits every
// part, so freezing compacts back to a single part once the chain gets
// this long — the classic LSM amortization (each row is recopied
// O(log-ish) times, probes stay O(maxParts)).
const maxParts = 16

// Part is one immutable run of rows.
type Part struct {
	n      int
	cols   []idColumn // part-local, row-indexed
	hashes []uint64   // full-row structural hashes

	// Lazily built caches, shared by every relation holding the part.
	rows    atomic.Pointer[[]Tuple] // materialized term rows
	set     atomic.Pointer[partSet] // dedup set, slot = local idx + 1
	indexes atomic.Pointer[map[uint32]*colIndex]
	buildMu sync.Mutex

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

// partSet is a part's open-addressed dedup set (local idx + 1 slots).
type partSet struct {
	slots []int32
	mask  uint32
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

func (p *Part) rowEqual(local int, ids []term.ID) bool {
	for c := range p.cols {
		if p.cols[c][local] != ids[c] {
			return false
		}
	}
	return true
}

// find probes the part's dedup set for an ID row, returning the
// part-local row index or -1. The row bloom short-circuits misses
// without building (or touching) the set.
func (p *Part) find(h uint64, ids []term.ID) int {
	if !p.rowBloom.Empty() && !p.rowBloom.MayContain(h) {
		rowBloomSkips.Add(1)
		return -1
	}
	s := p.ensureSet()
	i := uint32(h) & s.mask
	for {
		v := s.slots[i]
		if v == 0 {
			return -1
		}
		local := int(v - 1)
		if p.hashes[local] == h && p.rowEqual(local, ids) {
			return local
		}
		i = (i + 1) & s.mask
	}
}

func (p *Part) ensureSet() *partSet {
	if s := p.set.Load(); s != nil {
		return s
	}
	p.buildMu.Lock()
	defer p.buildMu.Unlock()
	if s := p.set.Load(); s != nil {
		return s
	}
	size := tableSize(p.n)
	s := &partSet{slots: make([]int32, size), mask: uint32(size - 1)}
	for idx := 0; idx < p.n; idx++ {
		i := uint32(p.hashes[idx]) & s.mask
		for s.slots[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.slots[i] = int32(idx) + 1
	}
	p.set.Store(s)
	return s
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

// appendMatches probes the part's index on cols, verifies candidates
// column-wise, and appends *global* row indexes (base + local) to dst.
func (p *Part) appendMatches(cols uint32, probe []term.ID, h uint64, base int, dst []int32) []int32 {
	ci := p.ensureIndex(cols)
	start := len(dst)
	dst = ci.lookup(h, dst)
	keep := start
	for _, j := range dst[start:] {
		local := int(j) - p.idxBias
		ok := true
		for c := range p.cols {
			if cols&(1<<uint(c)) != 0 && p.cols[c][local] != probe[c] {
				ok = false
				break
			}
		}
		if ok {
			dst[keep] = int32(base + local)
			keep++
		}
	}
	return dst[:keep]
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
	ci := newColIndex(cols, p.n)
	row := make([]term.ID, len(p.cols))
	for i := 0; i < p.n; i++ {
		for c := range p.cols {
			row[c] = p.cols[c][i]
		}
		ci.insert(maskedIDHash(row, cols), i+p.idxBias)
	}
	next := make(map[uint32]*colIndex, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[cols] = ci
	p.indexes.Store(&next)
	return ci
}

// tupleRows materializes (once) and returns the part's rows as terms.
func (p *Part) tupleRows() []Tuple {
	if rp := p.rows.Load(); rp != nil {
		return *rp
	}
	p.buildMu.Lock()
	defer p.buildMu.Unlock()
	if rp := p.rows.Load(); rp != nil {
		return *rp
	}
	rows := make([]Tuple, p.n)
	for i := 0; i < p.n; i++ {
		t := make(Tuple, len(p.cols))
		for c := range p.cols {
			t[c] = term.InternedTerm(p.cols[c][i])
		}
		rows[i] = t
	}
	p.rows.Store(&rows)
	return rows
}

// ---- Relation plumbing ---------------------------------------------

// PartRows reports how many of the relation's rows live in immutable
// shared parts (the flushed/frozen prefix); rows at index >= PartRows
// are the owned in-memory tail.
func (r *Relation) PartRows() int { return r.partRows }

// Parts reports the number of immutable parts in the shared prefix.
func (r *Relation) Parts() int { return len(r.parts) }

// partAt maps a global row index inside the prefix to its part and
// part-local index. The caller guarantees i < r.partRows.
func (r *Relation) partAt(i int) (*Part, int) {
	for k, off := range r.partOff {
		if i < off+r.parts[k].n {
			return r.parts[k], i - off
		}
	}
	panic(fmt.Sprintf("store: %s: row %d outside part prefix of %d", r.Name, i, r.partRows))
}

// hashAt returns the full-row hash of global row i.
func (r *Relation) hashAt(i int) uint64 {
	if ti := i - r.partRows; ti >= 0 {
		return r.hashes[ti]
	}
	p, local := r.partAt(i)
	return p.hashes[local]
}

// idAt returns column c's interned ID of global row i.
func (r *Relation) idAt(c, i int) term.ID {
	if ti := i - r.partRows; ti >= 0 {
		return r.cols[c][ti]
	}
	p, local := r.partAt(i)
	return p.cols[c][local]
}

// tupleViewCache / colViewCache hold the lazily built combined views a
// parts-backed relation serves from Tuples/ColumnAt: one dense slice
// covering prefix + tail, built once under buildMu and thereafter
// extended in place by appendRow (writers are never concurrent with
// readers, per the package contract, so the in-place extension is safe
// exactly like the tail slices themselves).
type tupleViewCache struct{ rows []Tuple }
type colViewCache struct{ cols []idColumn }

// allTuplesView returns the relation's rows as one dense borrowed
// slice: the tail itself when there is no prefix, otherwise the
// combined view (built on first use; O(n) term materialization for
// segment-loaded parts, header copies for frozen ones).
func (r *Relation) allTuplesView() []Tuple {
	if len(r.parts) == 0 {
		return r.tuples
	}
	if v := r.allT.Load(); v != nil {
		return v.rows
	}
	return r.buildTupleView().rows
}

func (r *Relation) buildTupleView() *tupleViewCache {
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	if v := r.allT.Load(); v != nil {
		return v
	}
	rows := make([]Tuple, 0, r.partRows+len(r.tuples))
	for _, p := range r.parts {
		rows = append(rows, p.tupleRows()...)
	}
	rows = append(rows, r.tuples...)
	v := &tupleViewCache{rows: rows}
	r.allT.Store(v)
	return v
}

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
		col := make(idColumn, 0, r.partRows+len(r.tuples))
		for _, p := range r.parts {
			col = append(col, p.cols[c]...)
		}
		cols[c] = append(col, r.cols[c]...)
	}
	v := &colViewCache{cols: cols}
	r.allC.Store(v)
	return v
}

// tupleAt is TupleAt without the borrow annotation: global row i,
// materializing part rows through the part's row cache.
func (r *Relation) tupleAt(i int) Tuple {
	if ti := i - r.partRows; ti >= 0 {
		return r.tuples[ti]
	}
	p, local := r.partAt(i)
	return p.tupleRows()[local]
}

// Frozen returns a relation with the same rows whose current tail has
// become one more immutable shared part, adopting the tail's arrays,
// dedup set, and column indexes wholesale — O(1) in the tail size.
// The new relation's tail is empty; the receiver remains readable but
// MUST NOT be written to afterwards (its dedup set is now shared with
// the part). Epoch publication makes this natural: freeze a relation as
// it is published, write only to clones. When the part chain reaches
// maxParts the relation is first compacted into a single flat run —
// O(n), amortized over the freezes that built the chain.
func (r *Relation) Frozen() *Relation {
	if len(r.tuples) == 0 {
		return r
	}
	if len(r.parts)+1 > maxParts {
		r = r.compacted()
		if len(r.tuples) == 0 {
			return r
		}
	}
	p := &Part{
		n:       len(r.tuples),
		cols:    r.cols,
		hashes:  r.hashes,
		idxBias: r.partRows,
	}
	p.buildPruning()
	rows := r.tuples
	p.rows.Store(&rows)
	p.set.Store(&partSet{slots: r.setSlots, mask: r.setMask})
	p.indexes.Store(r.indexes.Load())
	nr := &Relation{Name: r.Name, Arity: r.Arity}
	nr.parts = append(append([]*Part(nil), r.parts...), p)
	nr.partOff = append(append([]int(nil), r.partOff...), r.partRows)
	nr.partRows = r.partRows + p.n
	nr.cols = make([]idColumn, r.Arity)
	size := tableSize(0)
	nr.setSlots = make([]int32, size)
	nr.setMask = uint32(size - 1)
	empty := map[uint32]*colIndex{}
	nr.indexes.Store(&empty)
	return nr
}

// partBloomBitsPerKey matches the density the segment encoder uses, so
// runtime-frozen parts prune with the same selectivity as reopened ones.
const partBloomBitsPerKey = 10

// buildPruning fills in the part's row bloom, column blooms and zone
// maps from its columns — O(rows × arity), the same delta cost the
// freeze already implies. Segment-attached parts skip this: their
// pruning metadata was persisted with the file.
func (p *Part) buildPruning() {
	p.rowBloom = NewBloom(p.n, partBloomBitsPerKey)
	for _, h := range p.hashes {
		p.rowBloom.Add(h)
	}
	p.colBlooms = make([]Bloom, len(p.cols))
	p.zoneOK = make([]bool, len(p.cols))
	p.zoneMin = make([]int64, len(p.cols))
	p.zoneMax = make([]int64, len(p.cols))
	for c, col := range p.cols {
		bl := NewBloom(p.n, partBloomBitsPerKey)
		allInt := p.n > 0
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

// compacted rebuilds the relation as a single flat tail (no parts),
// reusing interned IDs and row hashes.
func (r *Relation) compacted() *Relation {
	flat := NewRelationSized(r.Name, r.Arity, r.Len())
	n := r.Len()
	for i := 0; i < n; i++ {
		if _, err := flat.InsertFrom(r, i); err != nil {
			// Same arity by construction; unreachable.
			panic(err)
		}
	}
	return flat
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
	if len(r.tuples) != 0 {
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
		n:         n,
		cols:      cols,
		hashes:    hashes,
		rowBloom:  d.RowBloom,
		colBlooms: d.ColBlooms,
		zoneOK:    d.ZoneOK,
		zoneMin:   d.ZoneMin,
		zoneMax:   d.ZoneMax,
	}
	r.parts = append(r.parts, p)
	r.partOff = append(r.partOff, r.partRows)
	r.partRows += n
	r.allT.Store(nil)
	r.allC.Store(nil)
	r.distincts.Store(nil)
	return nil
}
