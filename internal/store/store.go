// Package store implements the fact base: relations of ground tuples
// with set semantics, hash indexes on column subsets, and the database
// mapping predicate tags to relations.
//
// A row is stored in exactly one form: the interned term IDs of its
// columns (internal/term hash-conses every inserted term), held
// column-major, plus one full-row hash. Deduplication is an
// open-addressed hash set keyed on those row hashes with ID-row
// equality on collision, and column indexes are open-addressed tables
// over distinct masked column hashes, each heading a chain of its rows
// in insertion order. Terms exist only at the API edge: Insert interns
// the caller's terms and keeps no reference to the tuple, and TupleAt,
// Lookup and Sorted build the rows they return from IDs when called.
// Tuple.Key survives for display and debugging only — no hot-path
// operation serializes terms.
//
// Concurrency contract: a Relation supports any number of concurrent
// readers (Lookup, TupleAt, Sorted, Distinct and the ID accessors of
// block.go and delta.go) — including the lazy index and distinct-count
// builds inside them, which publish atomically — but writers (Insert,
// InsertFrom, InsertRows, Reset) must be externally serialized and
// must not run concurrently with readers of the same relation.
// Concurrent queries rely on exactly this: they read the relations of
// a published epoch, which no writer mutates.
package store

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ldl/internal/lang"
	"ldl/internal/term"
)

// Tuple is a row of ground terms: the form rows take at the API edge.
type Tuple []term.Term

// Key returns the canonical string encoding of the tuple. It is for
// display and debugging only; storage and indexing key on interned-term
// hashes and never call it.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, x := range t {
		term.AppendKey(&b, x)
		b.WriteByte(',')
	}
	return b.String()
}

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, x := range t {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// compareTuples orders same-arity tuples column by column in
// term.Compare order.
func compareTuples(a, b Tuple) int {
	for k := range a {
		if c := term.Compare(a[k], b[k]); c != 0 {
			return c
		}
	}
	return 0
}

// SortTuples sorts rows in canonical order, the order Sorted returns.
func SortTuples(ts []Tuple) { slices.SortFunc(ts, compareTuples) }

// newTuples returns n tuples of the given arity carved from one flat
// term slab: two allocations however many rows are built.
func newTuples(n, arity int) []Tuple {
	slab := make([]term.Term, n*arity)
	out := make([]Tuple, n)
	for i := range out {
		out[i] = slab[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return out
}

// hashSeed is the initial row-hash value (golden-ratio constant).
const hashSeed uint64 = 0x9e3779b97f4a7c15

// combineHash folds one column hash into a row hash; sequential
// re-mixing keeps it order-sensitive, so (a,b) and (b,a) differ.
func combineHash(h, col uint64) uint64 {
	h ^= col
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return h
}

// colIndex is a multimap from the masked-column hash of a row to its
// row indexes: an open-addressed table over the *distinct* key hashes,
// each slot heading a chain of entries in insertion order. Inserting a
// key costs O(1) however many rows already share it, and a lookup costs
// O(matches) — a column with few distinct values (a magic set's bound
// column) stays linear to build. Entries are never deleted (relations
// only grow).
type colIndex struct {
	cols  uint32
	slots []ciSlot
	mask  uint32
	nkeys int
	ent   []int32 // per entry: the stored row index
	next  []int32 // per entry: the next entry of its chain + 1; 0 ends it
}

// ciSlot is one key of a colIndex: its hash and the first and last
// entries of its chain.
type ciSlot struct {
	key  uint64
	head int32 // first entry + 1; 0 = empty slot
	tail int32 // last entry
}

// newColIndex sizes the key table for capacity rows — an upper bound on
// the distinct keys, so building over that many rows never rehashes.
func newColIndex(cols uint32, capacity int) *colIndex {
	size := tableSize(capacity)
	return &colIndex{
		cols:  cols,
		slots: make([]ciSlot, size),
		mask:  uint32(size - 1),
		ent:   make([]int32, 0, capacity),
		next:  make([]int32, 0, capacity),
	}
}

// tableSize picks the power-of-two table length for an expected element
// count, keeping load below ~2/3.
func tableSize(n int) int {
	if n < 8 {
		n = 8
	}
	return 1 << bits.Len(uint(n+n/2))
}

// slot returns the slot holding key h, or the empty slot where h goes.
func (ci *colIndex) slot(h uint64) *ciSlot {
	i := uint32(h) & ci.mask
	for {
		s := &ci.slots[i]
		if s.head == 0 || s.key == h {
			return s
		}
		i = (i + 1) & ci.mask
	}
}

func (ci *colIndex) insert(h uint64, idx int) {
	e := int32(len(ci.ent))
	ci.ent = append(ci.ent, int32(idx))
	ci.next = append(ci.next, 0)
	s := ci.slot(h)
	if s.head != 0 {
		ci.next[s.tail] = e + 1
		s.tail = e
		return
	}
	s.key, s.head, s.tail = h, e+1, e
	ci.nkeys++
	if ci.nkeys*3 >= len(ci.slots)*2 {
		ci.grow()
	}
}

// grow doubles the key table; chains are entry-indexed, so they move
// with their slot unchanged.
func (ci *colIndex) grow() {
	old := ci.slots
	ci.slots = make([]ciSlot, 2*len(old))
	ci.mask = uint32(len(ci.slots) - 1)
	for _, s := range old {
		if s.head != 0 {
			*ci.slot(s.key) = s
		}
	}
}

// lookup appends the row indexes of key h's chain to dst, in insertion
// order. Candidates still need column-wise verification by the caller:
// distinct values whose masked hashes collide share a chain.
func (ci *colIndex) lookup(h uint64, dst []int32) []int32 {
	s := ci.slot(h)
	for e := s.head; e != 0; e = ci.next[e-1] {
		dst = append(dst, ci.ent[e-1])
	}
	return dst
}

// idColumn is one column of interned term IDs, row-indexed.
type idColumn = []term.ID

// idRows is the one stored form of a run of rows, shared by a
// relation's owned tail and every immutable part: interned term IDs
// column-major (cols[c][i] is column c of row i) and the full-row hash
// of each row. len(hashes) is the row count, also at arity 0.
type idRows struct {
	cols   []idColumn
	hashes []uint64
}

func (s *idRows) len() int { return len(s.hashes) }

// rowEqual reports whether row i equals the ID row ids.
func (s *idRows) rowEqual(i int, ids []term.ID) bool {
	for c := range s.cols {
		if s.cols[c][i] != ids[c] {
			return false
		}
	}
	return true
}

// fill builds row i's terms into dst.
func (s *idRows) fill(i int, dst Tuple) {
	for c := range s.cols {
		dst[c] = term.InternedTerm(s.cols[c][i])
	}
}

// verify compacts the index candidates dst[start:] in place to the
// rows that agree with probe on every column of mask — hash collisions
// between distinct probe values share a slot cluster. A candidate j
// names row j-bias of s and is kept as base+(j-bias).
func (s *idRows) verify(dst []int32, start, bias, base int, mask uint32, probe []term.ID) []int32 {
	keep := start
	for _, j := range dst[start:] {
		local := int(j) - bias
		ok := true
		for c := range s.cols {
			if mask&(1<<uint(c)) != 0 && s.cols[c][local] != probe[c] {
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

// buildIndex indexes every row on the column set, storing row i as
// i+bias.
func (s *idRows) buildIndex(mask uint32, bias int) *colIndex {
	ci := newColIndex(mask, s.len())
	row := make([]term.ID, len(s.cols))
	for i := range s.hashes {
		for c := range s.cols {
			row[c] = s.cols[c][i]
		}
		ci.insert(maskedIDHash(row, mask), i+bias)
	}
	return ci
}

// rowSet is an open-addressed dedup set over an idRows run: slot = row
// index + 1, keyed on the row hash with ID-row equality on collision.
type rowSet struct {
	slots []int32
	mask  uint32
}

// newRowSet builds a set of the given power-of-two size holding rows
// 0..len(hashes)-1.
func newRowSet(size int, hashes []uint64) rowSet {
	s := rowSet{slots: make([]int32, size), mask: uint32(size - 1)}
	for idx, h := range hashes {
		s.add(h, idx)
	}
	return s
}

func (s *rowSet) add(h uint64, idx int) {
	i := uint32(h) & s.mask
	for s.slots[i] != 0 {
		i = (i + 1) & s.mask
	}
	s.slots[i] = int32(idx) + 1
}

// find returns the index of the row of rows equal to ids, or -1.
func (s *rowSet) find(rows *idRows, h uint64, ids []term.ID) int {
	for i := uint32(h) & s.mask; ; i = (i + 1) & s.mask {
		v := s.slots[i]
		if v == 0 {
			return -1
		}
		if idx := int(v - 1); rows.hashes[idx] == h && rows.rowEqual(idx, ids) {
			return idx
		}
	}
}

// Relation is a set of same-arity ground tuples with optional hash
// indexes on column subsets.
//
// Representation: an immutable shared prefix of Parts (rows flushed to
// segment files or frozen by Frozen — see part.go) followed by an owned
// in-memory tail. A relation with no parts is exactly the old flat
// layout and pays nothing for the split. Global row index i < partRows
// addresses the prefix; i - partRows addresses the tail.
type Relation struct {
	Name  string
	Arity int

	// The immutable shared prefix. parts/partOff/partRows are fixed for
	// the life of a Relation value: freezing produces a new Relation.
	parts    []*Part
	partOff  []int // partOff[k] = global index of parts[k]'s first row
	partRows int

	// The owned tail and its dedup set.
	idRows
	set rowSet

	// The combined prefix+tail column view, built lazily for
	// parts-backed relations (see part.go).
	allC atomic.Pointer[colViewCache]

	// indexes holds the column indexes behind an atomically published
	// immutable map so concurrent readers can lazily build missing
	// indexes without a read-path lock.
	indexes atomic.Pointer[map[uint32]*colIndex]
	buildMu sync.Mutex

	// dist holds the exact per-column distinct counts (distinct.go),
	// built on the first Distinct call and from then on kept current by
	// the insert path and carried across clone and Frozen as integers.
	// Published atomically under the same discipline as indexes.
	dist atomic.Pointer[distinctState]

	scratch []term.ID // per-insert ID buffer, reused
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return NewRelationSized(name, arity, 0)
}

// NewRelationSized creates an empty relation pre-sized for an expected
// cardinality, avoiding rehash growth while a fixpoint fills it. The
// evaluator feeds it the optimizer's cardinality estimates.
func NewRelationSized(name string, arity, capacity int) *Relation {
	r := &Relation{Name: name, Arity: arity}
	r.set = newRowSet(tableSize(capacity), nil)
	r.cols = make([]idColumn, arity)
	if capacity > 0 {
		for c := range r.cols {
			r.cols[c] = make(idColumn, 0, capacity)
		}
		r.hashes = make([]uint64, 0, capacity)
	}
	r.indexes.Store(&noIndexes)
	return r
}

// noIndexes is the index map of a relation that has built none. Index
// maps are replaced copy-on-write, never mutated, so every such
// relation shares this one.
var noIndexes = map[uint32]*colIndex{}

// Reset empties a relation that has no parts, keeping the capacity of
// its columns, row hashes and dedup set: it drops every index, the
// distinct counts and the combined column view, so the relation reads
// exactly like a fresh one. The evaluator recycles a fixpoint round's
// spent delta relations through it. Writer-side API; no column borrowed
// from the relation may be read afterwards.
func (r *Relation) Reset() {
	if len(r.parts) != 0 {
		panic(fmt.Sprintf("store: %s: Reset on a relation with parts", r.Name))
	}
	for c := range r.cols {
		r.cols[c] = r.cols[c][:0]
	}
	r.hashes = r.hashes[:0]
	clear(r.set.slots)
	r.indexes.Store(&noIndexes)
	r.dist.Store(nil)
	r.allC.Store(nil)
}

// Len is the cardinality of the relation.
func (r *Relation) Len() int { return r.partRows + r.idRows.len() }

// findByIDs probes for an interned ID row — every part's dedup set
// (row blooms short-circuit cold parts), then the tail's — returning
// the global row index or -1.
func (r *Relation) findByIDs(h uint64, ids []term.ID) int {
	for k, p := range r.parts {
		if local := p.find(h, ids); local >= 0 {
			return r.partOff[k] + local
		}
	}
	if idx := r.set.find(&r.idRows, h, ids); idx >= 0 {
		return r.partRows + idx
	}
	return -1
}

// Insert adds a tuple, returning true if it was new. It rejects tuples
// of the wrong arity or containing variables. Every term is interned
// and only its ID is stored: the relation keeps no reference to t.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != r.Arity {
		return false, fmt.Errorf("store: %s: inserting arity %d tuple into arity %d relation", r.Name, len(t), r.Arity)
	}
	r.scratch = r.scratch[:0]
	h := hashSeed
	for _, x := range t {
		id, th, ok := term.TryIntern(x)
		if !ok {
			return false, fmt.Errorf("store: %s: non-ground tuple %s", r.Name, t)
		}
		r.scratch = append(r.scratch, id)
		h = combineHash(h, th)
	}
	debugCheckInsert(r, t, r.scratch)
	if r.findByIDs(h, r.scratch) >= 0 {
		return false, nil
	}
	r.appendRow(r.scratch, h)
	return true, nil
}

// appendRow is the shared tail of every insert path: the row is known
// to be new, its IDs and full-row hash already computed. It appends
// the column IDs and hash, and updates the dedup set, every published
// column index, the combined column view and the distinct counts.
func (r *Relation) appendRow(ids []term.ID, h uint64) {
	idx := r.idRows.len()
	for c := range r.cols {
		r.cols[c] = append(r.cols[c], ids[c])
	}
	r.hashes = append(r.hashes, h)
	if (idx+1)*3 >= len(r.set.slots)*2 {
		r.set = newRowSet(2*len(r.set.slots), r.hashes[:idx])
	}
	r.set.add(h, idx)
	for cols, ci := range *r.indexes.Load() {
		ci.insert(maskedIDHash(ids, cols), r.partRows+idx)
	}
	if v := r.allC.Load(); v != nil {
		for c := range v.cols {
			v.cols[c] = append(v.cols[c], ids[c])
		}
	}
	r.noteDistinct(ids)
}

// InsertFrom adds row i of src, reusing src's interned IDs and row
// hash instead of re-hashing — the fast path that copies a freshly
// derived head row into its delta. Both relations must share the arity.
func (r *Relation) InsertFrom(src *Relation, i int) (bool, error) {
	if src.Arity != r.Arity {
		return false, fmt.Errorf("store: %s: merging arity %d relation into arity %d relation", r.Name, src.Arity, r.Arity)
	}
	rows, local := src.rowAt(i)
	r.scratch = r.scratch[:0]
	for c := range rows.cols {
		r.scratch = append(r.scratch, rows.cols[c][local])
	}
	h := rows.hashes[local]
	if r.findByIDs(h, r.scratch) >= 0 {
		return false, nil
	}
	r.appendRow(r.scratch, h)
	return true, nil
}

// withIndex returns a copy of the index map m with ci on cols: index
// maps are replaced copy-on-write, never mutated, so readers may load
// one without a lock.
func withIndex(m map[uint32]*colIndex, cols uint32, ci *colIndex) *map[uint32]*colIndex {
	next := make(map[uint32]*colIndex, len(m)+1)
	maps.Copy(next, m)
	next[cols] = ci
	return &next
}

// ensureIndex returns the tail's index on cols (parts carry their own
// shared indexes; slot values are global row indexes), building and
// atomically publishing it on first use. Safe under concurrent
// readers: the build is serialized by buildMu and the map is replaced
// copy-on-write, so readers only ever observe fully built indexes.
func (r *Relation) ensureIndex(cols uint32) *colIndex {
	if ci, ok := (*r.indexes.Load())[cols]; ok {
		return ci
	}
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	if ci, ok := (*r.indexes.Load())[cols]; ok {
		return ci
	}
	ci := r.idRows.buildIndex(cols, r.partRows)
	r.indexes.Store(withIndex(*r.indexes.Load(), cols, ci))
	return ci
}

// Lookup returns the tuples whose projection on cols matches the
// corresponding values of probe (only probe positions with the bit set
// are consulted; cols == 0 returns every row). It uses an index when
// available, building one on first use otherwise — modelling a
// database that adapts access paths. The rows are built from their
// interned IDs into one flat term slab owned by the caller.
func (r *Relation) Lookup(cols uint32, probe Tuple) []Tuple {
	if r.Len() == 0 {
		return nil
	}
	if cols == 0 {
		out := newTuples(r.Len(), r.Arity)
		k := 0
		fill := func(rows *idRows) {
			for i := range rows.hashes {
				rows.fill(i, out[k])
				k++
			}
		}
		for _, p := range r.parts {
			fill(&p.idRows)
		}
		fill(&r.idRows)
		return out
	}
	var idbuf [16]term.ID
	ids, ok := probeIDs(probe, cols, idbuf[:0])
	if !ok {
		return nil
	}
	var stack [16]int32
	idxs := r.appendMatchesIDs(cols, ids, stack[:0])
	if len(idxs) == 0 {
		return nil
	}
	out := newTuples(len(idxs), r.Arity)
	for k, j := range idxs {
		rows, local := r.rowAt(int(j))
		rows.fill(local, out[k])
	}
	return out
}

// probeIDs resolves the masked positions of a term probe to interned
// IDs without interning (unmasked positions get the zero sentinel). ok
// is false when some masked term was never interned — it then cannot
// match any stored row.
func probeIDs(probe Tuple, cols uint32, dst []term.ID) ([]term.ID, bool) {
	for i, x := range probe {
		if cols&(1<<uint(i)) == 0 {
			dst = append(dst, 0)
			continue
		}
		id, ok := term.TryLookupID(x)
		if !ok {
			return nil, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// appendMatchesIDs is the shared probe core: every part's index (zone
// maps and blooms pruning cold parts first), then the tail's, each
// verified column-wise. Appended indexes are global.
func (r *Relation) appendMatchesIDs(cols uint32, probe []term.ID, dst []int32) []int32 {
	h := maskedIDHash(probe, cols)
	for k, p := range r.parts {
		if p.mayMatch(cols, probe) {
			start := len(dst)
			dst = p.ensureIndex(cols).lookup(h, dst)
			dst = p.verify(dst, start, p.idxBias, r.partOff[k], cols, probe)
		}
	}
	if r.idRows.len() == 0 {
		return dst
	}
	start := len(dst)
	dst = r.ensureIndex(cols).lookup(h, dst)
	return r.idRows.verify(dst, start, r.partRows, r.partRows, cols, probe)
}

// TupleAt builds the tuple at row index i from its interned IDs. Row
// indexes are stable: relations only grow and rows never move
// (freezing a tail into a part preserves every global index).
func (r *Relation) TupleAt(i int) Tuple {
	rows, local := r.rowAt(i)
	t := make(Tuple, r.Arity)
	rows.fill(local, t)
	return t
}

// Sorted returns the tuples in canonical order — handy for
// deterministic test output.
func (r *Relation) Sorted() []Tuple {
	out := r.Lookup(0, nil)
	SortTuples(out)
	return out
}

func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%d {", r.Name, r.Arity)
	for i, t := range r.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Database maps predicate tags ("name/arity") to relations.
//
// Epoch discipline: a serving process keeps one immutable Database per
// epoch. Readers execute against the epoch they captured; the (single)
// writer never mutates a published epoch — it calls Fork, obtains
// writable relations through EnsureOwned (which clones a shared
// relation the first time the fork writes to it), inserts the batch,
// freezes every relation it wrote (Freeze), and atomically publishes
// the fork as the next epoch. A frozen relation's rows all live in
// immutable shared parts, so the next fork's clone copies no rows, and
// untouched relations are shared by pointer across every epoch:
// publication costs O(batch) for the relations written, not O(database)
// or O(relation). Concurrent readers of a published epoch are safe —
// including the lazy index and distinct-count builds, which publish
// atomically (see the Relation concurrency contract above).
type Database struct {
	rels map[string]*Relation
	// shared marks relations borrowed from a parent Fork: they may be
	// visible to concurrent readers of other epochs and must be copied
	// before the first write (EnsureOwned does).
	shared map[string]bool
}

// NewDatabase creates an empty database.
func NewDatabase() *Database { return &Database{rels: map[string]*Relation{}} }

// Relation returns the relation for tag, or nil.
func (db *Database) Relation(tag string) *Relation { return db.rels[tag] }

// Ensure returns the relation for tag, creating it if needed. name is
// derived from the tag.
func (db *Database) Ensure(tag string, arity int) *Relation {
	if r, ok := db.rels[tag]; ok {
		return r
	}
	name := tag
	if i := strings.IndexByte(tag, '/'); i >= 0 {
		name = tag[:i]
	}
	r := NewRelation(name, arity)
	db.rels[tag] = r
	return r
}

// Fork returns a database sharing every relation of db by pointer.
// The fork is the writable side of the epoch discipline: reads see the
// parent's relations at zero cost, and the first write to any relation
// must go through EnsureOwned (LoadFacts does), which copies it so the
// parent — possibly serving concurrent readers — is never mutated.
func (db *Database) Fork() *Database {
	c := &Database{
		rels:   make(map[string]*Relation, len(db.rels)),
		shared: make(map[string]bool, len(db.rels)),
	}
	for tag, r := range db.rels {
		c.rels[tag] = r
		c.shared[tag] = true
	}
	return c
}

// FrozenFork returns a database holding the Frozen() form of every
// relation in db — tails converted to immutable shared parts, so
// future epoch forks copy no rows and probes prune through the part
// blooms and zone maps. Relations that are already fully frozen (every
// relation a commit wrote) are shared by pointer, so in practice this
// freezes the boot relations no commit has touched. Like Frozen, the receiver
// database's relations must not be written afterwards; the storage
// tier calls this on a published (immutable) epoch right before
// flushing the frozen parts to segment files.
func (db *Database) FrozenFork() *Database {
	c := &Database{
		rels:   make(map[string]*Relation, len(db.rels)),
		shared: make(map[string]bool, len(db.rels)),
	}
	for tag, r := range db.rels {
		c.rels[tag] = r.Frozen()
		c.shared[tag] = true
	}
	return c
}

// EnsureOwned returns a relation for tag that is safe to insert into:
// the existing relation if this database already owns it, a
// copy-on-write clone if it is shared with a parent fork, or a fresh
// relation if the tag is new. Writers in the epoch discipline must use
// it (not Ensure) before every insert.
func (db *Database) EnsureOwned(tag string, arity int) *Relation {
	if r, ok := db.rels[tag]; ok {
		if db.shared[tag] {
			r = r.clone()
			db.rels[tag] = r
			delete(db.shared, tag)
		}
		return r
	}
	return db.Ensure(tag, arity)
}

// Freeze replaces tag's relation with its Frozen form, so the epoch
// this database is about to become publishes it with an empty tail.
// The relation must be owned (written through EnsureOwned) and must not
// be written again through any reference taken before the freeze.
func (db *Database) Freeze(tag string) {
	if r, ok := db.rels[tag]; ok {
		db.rels[tag] = r.Frozen()
	}
}

// Tags returns the sorted relation tags.
func (db *Database) Tags() []string {
	out := make([]string, 0, len(db.rels))
	for t := range db.rels {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// LoadFacts inserts every fact of the program into the database. It
// acquires relations through EnsureOwned, so loading into a Fork never
// mutates relations shared with the parent.
func (db *Database) LoadFacts(prog *lang.Program) error {
	for _, f := range prog.Facts {
		r := db.EnsureOwned(f.Head.Tag(), f.Head.Arity())
		if _, err := r.Insert(Tuple(f.Head.Args)); err != nil {
			return err
		}
	}
	return nil
}

// clone copies the relation's owned tail — ID columns, dedup set,
// published column indexes — and its distinct counts; the immutable
// part prefix is shared by pointer. Indexes are cheap flat-array copies
// and stay correct under the clone's future inserts because appendRow
// maintains every published index incrementally. The distinct counts
// are integers plus the tail's part-absent value sets, copied because
// writers update them in place (noteDistinct): sharing them would let a
// clone's inserts change counts a concurrent reader of the parent uses.
// A commit freezes what it wrote, so a published written relation has
// an empty tail and this copy is O(1) in its size.
func (r *Relation) clone() *Relation {
	nr := &Relation{Name: r.Name, Arity: r.Arity}
	nr.parts = r.parts
	nr.partOff = r.partOff
	nr.partRows = r.partRows
	nr.cols = make([]idColumn, r.Arity)
	for c := range r.cols {
		nr.cols[c] = slices.Clone(r.cols[c])
	}
	nr.hashes = slices.Clone(r.hashes)
	nr.set = rowSet{slots: slices.Clone(r.set.slots), mask: r.set.mask}
	old := *r.indexes.Load()
	next := make(map[uint32]*colIndex, len(old))
	for cols, ci := range old {
		next[cols] = ci.clone()
	}
	nr.indexes.Store(&next)
	if d := r.dist.Load(); d != nil {
		nd := &distinctState{counts: slices.Clone(d.counts), fresh: make([]idSet, len(d.fresh))}
		for c, f := range d.fresh {
			nd.fresh[c] = maps.Clone(f)
		}
		nr.dist.Store(nd)
	}
	return nr
}

// clone copies a column index: flat array copies, no rehash.
func (ci *colIndex) clone() *colIndex {
	return &colIndex{
		cols:  ci.cols,
		slots: slices.Clone(ci.slots),
		mask:  ci.mask,
		nkeys: ci.nkeys,
		ent:   slices.Clone(ci.ent),
		next:  slices.Clone(ci.next),
	}
}
