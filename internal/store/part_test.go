package store

// Tests for the immutable-part machinery: a relation repeatedly frozen
// into parts must behave identically, across every access path, to its
// flat twin that never froze — and freezing must actually buy the
// O(delta) clone the epoch discipline wants.

import (
	"fmt"
	"math/bits"
	"testing"

	"ldl/internal/term"
)

// partPair builds two relations with the same n rows of
// (atom, int, atom) tuples: one frozen every `every` inserts, one flat.
func partPair(t testing.TB, n, every int) (frozen, flat *Relation) {
	t.Helper()
	frozen = NewRelation("r", 3)
	flat = NewRelation("r", 3)
	for i := 0; i < n; i++ {
		tup := Tuple{term.Atom(fmt.Sprintf("a%d", i%17)), term.Int(i), term.Atom(fmt.Sprintf("b%d", i%5))}
		if _, err := frozen.Insert(tup); err != nil {
			t.Fatal(err)
		}
		if _, err := flat.Insert(tup); err != nil {
			t.Fatal(err)
		}
		if (i+1)%every == 0 {
			frozen = frozen.Frozen()
		}
	}
	return frozen, flat
}

func sameRows(t *testing.T, what string, a, b []Tuple) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d", what, len(a), len(b))
	}
	for i := range a {
		for c := range a[i] {
			if !term.Equal(a[i][c], b[i][c]) {
				t.Fatalf("%s: row %d differs: %v vs %v", what, i, a[i], b[i])
			}
		}
	}
}

func TestFrozenMatchesFlat(t *testing.T) {
	const n = 300
	frozen, flat := partPair(t, n, 50)
	if frozen.Parts() == 0 || frozen.PartRows() == 0 {
		t.Fatalf("no parts after freezing: parts=%d partRows=%d", frozen.Parts(), frozen.PartRows())
	}
	if frozen.Len() != flat.Len() {
		t.Fatalf("Len: %d vs %d", frozen.Len(), flat.Len())
	}
	// Full scans and row order.
	sameRows(t, "Lookup(0)", frozen.Lookup(0, nil), flat.Lookup(0, nil))
	sameRows(t, "Sorted", frozen.Sorted(), flat.Sorted())
	for i := 0; i < n; i += 13 {
		sameRows(t, "TupleAt", []Tuple{frozen.TupleAt(i)}, []Tuple{flat.TupleAt(i)})
	}
	// Columnar views.
	for c := 0; c < 3; c++ {
		fc, gc := frozen.ColumnAt(c), flat.ColumnAt(c)
		for i := range gc {
			if fc[i] != gc[i] {
				t.Fatalf("ColumnAt(%d)[%d]: %d vs %d", c, i, fc[i], gc[i])
			}
			if id := frozen.IDAt(c, i); id != gc[i] {
				t.Fatalf("IDAt(%d, %d): %d vs %d", c, i, id, gc[i])
			}
		}
	}
	// Deltas straddling the part boundary.
	for _, from := range []int{0, 49, 50, 123, n - 1, n} {
		sameRows(t, fmt.Sprintf("DeltaSince(%d)", from), frozen.DeltaSince(from).Lookup(0, nil), flat.DeltaSince(from).Lookup(0, nil))
	}
	// Term-space probes: every column combination on hits and misses.
	for _, probe := range []struct {
		cols uint32
		tup  Tuple
	}{
		{1, Tuple{term.Atom("a3"), nil, nil}},
		{2, Tuple{nil, term.Int(77), nil}},
		{4, Tuple{nil, nil, term.Atom("b2")}},
		{3, Tuple{term.Atom("a9"), term.Int(26), nil}},
		{7, Tuple{term.Atom("a9"), term.Int(26), term.Atom("b1")}},
		{2, Tuple{nil, term.Int(99999), nil}},                     // zone-map miss
		{1, Tuple{term.Atom("never_seen"), nil, nil}},             // bloom miss (never interned)
		{7, Tuple{term.Atom("a0"), term.Int(1), term.Atom("b0")}}, // full-row miss
	} {
		sameRows(t, fmt.Sprintf("Lookup(%b,%v)", probe.cols, probe.tup),
			frozen.Lookup(probe.cols, probe.tup), flat.Lookup(probe.cols, probe.tup))
	}
	// Contains on hits and misses.
	for i := 0; i < n; i += 7 {
		tup := flat.TupleAt(i)
		if !contains(frozen, tup) {
			t.Fatalf("Contains lost row %d: %v", i, tup)
		}
	}
	if contains(frozen, Tuple{term.Atom("a1"), term.Int(0), term.Atom("b0")}) {
		t.Fatal("Contains invented a row")
	}
	// Distinct counts.
	for c := 0; c < 3; c++ {
		if frozen.Distinct(c) != flat.Distinct(c) {
			t.Fatalf("Distinct(%d): %d vs %d", c, frozen.Distinct(c), flat.Distinct(c))
		}
	}
	// Dedup still sees part rows: re-inserting an old tuple is a no-op.
	if added, _ := frozen.Insert(flat.TupleAt(3)); added {
		t.Fatal("duplicate crossed the part boundary")
	}
}

// TestFrozenIDProbes drives the block-executor interface over parts:
// AppendMatchesID answer sets must equal the flat relation's, on every
// column mask, in ascending row order.
func TestFrozenIDProbes(t *testing.T) {
	frozen, flat := partPair(t, 300, 64)
	probeFor := func(r *Relation, i int) []term.ID {
		return []term.ID{r.ColumnAt(0)[i], r.ColumnAt(1)[i], r.ColumnAt(2)[i]}
	}
	for _, cols := range []uint32{1, 2, 4, 3, 5, 6, 7} {
		for i := 0; i < 300; i += 11 {
			got := frozen.AppendMatchesID(cols, probeFor(frozen, i), nil)
			want := flat.AppendMatchesID(cols, probeFor(flat, i), nil)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("cols=%b row=%d: %v vs %v", cols, i, got, want)
			}
			for k := 1; k < len(got); k++ {
				if got[k-1] >= got[k] {
					t.Fatalf("cols=%b row=%d: matches out of order: %v", cols, i, got)
				}
			}
		}
	}
	// ContainsIDs across the boundary.
	for i := 0; i < 300; i += 17 {
		if !frozen.ContainsIDs(probeFor(flat, i)) {
			t.Fatalf("ContainsIDs lost row %d", i)
		}
	}
}

// TestFrozenCloneSharesParts is the O(delta) regression test: cloning
// a frozen relation must share the part prefix by pointer and copy
// only the tail.
func TestFrozenCloneSharesParts(t *testing.T) {
	frozen, _ := partPair(t, 1000, 1000) // one freeze at the end
	if frozen.Parts() != 1 || frozen.PartRows() != 1000 {
		t.Fatalf("parts=%d partRows=%d", frozen.Parts(), frozen.PartRows())
	}
	// Grow a small tail on top of the frozen prefix.
	for i := 0; i < 5; i++ {
		mustInsert(frozen, Tuple{term.Atom("tail"), term.Int(10000 + i), term.Atom("t")})
	}
	c := frozen.CloneOwned()
	if c.Len() != frozen.Len() {
		t.Fatalf("clone Len %d vs %d", c.Len(), frozen.Len())
	}
	if &c.parts[0] == &frozen.parts[0] && c.parts[0] != frozen.parts[0] {
		t.Fatal("clone copied the part")
	}
	if c.parts[0] != frozen.parts[0] {
		t.Fatal("clone does not share the part pointer")
	}
	if tail := c.Len() - c.PartRows(); tail != 5 || cap(c.cols[0]) >= 1000 {
		t.Fatalf("clone tail: %d rows, col cap %d — tail not O(delta)", tail, cap(c.cols[0]))
	}
	// Writes to the clone must not leak into the original.
	mustInsert(c, Tuple{term.Atom("clone_only"), term.Int(1), term.Atom("c")})
	if contains(frozen, Tuple{term.Atom("clone_only"), term.Int(1), term.Atom("c")}) {
		t.Fatal("clone write visible through original")
	}
}

// TestFrozenCompacts: repeated freezes must merge parts by size tier
// rather than accumulate an unbounded probe chain — one-row freezes
// behave as a binary counter, at most ⌊log2 n⌋+1 parts.
func TestFrozenCompacts(t *testing.T) {
	const n = 48
	r := NewRelation("r", 2)
	for i := 0; i < n; i++ {
		mustInsert(r, Tuple{term.Int(i), term.Int(i + 1)})
		r = r.Frozen()
		if max := bits.Len(uint(r.Len())); r.Parts() > max {
			t.Fatalf("%d rows in %d parts, want ≤ %d", r.Len(), r.Parts(), max)
		}
	}
	if r.Len() != n {
		t.Fatalf("merging lost rows: %d", r.Len())
	}
	for i := 0; i < n; i++ {
		if !contains(r, Tuple{term.Int(i), term.Int(i + 1)}) {
			t.Fatalf("row %d lost in merging", i)
		}
	}
}

// TestFrozenNoTailIsNoop: freezing an already-frozen relation returns
// the receiver — the steady-state epoch must not accrete empty parts.
func TestFrozenNoTailIsNoop(t *testing.T) {
	frozen, _ := partPair(t, 100, 100)
	if again := frozen.Frozen(); again != frozen {
		t.Fatal("Frozen() with empty tail built a new relation")
	}
}

// TestAttachPartRoundtrip: detaching a frozen relation's data and
// attaching it to a fresh relation (the segment-open path) must
// reproduce every probe result, and reject malformed inputs.
func TestAttachPartRoundtrip(t *testing.T) {
	frozen, flat := partPair(t, 120, 120)
	cols := make([][]term.ID, 3)
	for c := range cols {
		cols[c] = append([]term.ID(nil), flat.ColumnAt(c)...)
	}
	fresh := NewRelation("r", 3)
	if err := fresh.AttachPart(PartData{Cols: cols}); err != nil {
		t.Fatal(err)
	}
	sameRows(t, "attached rows", fresh.Lookup(0, nil), flat.Lookup(0, nil))
	for i := 0; i < 120; i += 9 {
		if !contains(fresh, flat.TupleAt(i)) {
			t.Fatalf("attached part lost row %d", i)
		}
	}
	// Dedup against the attached part.
	if added, _ := fresh.Insert(flat.TupleAt(0)); added {
		t.Fatal("attached part does not dedup")
	}
	// Inserts on top extend the tail.
	if added, _ := fresh.Insert(Tuple{term.Atom("new"), term.Int(-1), term.Atom("n")}); !added {
		t.Fatal("insert after attach failed")
	}
	if fresh.Len() != 121 {
		t.Fatalf("Len=%d", fresh.Len())
	}
	_ = frozen

	// Error paths: attach onto a non-empty tail, ragged columns.
	dirty := NewRelation("r", 3)
	mustInsert(dirty, Tuple{term.Atom("x"), term.Int(0), term.Atom("y")})
	if err := dirty.AttachPart(PartData{Cols: cols}); err == nil {
		t.Fatal("attach onto non-empty tail accepted")
	}
	ragged := [][]term.ID{cols[0], cols[1][:50], cols[2]}
	if err := NewRelation("r", 3).AttachPart(PartData{Cols: ragged}); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

// TestPartPruneCounters: probes that miss a part's bloom or zone map
// must bump the process-wide prune counters (the STATS feed).
func TestPartPruneCounters(t *testing.T) {
	r := NewRelation("r", 2)
	for i := 0; i < 200; i++ {
		mustInsert(r, Tuple{term.Int(i), term.Atom(fmt.Sprintf("v%d", i))})
	}
	r = r.Frozen()
	b0, z0, _ := PruneStats()
	// Zone-map miss: an interned integer far outside [0,199]. (Interned,
	// so the probe survives ID resolution and reaches the part.)
	term.TryIntern(term.Int(1 << 40))
	r.Lookup(1, Tuple{term.Int(1 << 40), nil})
	// Bloom miss: an interned atom the column never saw.
	missA, _, _ := term.TryIntern(term.Atom("part_prune_counter_miss"))
	r.AppendMatchesID(2, []term.ID{0, missA}, nil)
	b1, z1, _ := PruneStats()
	if z1 <= z0 {
		t.Errorf("zone prunes did not advance: %d -> %d", z0, z1)
	}
	if b1 <= b0 {
		t.Errorf("bloom prunes did not advance: %d -> %d", b0, b1)
	}
}

// TestInsertRowsGlobalIndex: the block inserter's onNew callback must
// report global row indexes (part rows included), since kernel delta
// tracking slices columns by those indexes.
func TestInsertRowsGlobalIndex(t *testing.T) {
	r := NewRelation("r", 2)
	for i := 0; i < 10; i++ {
		mustInsert(r, Tuple{term.Int(i), term.Int(i)})
	}
	r = r.Frozen()
	a, _, _ := term.TryIntern(term.Int(100))
	b, _, _ := term.TryIntern(term.Int(101))
	var idxs []int
	added, err := r.InsertRows([][]term.ID{{a, b}, {a, b}}, 2, func(idx int) error {
		idxs = append(idxs, idx)
		return nil
	})
	if err != nil || added != 2 {
		t.Fatalf("added=%d err=%v", added, err)
	}
	if len(idxs) != 2 || idxs[0] != 10 || idxs[1] != 11 {
		t.Fatalf("onNew indexes %v, want [10 11]", idxs)
	}
}
