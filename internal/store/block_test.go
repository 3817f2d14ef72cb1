package store

import (
	"testing"

	"ldl/internal/term"
)

func ids(vals ...int64) []term.ID {
	out := make([]term.ID, len(vals))
	for i, v := range vals {
		out[i] = term.Intern(term.Int(v))
	}
	return out
}

// TestBlockColumnAccessors: ColumnAt exposes the live ID columns and
// IDAt reads single cells, both consistent with the tuple-level view of
// the same relation.
func TestBlockColumnAccessors(t *testing.T) {
	r := NewRelation("e", 2)
	for i := int64(0); i < 5; i++ {
		mustInsert(r, tup(i, i*10))
	}
	col0, col1 := r.ColumnAt(0), r.ColumnAt(1)
	if len(col0) != 5 || len(col1) != 5 {
		t.Fatalf("column lengths = %d, %d, want 5", len(col0), len(col1))
	}
	for i := 0; i < 5; i++ {
		if term.InternedTerm(col0[i]) != r.TupleAt(i)[0] || term.InternedTerm(col1[i]) != r.TupleAt(i)[1] {
			t.Fatalf("row %d: columns disagree with TupleAt", i)
		}
	}
	for i, want := range ids(0, 10, 20, 30, 40) {
		if got := r.IDAt(1, i); got != want || got != col1[i] {
			t.Fatalf("IDAt(1, %d) = %d, want %d", i, got, want)
		}
	}
}

// insertIDRow inserts one interned-ID row through the columnar
// InsertRows path, reporting whether it was new.
func insertIDRow(r *Relation, row []term.ID) (bool, error) {
	cols := make([][]term.ID, len(row))
	for c, id := range row {
		cols[c] = []term.ID{id}
	}
	added, err := r.InsertRows(cols, 1, nil)
	return added == 1, err
}

// TestBlockIDInsertAndLookup: the ID-level insert/lookup APIs share
// one dedup set with the term-level ones — a row inserted through
// either path is a duplicate through the other, and mixed-path
// lookups agree.
func TestBlockIDInsertAndLookup(t *testing.T) {
	r := NewRelation("e", 2)
	mustInsert(r, tup(1, 2))
	if added, err := insertIDRow(r, ids(1, 2)); err != nil || added {
		t.Fatalf("ID insert of term-inserted row = (%v, %v), want duplicate", added, err)
	}
	if added, err := insertIDRow(r, ids(3, 4)); err != nil || !added {
		t.Fatalf("ID insert of fresh row = (%v, %v)", added, err)
	}
	if added, _ := r.Insert(tup(3, 4)); added {
		t.Error("term Insert of ID-inserted row was not a duplicate")
	}
	if !r.ContainsIDs(ids(3, 4)) || r.ContainsIDs(ids(3, 5)) {
		t.Error("ContainsIDs disagrees with contents")
	}
	if !contains(r, tup(3, 4)) {
		t.Error("a term probe misses the ID-inserted row")
	}
	// The materialized tuple of an ID-inserted row is the canonical
	// interned term, usable like any other.
	if got := r.TupleAt(1).String(); got != "(3, 4)" {
		t.Errorf("TupleAt(1) = %s", got)
	}
}

// TestBlockAppendMatchesID: ID-probe lookups return exactly the rows
// the term-level Lookup returns, across inserts from both paths.
func TestBlockAppendMatchesID(t *testing.T) {
	r := NewRelation("e", 2)
	mustInsert(r, tup(1, 2))
	mustInsert(r, tup(1, 3))
	if _, err := insertIDRow(r, ids(1, 4)); err != nil {
		t.Fatal(err)
	}
	mustInsert(r, tup(2, 2))

	probe := []term.ID{ids(1)[0], 0}
	got := r.AppendMatchesID(0b01, probe, nil)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("matches on col0=1: %v, want [0 1 2]", got)
	}
	// Agreement with the term-level Lookup on the same probe.
	tm := r.Lookup(0b01, Tuple{term.Int(1), nil})
	if len(tm) != len(got) {
		t.Fatalf("Lookup found %v, ID probe %v", tm, got)
	}
	for k, j := range got {
		if tm[k].Key() != r.TupleAt(int(j)).Key() {
			t.Fatalf("Lookup row %d = %s, ID probe row %s", k, tm[k], r.TupleAt(int(j)))
		}
	}
	// Both columns masked: exact-row probe.
	got = r.AppendMatchesID(0b11, ids(1, 3), nil)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("exact probe: %v, want [1]", got)
	}
	// No match, and an ID that was interned but never inserted.
	if got = r.AppendMatchesID(0b11, ids(9, 9), got[:0]); len(got) != 0 {
		t.Fatalf("probe (9,9) matched %v", got)
	}
}

// TestBlockInsertRows: columnar bulk insert dedups row-by-row against
// existing contents and itself, fires onNew in insertion order, and an
// onNew error stops the batch.
func TestBlockInsertRows(t *testing.T) {
	r := NewRelation("p", 2)
	mustInsert(r, tup(5, 5))
	cols := [][]term.ID{
		{ids(1)[0], ids(5)[0], ids(1)[0], ids(2)[0]},
		{ids(1)[0], ids(5)[0], ids(1)[0], ids(2)[0]},
	}
	var seen []int
	added, err := r.InsertRows(cols, 4, func(idx int) error {
		seen = append(seen, idx)
		return nil
	})
	if err != nil || added != 2 {
		t.Fatalf("InsertRows = (%d, %v), want 2 new rows", added, err)
	}
	// (5,5) pre-existing, duplicate (1,1) within the batch: new rows
	// are (1,1) at index 1 and (2,2) at index 2.
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("onNew indexes = %v, want [1 2]", seen)
	}
	if r.Len() != 3 || !contains(r, tup(2, 2)) {
		t.Fatalf("relation contents wrong: len=%d", r.Len())
	}
}
