package store

import (
	"testing"

	"ldl/internal/term"
)

func mkTuple(ss ...string) Tuple {
	t := make(Tuple, len(ss))
	for i, s := range ss {
		t[i] = term.Atom(s)
	}
	return t
}

func TestColumnSinceAndDelta(t *testing.T) {
	r := NewRelation("e", 2)
	mustInsert(r, mkTuple("a", "b"))
	mustInsert(r, mkTuple("b", "c"))
	mark := r.Len()
	mustInsert(r, mkTuple("c", "d"))
	mustInsert(r, mkTuple("d", "e"))

	if got := r.ColumnSince(0, r.Len()); got != nil {
		t.Fatalf("ColumnSince(0, Len) = %v, want nil", got)
	}
	col := r.ColumnSince(0, mark)
	if len(col) != 2 {
		t.Fatalf("ColumnSince: got %d ids", len(col))
	}
	if col[0] != r.ColumnAt(0)[mark] {
		t.Fatal("ColumnSince suffix misaligned")
	}

	d := r.DeltaSince(mark)
	if d.Len() != 2 || d.TupleAt(0).Key() != mkTuple("c", "d").Key() || !contains(d, mkTuple("d", "e")) {
		t.Fatalf("DeltaSince: %v", d)
	}
	if contains(d, mkTuple("a", "b")) {
		t.Fatal("DeltaSince leaked prefix row")
	}
	if d := r.DeltaSince(r.Len() + 5); d.Len() != 0 {
		t.Fatalf("DeltaSince past end: %v", d)
	}
}

func TestClonePreservesIndexes(t *testing.T) {
	r := NewRelation("e", 2)
	mustInsert(r, mkTuple("a", "b"))
	mustInsert(r, mkTuple("a", "c"))
	r.ensureIndex(0b01)
	c := r.CloneOwned()
	if !hasIndex(c, 0b01) {
		t.Fatal("clone dropped index")
	}
	// The cloned index must be maintained by inserts and independent of
	// the parent's.
	mustInsert(c, mkTuple("a", "d"))
	got := c.Lookup(0b01, mkTuple("a", ""))
	if len(got) != 3 {
		t.Fatalf("clone lookup after insert: %d rows, want 3", len(got))
	}
	if got := r.Lookup(0b01, mkTuple("a", "")); len(got) != 2 {
		t.Fatalf("parent lookup affected by clone insert: %d rows, want 2", len(got))
	}
}
