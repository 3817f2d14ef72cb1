package store

import (
	"testing"

	"ldl/internal/term"
)

func TestAppendMatches(t *testing.T) {
	r := NewRelation("e", 2)
	for i := int64(0); i < 10; i++ {
		mustInsert(r, tup(i%3, i))
	}
	var buf []int32
	buf = r.AppendMatchesID(1, ids(1, 0), buf[:0])
	if len(buf) != 3 { // (1,1) (1,4) (1,7)
		t.Fatalf("matches = %d, want 3", len(buf))
	}
	for _, j := range buf {
		if r.TupleAt(int(j))[0] != term.Int(1) {
			t.Errorf("row %d: col0 = %v, want 1", j, r.TupleAt(int(j))[0])
		}
	}
	// No matches: probe value absent.
	if got := r.AppendMatchesID(1, ids(9, 0), buf[:0]); len(got) != 0 {
		t.Errorf("matches for absent value = %d, want 0", len(got))
	}
	// Reuse keeps contents appended after base.
	buf = buf[:0]
	buf = r.AppendMatchesID(1, ids(0, 0), buf)
	buf = r.AppendMatchesID(1, ids(2, 0), buf)
	if len(buf) != 4+3 {
		t.Errorf("accumulated matches = %d, want 7", len(buf))
	}
}

// TestDistinctCache checks the cached counts stay exact across the
// build → insert → recount sequence, for Insert and InsertFrom.
func TestDistinctCache(t *testing.T) {
	r := NewRelation("e", 2)
	for i := int64(0); i < 6; i++ {
		mustInsert(r, tup(i%2, i))
	}
	if got := r.Distinct(0); got != 2 {
		t.Fatalf("Distinct(0) = %d, want 2", got)
	}
	if got := r.Distinct(1); got != 6 {
		t.Fatalf("Distinct(1) = %d, want 6", got)
	}
	// Inserts after the cache is built must keep counts exact.
	mustInsert(r, tup(5, 5)) // new col0 value, duplicate col1 value
	if got := r.Distinct(0); got != 3 {
		t.Errorf("Distinct(0) after insert = %d, want 3", got)
	}
	if got := r.Distinct(1); got != 6 {
		t.Errorf("Distinct(1) after insert = %d, want 6", got)
	}
	// InsertFrom path (delta collection) updates the cache too.
	src := NewRelation("buf", 2)
	mustInsert(src, tup(42, 42))
	if ok, err := r.InsertFrom(src, 0); err != nil || !ok {
		t.Fatalf("InsertFrom: %v %v", ok, err)
	}
	if got := r.Distinct(0); got != 4 {
		t.Errorf("Distinct(0) after InsertFrom = %d, want 4", got)
	}
	if got := r.Distinct(1); got != 7 {
		t.Errorf("Distinct(1) after InsertFrom = %d, want 7", got)
	}
	// Out-of-range stays 0.
	if r.Distinct(-1) != 0 || r.Distinct(2) != 0 {
		t.Error("out-of-range Distinct should be 0")
	}
}
