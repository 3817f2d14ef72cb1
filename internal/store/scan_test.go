package store

import (
	"testing"

	"ldl/internal/term"
)

func TestAppendMatches(t *testing.T) {
	r := NewRelation("e", 2)
	for i := int64(0); i < 10; i++ {
		r.MustInsert(tup(i%3, i))
	}
	var buf []int32
	buf = r.AppendMatches(1, tup(1, 0), buf[:0])
	if len(buf) != 3 { // (1,1) (1,4) (1,7)
		t.Fatalf("matches = %d, want 3", len(buf))
	}
	for _, j := range buf {
		if r.TupleAt(int(j))[0] != term.Int(1) {
			t.Errorf("row %d: col0 = %v, want 1", j, r.TupleAt(int(j))[0])
		}
	}
	// No matches: probe value absent.
	if got := r.AppendMatches(1, tup(9, 0), buf[:0]); len(got) != 0 {
		t.Errorf("matches for absent value = %d, want 0", len(got))
	}
	// Reuse keeps contents appended after base.
	buf = buf[:0]
	buf = r.AppendMatches(1, tup(0, 0), buf)
	buf = r.AppendMatches(1, tup(2, 0), buf)
	if len(buf) != 4+3 {
		t.Errorf("accumulated matches = %d, want 7", len(buf))
	}
}

func TestScanMatchesLookup(t *testing.T) {
	r := NewRelation("e", 2)
	for i := int64(0); i < 20; i++ {
		r.MustInsert(tup(i%4, i%7))
	}
	for _, probe := range []struct {
		cols uint32
		t    Tuple
	}{
		{0, tup(0, 0)},
		{1, tup(2, 0)},
		{2, tup(0, 3)},
		{3, tup(1, 5)},
	} {
		want := map[string]bool{}
		for _, x := range r.Lookup(probe.cols, probe.t) {
			want[x.Key()] = true
		}
		got := map[string]bool{}
		r.Scan(probe.cols, probe.t, func(x Tuple) bool {
			got[x.Key()] = true
			return true
		})
		if len(got) != len(want) {
			t.Errorf("cols=%b: Scan %d rows, Lookup %d", probe.cols, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Errorf("cols=%b: Scan missing %s", probe.cols, k)
			}
		}
	}
	// Early stop.
	n := 0
	r.Scan(0, nil, func(Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early-stopped scan visited %d, want 3", n)
	}
}

// TestScanInsertDuringYield is the direct-mode engine pattern: deriving
// into the relation being scanned. The scan must cover exactly the
// rows present when it started.
func TestScanInsertDuringYield(t *testing.T) {
	r := NewRelation("n", 1)
	for i := int64(0); i < 5; i++ {
		r.MustInsert(tup(i))
	}
	seen := 0
	r.Scan(0, nil, func(x Tuple) bool {
		seen++
		r.MustInsert(tup(int64(x[0].(term.Int)) + 100))
		return true
	})
	if seen != 5 {
		t.Errorf("full scan with inserts visited %d, want 5", seen)
	}
	if r.Len() != 10 {
		t.Errorf("relation grew to %d, want 10", r.Len())
	}
	// Indexed variant: all rows share column 0 after masking.
	r2 := NewRelation("e", 2)
	for i := int64(0); i < 5; i++ {
		r2.MustInsert(tup(7, i))
	}
	seen = 0
	r2.Scan(1, tup(7, 0), func(x Tuple) bool {
		seen++
		r2.MustInsert(tup(7, int64(x[1].(term.Int))+100))
		return true
	})
	if seen != 5 {
		t.Errorf("indexed scan with inserts visited %d, want 5", seen)
	}
}

func TestInsertCopyDoesNotAlias(t *testing.T) {
	r := NewRelation("n", 2)
	buf := make(Tuple, 2)
	buf[0], buf[1] = term.Int(1), term.Int(2)
	if added, err := r.InsertCopy(buf); err != nil || !added {
		t.Fatalf("InsertCopy: added=%v err=%v", added, err)
	}
	// Mutating the caller's buffer must not corrupt the stored tuple.
	buf[0], buf[1] = term.Int(9), term.Int(9)
	if !r.Contains(tup(1, 2)) {
		t.Error("stored tuple aliased the caller's buffer")
	}
	if r.Contains(tup(9, 9)) {
		t.Error("mutated buffer visible in relation")
	}
	// Duplicate insert through the same buffer: no copy, not added.
	buf[0], buf[1] = term.Int(1), term.Int(2)
	if added, _ := r.InsertCopy(buf); added {
		t.Error("duplicate InsertCopy reported added")
	}
}

// TestDistinctCache checks the cached counts stay exact across the
// build → insert → recount sequence, for Insert and InsertFrom.
func TestDistinctCache(t *testing.T) {
	r := NewRelation("e", 2)
	for i := int64(0); i < 6; i++ {
		r.MustInsert(tup(i%2, i))
	}
	if got := r.Distinct(0); got != 2 {
		t.Fatalf("Distinct(0) = %d, want 2", got)
	}
	if got := r.Distinct(1); got != 6 {
		t.Fatalf("Distinct(1) = %d, want 6", got)
	}
	// Inserts after the cache is built must keep counts exact.
	r.MustInsert(tup(5, 5)) // new col0 value, duplicate col1 value
	if got := r.Distinct(0); got != 3 {
		t.Errorf("Distinct(0) after insert = %d, want 3", got)
	}
	if got := r.Distinct(1); got != 6 {
		t.Errorf("Distinct(1) after insert = %d, want 6", got)
	}
	// InsertFrom path (delta collection) updates the cache too.
	src := NewRelation("buf", 2)
	src.MustInsert(tup(42, 42))
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
