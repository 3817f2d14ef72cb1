package store

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ldl/internal/parser"
	"ldl/internal/term"
)

func tup(vals ...int64) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = term.Int(v)
	}
	return t
}

func TestTupleKeyAndString(t *testing.T) {
	a := tup(1, 2)
	b := tup(1, 2)
	c := tup(12)
	if a.Key() != b.Key() {
		t.Error("equal tuples different keys")
	}
	if a.Key() == c.Key() {
		t.Error("key collision between (1,2) and (12)")
	}
	if a.String() != "(1, 2)" {
		t.Errorf("String = %q", a.String())
	}
}

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation("e", 2)
	for i := 0; i < 3; i++ {
		added, err := r.Insert(tup(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		if added != (i == 0) {
			t.Errorf("iteration %d: added=%v", i, added)
		}
	}
	if r.Len() != 1 || !r.Contains(tup(1, 2)) || r.Contains(tup(2, 1)) {
		t.Errorf("relation state wrong: %s", r)
	}
	// The relation keeps no reference to an inserted tuple: a caller
	// reusing its buffer changes nothing stored.
	buf := tup(3, 4)
	r.MustInsert(buf)
	buf[0], buf[1] = term.Int(9), term.Int(9)
	if !r.Contains(tup(3, 4)) || r.Contains(tup(9, 9)) || r.TupleAt(1).String() != "(3, 4)" {
		t.Errorf("stored row aliased the caller's tuple: %s", r)
	}
	if _, err := r.Insert(tup(1)); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := r.Insert(Tuple{term.Var{Name: "X"}, term.Int(1)}); err == nil {
		t.Error("non-ground tuple accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustInsert did not panic")
		}
	}()
	r.MustInsert(tup(1))
}

func TestIndexLookup(t *testing.T) {
	r := NewRelation("e", 2)
	for i := int64(0); i < 10; i++ {
		r.MustInsert(tup(i%3, i))
	}
	r.BuildIndex(0b01)
	if !r.HasIndex(0b01) || r.HasIndex(0b10) {
		t.Error("HasIndex wrong")
	}
	got := r.Lookup(0b01, Tuple{term.Int(1), nil})
	if len(got) != 3 {
		t.Errorf("Lookup col0=1: %d tuples", len(got))
	}
	for _, tt := range got {
		if !term.Equal(tt[0], term.Int(1)) {
			t.Errorf("wrong tuple %s", tt)
		}
	}
	// Lookup on a fresh column set auto-builds the index.
	got2 := r.Lookup(0b10, Tuple{nil, term.Int(4)})
	if len(got2) != 1 || !term.Equal(got2[0][1], term.Int(4)) {
		t.Errorf("Lookup col1=4: %v", got2)
	}
	if !r.HasIndex(0b10) {
		t.Error("auto-built index not retained")
	}
	// Miss returns nil.
	if got := r.Lookup(0b01, Tuple{term.Int(77), nil}); got != nil {
		t.Errorf("miss returned %v", got)
	}
	// cols==0 returns everything.
	if got := r.Lookup(0, nil); len(got) != 10 {
		t.Errorf("full scan = %d", len(got))
	}
	// Inserts after index creation keep the index current.
	r.MustInsert(tup(1, 99))
	if got := r.Lookup(0b01, Tuple{term.Int(1), nil}); len(got) != 4 {
		t.Errorf("post-insert lookup = %d", len(got))
	}
}

func TestDistinctAndSorted(t *testing.T) {
	r := NewRelation("e", 2)
	r.MustInsert(tup(2, 1))
	r.MustInsert(tup(1, 1))
	r.MustInsert(tup(1, 2))
	if r.Distinct(0) != 2 || r.Distinct(1) != 2 {
		t.Errorf("Distinct = %d, %d", r.Distinct(0), r.Distinct(1))
	}
	if r.Distinct(-1) != 0 || r.Distinct(5) != 0 {
		t.Error("out-of-range Distinct nonzero")
	}
	s := r.Sorted()
	if s[0].String() != "(1, 1)" || s[2].String() != "(2, 1)" {
		t.Errorf("Sorted = %v", s)
	}
	if !strings.HasPrefix(r.String(), "e/2 {(1, 1)") {
		t.Errorf("String = %q", r.String())
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	r1 := db.Ensure("e/2", 2)
	r2 := db.Ensure("e/2", 2)
	if r1 != r2 {
		t.Error("Ensure created duplicate relation")
	}
	if db.Relation("missing/1") != nil {
		t.Error("missing relation non-nil")
	}
	r1.MustInsert(tup(1, 2))
	db.Ensure("n/1", 1).MustInsert(tup(1))
	tags := db.Tags()
	if len(tags) != 2 || tags[0] != "e/2" || tags[1] != "n/1" {
		t.Errorf("Tags = %v", tags)
	}
	c := db.Fork()
	c.EnsureOwned("e/2", 2).MustInsert(tup(3, 4))
	if db.Relation("e/2").Len() != 1 || c.Relation("e/2").Len() != 2 {
		t.Error("Fork shares written tuples")
	}
}

func TestLoadFacts(t *testing.T) {
	prog, _, err := parser.ParseProgram(`
up(a, b). up(b, c). up(a, c).
flat(c, c).
label(1, "x").
nested(f(g(1), [a, b])).
`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	if db.Relation("up/2").Len() != 3 {
		t.Errorf("up = %d", db.Relation("up/2").Len())
	}
	if db.Relation("nested/1").Len() != 1 {
		t.Error("nested fact missing")
	}
}

func TestQuickLookupMatchesScan(t *testing.T) {
	// Property: for random data, Lookup on any column subset (the empty
	// one included) returns exactly the rows a brute-force filter over
	// TupleAt would.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := NewRelation("t", 3)
		for i := 0; i < 50; i++ {
			rel.MustInsert(tup(int64(r.Intn(4)), int64(r.Intn(4)), int64(r.Intn(4))))
		}
		cols := uint32(r.Intn(8)) // any subset of 3 columns
		probe := tup(int64(r.Intn(4)), int64(r.Intn(4)), int64(r.Intn(4)))
		got := rel.Lookup(cols, probe)
		var want []Tuple
		for j := 0; j < rel.Len(); j++ {
			tt := rel.TupleAt(j)
			match := true
			for i := 0; i < 3; i++ {
				if cols&(1<<uint(i)) != 0 && !term.Equal(tt[i], probe[i]) {
					match = false
					break
				}
			}
			if match {
				want = append(want, tt)
			}
		}
		if len(got) != len(want) {
			return false
		}
		SortTuples(got)
		SortTuples(want)
		for i := range got {
			if got[i].Key() != want[i].Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
