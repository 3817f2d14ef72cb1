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

// mustInsert inserts t, panicking on a structural error.
func mustInsert(r *Relation, t Tuple) bool {
	added, err := r.Insert(t)
	if err != nil {
		panic(err)
	}
	return added
}

// contains reports whether r holds t, probing by interned IDs: a term
// that was never interned is stored nowhere.
func contains(r *Relation, t Tuple) bool {
	ids := make([]term.ID, len(t))
	for i, x := range t {
		id, ok := term.TryLookupID(x)
		if !ok {
			return false
		}
		ids[i] = id
	}
	return r.ContainsIDs(ids)
}

// hasIndex reports whether the relation's tail has published an index
// on cols.
func hasIndex(r *Relation, cols uint32) bool {
	_, ok := (*r.indexes.Load())[cols]
	return ok
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
	if r.Len() != 1 || !contains(r, tup(1, 2)) || contains(r, tup(2, 1)) {
		t.Errorf("relation state wrong: %s", r)
	}
	// The relation keeps no reference to an inserted tuple: a caller
	// reusing its buffer changes nothing stored.
	buf := tup(3, 4)
	mustInsert(r, buf)
	buf[0], buf[1] = term.Int(9), term.Int(9)
	if !contains(r, tup(3, 4)) || contains(r, tup(9, 9)) || r.TupleAt(1).String() != "(3, 4)" {
		t.Errorf("stored row aliased the caller's tuple: %s", r)
	}
	if _, err := r.Insert(tup(1)); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := r.Insert(Tuple{term.Var{Name: "X"}, term.Int(1)}); err == nil {
		t.Error("non-ground tuple accepted")
	}
}

func TestIndexLookup(t *testing.T) {
	r := NewRelation("e", 2)
	for i := int64(0); i < 10; i++ {
		mustInsert(r, tup(i%3, i))
	}
	r.ensureIndex(0b01)
	if !hasIndex(r, 0b01) || hasIndex(r, 0b10) {
		t.Error("published indexes wrong")
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
	if !hasIndex(r, 0b10) {
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
	mustInsert(r, tup(1, 99))
	if got := r.Lookup(0b01, Tuple{term.Int(1), nil}); len(got) != 4 {
		t.Errorf("post-insert lookup = %d", len(got))
	}
}

func TestDistinctAndSorted(t *testing.T) {
	r := NewRelation("e", 2)
	mustInsert(r, tup(2, 1))
	mustInsert(r, tup(1, 1))
	mustInsert(r, tup(1, 2))
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
	mustInsert(r1, tup(1, 2))
	mustInsert(db.Ensure("n/1", 1), tup(1))
	tags := db.Tags()
	if len(tags) != 2 || tags[0] != "e/2" || tags[1] != "n/1" {
		t.Errorf("Tags = %v", tags)
	}
	c := db.Fork()
	mustInsert(c.EnsureOwned("e/2", 2), tup(3, 4))
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
			mustInsert(rel, tup(int64(r.Intn(4)), int64(r.Intn(4)), int64(r.Intn(4))))
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

// TestIndexDuplicateKeys: a column index over 65 536 rows holding only
// 4 distinct column-0 values keeps one key per value and returns each
// value's rows in insertion order; inserting into a clone leaves the
// parent's lookups unchanged.
func TestIndexDuplicateKeys(t *testing.T) {
	const n, keys = 1 << 16, 4
	r := NewRelation("e", 2)
	for i := int64(0); i < n; i++ {
		mustInsert(r, tup(i%keys, i))
	}
	ci := r.ensureIndex(0b01)
	if ci.nkeys != keys {
		t.Fatalf("index holds %d keys, want %d", ci.nkeys, keys)
	}
	check := func(what string, rel *Relation, extra int) {
		t.Helper()
		for k := int64(0); k < keys; k++ {
			got := rel.AppendMatchesID(0b01, ids(k, 0), nil)
			if want := n/keys + extra; len(got) != want {
				t.Fatalf("%s: key %d: %d rows, want %d", what, k, len(got), want)
			}
			for m, j := range got {
				want := int32(k) + int32(m)*keys // the clone's row n+k comes last
				if j != want {
					t.Fatalf("%s: key %d: match %d is row %d, want %d", what, k, m, j, want)
				}
			}
		}
	}
	check("parent", r, 0)
	c := r.CloneOwned()
	for k := int64(0); k < keys; k++ {
		mustInsert(c, tup(k, n+k))
	}
	check("clone", c, 1)
	check("parent after clone inserts", r, 0)
	if got := (*c.indexes.Load())[0b01].nkeys; got != keys {
		t.Errorf("clone index holds %d keys, want %d", got, keys)
	}
}

// TestRelationReset: a reset relation reads like a fresh one — no
// rows, indexes or distinct counts survive — while keeping its
// capacity, and a relation with parts refuses to reset.
func TestRelationReset(t *testing.T) {
	r := NewRelationSized("d", 2, 64)
	for i := int64(0); i < 40; i++ {
		mustInsert(r, tup(i%5, i))
	}
	r.ensureIndex(0b01)
	if r.Distinct(0) != 5 {
		t.Fatalf("Distinct(0) = %d, want 5", r.Distinct(0))
	}
	hashCap, colCap := cap(r.hashes), cap(r.cols[0])
	r.Reset()
	if r.Len() != 0 || hasIndex(r, 0b01) || r.dist.Load() != nil || contains(r, tup(1, 1)) {
		t.Fatalf("Reset left state behind: len %d, %s", r.Len(), r)
	}
	if cap(r.hashes) != hashCap || cap(r.cols[0]) != colCap {
		t.Errorf("Reset dropped capacity: hashes %d -> %d, col0 %d -> %d", hashCap, cap(r.hashes), colCap, cap(r.cols[0]))
	}
	mustInsert(r, tup(1, 1))
	if mustInsert(r, tup(1, 1)) || !contains(r, tup(1, 1)) || contains(r, tup(0, 0)) {
		t.Error("dedup after Reset wrong")
	}
	if got := r.Lookup(0b01, tup(1, 0)); len(got) != 1 || r.Distinct(0) != 1 {
		t.Errorf("after Reset: lookup %v, Distinct(0) %d", got, r.Distinct(0))
	}
	defer func() {
		if recover() == nil {
			t.Error("Reset on a relation with parts did not panic")
		}
	}()
	r.Frozen().Reset()
}
