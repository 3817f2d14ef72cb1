package stats

import (
	"strings"
	"testing"

	"ldl/internal/parser"
	"ldl/internal/store"
)

func TestCatalogDefaults(t *testing.T) {
	c := NewCatalog()
	if c.Has("e/2") {
		t.Error("empty catalog has e/2")
	}
	s := c.Stats("e/2")
	if s.Card != c.Default.Card {
		t.Errorf("default card = %v", s.Card)
	}
	c.Set("e/2", RelStats{Card: 50, Distinct: []float64{10, 25}})
	if !c.Has("e/2") || c.Stats("e/2").Card != 50 {
		t.Error("Set/Stats roundtrip failed")
	}
	if got := c.Tags(); len(got) != 1 || got[0] != "e/2" {
		t.Errorf("Tags = %v", got)
	}
	if !strings.Contains(c.String(), "e/2: card=50") {
		t.Errorf("String = %q", c.String())
	}
}

func TestDistinctAtFallbacks(t *testing.T) {
	s := RelStats{Card: 100, Distinct: []float64{20}}
	if s.DistinctAt(0) != 20 {
		t.Errorf("DistinctAt(0) = %v", s.DistinctAt(0))
	}
	if s.DistinctAt(1) != 100 {
		t.Errorf("DistinctAt(1) fallback = %v", s.DistinctAt(1))
	}
	tiny := RelStats{Card: 0.5}
	if tiny.DistinctAt(0) != 1 {
		t.Errorf("tiny DistinctAt = %v", tiny.DistinctAt(0))
	}
	zero := RelStats{Card: 100, Distinct: []float64{0}}
	if zero.DistinctAt(0) != 100 {
		t.Errorf("zero distinct fallback = %v", zero.DistinctAt(0))
	}
}

func TestGather(t *testing.T) {
	prog, _, err := parser.ParseProgram(`
e(1, 2). e(1, 3). e(2, 3).
n(1). n(2). n(3).
`)
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	c := Gather(db)
	e := c.Stats("e/2")
	if e.Card != 3 || e.Distinct[0] != 2 || e.Distinct[1] != 2 {
		t.Errorf("e stats = %+v", e)
	}
	n := c.Stats("n/1")
	if n.Card != 3 || n.Distinct[0] != 3 {
		t.Errorf("n stats = %+v", n)
	}
}

func TestGatherAcyclicity(t *testing.T) {
	prog, _, err := parser.ParseProgram(`
chain(1, 2). chain(2, 3).
loop(1, 2). loop(2, 1).
selfloop(7, 7).
unary(1).
wide(1, 2, 3). wide(2, 1, 9).
`)
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	c := Gather(db)
	if !c.Stats("chain/2").Acyclic {
		t.Error("chain reported cyclic")
	}
	if c.Stats("loop/2").Acyclic {
		t.Error("loop reported acyclic")
	}
	if c.Stats("selfloop/2").Acyclic {
		t.Error("self-loop reported acyclic")
	}
	if !c.Stats("unary/1").Acyclic {
		t.Error("unary relation reported cyclic")
	}
	if c.Stats("wide/3").Acyclic {
		t.Error("wide cycle over first two columns reported acyclic")
	}
}

// TestUpdateIncrementalAcyclicity exercises the watermark-based
// recheck: Update re-derives statistics for a grown relation from its
// appended suffix only, so it must flip Acyclic exactly when a new
// edge closes a cycle — and never flip it back, since inserts cannot
// remove one.
func TestUpdateIncrementalAcyclicity(t *testing.T) {
	load := func(src string, db *store.Database) {
		t.Helper()
		prog, _, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.LoadFacts(prog); err != nil {
			t.Fatal(err)
		}
	}
	db := store.NewDatabase()
	load("e(1, 2). e(2, 3). e(10, 11).", db)
	c0 := Gather(db)
	if !c0.Stats("e/2").Acyclic {
		t.Fatal("chain reported cyclic")
	}

	// Growth that stays acyclic: a fresh component and a chain extension.
	mark := db.Relation("e/2").Len()
	load("e(20, 21). e(3, 4).", db)
	c1 := Update(c0, db, map[string]int{"e/2": mark})
	st := c1.Stats("e/2")
	if !st.Acyclic {
		t.Error("acyclic growth flipped the Acyclic bit")
	}
	if st.Card != 5 {
		t.Errorf("Card = %v after growth", st.Card)
	}

	// A new edge that closes a cycle through old edges only.
	mark = db.Relation("e/2").Len()
	load("e(4, 1).", db)
	c2 := Update(c1, db, map[string]int{"e/2": mark})
	if c2.Stats("e/2").Acyclic {
		t.Error("back edge 4->1 not detected as a cycle")
	}

	// Once cyclic, later acyclic-looking growth must keep it cyclic.
	mark = db.Relation("e/2").Len()
	load("e(30, 31).", db)
	c3 := Update(c2, db, map[string]int{"e/2": mark})
	if c3.Stats("e/2").Acyclic {
		t.Error("cyclic relation reported acyclic after unrelated growth")
	}

	// A self-loop in the appended suffix is a cycle on its own.
	db2 := store.NewDatabase()
	load("f(1, 2).", db2)
	c4 := Gather(db2)
	mark = db2.Relation("f/2").Len()
	load("f(7, 7).", db2)
	if Update(c4, db2, map[string]int{"f/2": mark}).Stats("f/2").Acyclic {
		t.Error("appended self-loop not detected")
	}

	// A relation the previous catalog never saw is gathered in full.
	mark = 0
	load("g(1, 2). g(2, 1).", db2)
	if Update(c4, db2, map[string]int{"g/2": 2}).Stats("g/2").Acyclic {
		t.Error("unseen relation's cycle missed (watermark must not apply)")
	}
}
