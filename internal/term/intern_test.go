package term

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternBasics(t *testing.T) {
	cases := []Term{
		Atom("john"),
		Int(42),
		Int(-7),
		Str("hello"),
		Comp{Functor: "f", Args: []Term{Atom("a"), Int(1)}},
		List(Int(1), Int(2), Int(3)),
	}
	for _, c := range cases {
		id1 := Intern(c)
		id2 := Intern(c)
		if id1 != id2 {
			t.Errorf("Intern(%s) not stable: %d vs %d", c, id1, id2)
		}
		if id1 == 0 {
			t.Errorf("Intern(%s) returned the zero sentinel", c)
		}
		if got := InternedTerm(id1); !Equal(got, c) {
			t.Errorf("InternedTerm(Intern(%s)) = %s", c, got)
		}
		if IDHash(id1) != HashTerm(c) {
			t.Errorf("IDHash and HashTerm disagree for %s", c)
		}
	}
}

func TestInternDistinguishes(t *testing.T) {
	pairs := [][2]Term{
		{Atom("a"), Str("a")},    // kind matters
		{Atom("ab"), Atom("ba")}, // content matters
		{Int(1), Int(2)},         //
		{Comp{Functor: "f", Args: []Term{Atom("a"), Atom("b")}}, Comp{Functor: "f", Args: []Term{Atom("b"), Atom("a")}}}, // order matters
		{List(Int(1)), List(Int(1), Int(1))}, // length matters
	}
	for _, p := range pairs {
		if Intern(p[0]) == Intern(p[1]) {
			t.Errorf("Intern conflates %s and %s", p[0], p[1])
		}
	}
}

func TestInternNonGround(t *testing.T) {
	if _, _, ok := TryIntern(Var{Name: "X"}); ok {
		t.Error("TryIntern accepted a variable")
	}
	if _, _, ok := TryIntern(Comp{Functor: "f", Args: []Term{Var{Name: "X"}}}); ok {
		t.Error("TryIntern accepted a non-ground compound")
	}
	defer func() {
		if recover() == nil {
			t.Error("Intern did not panic on a variable")
		}
	}()
	Intern(Var{Name: "X"})
}

// TestInternConcurrent checks the tentpole invariant: concurrent
// interning of equal terms yields exactly one ID per distinct term.
func TestInternConcurrent(t *testing.T) {
	const goroutines = 16
	const terms = 200
	ids := make([][]ID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]ID, terms)
			for i := 0; i < terms; i++ {
				// Every goroutine builds structurally equal terms
				// independently, so no pointer sharing can mask a bug.
				tm := Comp{Functor: "conc", Args: []Term{
					Atom(fmt.Sprintf("n%d", i)),
					Int(i),
					List(Int(i), Atom("x")),
				}}
				ids[g][i] = Intern(tm)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < terms; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got ID %d for term %d, goroutine 0 got %d", g, ids[g][i], i, ids[0][i])
			}
		}
	}
	// And distinct terms got distinct IDs.
	seen := map[ID]bool{}
	for i := 0; i < terms; i++ {
		if seen[ids[0][i]] {
			t.Fatalf("duplicate ID %d", ids[0][i])
		}
		seen[ids[0][i]] = true
	}
}

func BenchmarkIntern(b *testing.B) {
	b.Run("atom-hit", func(b *testing.B) {
		a := Atom("benchmark_atom")
		Intern(a)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			TryIntern(a)
		}
	})
	b.Run("compound-hit", func(b *testing.B) {
		c := Comp{Functor: "f", Args: []Term{Atom("a"), Int(7), List(Int(1), Int(2))}}
		Intern(c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			TryIntern(c)
		}
	})
	b.Run("int-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TryIntern(Int(int64(i) + 1<<40))
		}
	})
}
