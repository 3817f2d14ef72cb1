package term

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindVar: "var", KindAtom: "atom", KindInt: "int", KindStr: "str", KindComp: "compound",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		t    Term
		want string
	}{
		{Var{"X"}, "X"},
		{Atom("john"), "john"},
		{Int(-42), "-42"},
		{Str("hi"), `"hi"`},
		{Comp{"f", []Term{Atom("a"), Var{"X"}}}, "f(a, X)"},
		{List(), "[]"},
		{List(Int(1), Int(2), Int(3)), "[1, 2, 3]"},
		{Cons(Int(1), Var{"T"}), "[1|T]"},
		{Cons(Int(1), Cons(Int(2), Var{"T"})), "[1, 2|T]"},
		{Cons(Int(1), Atom("x")), "[1|x]"},
		{Comp{"pair", []Term{List(Atom("a")), Int(0)}}, "pair([a], 0)"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestListSlice(t *testing.T) {
	l := List(Int(1), Atom("a"), Str("s"))
	elems, ok := ListSlice(l)
	if !ok || len(elems) != 3 {
		t.Fatalf("ListSlice = %v, %v", elems, ok)
	}
	if !Equal(elems[1], Atom("a")) {
		t.Errorf("elems[1] = %v", elems[1])
	}
	if _, ok := ListSlice(Cons(Int(1), Var{"T"})); ok {
		t.Error("improper list reported proper")
	}
	if _, ok := ListSlice(Atom("notalist")); ok {
		t.Error("atom reported as list")
	}
	if _, ok := ListSlice(Int(3)); ok {
		t.Error("int reported as list")
	}
	if _, ok := ListSlice(Comp{"f", []Term{Int(1)}}); ok {
		t.Error("f/1 reported as list")
	}
}

func TestEqual(t *testing.T) {
	a := Comp{"f", []Term{Atom("a"), List(Int(1), Int(2))}}
	b := Comp{"f", []Term{Atom("a"), List(Int(1), Int(2))}}
	if !Equal(a, b) {
		t.Error("structurally equal terms not Equal")
	}
	if Equal(a, Comp{"f", []Term{Atom("a")}}) {
		t.Error("different arity Equal")
	}
	if Equal(a, Comp{"g", []Term{Atom("a"), List(Int(1), Int(2))}}) {
		t.Error("different functor Equal")
	}
	if Equal(Atom("a"), Int(1)) {
		t.Error("cross-kind Equal")
	}
	if Equal(Var{"X"}, Var{"Y"}) {
		t.Error("distinct vars Equal")
	}
	if !Equal(Var{"X"}, Var{"X"}) {
		t.Error("same var not Equal")
	}
	if Equal(a, Comp{"f", []Term{Atom("b"), List(Int(1), Int(2))}}) {
		t.Error("different arg Equal")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	ordered := []Term{
		Var{"A"}, Var{"B"},
		Atom("a"), Atom("b"),
		Int(-1), Int(0), Int(5),
		Str("a"), Str("b"),
		Comp{"f", []Term{Int(1)}},
		Comp{"f", []Term{Int(1), Int(1)}},
		Comp{"f", []Term{Int(1), Int(2)}},
		Comp{"g", []Term{Int(0)}},
	}
	for i := range ordered {
		for j := range ordered {
			c := Compare(ordered[i], ordered[j])
			switch {
			case i < j && c >= 0:
				t.Errorf("Compare(%v,%v) = %d, want <0", ordered[i], ordered[j], c)
			case i == j && c != 0:
				t.Errorf("Compare(%v,%v) = %d, want 0", ordered[i], ordered[j], c)
			case i > j && c <= 0:
				t.Errorf("Compare(%v,%v) = %d, want >0", ordered[i], ordered[j], c)
			}
		}
	}
}

func TestGroundVarsSize(t *testing.T) {
	g := Comp{"f", []Term{Atom("a"), List(Int(1))}}
	if !Ground(g) {
		t.Error("ground term reported non-ground")
	}
	ng := Comp{"f", []Term{Var{"X"}, Comp{"g", []Term{Var{"Y"}, Var{"X"}}}}}
	if Ground(ng) {
		t.Error("non-ground term reported ground")
	}
	vs := Vars(ng, nil)
	if len(vs) != 2 || vs[0].Name != "X" || vs[1].Name != "Y" {
		t.Errorf("Vars = %v", vs)
	}
	set := map[string]bool{}
	VarSet(ng, set)
	if len(set) != 2 || !set["X"] || !set["Y"] {
		t.Errorf("VarSet = %v", set)
	}
	// Size: f, a, ., 1, [] = 5 symbols.
	if s := Size(g); s != 5 {
		t.Errorf("Size(%v) = %d, want 5", g, s)
	}
	if s := Size(Var{"X"}); s != 0 {
		t.Errorf("Size(X) = %d, want 0", s)
	}
}

func TestProperSubterm(t *testing.T) {
	inner := Comp{"g", []Term{Var{"X"}}}
	outer := Comp{"f", []Term{Atom("a"), inner}}
	if !ProperSubterm(inner, outer) {
		t.Error("inner not found in outer")
	}
	if !ProperSubterm(Var{"X"}, outer) {
		t.Error("X not found in outer")
	}
	if ProperSubterm(outer, outer) {
		t.Error("term is its own proper subterm")
	}
	if ProperSubterm(outer, Atom("a")) {
		t.Error("subterm of an atom")
	}
}

func TestKeyGroundInjective(t *testing.T) {
	terms := []Term{
		Atom("ab"), Atom("a"), Str("ab"), Str("a"), Int(12), Int(1),
		Comp{"f", []Term{Atom("a"), Atom("b")}},
		Comp{"f", []Term{Atom("ab")}},
		Comp{"f", []Term{Comp{"f", []Term{Atom("a")}}}},
		List(Int(1), Int(2)), List(Int(12)),
	}
	seen := map[string]Term{}
	for _, x := range terms {
		k := Key(x)
		if prev, ok := seen[k]; ok {
			t.Errorf("Key collision: %v and %v -> %q", prev, x, k)
		}
		seen[k] = x
	}
	defer func() {
		if recover() == nil {
			t.Error("Key on non-ground term did not panic")
		}
	}()
	Key(Comp{"f", []Term{Var{"X"}}})
}

func TestAppendKeyMatchesKey(t *testing.T) {
	x := Comp{"f", []Term{Atom("a"), Int(3)}}
	var b strings.Builder
	AppendKey(&b, x)
	if b.String() != Key(x) {
		t.Errorf("AppendKey %q != Key %q", b.String(), Key(x))
	}
}

func TestRename(t *testing.T) {
	x := Comp{"f", []Term{Var{"X"}, Atom("a"), Comp{"g", []Term{Var{"Y"}}}}}
	r := Rename(x, 7).(Comp)
	if r.Args[0].(Var).Name != "X#7" {
		t.Errorf("renamed var = %v", r.Args[0])
	}
	if !Equal(r.Args[1], Atom("a")) {
		t.Errorf("atom changed by rename: %v", r.Args[1])
	}
	if r.Args[2].(Comp).Args[0].(Var).Name != "Y#7" {
		t.Errorf("nested renamed var = %v", r.Args[2])
	}
	if !Equal(Rename(Int(3), 1), Int(3)) {
		t.Error("int changed by rename")
	}
}

func TestSubstBasics(t *testing.T) {
	s := NewSubst()
	s.Bind(Var{"X"}, Var{"Y"})
	s.Bind(Var{"Y"}, Atom("a"))
	if got := s.Walk(Var{"X"}); !Equal(got, Atom("a")) {
		t.Errorf("Walk(X) = %v", got)
	}
	u := Comp{"f", []Term{Var{"X"}, Var{"Z"}}}
	r := s.Resolve(u)
	want := Comp{"f", []Term{Atom("a"), Var{"Z"}}}
	if !Equal(r, want) {
		t.Errorf("Resolve = %v, want %v", r, want)
	}
	if !s.Bound("X") || s.Bound("Z") {
		t.Errorf("Bound: X=%v Z=%v", s.Bound("X"), s.Bound("Z"))
	}
	c := s.Clone()
	c.Bind(Var{"Z"}, Int(1))
	if s.Bound("Z") {
		t.Error("Clone shares storage")
	}
	if got := s.String(); got != "{X=a, Y=a}" {
		t.Errorf("String = %q", got)
	}
	all := s.ResolveAll([]Term{Var{"X"}, Int(2)})
	if !Equal(all[0], Atom("a")) || !Equal(all[1], Int(2)) {
		t.Errorf("ResolveAll = %v", all)
	}
}

func TestUnifyBasics(t *testing.T) {
	cases := []struct {
		a, b Term
		ok   bool
	}{
		{Atom("a"), Atom("a"), true},
		{Atom("a"), Atom("b"), false},
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Str("x"), Str("x"), true},
		{Str("x"), Str("y"), false},
		{Atom("a"), Int(1), false},
		{Var{"X"}, Atom("a"), true},
		{Atom("a"), Var{"X"}, true},
		{Var{"X"}, Var{"X"}, true},
		{Var{"X"}, Var{"Y"}, true},
		{Comp{"f", []Term{Var{"X"}}}, Comp{"f", []Term{Atom("a")}}, true},
		{Comp{"f", []Term{Var{"X"}}}, Comp{"g", []Term{Atom("a")}}, false},
		{Comp{"f", []Term{Var{"X"}}}, Comp{"f", []Term{Atom("a"), Atom("b")}}, false},
	}
	for _, c := range cases {
		_, ok := Unify(c.a, c.b, nil)
		if ok != c.ok {
			t.Errorf("Unify(%v,%v) ok=%v, want %v", c.a, c.b, ok, c.ok)
		}
	}
}

func TestUnifySidewaysBinding(t *testing.T) {
	// f(X, g(X)) ~ f(a, Y)  =>  X=a, Y=g(a)
	a := Comp{"f", []Term{Var{"X"}, Comp{"g", []Term{Var{"X"}}}}}
	b := Comp{"f", []Term{Atom("a"), Var{"Y"}}}
	s, ok := Unify(a, b, nil)
	if !ok {
		t.Fatal("unify failed")
	}
	if got := s.Resolve(Var{"Y"}); !Equal(got, Comp{"g", []Term{Atom("a")}}) {
		t.Errorf("Y = %v", got)
	}
}

func TestUnifyOccursCheck(t *testing.T) {
	// X ~ f(X) must fail.
	if _, ok := Unify(Var{"X"}, Comp{"f", []Term{Var{"X"}}}, nil); ok {
		t.Error("occurs check failed to reject X=f(X)")
	}
	// X ~ Y, then Y ~ f(X) must fail too (chained occurs).
	s, _ := Unify(Var{"X"}, Var{"Y"}, nil)
	if _, ok := Unify(Var{"Y"}, Comp{"f", []Term{Var{"X"}}}, s); ok {
		t.Error("chained occurs check failed")
	}
}

func TestUnifyAll(t *testing.T) {
	s, ok := UnifyAll([]Term{Var{"X"}, Int(2)}, []Term{Int(1), Int(2)}, nil)
	if !ok || !Equal(s.Resolve(Var{"X"}), Int(1)) {
		t.Errorf("UnifyAll: ok=%v s=%v", ok, s)
	}
	if _, ok := UnifyAll([]Term{Var{"X"}}, []Term{Int(1), Int(2)}, nil); ok {
		t.Error("length mismatch unified")
	}
	if _, ok := UnifyAll([]Term{Int(1), Int(3)}, []Term{Int(1), Int(2)}, nil); ok {
		t.Error("mismatched elements unified")
	}
}

func TestMatch(t *testing.T) {
	p := Comp{"f", []Term{Var{"X"}, Atom("k"), Var{"X"}}}
	g := Comp{"f", []Term{Int(1), Atom("k"), Int(2)}}
	// Match is one-way and does not enforce var consistency across
	// repeated occurrences beyond the walk: X binds to 1, then walks to 1
	// and fails against 2.
	if _, ok := Match(p, g, nil); ok {
		t.Error("inconsistent repeated var matched")
	}
	g2 := Comp{"f", []Term{Int(1), Atom("k"), Int(1)}}
	s, ok := Match(p, g2, nil)
	if !ok || !Equal(s.Resolve(Var{"X"}), Int(1)) {
		t.Errorf("Match failed: %v %v", s, ok)
	}
	if _, ok := Match(Atom("a"), Atom("b"), nil); ok {
		t.Error("a matched b")
	}
	if _, ok := Match(Int(1), Int(2), nil); ok {
		t.Error("1 matched 2")
	}
	if _, ok := Match(Str("a"), Str("b"), nil); ok {
		t.Error("str mismatch matched")
	}
	if _, ok := Match(Comp{"f", nil}, Comp{"g", nil}, nil); ok {
		t.Error("functor mismatch matched")
	}
	if _, ok := Match(Atom("a"), Int(1), nil); ok {
		t.Error("kind mismatch matched")
	}
	if _, ok := Match(Comp{"f", []Term{Int(1), Int(9)}}, Comp{"f", []Term{Int(1), Int(2)}}, nil); ok {
		t.Error("arg mismatch matched")
	}
}

// randTerm generates a random term of bounded depth for property tests.
func randTerm(r *rand.Rand, depth int, allowVars bool) Term {
	k := r.Intn(5)
	if depth <= 0 && k == 4 {
		k = r.Intn(4)
	}
	if !allowVars && k == 0 {
		k = 1 + r.Intn(3)
	}
	switch k {
	case 0:
		return Var{Name: string(rune('X' + r.Intn(3)))}
	case 1:
		return Atom(string(rune('a' + r.Intn(4))))
	case 2:
		return Int(r.Intn(10) - 5)
	case 3:
		return Str(string(rune('p' + r.Intn(3))))
	default:
		n := 1 + r.Intn(3)
		args := make([]Term, n)
		for i := range args {
			args[i] = randTerm(r, depth-1, allowVars)
		}
		return Comp{Functor: string(rune('f' + r.Intn(2))), Args: args}
	}
}

func TestQuickUnifySelf(t *testing.T) {
	// Property: every term unifies with itself, and a renamed variant
	// unifies with the original.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randTerm(r, 3, true)
		if _, ok := Unify(x, x, nil); !ok {
			return false
		}
		_, ok := Unify(x, Rename(x, 1), nil)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnifySound(t *testing.T) {
	// Property: if Unify(a,b) succeeds, the unifier really equates them.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randTerm(r, 3, true)
		b := randTerm(r, 3, true)
		s, ok := Unify(a, b, nil)
		if !ok {
			return true
		}
		return Equal(s.Resolve(a), s.Resolve(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickMatchInstance(t *testing.T) {
	// Property: instantiating a pattern with ground terms then matching
	// recovers an instantiation that reproduces the ground instance.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pat := randTerm(r, 3, true)
		s := NewSubst()
		for _, v := range Vars(pat, nil) {
			s.Bind(v, randTerm(r, 1, false))
		}
		g := s.Resolve(pat)
		if !Ground(g) {
			return true
		}
		m, ok := Match(pat, g, nil)
		if !ok {
			return false
		}
		return Equal(m.Resolve(pat), g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareConsistentWithEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randTerm(r, 3, true)
		b := randTerm(r, 3, true)
		if (Compare(a, b) == 0) != Equal(a, b) {
			return false
		}
		// Antisymmetry.
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyEqualsEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randTerm(r, 3, false)
		b := randTerm(r, 3, false)
		return (Key(a) == Key(b)) == Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

func TestQuickListRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(6)
		elems := make([]Term, n)
		for i := range elems {
			elems[i] = randTerm(r, 2, false)
		}
		back, ok := ListSlice(List(elems...))
		if !ok || len(back) != n {
			return false
		}
		for i := range elems {
			if !Equal(elems[i], back[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
