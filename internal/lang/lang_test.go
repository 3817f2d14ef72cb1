package lang

import (
	"strings"
	"testing"

	"ldl/internal/term"
)

func v(n string) term.Term  { return term.Var{Name: n} }
func at(n string) term.Term { return term.Atom(n) }

func TestLiteralBasics(t *testing.T) {
	l := Lit("sg", v("X"), v("Y"))
	if l.Arity() != 2 || l.Tag() != "sg/2" {
		t.Errorf("arity/tag: %d %s", l.Arity(), l.Tag())
	}
	if got := l.String(); got != "sg(X, Y)" {
		t.Errorf("String = %q", got)
	}
	if got := NotLit("edge", v("X")).String(); got != "not edge(X)" {
		t.Errorf("negated String = %q", got)
	}
	if got := Lit("p").String(); got != "p" {
		t.Errorf("propositional String = %q", got)
	}
	cmp := Lit(OpLt, v("X"), term.Int(3))
	if got := cmp.String(); got != "X < 3" {
		t.Errorf("comparison String = %q", got)
	}
	vs := l.Vars(nil)
	if len(vs) != 2 || vs[0].Name != "X" {
		t.Errorf("Vars = %v", vs)
	}
	r := l.Rename(2)
	if r.Args[0].(term.Var).Name != "X#2" {
		t.Errorf("Rename = %v", r)
	}
	s := term.NewSubst()
	s.Bind(term.Var{Name: "X"}, at("a"))
	if got := l.Resolve(s).String(); got != "sg(a, Y)" {
		t.Errorf("Resolve = %q", got)
	}
	set := map[string]bool{}
	l.VarSet(set)
	if !set["X"] || !set["Y"] {
		t.Errorf("VarSet = %v", set)
	}
}

func TestAdornment(t *testing.T) {
	a, err := ParseAdornment("bfb")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Bound(0) || a.Bound(1) || !a.Bound(2) {
		t.Errorf("parsed bits wrong: %b", a)
	}
	if a.Pattern(3) != "bfb" {
		t.Errorf("Pattern = %q", a.Pattern(3))
	}
	if AllBound(3) != 0b111 {
		t.Errorf("AllBound(3) = %b", AllBound(3))
	}
	if AllFree.Pattern(2) != "ff" {
		t.Errorf("AllFree pattern = %q", AllFree.Pattern(2))
	}
	if _, err := ParseAdornment("bxf"); err == nil {
		t.Error("bad character accepted")
	}
	if _, err := ParseAdornment(strings.Repeat("b", 40)); err == nil {
		t.Error("over-long adornment accepted")
	}
	if AdornedName("sg", a, 3) != "sg.bfb" {
		t.Errorf("AdornedName = %q", AdornedName("sg", a, 3))
	}
}

func TestAdornLiteral(t *testing.T) {
	bound := map[string]bool{"X": true}
	// sg(X, Y): X bound, Y free -> bf
	if got := AdornLiteral(Lit("sg", v("X"), v("Y")), bound); got.Pattern(2) != "bf" {
		t.Errorf("adorn = %q", got.Pattern(2))
	}
	// constants are bound
	if got := AdornLiteral(Lit("p", at("c"), v("Y")), nil); got.Pattern(2) != "bf" {
		t.Errorf("const adorn = %q", got.Pattern(2))
	}
	// complex term bound only if all inner vars bound
	ct := term.Comp{Functor: "f", Args: []term.Term{v("X"), v("Z")}}
	if got := AdornLiteral(Lit("p", ct), bound); got.Pattern(1) != "f" {
		t.Errorf("partial complex adorn = %q", got.Pattern(1))
	}
	bound["Z"] = true
	if got := AdornLiteral(Lit("p", ct), bound); got.Pattern(1) != "b" {
		t.Errorf("full complex adorn = %q", got.Pattern(1))
	}
}

func TestRuleBasics(t *testing.T) {
	r := Rule{
		Head: Lit("sg", v("X"), v("Y")),
		Body: []Literal{Lit("up", v("X"), v("X1")), Lit("sg", v("Y1"), v("X1")), Lit("dn", v("Y1"), v("Y"))},
	}
	want := "sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y)."
	if got := r.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if r.IsFact() {
		t.Error("rule reported as fact")
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	vs := r.Vars()
	if len(vs) != 4 {
		t.Errorf("Vars = %v", vs)
	}
	rr := r.Rename(1)
	if rr.Head.Args[0].(term.Var).Name != "X#1" || rr.Body[2].Args[1].(term.Var).Name != "Y#1" {
		t.Errorf("Rename = %v", rr)
	}
	fact := Rule{Head: Lit("up", at("a"), at("b"))}
	if !fact.IsFact() || fact.String() != "up(a, b)." {
		t.Errorf("fact: %v %q", fact.IsFact(), fact.String())
	}
}

func TestRuleValidateErrors(t *testing.T) {
	bad := []Rule{
		{Head: Literal{Pred: "p", Neg: true}},
		{Head: Lit(OpEq, v("X"), v("Y"))},
		{Head: Lit("p", v("X"))}, // non-ground fact
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: bad rule validated: %s", i, r)
		}
	}
	negBuiltin := Rule{Head: Lit("p", v("X")), Body: []Literal{{Pred: OpLt, Args: []term.Term{v("X"), v("Y")}, Neg: true}}}
	if err := negBuiltin.Validate(); err == nil {
		t.Error("negated builtin validated")
	}
	wide := make([]term.Term, 32)
	for i := range wide {
		wide[i] = term.Int(int64(i))
	}
	if err := (Rule{Head: Literal{Pred: "w", Args: wide}}).Validate(); err == nil {
		t.Error("arity 32 head validated")
	}
	if err := (Rule{Head: Lit("p", at("a")), Body: []Literal{{Pred: "w", Args: wide}}}).Validate(); err == nil {
		t.Error("arity 32 body literal validated")
	}
}

func TestProgram(t *testing.T) {
	clauses := []Rule{
		{Head: Lit("anc", v("X"), v("Y")), Body: []Literal{Lit("par", v("X"), v("Y"))}},
		{Head: Lit("anc", v("X"), v("Y")), Body: []Literal{Lit("par", v("X"), v("Z")), Lit("anc", v("Z"), v("Y"))}},
		{Head: Lit("par", at("a"), at("b"))},
		{Head: Lit("par", at("b"), at("c"))},
	}
	p, err := NewProgram(clauses)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 2 || len(p.Facts) != 2 {
		t.Fatalf("rules/facts: %d/%d", len(p.Rules), len(p.Facts))
	}
	if got := len(p.RulesFor("anc/2")); got != 2 {
		t.Errorf("RulesFor(anc/2) = %d", got)
	}
	if !p.IsDerived("anc/2") || p.IsDerived("par/2") {
		t.Error("IsDerived wrong")
	}
	tags := p.PredTags()
	if len(tags) != 2 || tags[0] != "anc/2" || tags[1] != "par/2" {
		t.Errorf("PredTags = %v", tags)
	}
	if !strings.Contains(p.String(), "anc(X, Y) <- par(X, Y).") {
		t.Errorf("Program.String = %q", p.String())
	}
	if _, err := NewProgram([]Rule{{Head: Lit("p", v("X"))}}); err == nil {
		t.Error("invalid clause accepted")
	}
}

func TestQueryAdornment(t *testing.T) {
	q := Query{Goal: Lit("sg", at("john"), v("Y"))}
	if q.Adornment().Pattern(2) != "bf" {
		t.Errorf("adornment = %q", q.Adornment().Pattern(2))
	}
	if q.String() != "sg(john, Y)?" {
		t.Errorf("String = %q", q.String())
	}
	q2 := Query{Goal: Lit("p", term.Comp{Functor: "f", Args: []term.Term{v("X")}})}
	if q2.Adornment().Pattern(1) != "f" {
		t.Errorf("non-ground complex arg adorned bound")
	}
}
