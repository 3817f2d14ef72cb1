package adorn

import (
	"strings"
	"testing"

	"ldl/internal/lang"
	"ldl/internal/parser"
	"ldl/internal/term"
)

// sgRules returns the same-generation clique of §7.3.
func sgRules(t *testing.T) []lang.Rule {
	t.Helper()
	prog, _, err := parser.ParseProgram(`sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Rules
}

func inSg(tag string) bool { return tag == "sg/2" }

func TestAdornSgBfIdentity(t *testing.T) {
	rules := sgRules(t)
	bf, _ := lang.ParseAdornment("bf")
	a, err := Adorn(rules, inSg, "sg/2", bf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.AnswerName() != "sg.bf" {
		t.Errorf("AnswerName = %q", a.AnswerName())
	}
	// With identity SIP: up(X,X1) binds X1, so sg(Y1,X1) is adorned fb;
	// the fb replica re-generates fb, so closure has exactly bf and fb.
	if len(a.PredAdorn) != 2 {
		t.Fatalf("adorned preds = %v", a.PredAdorn)
	}
	if _, ok := a.PredAdorn["sg.bf"]; !ok {
		t.Error("sg.bf missing")
	}
	if _, ok := a.PredAdorn["sg.fb"]; !ok {
		t.Errorf("sg.fb missing: %v", a.PredAdorn)
	}
	if len(a.Rules) != 2 {
		t.Fatalf("rules = %d:\n%s", len(a.Rules), a)
	}
	r0 := a.Rules[0]
	if r0.Rule.Head.Pred != "sg.bf" || r0.Rule.Body[1].Pred != "sg.fb" {
		t.Errorf("rule 0 = %s", r0.Rule)
	}
	if r0.BodyAdorns[0].Pattern(2) != "bf" { // up(X,X1) with X bound
		t.Errorf("up adornment = %q", r0.BodyAdorns[0].Pattern(2))
	}
	if r0.BodyAdorns[1].Pattern(2) != "fb" {
		t.Errorf("sg adornment = %q", r0.BodyAdorns[1].Pattern(2))
	}
	if r0.BodyAdorns[2].Pattern(2) != "bf" { // dn(Y1,Y): Y1 bound by sg
		t.Errorf("dn adornment = %q", r0.BodyAdorns[2].Pattern(2))
	}
	// OrigOf maps back.
	if a.OrigOf["sg.fb"] != "sg/2" {
		t.Errorf("OrigOf = %v", a.OrigOf)
	}
	// BoundBefore grows along the body.
	if len(r0.BoundBefore) != 4 || len(r0.BoundBefore[0]) != 1 || !r0.BoundBefore[3]["Y"] {
		t.Errorf("BoundBefore = %v", r0.BoundBefore)
	}
}

func TestAdornSgBbPerAdornSIP(t *testing.T) {
	// The paper's sg.bb example: the bb replica keeps identity order;
	// the fb replica reverses (dn first) so the recursive call stays in
	// {bf, fb}. With per-adornment SIPs the closure is {bb, fb, bf}.
	rules := sgRules(t)
	bb, _ := lang.ParseAdornment("bb")
	bf, _ := lang.ParseAdornment("bf")
	fb, _ := lang.ParseAdornment("fb")
	chooser := perAdorn(map[adornKey][]int{
		{0, bb}: {0, 1, 2},
		{0, fb}: {2, 1, 0},
		{0, bf}: {0, 1, 2},
	})
	a, err := Adorn(rules, inSg, "sg/2", bb, chooser)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.PredAdorn) != 3 {
		t.Fatalf("adorned preds = %v\n%s", a.PredAdorn, a)
	}
	for _, want := range []string{"sg.bb", "sg.fb", "sg.bf"} {
		if _, ok := a.PredAdorn[want]; !ok {
			t.Errorf("%s missing from %v", want, a.PredAdorn)
		}
	}
	// The fb replica must start with dn.
	var fbRule *AdornedRule
	for i := range a.Rules {
		if a.Rules[i].Rule.Head.Pred == "sg.fb" {
			fbRule = &a.Rules[i]
		}
	}
	if fbRule == nil || fbRule.Rule.Body[0].Pred != "dn" {
		t.Fatalf("fb replica = %v", fbRule)
	}
	if fbRule.Rule.Body[1].Pred != "sg.bf" {
		t.Errorf("fb replica recursive literal = %s", fbRule.Rule.Body[1])
	}
}

func TestAdornBuiltinBinding(t *testing.T) {
	prog, _, err := parser.ParseProgram(`p(X, Y) <- q(X, Z), Y = Z + 1, p(Y, W), r(W).`)
	if err != nil {
		t.Fatal(err)
	}
	bf, _ := lang.ParseAdornment("bf")
	a, err := Adorn(prog.Rules, func(tag string) bool { return tag == "p/2" }, "p/2", bf, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := a.Rules[0]
	// After q and Y=Z+1, Y is bound, so p(Y,W) is adorned bf.
	if r.Rule.Body[2].Pred != "p.bf" {
		t.Errorf("recursive literal = %s\n%s", r.Rule.Body[2], a)
	}
}

func TestAdornErrors(t *testing.T) {
	rules := sgRules(t)
	bf, _ := lang.ParseAdornment("bf")
	if _, err := Adorn(rules, inSg, "zz/2", bf, nil); err == nil {
		t.Error("unknown query tag accepted")
	}
	if _, err := Adorn(rules, inSg, "sg/2", bf, UniformCPerm([][]int{{0, 1}})); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := Adorn(rules, inSg, "sg/2", bf, UniformCPerm([][]int{{0, 0, 1}})); err == nil {
		t.Error("duplicate permutation entries accepted")
	}
	if _, err := Adorn(rules, inSg, "sg/2", bf, UniformCPerm([][]int{{0, 1, 7}})); err == nil {
		t.Error("out-of-range permutation accepted")
	}
}

func TestPermutations(t *testing.T) {
	if got := len(Permutations(0)); got != 1 {
		t.Errorf("0! = %d", got)
	}
	if got := len(Permutations(4)); got != 24 {
		t.Errorf("4! = %d", got)
	}
	p3 := Permutations(3)
	if len(p3) != 6 {
		t.Fatalf("3! = %d", len(p3))
	}
	want := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for i := range want {
		for j := range want[i] {
			if p3[i][j] != want[i][j] {
				t.Fatalf("Permutations(3) = %v", p3)
			}
		}
	}
}

func TestMagicSgStructure(t *testing.T) {
	rules := sgRules(t)
	bf, _ := lang.ParseAdornment("bf")
	a, err := Adorn(rules, inSg, "sg/2", bf, nil)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Magic(a, lang.Lit("sg", term.Atom("john"), term.Var{Name: "Y"}))
	if err != nil {
		t.Fatal(err)
	}
	if rw.AnswerTag != "sg.bf/2" {
		t.Errorf("AnswerTag = %q", rw.AnswerTag)
	}
	// Seed + per adorned rule: 1 modified + 1 magic rule => 1 + 2*2 = 5.
	if len(rw.Clauses) != 5 {
		t.Fatalf("clauses = %d:\n%v", len(rw.Clauses), rw.Clauses)
	}
	seed := rw.Clauses[0]
	if !seed.IsFact() || seed.Head.Pred != "m$sg.bf" || !term.Equal(seed.Head.Args[0], term.Atom("john")) {
		t.Errorf("seed = %s", seed)
	}
	// Both replicas produce a magic rule for their recursive call; the
	// one from the bf replica is m$sg.fb(X1) <- m$sg.bf(X), up(X, X1).
	var sawBfSource bool
	for _, c := range rw.Clauses[1:] {
		if c.Head.Pred == "m$sg.fb" && len(c.Body) == 2 && c.Body[0].Pred == "m$sg.bf" && c.Body[1].Pred == "up" {
			sawBfSource = true
		}
		if c.Head.Pred == "sg.bf" && c.Body[0].Pred != "m$sg.bf" {
			t.Errorf("modified rule lacks magic guard: %s", c)
		}
	}
	if !sawBfSource {
		t.Errorf("no magic rule m$sg.fb <- m$sg.bf, up:\n%v", rw.Clauses)
	}
}

func TestMagicSeedMustBeGround(t *testing.T) {
	rules := sgRules(t)
	bf, _ := lang.ParseAdornment("bf")
	a, _ := Adorn(rules, inSg, "sg/2", bf, nil)
	if _, err := Magic(a, lang.Lit("sg", term.Var{Name: "X"}, term.Var{Name: "Y"})); err == nil {
		t.Error("non-ground seed accepted")
	}
	if _, err := Counting(a, lang.Lit("sg", term.Var{Name: "X"}, term.Var{Name: "Y"})); err == nil {
		t.Error("counting: non-ground seed accepted")
	}
}

// adornKey identifies a replicated rule: original rule index plus head
// adornment.
type adornKey struct {
	rule  int
	adorn lang.Adornment
}

// perAdorn chooses a SIP by (rule, head adornment), falling back to
// identity.
func perAdorn(m map[adornKey][]int) SIPChooser {
	return func(ruleIdx int, a lang.Adornment) []int { return m[adornKey{ruleIdx, a}] }
}

// sgCountChooser reverses the fb replica's SIP, as the paper's §7.3
// example does, which is exactly what makes counting applicable.
func sgCountChooser() SIPChooser {
	bf, _ := lang.ParseAdornment("bf")
	fb, _ := lang.ParseAdornment("fb")
	return perAdorn(map[adornKey][]int{
		{0, bf}: {0, 1, 2},
		{0, fb}: {2, 1, 0},
	})
}

func TestCanCount(t *testing.T) {
	rules := sgRules(t)
	bf, _ := lang.ParseAdornment("bf")
	// With identity SIPs everywhere, the fb replica's post segment (dn)
	// uses the bound head variable Y, so counting must be rejected.
	aID, err := Adorn(rules, inSg, "sg/2", bf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if CanCount(aID) {
		t.Error("identity-SIP sg.bf wrongly countable")
	}
	// With the paper's per-replica SIPs, counting applies.
	a, err := Adorn(rules, inSg, "sg/2", bf, sgCountChooser())
	if err != nil {
		t.Fatal(err)
	}
	if !CanCount(a) {
		t.Errorf("paper-SIP sg.bf should be countable:\n%s", a)
	}
	// Nonlinear clique: two recursive literals.
	prog, _, _ := parser.ParseProgram(`d(X, Y) <- e(X, Y).
d(X, Y) <- d(X, Z), d(Z, Y).`)
	a2, err := Adorn(prog.Rules, func(tag string) bool { return tag == "d/2" }, "d/2", bf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if CanCount(a2) {
		t.Error("nonlinear clique countable")
	}
	// Bound head variable used in the post segment.
	prog3, _, _ := parser.ParseProgram(`p(X, Y) <- e(X, Z), p(Z, W), f(X, W, Y).`)
	a3, err := Adorn(prog3.Rules, func(tag string) bool { return tag == "p/2" }, "p/2", bf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if CanCount(a3) {
		t.Error("post segment using bound head var countable")
	}
	// Free head variable from the pre segment only.
	prog4, _, _ := parser.ParseProgram(`p(X, Y) <- e(X, Y), p(Y, W), g(W).`)
	a4, err := Adorn(prog4.Rules, func(tag string) bool { return tag == "p/2" }, "p/2", bf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if CanCount(a4) {
		t.Error("free head var bound in pre segment countable")
	}
}

func TestCountingSgStructure(t *testing.T) {
	rules := sgRules(t)
	bf, _ := lang.ParseAdornment("bf")
	a, err := Adorn(rules, inSg, "sg/2", bf, sgCountChooser())
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Counting(a, lang.Lit("sg", term.Atom("john"), term.Var{Name: "Y"}))
	if err != nil {
		t.Fatal(err)
	}
	if rw.AnswerTag != "q$ans/2" {
		t.Errorf("AnswerTag = %q", rw.AnswerTag)
	}
	// seed + (cnt+ans per recursive replica)*2 + final = 1+4+1 = 6.
	if len(rw.Clauses) != 6 {
		t.Fatalf("clauses = %d:\n%v", len(rw.Clauses), rw.Clauses)
	}
	seed := rw.Clauses[0]
	if !seed.IsFact() || seed.Head.Pred != "c$sg.bf" || !term.Equal(seed.Head.Args[0], term.Int(0)) {
		t.Errorf("seed = %s", seed)
	}
	var sawGuard bool
	for _, c := range rw.Clauses {
		for _, b := range c.Body {
			if b.Pred == lang.OpGe {
				sawGuard = true
			}
		}
	}
	if !sawGuard {
		t.Error("no I >= 0 guard in answer rules")
	}
	final := rw.Clauses[len(rw.Clauses)-1]
	if final.Head.Pred != "q$ans" || !term.Equal(final.Head.Args[0], term.Atom("john")) {
		t.Errorf("final rule = %s", final)
	}
	// Counting rejects non-countable programs.
	prog, _, _ := parser.ParseProgram(`d(X, Y) <- e(X, Y).
d(X, Y) <- d(X, Z), d(Z, Y).`)
	a2, _ := Adorn(prog.Rules, func(tag string) bool { return tag == "d/2" }, "d/2", bf, nil)
	if _, err := Counting(a2, lang.Lit("d", term.Int(1), term.Var{Name: "Y"})); err == nil {
		t.Error("counting accepted nonlinear clique")
	}
}

func TestAdornedString(t *testing.T) {
	rules := sgRules(t)
	bf, _ := lang.ParseAdornment("bf")
	a, _ := Adorn(rules, inSg, "sg/2", bf, nil)
	s := a.String()
	if !strings.Contains(s, "sg.bf(X, Y) <- up(X, X1), sg.fb(Y1, X1), dn(Y1, Y).") {
		t.Errorf("String =\n%s", s)
	}
}
