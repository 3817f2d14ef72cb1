package core

import (
	"slices"
	"strings"
	"testing"

	"ldl/internal/lang"
	"ldl/internal/parser"
	"ldl/internal/term"
)

func TestUnfoldBasics(t *testing.T) {
	prog, _, err := parser.ParseProgram(`
e(1, 2).
inner(X, Y) <- e(X, Y), Y > 1.
outer(X, Z) <- inner(X, Y), e(Y, Z).
`)
	if err != nil {
		t.Fatal(err)
	}
	np, changed, err := Unfold(prog)
	if err != nil || !changed {
		t.Fatalf("Unfold: changed=%v err=%v", changed, err)
	}
	outer := np.RulesFor("outer/2")
	if len(outer) != 1 {
		t.Fatalf("outer rules = %d", len(outer))
	}
	// inner's body replaced the call: e, >, e.
	if len(outer[0].Body) != 3 || outer[0].Body[0].Pred != "e" || outer[0].Body[1].Pred != lang.OpGt {
		t.Errorf("unfolded rule = %s", outer[0])
	}
	// The flattened program carries the fact tags, not the facts.
	if np.Facts != nil || !np.HasFacts("e/2") || !slices.Contains(np.PredTags(), "e/2") {
		t.Errorf("flattened program: %d facts, HasFacts(e/2)=%v, PredTags=%v", len(np.Facts), np.HasFacts("e/2"), np.PredTags())
	}
	// A second round has nothing left to unfold (inner's own rule uses
	// base predicates only, and inner itself stays defined).
	_, changed2, err := Unfold(np)
	if err != nil {
		t.Fatal(err)
	}
	if changed2 {
		t.Error("second round changed again")
	}
}

func TestUnfoldSkipsRecursiveMultiRuleAndFacts(t *testing.T) {
	prog, _, err := parser.ParseProgram(`
e(1, 2).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
multi(X) <- e(X, Y).
multi(X) <- e(Y, X).
mixed(9).
mixed(X) <- e(X, Y).
top(X) <- tc(X, Y), multi(X), mixed(X).
`)
	if err != nil {
		t.Fatal(err)
	}
	// A loaded System's program has dropped its facts: Unfold must see
	// mixed's facts through the recorded tags.
	prog.Facts = nil
	np, changed, err := Unfold(prog)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("recursive/multi-rule/fact-bearing predicates were unfolded")
	}
	top := np.RulesFor("top/1")[0]
	if top.Body[0].Pred != "tc" || top.Body[1].Pred != "multi" || top.Body[2].Pred != "mixed" {
		t.Errorf("top body = %s", top)
	}
}

func TestUnfoldDropsDeadCalls(t *testing.T) {
	prog, _, err := parser.ParseProgram(`
e(1, 2).
only(a, X) <- e(X, X).
top(X) <- only(b, X).
`)
	if err != nil {
		t.Fatal(err)
	}
	np, changed, err := Unfold(prog)
	if err != nil || !changed {
		t.Fatalf("Unfold: %v %v", changed, err)
	}
	if len(np.RulesFor("top/1")) != 0 {
		t.Errorf("dead rule survived: %v", np.RulesFor("top/1"))
	}
}

// TestSection83FlatteningRescue reproduces the paper's §8.3 second
// solution: the query has no safe goal ordering under any permutation,
// but flattening the callee's equalities into one conjunct makes it
// computable (answer <3, 6, 9> for Y = 2*X: here Y = 2^X gives <3,8,11>).
func TestSection83FlatteningRescue(t *testing.T) {
	src := `
p(X, Y, Z) <- X = 3, Z = X + Y.
q(X, Y, Z) <- p(X, Y, Z), Y = 2 ^ X.
`
	o, _, db := setup(t, src, Exhaustive{})
	goal := lang.Lit("q", term.Var{Name: "A"}, term.Var{Name: "B"}, term.Var{Name: "C"})

	// Without flattening: unsafe.
	plain, err := o.Optimize(lang.Query{Goal: goal})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Safe {
		t.Fatal("§8.3 composite query safe without flattening")
	}

	// With flattening: safe, and the answer is the paper's unique tuple.
	res, err := o.OptimizeFlattened(lang.Query{Goal: goal}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safe {
		t.Fatalf("flattened query still unsafe: %s", res.Reason)
	}
	c, err := res.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runCompiled(c, db, goal)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != "(3, 8, 11)" {
		t.Errorf("answers = %v, want [(3, 8, 11)]", got)
	}
}

func TestOptimizeFlattenedNoChangeStaysUnsafe(t *testing.T) {
	// count cannot be rescued by unfolding (it is recursive).
	src := `
seed(0).
n(X) <- seed(X).
n(Y) <- n(X), Y = X + 1.
`
	o, _, _ := setup(t, src, Exhaustive{})
	res, err := o.OptimizeFlattened(lang.Query{Goal: lang.Lit("n", term.Var{Name: "X"})}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe {
		t.Error("integer generator rescued by flattening")
	}
}

func TestOptimizeFlattenedSafeFastPath(t *testing.T) {
	o, _, _ := setup(t, `e(1, 2). q(X, Y) <- e(X, Y).`, Exhaustive{})
	res, err := o.OptimizeFlattened(lang.Query{Goal: lang.Lit("q", term.Int(1), term.Var{Name: "Y"})}, 4)
	if err != nil || !res.Safe {
		t.Fatalf("fast path: %v %v", err, res)
	}
}
