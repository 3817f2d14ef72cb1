package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ldl/internal/cost"
	"ldl/internal/depgraph"
	"ldl/internal/eval"
	"ldl/internal/lang"
	"ldl/internal/parser"
	"ldl/internal/plan"
	"ldl/internal/stats"
	"ldl/internal/store"
	"ldl/internal/term"
)

// setup parses src, loads facts, gathers exact statistics and returns
// an optimizer with the given strategy.
func setup(t *testing.T, src string, s Strategy) (*Optimizer, *lang.Program, *store.Database) {
	t.Helper()
	prog, _, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	return New(prog, g, stats.Gather(db), s), prog, db
}

// runCompiled executes a compiled plan against the fact base and
// returns the canonical answer strings plus the engine (for counters).
func runCompiled(c *plan.Compiled, db *store.Database, goal lang.Literal) ([]string, *eval.Engine, error) {
	prog2, err := lang.NewProgram(c.Clauses)
	if err != nil {
		return nil, nil, err
	}
	db2 := db.Fork() // LoadFacts writes through EnsureOwned
	if err := db2.LoadFacts(prog2); err != nil {
		return nil, nil, err
	}
	methodFor := map[string]eval.Method{}
	for tag, meth := range c.FixMethods {
		if meth != cost.RecNaive {
			continue
		}
		base := tag[:strings.IndexByte(tag, '/')]
		for _, t2 := range prog2.PredTags() {
			name := t2[:strings.LastIndexByte(t2, '/')]
			if name == base || strings.HasPrefix(name, base+".") {
				methodFor[t2] = eval.Naive
			}
		}
	}
	e, err := eval.New(prog2, db2, eval.Options{Method: eval.SemiNaive, MethodFor: methodFor, MaxTuples: 5_000_000, MaxIterations: 100_000})
	if err != nil {
		return nil, nil, err
	}
	if err := e.Run(); err != nil {
		return nil, nil, err
	}
	ansPred := c.AnswerTag[:strings.LastIndexByte(c.AnswerTag, '/')]
	ts, err := e.Answers(lang.Query{Goal: lang.Literal{Pred: ansPred, Args: goal.Args}})
	if err != nil {
		return nil, nil, err
	}
	out := make([]string, len(ts))
	for i, tt := range ts {
		out[i] = tt.String()
	}
	return out, e, nil
}

// reference evaluates the query on the unoptimized program.
func reference(t *testing.T, src string, goal lang.Literal) ([]string, *eval.Engine) {
	t.Helper()
	prog, _, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	e, err := eval.New(prog, db, eval.Options{Method: eval.SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := e.Answers(lang.Query{Goal: goal})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(ts))
	for i, tt := range ts {
		out[i] = tt.String()
	}
	return out, e
}

const conjSrc = `
big(1, 10). big(1, 11). big(2, 10). big(2, 12). big(3, 13). big(3, 10).
big(4, 14). big(5, 15). big(6, 16). big(7, 17). big(8, 18). big(9, 19).
sel(10, 100).
q(X, Z) <- big(X, Y), sel(Y, Z).
`

func TestOptimizeConjunctOrdersSelectiveFirst(t *testing.T) {
	o, _, db := setup(t, conjSrc, Exhaustive{})
	goal := lang.Lit("q", term.Var{Name: "X"}, term.Var{Name: "Z"})
	res, err := o.Optimize(lang.Query{Goal: goal})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safe || res.Cost.IsInfinite() {
		t.Fatalf("unsafe: %s", res.Reason)
	}
	// The chosen order should start with the small selective relation.
	join := res.Plan.Kids[0]
	if join.Kind != plan.KindJoin || join.Kids[0].Lit.Pred != "sel" {
		t.Errorf("plan does not start with sel:\n%s", res.Plan.Render())
	}
	// Execute and compare with the reference.
	want, _ := reference(t, conjSrc, goal)
	c, err := res.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runCompiled(c, db, goal)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("answers = %v, want %v", got, want)
	}
}

const sgSrc = `
up(a, p1). up(b, p1). up(p1, g1). up(c, p2). up(p2, g1).
dn(g1, q1). dn(q1, d). dn(q1, e). dn(p1, a2).
flat(g1, g1). flat(p1, p2).
sg(X, Y) <- flat(X, Y).
sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
`

func TestOptimizeRecursiveBoundQueryUsesBindingMethod(t *testing.T) {
	o, _, db := setup(t, sgSrc, Exhaustive{})
	goal := lang.Lit("sg", term.Atom("a"), term.Var{Name: "Y"})
	res, err := o.Optimize(lang.Query{Goal: goal})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safe {
		t.Fatalf("unsafe: %s", res.Reason)
	}
	fx := res.Plan
	if fx.Kind != plan.KindFix || fx.FixInfo == nil {
		t.Fatalf("plan root is not a CC node:\n%s", res.Plan.Render())
	}
	if fx.FixInfo.Method != cost.RecMagic && fx.FixInfo.Method != cost.RecCounting {
		t.Errorf("bound recursive query chose %v", fx.FixInfo.Method)
	}
	if fx.Mode != plan.Pipelined {
		t.Error("binding method not pipelined")
	}
	want, refEng := reference(t, sgSrc, goal)
	c, err := res.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got, optEng, err := runCompiled(c, db, goal)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("answers = %v, want %v", got, want)
	}
	if optEng.Counters.TuplesDerived >= refEng.Counters.TuplesDerived {
		t.Errorf("optimized execution derived %d tuples, reference %d",
			optEng.Counters.TuplesDerived, refEng.Counters.TuplesDerived)
	}
}

func TestOptimizeRecursiveFreeQueryUsesSemiNaive(t *testing.T) {
	o, _, db := setup(t, sgSrc, Exhaustive{})
	goal := lang.Lit("sg", term.Var{Name: "X"}, term.Var{Name: "Y"})
	res, err := o.Optimize(lang.Query{Goal: goal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.FixInfo.Method != cost.RecSemiNaive {
		t.Errorf("free recursive query chose %v", res.Plan.FixInfo.Method)
	}
	want, _ := reference(t, sgSrc, goal)
	c, err := res.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runCompiled(c, db, goal)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("answers = %v, want %v", got, want)
	}
}

func TestQueryFormSpecificity(t *testing.T) {
	// The paper's §2 point: P(c, y)? is optimized separately from
	// P(x, y)? and the plans differ.
	o, _, _ := setup(t, sgSrc, Exhaustive{})
	free, err := o.Optimize(lang.Query{Goal: lang.Lit("sg", term.Var{Name: "X"}, term.Var{Name: "Y"})})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := o.Optimize(lang.Query{Goal: lang.Lit("sg", term.Atom("a"), term.Var{Name: "Y"})})
	if err != nil {
		t.Fatal(err)
	}
	if free.Plan.FixInfo.Method == bound.Plan.FixInfo.Method {
		t.Errorf("both forms chose %v", free.Plan.FixInfo.Method)
	}
	if bound.Cost >= free.Cost {
		t.Errorf("bound plan cost %v not cheaper than free %v", bound.Cost, free.Cost)
	}
}

func TestUnsafeQueryReported(t *testing.T) {
	// §8.3's example: no permutation binds Y.
	src := `
p(X, Y, Z) <- X = 3, Z = X + Y.
`
	o, _, _ := setup(t, src, Exhaustive{})
	res, err := o.Optimize(lang.Query{Goal: lang.Lit("p", term.Var{Name: "X"}, term.Var{Name: "Y"}, term.Var{Name: "Z"})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe {
		t.Fatal("§8.3 query reported safe")
	}
	if res.Reason == "" {
		t.Error("no reason for unsafety")
	}
	if _, err := res.Compile(); err == nil {
		t.Error("unsafe plan compiled")
	}
	// With Y bound the query becomes safe.
	res2, err := o.Optimize(lang.Query{Goal: lang.Lit("p", term.Var{Name: "X"}, term.Int(2), term.Var{Name: "Z"})})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Safe {
		t.Errorf("Y-bound form unsafe: %s", res2.Reason)
	}
}

func TestUnsafeRecursionReported(t *testing.T) {
	src := `
seed(0).
n(X) <- seed(X).
n(Y) <- n(X), Y = X + 1.
`
	o, _, _ := setup(t, src, Exhaustive{})
	res, err := o.Optimize(lang.Query{Goal: lang.Lit("n", term.Var{Name: "X"})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe {
		t.Fatal("integer generator reported safe")
	}
	if !strings.Contains(res.Reason, "well-founded") && !strings.Contains(res.Reason, "arithmetic") {
		t.Errorf("reason = %q", res.Reason)
	}
}

func TestMemoizationSharedSubgoal(t *testing.T) {
	src := `
e(1, 2). e(2, 3).
sub(X, Y) <- e(X, Y).
p(X, Z) <- sub(X, Y), sub(Y, Z).
q(X, Z) <- sub(X, Y), sub(Y, Z), e(X, Z).
top(X, Z) <- p(X, Z), q(X, Z).
`
	o, _, _ := setup(t, src, Exhaustive{})
	res, err := o.Optimize(lang.Query{Goal: lang.Lit("top", term.Var{Name: "X"}, term.Var{Name: "Z"})})
	if err != nil || !res.Safe {
		t.Fatalf("optimize: %v %v", err, res)
	}
	if o.MemoHits == 0 {
		t.Errorf("no memo hits: lookups=%d", o.MemoLookups)
	}
}

func TestBaseRelationQuery(t *testing.T) {
	o, _, _ := setup(t, `e(1, 2). e(2, 3).`, Exhaustive{})
	res, err := o.Optimize(lang.Query{Goal: lang.Lit("e", term.Int(1), term.Var{Name: "Y"})})
	if err != nil || !res.Safe || res.Plan.Kind != plan.KindScan {
		t.Fatalf("base query: %v %+v", err, res)
	}
}

func TestStrategiesProduceSafeOrders(t *testing.T) {
	src := `
a(1, 2). a(2, 3).
b(2, 5). b(3, 6).
c(5, 7). c(6, 8).
d(7, 9).
q(X, W) <- a(X, Y), b(Y, Z), c(Z, V), d(V, W), W > 0.
`
	goal := lang.Lit("q", term.Int(1), term.Var{Name: "W"})
	want, _ := reference(t, src, goal)
	for _, s := range []Strategy{Exhaustive{}, DP{}, KBZ{}, Anneal{Seed: 7}} {
		o, _, db := setup(t, src, s)
		res, err := o.Optimize(lang.Query{Goal: goal})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !res.Safe {
			t.Fatalf("%s: unsafe: %s", s.Name(), res.Reason)
		}
		c, err := res.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", s.Name(), err)
		}
		got, _, err := runCompiled(c, db, goal)
		if err != nil {
			t.Fatalf("%s: run: %v", s.Name(), err)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: answers = %v, want %v", s.Name(), got, want)
		}
	}
}

func TestDPMatchesExhaustive(t *testing.T) {
	// Property: DP finds a plan of the same cost as exhaustive search
	// (both are exact under the order-independent cardinality model).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src, goal := randomChainQuery(r, 4+r.Intn(3))
		oE, _, _ := setupQ(src, Exhaustive{})
		oD, _, _ := setupQ(src, DP{})
		rE, err1 := oE.Optimize(lang.Query{Goal: goal})
		rD, err2 := oD.Optimize(lang.Query{Goal: goal})
		if err1 != nil || err2 != nil {
			return false
		}
		diff := float64(rE.Cost) - float64(rD.Cost)
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1e-6*(1+float64(rE.Cost))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickOptimizedExecutionMatchesReference(t *testing.T) {
	// Property: the full pipeline (optimize, compile, execute) returns
	// exactly the reference answers on random programs & query forms.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src, goal := randomChainQuery(r, 2+r.Intn(3))
		if r.Intn(2) == 0 {
			// randomly bind the first argument
			goal = lang.Lit(goal.Pred, term.Int(int64(r.Intn(4))), goal.Args[1])
		}
		o, _, db := setupQ(src, DP{})
		res, err := o.Optimize(lang.Query{Goal: goal})
		if err != nil || !res.Safe {
			return false
		}
		c, err := res.Compile()
		if err != nil {
			return false
		}
		got, _, err := runCompiled(c, db, goal)
		if err != nil {
			return false
		}
		want, _ := referenceQ(src, goal)
		return strings.Join(got, " ") == strings.Join(want, " ")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomChainQuery builds a rule q(X0, Xn) <- r1(X0, X1), ..., rn(Xn-1, Xn)
// over random relations.
func randomChainQuery(r *rand.Rand, n int) (string, lang.Literal) {
	var b strings.Builder
	for i := 0; i < n; i++ {
		card := 3 + r.Intn(15)
		for j := 0; j < card; j++ {
			fmt.Fprintf(&b, "r%d(%d, %d).\n", i, r.Intn(6), r.Intn(6))
		}
	}
	b.WriteString("q(X0, X")
	fmt.Fprintf(&b, "%d) <- ", n)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "r%d(X%d, X%d)", i, i, i+1)
	}
	b.WriteString(".\n")
	return b.String(), lang.Lit("q", term.Var{Name: "A"}, term.Var{Name: "B"})
}

func setupQ(src string, s Strategy) (*Optimizer, *lang.Program, *store.Database) {
	prog, _, err := parser.ParseProgram(src)
	if err != nil {
		panic(err)
	}
	db := store.NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		panic(err)
	}
	g, err := depgraph.Analyze(prog)
	if err != nil {
		panic(err)
	}
	return New(prog, g, stats.Gather(db), s), prog, db
}

func referenceQ(src string, goal lang.Literal) ([]string, *eval.Engine) {
	prog, _, err := parser.ParseProgram(src)
	if err != nil {
		panic(err)
	}
	db := store.NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		panic(err)
	}
	e, err := eval.New(prog, db, eval.Options{Method: eval.SemiNaive})
	if err != nil {
		panic(err)
	}
	ts, err := e.Answers(lang.Query{Goal: goal})
	if err != nil {
		panic(err)
	}
	out := make([]string, len(ts))
	for i, tt := range ts {
		out[i] = tt.String()
	}
	return out, e
}

func TestSortIntsHelper(t *testing.T) {
	if got := sortInts([]int{3, 1, 2}); got[0] != 1 || got[2] != 3 {
		t.Errorf("sortInts = %v", got)
	}
}
