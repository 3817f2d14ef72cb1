package ldl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const sgSource = `
% same-generation knowledge base
up(a, p1). up(b, p1). up(p1, g1). up(c, p2). up(p2, g1).
dn(g1, q1). dn(q1, d). dn(q1, e).
flat(g1, g1).
sg(X, Y) <- flat(X, Y).
sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
sg(a, Y)?
`

func TestLoadAndIntrospect(t *testing.T) {
	sys, err := Load(sgSource)
	if err != nil {
		t.Fatal(err)
	}
	if qs := sys.Queries(); len(qs) != 1 || qs[0] != "sg(a, Y)" {
		t.Errorf("Queries = %v", qs)
	}
	rels := sys.Relations()
	if len(rels) != 3 || !strings.Contains(rels[2], "up/2 (5 tuples)") {
		t.Errorf("Relations = %v", rels)
	}
	if _, err := Load(`p(`); err == nil {
		t.Error("bad source loaded")
	}
	if _, err := Load(`p(X).`); err == nil {
		t.Error("non-ground fact loaded")
	}
}

func TestQueryAllStrategies(t *testing.T) {
	sys, err := Load(sgSource)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]string
	for _, st := range []Strategy{StrategyExhaustive, StrategyDP, StrategyKBZ, StrategyAnneal} {
		rows, err := sys.Query("sg(a, Y)", WithStrategy(st), WithSeed(3))
		if err != nil {
			t.Fatalf("%s: %v", st, err)
		}
		if want == nil {
			want = rows
			if len(rows) == 0 {
				t.Fatal("no answers")
			}
			continue
		}
		if len(rows) != len(want) {
			t.Errorf("%s: %d rows, want %d", st, len(rows), len(want))
		}
	}
	if _, err := sys.Query("sg(a, Y)", WithStrategy("bogus")); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := sys.Query("sg(a Y)"); err == nil {
		t.Error("bad goal accepted")
	}
}

func TestExplainShowsProcessingTree(t *testing.T) {
	sys, err := Load(sgSource)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.Optimize("sg(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Safe() || p.Cost() <= 0 {
		t.Fatalf("plan: safe=%v cost=%v reason=%s", p.Safe(), p.Cost(), p.Reason())
	}
	ex := p.Explain()
	for _, wantPart := range []string{"query: sg(a, Y)?", "CC sg/2", "estimated cost"} {
		if !strings.Contains(ex, wantPart) {
			t.Errorf("Explain missing %q:\n%s", wantPart, ex)
		}
	}
}

func TestUnsafeQuerySurfacesReason(t *testing.T) {
	sys, err := Load(`p(X, Y, Z) <- X = 3, Z = X + Y.`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.Optimize("p(X, Y, Z)")
	if err != nil {
		t.Fatal(err)
	}
	if p.Safe() || p.Reason() == "" {
		t.Fatalf("plan: safe=%v reason=%q", p.Safe(), p.Reason())
	}
	if !strings.Contains(p.Explain(), "UNSAFE") {
		t.Errorf("Explain = %q", p.Explain())
	}
	if _, err := p.Execute(); err == nil {
		t.Error("unsafe plan executed")
	}
	if _, err := sys.Query("p(X, Y, Z)"); err == nil {
		t.Error("unsafe query ran")
	}
}

func TestOptimizedBeatsUnoptimizedOnBoundQuery(t *testing.T) {
	sys, err := Load(sgSource)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.Optimize("sg(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	optRows, optStats, err := p.ExecuteStats()
	if err != nil {
		t.Fatal(err)
	}
	refRows, refStats, err := sys.EvaluateUnoptimized("sg(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(optRows) != len(refRows) {
		t.Fatalf("row mismatch: %v vs %v", optRows, refRows)
	}
	for i := range optRows {
		if strings.Join(optRows[i], ",") != strings.Join(refRows[i], ",") {
			t.Fatalf("row %d: %v vs %v", i, optRows[i], refRows[i])
		}
	}
	if optStats.TuplesDerived >= refStats.TuplesDerived {
		t.Errorf("optimized derived %d tuples, unoptimized %d",
			optStats.TuplesDerived, refStats.TuplesDerived)
	}
}

// TestGatheredStatsInfluencePlan: the join order follows the statistics
// gathered from the loaded facts. A 1-row a joined with a 500-row b
// must scan a first; with the sizes swapped the plan must flip.
func TestGatheredStatsInfluencePlan(t *testing.T) {
	const rule = "q(X, Z) <- a(X, Y), b(Y, Z).\n"
	load := func(small, big string) *System {
		t.Helper()
		var src strings.Builder
		src.WriteString(rule)
		fmt.Fprintf(&src, "%s(1, 1).\n", small)
		for i := 0; i < 500; i++ {
			fmt.Fprintf(&src, "%s(%d, %d).\n", big, i, i)
		}
		sys, err := Load(src.String())
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	p, err := load("a", "b").Optimize("q(X, Z)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Explain(), "join") {
		t.Fatalf("Explain:\n%s", p.Explain())
	}
	idxA := strings.Index(p.Explain(), "scan a(")
	idxB := strings.Index(p.Explain(), "scan b(")
	if idxA < 0 || idxB < 0 || idxA > idxB {
		t.Errorf("a not scanned first:\n%s", p.Explain())
	}
	// Swap the sizes: the plan must flip too.
	p2, err := load("b", "a").Optimize("q(X, Z)")
	if err != nil {
		t.Fatal(err)
	}
	idxA2 := strings.Index(p2.Explain(), "scan a(")
	idxB2 := strings.Index(p2.Explain(), "scan b(")
	if idxB2 < 0 || idxA2 < 0 || idxB2 > idxA2 {
		t.Errorf("b not scanned first after the sizes swap:\n%s", p2.Explain())
	}
}

func TestMemoCountersExposed(t *testing.T) {
	src := `
e(1, 2).
sub(X, Y) <- e(X, Y).
p(X, Z) <- sub(X, Y), sub(Y, Z).
`
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.Optimize("p(1, Z)")
	if err != nil {
		t.Fatal(err)
	}
	if p.MemoLookups == 0 {
		t.Error("no memo lookups recorded")
	}
}

func TestWithFlatteningRescuesSection83(t *testing.T) {
	sys, err := Load(`
p(X, Y, Z) <- X = 3, Z = X + Y.
q(X, Y, Z) <- p(X, Y, Z), Y = 2 ^ X.
`)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.Optimize("q(X, Y, Z)")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Safe() {
		t.Fatal("§8.3 query safe without flattening")
	}
	flat, err := sys.Optimize("q(X, Y, Z)", WithFlattening())
	if err != nil {
		t.Fatal(err)
	}
	if !flat.Safe() {
		t.Fatalf("flattened query unsafe: %s", flat.Reason())
	}
	rows, err := flat.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || strings.Join(rows[0], ",") != "3,8,11" {
		t.Errorf("rows = %v", rows)
	}
}

func TestNegationThroughOptimizer(t *testing.T) {
	src := `
node(1). node(2). node(3). node(4).
e(1, 2). e(2, 3).
reach(1).
reach(Y) <- reach(X), e(X, Y).
unreach(X) <- node(X), not reach(X).
`
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sys.Query("unreach(X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "4" {
		t.Errorf("unreach = %v", rows)
	}
}

func TestCyclicDataDisablesCounting(t *testing.T) {
	// Regression: a bound recursive query over cyclic data must not
	// choose the counting method (whose level counter diverges on
	// cycles) — the acyclicity statistic gates it. The query must still
	// optimize to a binding method (magic) and terminate.
	src := `
e(a, b). e(b, c). e(c, a). e(c, d).
reach(X, Y) <- e(X, Y).
reach(X, Y) <- e(X, Z), reach(Z, Y).
`
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.Optimize("reach(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Safe() {
		t.Fatalf("cyclic reach unsafe: %s", p.Reason())
	}
	if strings.Contains(p.Explain(), "method=counting") {
		t.Fatalf("counting chosen over cyclic data:\n%s", p.Explain())
	}
	rows, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // a reaches a, b, c, d
		t.Errorf("rows = %v", rows)
	}
}

// TestSharedSubexpressionComputedOnce demonstrates the common-
// subexpression behavior §9 discusses: two occurrences of the same
// subquery under the same binding compile to ONE adorned predicate
// whose relation the engine computes once — sharing emerges from the
// adorned-name scheme plus the optimizer's binding-indexed memo.
func TestSharedSubexpressionComputedOnce(t *testing.T) {
	shared := `
e(1, 2). e(2, 3). e(3, 4).
sub(X, Y) <- e(X, Y).
sub(X, Y) <- e(Y, X).
pair(X, Y) <- sub(1, X), sub(1, Y), X < Y.
`
	// Control: structurally identical, but the second occurrence names
	// a distinct (duplicate) predicate, forcing genuine recomputation.
	duplicated := `
e(1, 2). e(2, 3). e(3, 4).
sub(X, Y) <- e(X, Y).
sub(X, Y) <- e(Y, X).
sub2(X, Y) <- e(X, Y).
sub2(X, Y) <- e(Y, X).
pair(X, Y) <- sub(1, X), sub2(1, Y), X < Y.
`
	work := func(src string) (int, [][]string) {
		sys, err := Load(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sys.Optimize("pair(A, B)")
		if err != nil {
			t.Fatal(err)
		}
		if p.MemoLookups == 0 {
			t.Fatal("no memo activity")
		}
		if !p.Safe() {
			t.Fatal(p.Reason())
		}
		rows, stats, err := p.ExecuteStats()
		if err != nil {
			t.Fatal(err)
		}
		return stats.TuplesDerived, rows
	}
	sharedWork, sharedRows := work(shared)
	dupWork, dupRows := work(duplicated)
	if len(sharedRows) != len(dupRows) {
		t.Fatalf("answer mismatch: %d vs %d", len(sharedRows), len(dupRows))
	}
	if sharedWork >= dupWork {
		t.Errorf("shared subexpression derived %d tuples, duplicated %d — no sharing benefit",
			sharedWork, dupWork)
	}
}

// TestQuickFullPipelineRandomGraphs drives the entire public pipeline
// (load, optimize with every strategy, compile, execute) on random
// graphs — cyclic ones included — with random query forms, checking the
// answers against unoptimized evaluation every time.
func TestQuickFullPipelineRandomGraphs(t *testing.T) {
	strategies := []Strategy{StrategyExhaustive, StrategyDP, StrategyKBZ, StrategyAnneal}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6)
		var b strings.Builder
		for i := 0; i < 2*n; i++ {
			fmt.Fprintf(&b, "e(%d, %d).\n", r.Intn(n), r.Intn(n))
		}
		b.WriteString("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n")
		b.WriteString("two(X, Y) <- e(X, Z), e(Z, Y).\n")
		b.WriteString("top(X, Y) <- two(X, Z), tc(Z, Y).\n")
		sys, err := Load(b.String())
		if err != nil {
			return false
		}
		goal := "top(X, Y)"
		if r.Intn(2) == 0 {
			goal = fmt.Sprintf("top(%d, Y)", r.Intn(n))
		}
		want, _, err := sys.EvaluateUnoptimized(goal)
		if err != nil {
			return false
		}
		st := strategies[r.Intn(len(strategies))]
		got, err := sys.Query(goal, WithStrategy(st), WithSeed(seed))
		if err != nil {
			t.Logf("seed %d strategy %s: %v", seed, st, err)
			return false
		}
		if len(got) != len(want) {
			t.Logf("seed %d strategy %s: %d rows vs %d", seed, st, len(got), len(want))
			return false
		}
		for i := range got {
			if strings.Join(got[i], ",") != strings.Join(want[i], ",") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQueryBoundListAgreesAndDescends checks the goal-directed cases on
// the optimized path: a bound same-generation query answers as the
// unoptimized baseline does, and a list-consuming recursion whose
// bottom-up fixpoint does not exist answers once its list is bound,
// through the counting method.
func TestQueryBoundListAgreesAndDescends(t *testing.T) {
	sys, err := Load(sgSource)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := sys.EvaluateUnoptimized("sg(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Query("sg(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows: %v vs %v", got, want)
	}
	sys2, err := Load(`
len(nil, 0).
len(c(H, T), N) <- len(T, M), N = M + 1.
`)
	if err != nil {
		t.Fatal(err)
	}
	const goal = "len(c(a, c(b, nil)), N)"
	p, err := sys2.Optimize(goal)
	if err != nil {
		t.Fatal(err)
	}
	if ex := p.Explain(); !strings.Contains(ex, "CC len/2 method=counting") {
		t.Errorf("len plan is not a counting fixpoint:\n%s", ex)
	}
	rows, err := sys2.Query(goal)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rows) != "[[c(a, c(b, nil)) 2]]" {
		t.Errorf("len rows = %v", rows)
	}
	if _, err := sys2.Query("len("); err == nil {
		t.Error("bad goal accepted")
	}
}

func TestComplexTermQuery(t *testing.T) {
	src := `
owns(john, car(ford, 1988)).
owns(mary, car(fiat, 1990)).
owns(mary, bike(atala)).
vintage(P, M) <- owns(P, car(M, Y)), Y < 1990.
`
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sys.Query("vintage(P, M)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "john" || rows[0][1] != "ford" {
		t.Errorf("rows = %v", rows)
	}
}
