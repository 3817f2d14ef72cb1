package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ldl/internal/lang"
	"ldl/internal/parser"
	"ldl/internal/store"
	"ldl/internal/term"
)

// mustInsert inserts t into r, panicking on a structural error.
func mustInsert(r *store.Relation, t store.Tuple) {
	if _, err := r.Insert(t); err != nil {
		panic(err)
	}
}

// containsTuple reports whether r holds the ground tuple t, probing by
// interned IDs: a term that was never interned is stored nowhere.
func containsTuple(r *store.Relation, t store.Tuple) bool {
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

// run evaluates src with the given method and returns the engine.
func run(t *testing.T, src string, m Method) *Engine {
	t.Helper()
	e, err := tryRun(src, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func tryRun(src string, m Method, opts Options) (*Engine, error) {
	prog, _, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	db := store.NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		return nil, err
	}
	opts.Method = m
	e, err := New(prog, db, opts)
	if err != nil {
		return nil, err
	}
	return e, e.Run()
}

func answers(t *testing.T, e *Engine, goal string) string {
	t.Helper()
	l, err := parser.ParseLiteral(goal)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := e.Answers(lang.Query{Goal: l})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]string, len(ts))
	for i, tt := range ts {
		parts[i] = tt.String()
	}
	return strings.Join(parts, " ")
}

const tcSrc = `
e(1, 2). e(2, 3). e(3, 4).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
`

func TestTransitiveClosureBothMethods(t *testing.T) {
	for _, m := range []Method{Naive, SemiNaive} {
		e := run(t, tcSrc, m)
		if got := answers(t, e, "tc(1, Y)"); got != "(1, 2) (1, 3) (1, 4)" {
			t.Errorf("%v: tc(1,Y) = %s", m, got)
		}
		if got := answers(t, e, "tc(X, Y)"); !strings.Contains(got, "(2, 4)") {
			t.Errorf("%v: full tc = %s", m, got)
		}
		rel := e.RelationFor("tc/2")
		if rel.Len() != 6 {
			t.Errorf("%v: |tc| = %d, want 6", m, rel.Len())
		}
	}
}

func TestSemiNaiveDoesLessWork(t *testing.T) {
	// Long chain: naive re-derives everything each round.
	var b strings.Builder
	for i := 0; i < 30; i++ {
		b.WriteString("e(")
		b.WriteString(term.Int(int64(i)).String())
		b.WriteString(", ")
		b.WriteString(term.Int(int64(i + 1)).String())
		b.WriteString(").\n")
	}
	b.WriteString("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n")
	en, err := tryRun(b.String(), Naive, Options{})
	if err != nil {
		t.Fatal(err)
	}
	es, err := tryRun(b.String(), SemiNaive, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if en.RelationFor("tc/2").Len() != es.RelationFor("tc/2").Len() {
		t.Fatalf("methods disagree: %d vs %d", en.RelationFor("tc/2").Len(), es.RelationFor("tc/2").Len())
	}
	if es.Counters.Unifications >= en.Counters.Unifications {
		t.Errorf("semi-naive (%d unifications) not cheaper than naive (%d)",
			es.Counters.Unifications, en.Counters.Unifications)
	}
}

func TestSameGeneration(t *testing.T) {
	src := `
up(a, p1). up(b, p1). up(p1, g).
up(c, p2). up(p2, g).
flat(g, g).
sg(X, Y) <- flat(X, Y).
sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
dn(Y, X) <- up(X, Y).
`
	for _, m := range []Method{Naive, SemiNaive} {
		e := run(t, src, m)
		got := answers(t, e, "sg(a, Y)")
		// a's parent p1 is same-gen with p1, p2 => a same-gen with a, b, c.
		for _, want := range []string{"(a, a)", "(a, b)", "(a, c)"} {
			if !strings.Contains(got, want) {
				t.Errorf("%v: sg(a,Y) = %s missing %s", m, got, want)
			}
		}
	}
}

func TestMutualRecursionEvenOdd(t *testing.T) {
	src := `
zero(0).
s(0, 1). s(1, 2). s(2, 3). s(3, 4). s(4, 5).
even(X) <- zero(X).
even(X) <- s(Y, X), odd(Y).
odd(X) <- s(Y, X), even(Y).
`
	for _, m := range []Method{Naive, SemiNaive} {
		e := run(t, src, m)
		if got := answers(t, e, "even(X)"); got != "(0) (2) (4)" {
			t.Errorf("%v: even = %s", m, got)
		}
		if got := answers(t, e, "odd(X)"); got != "(1) (3) (5)" {
			t.Errorf("%v: odd = %s", m, got)
		}
	}
}

func TestBuiltinsInRules(t *testing.T) {
	src := `
n(1). n(2). n(3). n(4).
big(X) <- n(X), X > 2.
double(X, Y) <- n(X), Y = X * 2.
between(X) <- n(X), X >= 2, X =< 3.
notTwo(X) <- n(X), X \= 2.
`
	e := run(t, src, SemiNaive)
	if got := answers(t, e, "big(X)"); got != "(3) (4)" {
		t.Errorf("big = %s", got)
	}
	if got := answers(t, e, "double(X, Y)"); got != "(1, 2) (2, 4) (3, 6) (4, 8)" {
		t.Errorf("double = %s", got)
	}
	if got := answers(t, e, "between(X)"); got != "(2) (3)" {
		t.Errorf("between = %s", got)
	}
	if got := answers(t, e, "notTwo(X)"); got != "(1) (3) (4)" {
		t.Errorf("notTwo = %s", got)
	}
}

func TestBuiltinDeferral(t *testing.T) {
	// The builtin appears before its variables are bound; the engine
	// must defer it rather than fail (run-time reordering as safety
	// net — the optimizer normally orders goals so this never happens).
	src := `
n(1). n(2). n(3).
p(X, Y) <- Y = X + 1, n(X).
q(X) <- X > 1, n(X).
`
	e := run(t, src, SemiNaive)
	if got := answers(t, e, "p(X, Y)"); got != "(1, 2) (2, 3) (3, 4)" {
		t.Errorf("p = %s", got)
	}
	if got := answers(t, e, "q(X)"); got != "(2) (3)" {
		t.Errorf("q = %s", got)
	}
}

func TestBuiltinNeverEvaluable(t *testing.T) {
	src := `
n(1).
p(X, Y) <- n(X), Y > X.
`
	_, err := tryRun(src, SemiNaive, Options{})
	if err == nil || !strings.Contains(err.Error(), "never became evaluable") {
		t.Errorf("unsafe rule error = %v", err)
	}
}

func TestUnboundHeadVariable(t *testing.T) {
	src := `
n(1).
p(X, W) <- n(X).
`
	_, err := tryRun(src, SemiNaive, Options{})
	if err == nil || !strings.Contains(err.Error(), "unbound head variable") {
		t.Errorf("unbound head error = %v", err)
	}
}

func TestStratifiedNegation(t *testing.T) {
	src := `
node(1). node(2). node(3). node(4).
e(1, 2). e(2, 3).
reach(1).
reach(Y) <- reach(X), e(X, Y).
unreach(X) <- node(X), not reach(X).
`
	for _, m := range []Method{Naive, SemiNaive} {
		e := run(t, src, m)
		if got := answers(t, e, "unreach(X)"); got != "(4)" {
			t.Errorf("%v: unreach = %s", m, got)
		}
	}
}

func TestNegationDeferral(t *testing.T) {
	src := `
node(1). node(2).
bad(1).
ok(X) <- not bad(X), node(X).
`
	e := run(t, src, SemiNaive)
	if got := answers(t, e, "ok(X)"); got != "(2)" {
		t.Errorf("ok = %s", got)
	}
}

func TestComplexTermsAndLists(t *testing.T) {
	src := `
part(bike, frame). part(bike, wheel).
part(wheel, spoke). part(wheel, rim).
sub(X, Y) <- part(X, Y).
sub(X, Y) <- part(X, Z), sub(Z, Y).
pathTo(X, cons(X, nil)) <- part(bike, X).
pathTo(Y, cons(Y, P)) <- pathTo(X, P), part(X, Y).
`
	e := run(t, src, SemiNaive)
	if got := answers(t, e, "sub(bike, X)"); got != "(bike, frame) (bike, rim) (bike, spoke) (bike, wheel)" {
		t.Errorf("sub = %s", got)
	}
	got := answers(t, e, "pathTo(spoke, P)")
	if !strings.Contains(got, "cons(spoke, cons(wheel, nil))") {
		t.Errorf("pathTo(spoke) = %s", got)
	}
}

func TestListAppend(t *testing.T) {
	// append with structural lists, fully bound first argument set.
	src := `
lst([1, 2]). lst([]).
app([], [9], [9]).
doubled(L2) <- lst(L), app(L, L, L2).
app2(X) <- app([], [9], X).
`
	e := run(t, src, SemiNaive)
	if got := answers(t, e, "app2(X)"); got != "([9])" {
		t.Errorf("app2 = %s", got)
	}
	_ = e
}

func TestRunawayGuard(t *testing.T) {
	// counter generates unboundedly: the tuple budget must trip.
	src := `
n(0).
n(Y) <- n(X), Y = X + 1.
`
	_, err := tryRun(src, SemiNaive, Options{MaxTuples: 500})
	if !errors.Is(err, ErrRunaway) {
		t.Errorf("want ErrRunaway, got %v", err)
	}
	_, err = tryRun(src, Naive, Options{MaxTuples: 500})
	if !errors.Is(err, ErrRunaway) {
		t.Errorf("naive: want ErrRunaway, got %v", err)
	}
}

func TestIterationGuard(t *testing.T) {
	src := `
n(0).
n(Y) <- n(X), Y = X + 1.
`
	_, err := tryRun(src, SemiNaive, Options{MaxIterations: 5})
	if !errors.Is(err, ErrRunaway) {
		t.Errorf("want ErrRunaway, got %v", err)
	}
}

func TestEmptyAndMissingRelations(t *testing.T) {
	src := `
p(X) <- q(X).
r(X) <- p(X), missing(X).
`
	e := run(t, src, SemiNaive)
	if got := answers(t, e, "p(X)"); got != "" {
		t.Errorf("p = %q", got)
	}
	if got := answers(t, e, "r(X)"); got != "" {
		t.Errorf("r = %q", got)
	}
	if ts, err := e.Answers(lang.Query{Goal: lang.Lit("nosuch", term.Var{Name: "X"})}); err != nil || ts != nil {
		t.Errorf("nosuch = %v %v", ts, err)
	}
}

func TestAnswersGroundQuery(t *testing.T) {
	e := run(t, tcSrc, SemiNaive)
	if got := answers(t, e, "tc(1, 4)"); got != "(1, 4)" {
		t.Errorf("ground hit = %s", got)
	}
	if got := answers(t, e, "tc(4, 1)"); got != "" {
		t.Errorf("ground miss = %s", got)
	}
}

func TestRunIdempotent(t *testing.T) {
	e := run(t, tcSrc, SemiNaive)
	n := e.Counters.TuplesDerived
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Counters.TuplesDerived != n {
		t.Error("second Run redid work")
	}
}

func TestNonStratifiableRejected(t *testing.T) {
	prog, _, err := parser.ParseProgram(`win(X) <- move(X, Y), not win(Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(prog, store.NewDatabase(), Options{}); err == nil {
		t.Error("non-stratifiable program accepted")
	}
}

// randomGraphSrc builds a random edge relation and the TC program.
func randomGraphSrc(r *rand.Rand, n, edges int) string {
	var b strings.Builder
	seen := map[[2]int]bool{}
	for i := 0; i < edges; i++ {
		a, c := r.Intn(n), r.Intn(n)
		if seen[[2]int{a, c}] {
			continue
		}
		seen[[2]int{a, c}] = true
		b.WriteString("e(")
		b.WriteString(term.Int(int64(a)).String())
		b.WriteString(", ")
		b.WriteString(term.Int(int64(c)).String())
		b.WriteString(").\n")
	}
	b.WriteString("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- tc(X, Z), e(Z, Y).\n")
	return b.String()
}

func TestQuickNaiveEqualsSemiNaive(t *testing.T) {
	// Property: both methods compute the same fixpoint on random graphs
	// (including cyclic ones).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomGraphSrc(r, 2+r.Intn(8), 1+r.Intn(20))
		en, err := tryRun(src, Naive, Options{})
		if err != nil {
			return false
		}
		es, err := tryRun(src, SemiNaive, Options{})
		if err != nil {
			return false
		}
		a, b := en.RelationFor("tc/2").Sorted(), es.RelationFor("tc/2").Sorted()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickTCMatchesFloydWarshall(t *testing.T) {
	// Property: the engine's transitive closure agrees with an
	// independent Floyd-Warshall computation.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		var reach [10][10]bool
		var b strings.Builder
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if r.Intn(4) == 0 {
					reach[i][j] = true
					b.WriteString("e(")
					b.WriteString(term.Int(int64(i)).String())
					b.WriteString(", ")
					b.WriteString(term.Int(int64(j)).String())
					b.WriteString(").\n")
				}
			}
		}
		b.WriteString("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n")
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		e, err := tryRun(b.String(), SemiNaive, Options{})
		if err != nil {
			return false
		}
		rel := e.RelationFor("tc/2")
		count := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if reach[i][j] {
					count++
					if !containsTuple(rel, store.Tuple{term.Int(int64(i)), term.Int(int64(j))}) {
						return false
					}
				}
			}
		}
		return rel.Len() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// chainProgram builds a linear e-chain of n edges plus transitive
// closure rules, a stratified negation layer, and an arithmetic layer.
// TestDeltaArityMismatchFailsRun checks that a delta which cannot take
// a new head row fails the run. Were the collector's error dropped, the
// delta would stay empty and the fixpoint would end after its seed round
// with a short answer and no error.
func TestDeltaArityMismatchFailsRun(t *testing.T) {
	prog, _, err := parser.ParseProgram(`
e(1, 2). e(2, 3). e(3, 4).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	e, err := New(prog, db, Options{Method: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range e.Graph.TopoCliques() {
		if !c.Recursive {
			continue
		}
		crs := e.compileRules(ci, c)
		for _, cr := range crs {
			e.ensureDerived(cr.headSlot)
		}
		// The fixpoint's own seed round and rounds, over a delta whose
		// arity disagrees with its head relation.
		deltas, next := e.deltaSets(ci)
		deltas[0] = store.NewRelation("tcΔ", 1)
		cx := &evalCtx{e: e}
		for _, cr := range crs {
			if err = cx.applyRule(cr, -1, nil, deltas[cr.headLocal]); err != nil {
				break
			}
		}
		if err == nil {
			_, err = cx.rounds(c, crs, SemiNaive, deltas, next)
		}
		if err == nil || !strings.Contains(err.Error(), "arity") {
			t.Fatalf("err = %v, want the delta's arity error", err)
		}
		return
	}
	t.Fatal("no recursive clique")
}

func chainProgram(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "e(%d, %d).\n", i, i+1)
	}
	b.WriteString(`
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
unreached(X) <- e(X, Y), not tc(1, X).
far(X, Y) <- tc(X, Y), Y - X > 3.
`)
	return b.String()
}

// TestSizeHints checks that cardinality pre-sizing changes no
// observable behavior.
func TestSizeHints(t *testing.T) {
	hints := map[string]int{"tc/2": 1024, "e/2": 64}
	e, err := tryRun(chainProgram(12), SemiNaive, Options{SizeHints: hints})
	if err != nil {
		t.Fatal(err)
	}
	l, err := parser.ParseLiteral("tc(1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := e.Answers(lang.Query{Goal: l})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 12 {
		t.Errorf("with size hints: |tc(1,Y)| = %d, want 12", len(ts))
	}
}

// TestSnapshotIndependence: the rows Lookup(0, nil) returns are built
// for the caller, so later inserts do not reach them and writes to them
// do not reach the relation.
func TestSnapshotIndependence(t *testing.T) {
	r := store.NewRelation("s", 1)
	mustInsert(r, store.Tuple{term.Int(1)})
	snap := r.Lookup(0, nil)
	mustInsert(r, store.Tuple{term.Int(2)})
	if len(snap) != 1 {
		t.Errorf("snapshot grew with the relation: len=%d", len(snap))
	}
	snap[0][0] = term.Int(7)
	if r.Len() != 2 || !containsTuple(r, store.Tuple{term.Int(1)}) || containsTuple(r, store.Tuple{term.Int(7)}) {
		t.Errorf("relation = %s, want {(1), (2)}", r)
	}
}
