package experiments

import (
	"fmt"
	"math/rand"

	"ldl"
	"ldl/internal/adorn"
	"ldl/internal/core"
	"ldl/internal/cost"
	"ldl/internal/depgraph"
	"ldl/internal/eval"
	"ldl/internal/lang"
	"ldl/internal/parser"
	"ldl/internal/safety"
	"ldl/internal/stats"
	"ldl/internal/store"
	"ldl/internal/term"
	"ldl/internal/workload"
)

// E7Safety reproduces §8: the optimizer prunes unsafe goal orderings
// (infinite cost) and finds a safe ordering whenever one exists; query
// forms with no safe execution are rejected with a diagnosis, including
// the paper's own §8.3 limitation example.
func E7Safety() *Table {
	t := &Table{
		ID:     "E7",
		Title:  "Safety: compile-time verdicts per query form",
		Paper:  "\"assigning an extremely high cost to unsafe goals and then let the standard optimization algorithm do the pruning\" (§8.2); the §8.3 example must be rejected under every permutation",
		Header: []string{"query form", "expected", "verdict", "detail"},
	}
	src := `
n(1). n(2). n(3).
e(1, 2). e(2, 3).
bigger(X, Y) <- Y > X, n(X), n(Y).
p(X, Y, Z) <- X = 3, Z = X + Y.
count(0).
count(Y) <- count(X), Y = X + 1.
grow(L, c(a, L)) <- grow(L2, L), n(X).
shrink(X) <- shrink(c(A, X)).
shrink(done).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
`
	sys, err := ldl.Load(src)
	if err != nil {
		panic(err)
	}
	cases := []struct {
		goal string
		safe bool
	}{
		{"bigger(X, Y)", true}, // reordering rescues the source order
		{"p(X, Y, Z)", false},  // §8.3: no permutation binds Y
		{"p(X, 2, Z)", true},   // caller binding rescues it
		{"count(X)", false},    // integer generator
		{"tc(1, Y)", true},     // plain Datalog
		{"tc(X, Y)", true},     //
		{"shrink(done)", true}, // deconstruction: finite bottom-up
		{"grow(L, M)", false},  // constructor recursion, no descent
	}
	correct := 0
	for _, c := range cases {
		p, err := sys.Optimize(c.goal)
		if err != nil {
			panic(err)
		}
		verdict := "SAFE"
		detail := fmt.Sprintf("cost %.1f", p.Cost())
		if !p.Safe() {
			verdict = "UNSAFE"
			detail = p.Reason()
			if len(detail) > 60 {
				detail = detail[:57] + "..."
			}
		}
		want := "SAFE"
		if !c.safe {
			want = "UNSAFE"
		}
		if (verdict == "SAFE") == c.safe {
			correct++
		}
		t.Rows = append(t.Rows, []string{c.goal + "?", want, verdict, detail})
	}
	// Permutation pruning on the bigger/3 rule: how many orderings of
	// its three goals are EC at every position?
	prog, _, err := parser.ParseProgram(src)
	if err != nil {
		panic(err)
	}
	var biggerRule lang.Rule
	for _, r := range prog.Rules {
		if r.Head.Pred == "bigger" {
			biggerRule = r
		}
	}
	safeCount := 0
	perms := adorn.Permutations(len(biggerRule.Body))
	for _, perm := range perms {
		if v := safety.CheckRule(biggerRule, perm, lang.AllFree); v.Safe {
			safeCount++
		}
	}
	t.Rows = append(t.Rows, []string{
		"(pruning) bigger/2 orderings", fmt.Sprintf("%d total", len(perms)),
		fmt.Sprintf("%d safe", safeCount), fmt.Sprintf("%d pruned at compile time", len(perms)-safeCount),
	})
	t.metric("verdicts_correct", float64(correct)/float64(len(cases)))
	return t
}

// E8MatPipe reproduces the MP (materialize/pipeline) trade-off of
// §4–§5: pipelining a derived subquery wins when the binding reaching
// it is selective, materializing wins when the binding fans out to most
// of the relation and the sideways bookkeeping is pure overhead.
func E8MatPipe() *Table {
	t := &Table{
		ID:     "E8",
		Title:  "Materialize vs pipeline for a derived subquery as binding selectivity varies",
		Paper:  "\"A pipelined node can be changed to a materialized node and vice versa\" (§5 MP); the optimizer must pick per binding selectivity",
		Header: []string{"bindings k", "fraction of domain", "materialized work", "pipelined work", "winner"},
	}
	// q(0, Y) <- s(0, W), mid(W, Y): s fans the binding out to k
	// distinct W values. Small k = selective binding (pipeline wins);
	// k near n = the subquery is needed for every node and the magic
	// bookkeeping is pure overhead (materialize wins).
	const n = 100
	build := func(k int) string {
		r := rand.New(rand.NewSource(5))
		src := "mid(X, Y) <- e(X, Z), e(Z, Y).\nq(X, Y) <- s(X, W), mid(W, Y).\n"
		for w := 0; w < k; w++ {
			src += fmt.Sprintf("s(0, %d).\n", w)
		}
		for i := 0; i < n; i++ {
			for d := 0; d < 3; d++ {
				src += fmt.Sprintf("e(%d, %d).\n", i, r.Intn(n))
			}
		}
		return src
	}
	var crossoverSeen bool
	prevWinner := ""
	for _, fanout := range []int{1, 5, 25, 50, 100} {
		src := build(fanout)
		prog, _, err := parser.ParseProgram(src)
		if err != nil {
			panic(err)
		}
		goal := lang.Lit("q", parserMustTerm("0"), parserMustVar("Y"))
		work := func(pipe bool) int {
			rw, err := adorn.Global(prog, lang.Query{Goal: goal},
				func(tag string) bool { return pipe || tag == "q/2" }, nil)
			if err != nil {
				panic(err)
			}
			e, err := runRewrite(rw.Clauses, src, eval.SemiNaive)
			if err != nil {
				panic(err)
			}
			// Join work: unifications plus probe operations — the
			// magic bookkeeping shows up here, not in the tuple count.
			return int(e.Counters.Unifications + e.Counters.Lookups)
		}
		mat, pipe := work(false), work(true)
		winner := "pipeline"
		if mat < pipe {
			winner = "materialize"
		}
		if prevWinner != "" && winner != prevWinner {
			crossoverSeen = true
		}
		prevWinner = winner
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(fanout), fmt.Sprintf("%.0f%%", 100*float64(fanout)/float64(n)),
			fmt.Sprint(mat), fmt.Sprint(pipe), winner,
		})
	}
	if crossoverSeen {
		t.metric("crossover", 1)
	} else {
		t.metric("crossover", 0)
	}
	t.Notes = append(t.Notes, "work = unifications + probes; pipelined execution adds magic-predicate bookkeeping that only pays off under selective bindings")
	return t
}

// E9PushSelect reproduces §7.2: selections (query constants) pushed
// down any number of levels of nonrecursive rules give order-of-
// magnitude improvements, and resolving PS/PP locally lets the search
// run over {MP, PR} alone without losing optimality.
func E9PushSelect() *Table {
	t := &Table{
		ID:     "E9",
		Title:  "Pushing the query constant through layered nonrecursive rules",
		Paper:  "\"selects/projects are always pushed down any number of levels for non-recursive rules\" (§7.2)",
		Header: []string{"layers", "unpushed work", "pushed work", "improvement"},
	}
	r := rand.New(rand.NewSource(11))
	for _, depth := range []int{1, 2, 3, 4} {
		src, top := workload.Layered(r, depth, 60, 2)
		sys, err := ldl.Load(src)
		if err != nil {
			panic(err)
		}
		goal := fmt.Sprintf("%s(3, Y)", top)
		_, un, err := sys.EvaluateUnoptimized(goal)
		if err != nil {
			panic(err)
		}
		p, err := sys.Optimize(goal, ldl.WithStrategy(ldl.StrategyDP))
		if err != nil {
			panic(err)
		}
		_, pu, err := p.ExecuteStats()
		if err != nil {
			panic(err)
		}
		imp := float64(un.TuplesDerived) / float64(maxi(pu.TuplesDerived, 1))
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(depth),
			fmt.Sprintf("%d tuples", un.TuplesDerived),
			fmt.Sprintf("%d tuples", pu.TuplesDerived),
			fmt.Sprintf("%.1fx", imp),
		})
		if depth == 4 {
			t.metric("improvement_d4", imp)
		}
	}
	return t
}

// E10Memoization reproduces Figure 7-1's key property: each OR-subtree
// is optimized exactly once per binding, which is what turns the
// algorithm's n! blowup into the O(N·2^k·2^n) bound of §7.2.
func E10Memoization() *Table {
	t := &Table{
		ID:     "E10",
		Title:  "Binding-indexed memoization of OR-subtree optimizations",
		Paper:  "\"This algorithm guarantees that each subtree is optimized exactly ONCE for each binding\" (§7.2)",
		Header: []string{"references to shared subgoal", "memo lookups", "memo hits", "optimizations done", "without memo"},
	}
	for _, k := range []int{2, 4, 8, 16} {
		src := "e(1, 2). e(2, 3).\nsub(X, Y) <- e(X, Y).\nsub(X, Y) <- e(Y, X).\n"
		body := ""
		for i := 0; i < k; i++ {
			if i > 0 {
				body += ", "
			}
			body += fmt.Sprintf("sub(X%d, X%d)", i, i+1)
		}
		src += fmt.Sprintf("top(X0, X%d) <- %s.\n", k, body)
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
		o := core.New(prog, g, stats.Gather(db), core.DP{})
		if _, err := o.Optimize(lang.Query{Goal: lang.Lit("top", parserMustTerm("1"), parserMustVar("Z"))}); err != nil {
			panic(err)
		}
		done := o.MemoLookups - o.MemoHits
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmt.Sprint(o.MemoLookups), fmt.Sprint(o.MemoHits),
			fmt.Sprint(done), fmt.Sprint(o.MemoLookups),
		})
		if k == 16 {
			t.metric("hit_rate_k16", float64(o.MemoHits)/float64(maxi(o.MemoLookups, 1)))
		}
	}
	t.Notes = append(t.Notes, "\"optimizations done\" stays bounded by distinct (predicate, binding) pairs while references grow")
	return t
}

func parserMustTerm(s string) term.Term {
	tt, err := parser.ParseTerm(s)
	if err != nil {
		panic(err)
	}
	return tt
}

func parserMustVar(name string) term.Term {
	return term.Var{Name: name}
}

var _ = cost.Infinite
