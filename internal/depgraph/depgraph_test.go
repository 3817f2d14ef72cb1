package depgraph

import (
	"testing"

	"ldl/internal/parser"
)

func analyze(t *testing.T, src string) *Graph {
	t.Helper()
	prog, _, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNonRecursiveProgram(t *testing.T) {
	g := analyze(t, `
p(X, Y) <- b1(X, Z), q(Z, Y).
q(X, Y) <- b2(X, Y).
`)
	if g.IsRecursive("p/2") || g.IsRecursive("q/2") {
		t.Error("non-recursive predicates reported recursive")
	}
	// topological order: dependencies before dependents
	pos := map[string]int{}
	for i, c := range g.TopoCliques() {
		for _, p := range c.Preds {
			pos[p] = i
		}
	}
	if !(pos["b2/2"] < pos["q/2"] && pos["q/2"] < pos["p/2"] && pos["b1/2"] < pos["p/2"]) {
		t.Errorf("topo order wrong: %v", pos)
	}
}

func TestSelfRecursion(t *testing.T) {
	g := analyze(t, `
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
`)
	if !g.IsRecursive("tc/2") {
		t.Error("tc not recursive")
	}
	c := g.CliqueOf("tc/2")
	if len(c.Preds) != 1 || len(c.Rules) != 2 {
		t.Errorf("clique = %+v", c)
	}
	if g.IsRecursive("e/2") {
		t.Error("e recursive")
	}
	if g.CliqueOf("nosuch/9") != nil {
		t.Error("unknown tag has a clique")
	}
}

func TestMutualRecursion(t *testing.T) {
	g := analyze(t, `
even(X) <- zero(X).
even(X) <- succ(Y, X), odd(Y).
odd(X) <- succ(Y, X), even(Y).
`)
	ce, co := g.CliqueOf("even/1"), g.CliqueOf("odd/1")
	if ce == nil || co == nil || ce.ID != co.ID {
		t.Fatalf("even and odd not in same clique: %v %v", ce, co)
	}
	if !ce.Recursive || len(ce.Preds) != 2 || len(ce.Rules) != 3 {
		t.Errorf("clique = %+v", ce)
	}
	if !ce.Contains("even/1") || !ce.Contains("odd/1") || ce.Contains("zero/1") {
		t.Error("Contains wrong")
	}
}

func TestFollowsOrder(t *testing.T) {
	// Clique {p} follows clique {tc}: p is defined using tc.
	g := analyze(t, `
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
p(X, Y) <- tc(X, Z), tc(Z, Y), p(Y, X).
p(X, X) <- n(X).
`)
	// topo places tc's clique before p's
	if !(g.ByPred["tc/2"] < g.ByPred["p/2"]) {
		t.Errorf("cliques out of order: tc=%d p=%d", g.ByPred["tc/2"], g.ByPred["p/2"])
	}
}

func TestSameGenerationClique(t *testing.T) {
	g := analyze(t, `sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).
sg(X, X) <- flat(X).`)
	c := g.CliqueOf("sg/2")
	if !c.Recursive || len(c.Rules) != 2 {
		t.Errorf("sg clique = %+v", c)
	}
}

func TestStratification(t *testing.T) {
	g := analyze(t, `
reach(X) <- source(X).
reach(X) <- reach(Y), e(Y, X).
unreach(X) <- node(X), not reach(X).
report(X) <- unreach(X).
`)
	if g.Strata["reach/1"] != 0 {
		t.Errorf("reach stratum = %d", g.Strata["reach/1"])
	}
	if g.Strata["unreach/1"] != 1 || g.Strata["report/1"] != 1 {
		t.Errorf("strata: unreach=%d report=%d", g.Strata["unreach/1"], g.Strata["report/1"])
	}
}

func TestNonStratifiable(t *testing.T) {
	prog, _, err := parser.ParseProgram(`
win(X) <- move(X, Y), not win(Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(prog); err == nil {
		t.Error("non-stratifiable program accepted")
	}
}

func TestBuiltinsIgnored(t *testing.T) {
	g := analyze(t, `p(X, Y) <- q(X), Y = X + 1, X > 0.`)
	for _, e := range g.Edges {
		if e.From == "=/2" || e.From == ">/2" {
			t.Errorf("builtin edge recorded: %+v", e)
		}
	}
	if len(g.Edges) != 1 {
		t.Errorf("edges = %v", g.Edges)
	}
}

func TestMultiStrataChain(t *testing.T) {
	g := analyze(t, `
a(X) <- b(X).
c(X) <- d(X), not a(X).
e(X) <- f(X), not c(X).
`)
	if !(g.Strata["a/1"] == 0 && g.Strata["c/1"] == 1 && g.Strata["e/1"] == 2) {
		t.Errorf("strata = %v", g.Strata)
	}
}

func TestDisconnectedComponents(t *testing.T) {
	g := analyze(t, `
p(X) <- q(X).
r(X) <- s(X), r(X).
`)
	if g.IsRecursive("p/1") {
		t.Error("p recursive")
	}
	if !g.IsRecursive("r/1") {
		t.Error("r not recursive")
	}
}
