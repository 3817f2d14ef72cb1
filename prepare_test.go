package ldl

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const sgSrc = `
par(a1, b1). par(a2, b1). par(b1, c1). par(b2, c1). par(b3, c2).
par(d1, b2). par(d2, b3). par(e1, c2).
sg(X, X) <- par(X, Z).
sg(X, Y) <- par(X, X1), sg(X1, Y1), par(Y, Y1).
`

func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, ",")
	}
	sort.Strings(out)
	return out
}

// unoptimized answers goal with EvaluateUnoptimized — the reference
// that shares no code with the prepare/run path Optimize, Query and
// Prepared all execute through.
func unoptimized(t *testing.T, sys *System, goal string) []string {
	t.Helper()
	rows, _, err := sys.EvaluateUnoptimized(goal)
	if err != nil {
		t.Fatalf("EvaluateUnoptimized(%s): %v", goal, err)
	}
	return sortedRows(rows)
}

func TestQueryFormKeys(t *testing.T) {
	cases := []struct{ goal, key string }{
		{"sg(john, Y)", "sg/2(c0,v0)"},
		{"sg(mary, Z)", "sg/2(c0,v0)"},
		{"sg(X, Y)", "sg/2(v0,v1)"},
		{"sg(X, X)", "sg/2(v0,v0)"},
		{"sg(X, 3)", "sg/2(v0,c0)"},
		{`p("s", 7)`, "p/2(c0,c1)"},
		// Compound arguments keep functor and arity; their leaves
		// canonicalize like top-level arguments.
		{"p(f(a), Y)", "p/2(f/1(c0),v0)"},
		{"p(f(b), Z)", "p/2(f/1(c0),v0)"},
		{"p(g(a), Y)", "p/2(g/1(c0),v0)"},
		{"p(f(X), X)", "p/2(f/1(v0),v0)"},
		{"p(f(X), Y)", "p/2(f/1(v0),v1)"},
		{"p(f(a, b), Y)", "p/2(f/2(c0,c1),v0)"},
		{"p(cons(1, cons(X, nil)), 2)", "p/2(cons/2(c0,cons/2(v0,c1)),c2)"},
		{"p(X - 1, Y)", "p/2(-/2(v0,c0),v1)"},
	}
	for _, c := range cases {
		key, err := QueryForm(c.goal)
		if err != nil {
			t.Fatalf("QueryForm(%s): %v", c.goal, err)
		}
		if key != c.key {
			t.Errorf("QueryForm(%s) = %s, want %s", c.goal, key, c.key)
		}
	}
}

// TestPreparedMatchesOptimize is the parameterization soundness check:
// for every query form and every binding, the prepared plan's answers
// equal the one-shot Optimize+Execute answers and the unoptimized
// reference, and repeated executions report zero kernel compilations.
func TestPreparedMatchesOptimize(t *testing.T) {
	sys, err := Load(sgSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.Prepare("sg(a1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Safe() {
		t.Fatalf("unsafe: %s", p.Reason())
	}
	for _, c := range []string{"a1", "a2", "d1", "e1", "nosuch"} {
		goal := fmt.Sprintf("sg(%s, Y)", c)
		want, err := sys.Query(goal)
		if err != nil {
			t.Fatalf("Query(%s): %v", goal, err)
		}
		got, es, err := p.ExecuteStats(goal)
		if err != nil {
			t.Fatalf("prepared %s: %v", goal, err)
		}
		gw, gg := sortedRows(want), sortedRows(got)
		if strings.Join(gw, ";") != strings.Join(gg, ";") {
			t.Errorf("%s: prepared answers %v, one-shot %v", goal, gg, gw)
		}
		if ref := unoptimized(t, sys, goal); strings.Join(ref, ";") != strings.Join(gg, ";") {
			t.Errorf("%s: prepared answers %v, unoptimized %v", goal, gg, ref)
		}
		if es.KernelCompiles != 0 {
			t.Errorf("%s: KernelCompiles = %d, want 0 (precompiled)", goal, es.KernelCompiles)
		}
	}
	// Shape mismatches are rejected, not silently misanswered.
	if _, _, err := p.ExecuteStats("sg(X, Y)"); err == nil {
		t.Error("free-form goal accepted by bound-form plan")
	}
	if _, _, err := p.ExecuteStats("sg(X, a1)"); err == nil {
		t.Error("mirrored form accepted")
	}
}

// TestPreparedAllFreeAndRepeatedVars covers the forms without
// constants (nothing to parameterize — the plan is still precompiled)
// and with repeated variables.
func TestPreparedAllFreeAndRepeatedVars(t *testing.T) {
	sys, err := Load(sgSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, goal := range []string{"sg(X, Y)", "sg(X, X)"} {
		p, err := sys.Prepare(goal)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.Query(goal)
		if err != nil {
			t.Fatal(err)
		}
		got, es, err := p.ExecuteStats(goal)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(sortedRows(want), ";") != strings.Join(sortedRows(got), ";") {
			t.Errorf("%s: prepared %v, one-shot %v", goal, sortedRows(got), sortedRows(want))
		}
		if ref := unoptimized(t, sys, goal); strings.Join(ref, ";") != strings.Join(sortedRows(got), ";") {
			t.Errorf("%s: prepared %v, unoptimized %v", goal, sortedRows(got), ref)
		}
		if es.KernelCompiles != 0 {
			t.Errorf("%s: KernelCompiles = %d", goal, es.KernelCompiles)
		}
	}
}

// TestPreparedSeesNewEpochs: a prepared plan binds against the current
// snapshot, so facts inserted after Prepare appear in its answers. A
// Plan is the opposite contract: pinned to the epoch Optimize saw, it
// keeps answering from that epoch and never recompiles.
func TestPreparedSeesNewEpochs(t *testing.T) {
	sys, err := Load(sgSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.Prepare("sg(a1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Optimize("sg(a1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	before, es1, err := p.ExecuteStats("sg(a1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	added, epoch, err := sys.InsertFacts("par(a3, b1).")
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || epoch != 2 {
		t.Fatalf("InsertFacts = (%d, %d), want (1, 2)", added, epoch)
	}
	after, es2, err := p.ExecuteStats("sg(a1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if es1.Epoch != 1 || es2.Epoch != 2 {
		t.Errorf("epochs = %d, %d, want 1, 2", es1.Epoch, es2.Epoch)
	}
	// a3 is a new sibling-generation member: sg(a1, a3) must now hold.
	has := func(rows [][]string, v string) bool {
		for _, r := range rows {
			if r[1] == v {
				return true
			}
		}
		return false
	}
	if has(before, "a3") {
		t.Error("a3 visible before insert")
	}
	if !has(after, "a3") {
		t.Error("a3 not visible after insert")
	}
	// One-shot path and the unoptimized reference agree.
	want, err := sys.Query("sg(a1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(sortedRows(want), ";") != strings.Join(sortedRows(after), ";") {
		t.Errorf("prepared %v, one-shot %v", sortedRows(after), sortedRows(want))
	}
	if ref := unoptimized(t, sys, "sg(a1, Y)"); strings.Join(ref, ";") != strings.Join(sortedRows(after), ";") {
		t.Errorf("prepared %v, unoptimized %v", sortedRows(after), ref)
	}
	// The Plan optimized before the insert still answers from epoch 1,
	// on every execution, with the kernels compiled at Optimize.
	checkPinnedPlan(t, plan, sortedRows(before))

	// The same contract for a goal with a compound argument, which
	// Prepare refuses but Optimize's literal mode compiles.
	src, err := os.ReadFile(filepath.Join("testdata", "corpus", "listapp.ldl"))
	if err != nil {
		t.Fatal(err)
	}
	lsys, err := Load(string(src))
	if err != nil {
		t.Fatal(err)
	}
	const goal = "app(cons(1, cons(2, cons(3, nil))), Ys, Zs)"
	lplan, err := lsys.Optimize(goal)
	if err != nil {
		t.Fatal(err)
	}
	ref := unoptimized(t, lsys, goal)
	if len(ref) == 0 {
		t.Fatalf("%s: empty reference", goal)
	}
	if _, _, err := lsys.InsertFacts("l2(cons(6, nil))."); err != nil {
		t.Fatal(err)
	}
	checkPinnedPlan(t, lplan, ref)
}

// checkPinnedPlan executes plan twice and requires each run to return
// want from epoch 1 without compiling a kernel.
func checkPinnedPlan(t *testing.T, plan *Plan, want []string) {
	t.Helper()
	for i := 0; i < 2; i++ {
		rows, es, err := plan.ExecuteStats()
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedRows(rows); strings.Join(got, ";") != strings.Join(want, ";") {
			t.Errorf("plan execution %d: %v, want %v", i+1, got, want)
		}
		if es.Epoch != 1 {
			t.Errorf("plan execution %d: Epoch = %d, want 1", i+1, es.Epoch)
		}
		if es.KernelCompiles != 0 {
			t.Errorf("plan execution %d: KernelCompiles = %d, want 0", i+1, es.KernelCompiles)
		}
	}
}

func TestInsertFactsRejectsRulesAndDerived(t *testing.T) {
	sys, err := Load(sgSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.InsertFacts("q(X) <- par(X, Y)."); err == nil {
		t.Error("rule accepted")
	}
	if _, _, err := sys.InsertFacts("sg(x, y)."); err == nil {
		t.Error("derived-predicate fact accepted")
	}
	if _, _, err := sys.InsertFacts("par(z1, z2)?"); err == nil {
		t.Error("query form accepted")
	}
	if sys.Epoch() != 1 {
		t.Errorf("failed inserts advanced the epoch to %d", sys.Epoch())
	}
}

// TestRepeatedConstantBinding binds one constant into two placeholders
// of a form — once nested in a compound seed argument, once top-level —
// and re-binds the form to goals whose two constants differ: every
// prepared answer must equal unoptimized evaluation's.
func TestRepeatedConstantBinding(t *testing.T) {
	sys, err := Load(`
e(a, b). e(b, a). e(b, c). e(c, c). e(c, d).
q(f(X), Y) <- e(X, Y).
q(f(X), Y) <- e(X, Z), q(f(Z), Y).
r(f(X), X2) <- q(f(X), X2).
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, form := range [][]string{
		{"q(f(a), a)", "q(f(b), b)", "q(f(a), d)", "q(f(d), a)", "q(f(c), c)"},
		{"r(f(c), c)", "r(f(a), c)", "r(f(b), b)"},
	} {
		p, err := sys.Prepare(form[0])
		if err != nil {
			t.Fatal(err)
		}
		if !p.Safe() {
			t.Fatalf("%s: unsafe: %s", p.Key(), p.Reason())
		}
		for _, goal := range form {
			rows, _, err := p.ExecuteStats(goal)
			if err != nil {
				t.Fatalf("%s: %v", goal, err)
			}
			if got, want := strings.Join(sortedRows(rows), ";"), strings.Join(unoptimized(t, sys, goal), ";"); got != want {
				t.Errorf("%s on %s: prepared %q, unoptimized %q", goal, p.Key(), got, want)
			}
		}
	}
}
