package plan

import (
	"strings"
	"testing"

	"ldl/internal/cost"
	"ldl/internal/lang"
	"ldl/internal/parser"
	"ldl/internal/term"
)

func v(n string) term.Term { return term.Var{Name: n} }

func sampleJoin() *Node {
	return Join(
		Scan(lang.Lit("e", v("X"), v("Y"))),
		Scan(lang.Lit("f", v("Y"), v("Z"))),
		Scan(lang.Lit("g", v("Z"))),
	)
}

func TestCloneIndependence(t *testing.T) {
	j := sampleJoin()
	c := j.Clone()
	c.Kids[0].Lit = lang.Lit("f", v("A"), v("B"))
	c.Methods[1] = cost.HashJoin
	if j.Kids[0].Lit.Pred != "e" || j.Methods[1] != 0 {
		t.Error("Clone shares structure")
	}
}

func TestRender(t *testing.T) {
	j := sampleJoin()
	j.Kids[1].Mode = Materialized
	j.EstCost = 42
	j.EstCard = 7
	s := j.Render()
	for _, want := range []string{"▷", "□", "cost=42.0", "scan e(X, Y)"} {
		if !strings.Contains(s, want) {
			t.Errorf("Render missing %q:\n%s", want, s)
		}
	}
	fx := &Node{Kind: KindFix, Lit: lang.Lit("tc", v("X"), v("Y")), FixInfo: &Fix{Method: cost.RecMagic}}
	fx.EstCost = cost.Infinite()
	if s := fx.Render(); !strings.Contains(s, "CC tc/2") || !strings.Contains(s, "cost=∞") {
		t.Errorf("Fix render = %s", s)
	}
}

// TestRenderDeterministic checks the canonicalization contract: Union
// (and Fix) children are rendered in sorted order, so two trees that
// differ only in the construction order of their OR branches render
// identically, while Join children stay in execution order — a Join's
// permutation is the plan itself.
func TestRenderDeterministic(t *testing.T) {
	branch := func(p string) *Node { return Scan(lang.Lit(p, v("X"), v("Y"))) }
	u1 := Union(lang.Lit("p", v("X"), v("Y")), branch("b"), branch("a"), branch("c"))
	u2 := Union(lang.Lit("p", v("X"), v("Y")), branch("c"), branch("b"), branch("a"))
	if u1.Render() != u2.Render() {
		t.Errorf("union render depends on child order:\n%s\nvs\n%s", u1.Render(), u2.Render())
	}
	lines := strings.Split(strings.TrimSpace(u1.Render()), "\n")
	if len(lines) != 4 || !strings.Contains(lines[1], "scan a") || !strings.Contains(lines[3], "scan c") {
		t.Errorf("union children not sorted:\n%s", u1.Render())
	}
	j := Join(branch("b"), branch("a"))
	jl := strings.Split(strings.TrimSpace(j.Render()), "\n")
	if !strings.Contains(jl[1], "scan b") || !strings.Contains(jl[2], "scan a") {
		t.Errorf("join children reordered — execution order must be preserved:\n%s", j.Render())
	}
}

// TestFig41Contraction reproduces Figure 4-1's point: the recursive
// clique appears as a single contracted CC node (the processing graph
// is acyclic/a tree), rendered with its method and adornment labels,
// with its out-of-clique operands as children.
func TestFig41Contraction(t *testing.T) {
	prog, _, err := parser.ParseProgram(`
b1(1, 2).
p2(X, Y) <- b2(X, W), p2(W, Y).
p2(X, Y) <- b3(X, Y).
p1(X, Y) <- b1(X, Z), p2(Z, Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	cc := &Node{
		Kind:  KindFix,
		Mode:  Pipelined,
		Lit:   lang.Lit("p2", v("Z"), v("Y")),
		Adorn: lang.AllBound(1),
		FixInfo: &Fix{
			CliqueTags: []string{"p2/2"},
			Rules:      prog.RulesFor("p2/2"),
			Method:     cost.RecMagic,
		},
	}
	r := prog.RulesFor("p1/2")[0]
	join := Join(Scan(r.Body[0]), cc)
	join.Rule = &r
	root := Union(lang.Lit("p1", v("X"), v("Y")), join)
	s := root.Render()
	// Exactly one CC node for the whole clique: contraction happened.
	if got := strings.Count(s, "CC p2/2"); got != 1 {
		t.Errorf("CC nodes = %d:\n%s", got, s)
	}
	for _, want := range []string{"union p1/2", "scan b1(X, Z)", "method=magic", "adorn=bf"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
	// The rendered graph is a tree: each line has exactly one marker.
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if strings.Count(line, "□")+strings.Count(line, "▷") != 1 {
			t.Errorf("line %q has wrong marker count", line)
		}
	}
}

func TestWalkOrder(t *testing.T) {
	j := sampleJoin()
	var kinds []Kind
	j.Walk(func(n *Node) { kinds = append(kinds, n.Kind) })
	if len(kinds) != 4 || kinds[0] != KindJoin || kinds[1] != KindScan {
		t.Errorf("walk = %v", kinds)
	}
}
