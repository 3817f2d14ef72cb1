// Package workload generates the synthetic programs, databases and
// catalog states the experiments run on: random conjunctive queries in
// the shapes the join-ordering literature uses (chains, stars, cycles),
// random database statistics ("states of the database" per [Vil 87]),
// same-generation genealogies, transitive-closure graphs, and layered
// nonrecursive rule bases.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"ldl/internal/lang"
	"ldl/internal/parser"
	"ldl/internal/stats"
	"ldl/internal/term"
)

// Shape is the join-graph shape of a generated conjunctive query.
type Shape int

const (
	// Chain: r0(X0,X1), r1(X1,X2), ..., r_{n-1}(X_{n-1},Xn).
	Chain Shape = iota
	// Star: r0(X0,X1), r1(X0,X2), ..., every goal shares X0.
	Star
	// Cycle: a chain whose last goal closes back to X0.
	Cycle
)

func (s Shape) String() string {
	switch s {
	case Chain:
		return "chain"
	case Star:
		return "star"
	case Cycle:
		return "cycle"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// Conjunct is a generated conjunctive query plus a random catalog.
type Conjunct struct {
	Prog *lang.Program
	Goal lang.Literal
	Cat  *stats.Catalog
}

// RandomConjunct generates an n-goal conjunctive query of the given
// shape with a random catalog state: cardinalities log-uniform in
// [10, 100000], distinct counts uniform fractions of the cardinality.
func RandomConjunct(r *rand.Rand, n int, shape Shape) Conjunct {
	var b strings.Builder
	b.WriteString("q(")
	switch shape {
	case Star:
		fmt.Fprintf(&b, "X0")
	default:
		fmt.Fprintf(&b, "X0, X%d", n)
	}
	b.WriteString(") <- ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		switch shape {
		case Chain:
			fmt.Fprintf(&b, "r%d(X%d, X%d)", i, i, i+1)
		case Star:
			fmt.Fprintf(&b, "r%d(X0, X%d)", i, i+1)
		case Cycle:
			if i == n-1 {
				fmt.Fprintf(&b, "r%d(X%d, X0)", i, i)
			} else {
				fmt.Fprintf(&b, "r%d(X%d, X%d)", i, i, i+1)
			}
		}
	}
	b.WriteString(".\n")
	prog, _, err := parser.ParseProgram(b.String())
	if err != nil {
		panic(err)
	}
	cat := stats.NewCatalog()
	for i := 0; i < n; i++ {
		card := logUniform(r, 10, 100000)
		d1 := 1 + float64(int(card*fraction(r)))
		d2 := 1 + float64(int(card*fraction(r)))
		cat.Set(fmt.Sprintf("r%d/2", i), stats.RelStats{Card: card, Distinct: []float64{d1, d2}})
	}
	goalArgs := []term.Term{term.Var{Name: "A"}, term.Var{Name: "B"}}
	if shape == Star {
		goalArgs = goalArgs[:1]
	}
	// Bind the first argument half the time: bound query forms are the
	// interesting case for sideways information passing.
	if r.Intn(2) == 0 {
		goalArgs[0] = term.Int(int64(r.Intn(100)))
	}
	return Conjunct{Prog: prog, Goal: lang.Literal{Pred: "q", Args: goalArgs}, Cat: cat}
}

// logUniform draws log-uniformly from [lo, hi]: relation sizes span
// orders of magnitude, as real catalogs do.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return float64(int(lo * math.Pow(hi/lo, r.Float64())))
}

func fraction(r *rand.Rand) float64 { return 0.05 + 0.95*r.Float64() }

// SameGenSpec parameterizes a genealogy for the sg experiments.
type SameGenSpec struct {
	Depth  int // generations
	Fanout int // children per parent
}

// SameGen produces the sg program (rules + facts): a complete tree of
// the given depth/fanout with up/dn edges and a flat loop at the top.
func SameGen(spec SameGenSpec) string {
	var b strings.Builder
	b.WriteString("sg(X, Y) <- flat(X, Y).\n")
	b.WriteString("sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).\n")
	name := func(level, id int) string { return fmt.Sprintf("n_%d_%d", level, id) }
	count := 1
	for l := spec.Depth; l > 0; l-- {
		next := count * spec.Fanout
		for i := 0; i < next; i++ {
			fmt.Fprintf(&b, "up(%s, %s).\n", name(l-1, i), name(l, i/spec.Fanout))
			fmt.Fprintf(&b, "dn(%s, %s).\n", name(l, i/spec.Fanout), name(l-1, i))
		}
		count = next
	}
	fmt.Fprintf(&b, "flat(%s, %s).\n", name(spec.Depth, 0), name(spec.Depth, 0))
	return b.String()
}

// SameGenLeaf names a leaf node usable as a bound query constant.
func SameGenLeaf(spec SameGenSpec, i int) string { return fmt.Sprintf("n_0_%d", i) }

// TCChain produces a transitive-closure program over a chain of n
// nodes.
func TCChain(n int) string {
	var b strings.Builder
	b.WriteString("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e(%d, %d).\n", i, i+1)
	}
	return b.String()
}

// Layered produces a nonrecursive AND/OR rule base of the given depth:
// level-k predicates join two level-(k-1) predicates, bottoming out at
// a base edge relation over n nodes with the given out-degree.
//
//	p0(X, Y) <- e(X, Y).
//	pk(X, Y) <- pk-1(X, Z), pk-1(Z, Y).
func Layered(r *rand.Rand, depth, n, degree int) (string, string) {
	var b strings.Builder
	for i := 0; i < n; i++ {
		for d := 0; d < degree; d++ {
			fmt.Fprintf(&b, "e(%d, %d).\n", i, r.Intn(n))
		}
	}
	b.WriteString("p0(X, Y) <- e(X, Y).\n")
	for k := 1; k <= depth; k++ {
		fmt.Fprintf(&b, "p%d(X, Y) <- p%d(X, Z), p%d(Z, Y).\n", k, k-1, k-1)
	}
	return b.String(), fmt.Sprintf("p%d", depth)
}
