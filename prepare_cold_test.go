package ldl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// sevenGoalSrc is a cold-path planning workload: one 7-goal rule per
// join-graph shape (chain, star, cycle) over distinct base relations,
// each with a few planted rows, so every Prepare runs the ordering
// search over 7! permutations.
func sevenGoalSrc() string {
	r := rand.New(rand.NewSource(7))
	var b strings.Builder
	for s, shape := range []string{"chain", "star", "cycle"} {
		rels := r.Perm(12)[:7]
		fmt.Fprintf(&b, "%s(X0, X%d) <- ", shape, map[string]int{"chain": 7, "star": 1, "cycle": 1}[shape])
		for g, rel := range rels {
			u, v := g, g+1
			switch shape {
			case "star":
				u = 0
			case "cycle":
				v %= 7
			}
			if g > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "r%d(X%d, X%d)", rel, u, v)
		}
		b.WriteString(".\n")
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&b, "r%d(k%d, k%d).\n", rels[i%7], r.Intn(50), r.Intn(50)+s)
		}
	}
	return b.String()
}

// sevenGoalForms lists every shape in the patterns ff, bf, fb and bb.
func sevenGoalForms() []string {
	var forms []string
	for _, shape := range []string{"chain", "star", "cycle"} {
		for _, args := range []string{"A, B", "k1, B", "A, k2", "k1, k2"} {
			forms = append(forms, fmt.Sprintf("%s(%s)", shape, args))
		}
	}
	return forms
}

// TestPrepareAllocsSevenGoal pins the cold path's allocation budget: a
// 7-goal Prepare prices its orderings prefix by prefix over one Pricer
// and reuses the System's dependency graph, so it stays within 1 000
// allocations; re-pricing each of the 5 040 orderings from scratch
// costs 50 000–100 000.
func TestPrepareAllocsSevenGoal(t *testing.T) {
	sys, err := Load(sevenGoalSrc())
	if err != nil {
		t.Fatal(err)
	}
	for _, goal := range sevenGoalForms() {
		var perr error
		allocs := testing.AllocsPerRun(3, func() {
			_, perr = sys.Prepare(goal)
		})
		if perr != nil {
			t.Fatalf("%s: %v", goal, perr)
		}
		if allocs > 1000 {
			t.Errorf("Prepare(%s) = %.0f allocs, want <= 1000", goal, allocs)
		}
	}
}

// BenchmarkPrepareColdForm measures one full Prepare (parse, optimize,
// compile) of a 7-goal query form, cycling through every shape and
// binding pattern.
func BenchmarkPrepareColdForm(b *testing.B) {
	sys, err := Load(sevenGoalSrc())
	if err != nil {
		b.Fatal(err)
	}
	forms := sevenGoalForms()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Prepare(forms[i%len(forms)]); err != nil {
			b.Fatal(err)
		}
	}
}
