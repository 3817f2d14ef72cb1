package experiments

import (
	"fmt"
	"math"
	"time"

	"ldl"
	"ldl/internal/workload"
)

// E11BottomLine measures the deal the paper's architecture offers the
// user: pay a compile-time optimization cost once, win it back at
// execution. For each workload it compares unoptimized evaluation
// against optimization plus optimized execution, including the
// optimizer's own overhead — the number that justifies a cost-based
// optimizer at all. The counted columns are deterministic: executed
// work is tuples derived, and the optimizer's cost is the search states
// it charged. The time columns are for display.
func E11BottomLine() *Table {
	t := &Table{
		ID:     "E11",
		Title:  "Bottom line: total cost (optimize + execute) vs unoptimized evaluation",
		Paper:  "\"the user need only supply a correct query, and the system is expected to devise an efficient execution strategy for it\" (§1)",
		Header: []string{"workload", "query", "unoptimized work", "optimizer states", "optimized work", "work ratio", "unoptimized", "optimize", "execute", "total speedup"},
	}
	type w struct {
		name string
		src  string
		goal string
	}
	spec := workload.SameGenSpec{Depth: 8, Fanout: 2}
	cases := []w{
		{"sg tree d8", workload.SameGen(spec), fmt.Sprintf("sg(%s, Y)", workload.SameGenLeaf(spec, 1))},
		{"tc chain 150", workload.TCChain(150), "tc(140, Y)"},
	}
	for _, c := range cases {
		sys, err := ldl.Load(c.src)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		_, unoptStats, err := sys.EvaluateUnoptimized(c.goal)
		if err != nil {
			panic(err)
		}
		unopt := time.Since(start)

		start = time.Now()
		// An unreachable budget makes the optimizer count its states.
		p, err := sys.Optimize(c.goal, ldl.WithOptimizerBudget(math.MaxInt))
		if err != nil {
			panic(err)
		}
		optT := time.Since(start)
		start = time.Now()
		_, optStats, err := p.ExecuteStats()
		if err != nil {
			panic(err)
		}
		execT := time.Since(start)

		ratio := float64(unoptStats.TuplesDerived) / float64(p.States+optStats.TuplesDerived)
		speed := float64(unopt) / float64(optT+execT)
		t.Rows = append(t.Rows, []string{
			c.name, c.goal + "?",
			fmt.Sprintf("%d tuples", unoptStats.TuplesDerived),
			fmt.Sprint(p.States),
			fmt.Sprintf("%d tuples", optStats.TuplesDerived),
			fmt.Sprintf("%.1fx", ratio),
			unopt.Round(time.Microsecond).String(),
			optT.Round(time.Microsecond).String(),
			execT.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", speed),
		})
		if c.name == "sg tree d8" {
			t.metric("total_speedup_sg", speed)
			t.metric("work_ratio_sg", ratio)
		}
	}
	t.Notes = append(t.Notes,
		"work ratio = unoptimized tuples derived / (optimizer states + optimized tuples derived)",
		"optimization cost is amortized further when the compiled query form is reused")
	return t
}
