package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ldl/internal/core"
	"ldl/internal/cost"
	"ldl/internal/resource"
	"ldl/internal/term"
	"ldl/internal/workload"
)

// orderCost runs one strategy on one generated conjunct and returns the
// cost of the permutation it picks (priced by the full model).
func orderCost(s core.Strategy, c workload.Conjunct) cost.Cost {
	_, res, _ := orderGoverned(s, c, nil)
	return res.Total
}

// orderStates runs one strategy on one generated conjunct and returns
// the optimizer states it charged: the orderings its search covered,
// whether it priced them or skipped them by bound.
func orderStates(s core.Strategy, c workload.Conjunct) int {
	gov := resource.New(nil, resource.Budget{MaxStates: math.MaxInt})
	orderGoverned(s, c, gov)
	return gov.Snapshot().StatesExplored
}

func orderGoverned(s core.Strategy, c workload.Conjunct, gov *resource.Governor) ([]int, cost.ConjunctResult, error) {
	m := cost.NewModel(c.Cat)
	bound := map[string]bool{}
	if term.Ground(c.Goal.Args[0]) {
		bound["X0"] = true
	}
	return s.OrderBudget(m, c.Prog.Rules[0].Body, bound, 1, nil, gov)
}

// E1KBZQuality reproduces the [Vil 87] comparison the paper reports in
// §7.1: random queries and random database states, the O(n²) KBZ
// algorithm versus exhaustive enumeration.
func E1KBZQuality(trials int, seed int64) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "KBZ quadratic strategy vs exhaustive search (random queries & catalogs)",
		Paper:  "\"the quadratic algorithm chooses the optimal permutation in most cases and in more than 90% of the cases, it produces no worse than twice/thrice the optimal\" (§7.1, citing [Vil 87])",
		Header: []string{"shape", "n", "trials", "optimal", "<=2x", "<=3x", "worst"},
	}
	r := rand.New(rand.NewSource(seed))
	var allWithin3, all int
	for _, shape := range []workload.Shape{workload.Chain, workload.Star, workload.Cycle} {
		for _, n := range []int{4, 6, 8} {
			var opt, w2, w3 int
			worst := 1.0
			for i := 0; i < trials; i++ {
				c := workload.RandomConjunct(r, n, shape)
				best := orderCost(core.Exhaustive{}, c)
				kbz := orderCost(core.KBZ{}, c)
				ratio := float64(kbz) / float64(best)
				if ratio <= 1.0001 {
					opt++
				}
				if ratio <= 2.0 {
					w2++
				}
				if ratio <= 3.0 {
					w3++
				}
				if ratio > worst {
					worst = ratio
				}
			}
			allWithin3 += w3
			all += trials
			t.Rows = append(t.Rows, []string{
				shape.String(), fmt.Sprint(n), fmt.Sprint(trials),
				pct(opt, trials), pct(w2, trials), pct(w3, trials),
				fmt.Sprintf("%.2fx", worst),
			})
		}
	}
	t.metric("frac_within_3x", float64(allWithin3)/float64(all))
	t.Notes = append(t.Notes, "reproduced when the optimal column dominates and <=3x stays above 90%")
	return t
}

// E2AnnealQuality reproduces §7.1's simulated-annealing claim: the
// number of probes needed is much smaller than the size of the search
// space for a reasonable assurance of the minimum.
func E2AnnealQuality(trials int, seed int64) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "Simulated annealing quality vs probe budget (n=8 chains; space = 8! = 40320)",
		Paper:  "\"this number is claimed to be much smaller by using a technique called Simulated Annealing\" (§7.1)",
		Header: []string{"probes", "optimal", "<=2x", "mean ratio"},
	}
	r := rand.New(rand.NewSource(seed))
	conjuncts := make([]workload.Conjunct, trials)
	bests := make([]cost.Cost, trials)
	for i := range conjuncts {
		conjuncts[i] = workload.RandomConjunct(r, 8, workload.Chain)
		bests[i] = orderCost(core.DP{}, conjuncts[i])
	}
	for _, probes := range []int{20, 50, 150, 400} {
		var opt, w2 int
		var sum float64
		for i, c := range conjuncts {
			sa := orderCost(core.Anneal{Seed: int64(i + 1), Steps: probes}, c)
			ratio := float64(sa) / float64(bests[i])
			sum += ratio
			if ratio <= 1.0001 {
				opt++
			}
			if ratio <= 2.0 {
				w2++
			}
		}
		mean := sum / float64(trials)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(probes), pct(opt, trials), pct(w2, trials), fmt.Sprintf("%.3f", mean),
		})
		if probes == 400 {
			t.metric("mean_ratio_at_400", mean)
		}
	}
	t.Notes = append(t.Notes, "400 probes ≈ 1% of the 40320-permutation space")
	return t
}

// E3StrategyScaling reproduces §7.2's complexity discussion: the
// optimizer is O(N·2^k·n!) with exhaustive search, O(N·2^k·2^n) with
// dynamic programming, and the 10–15 join range is where exhaustive
// enumeration stops being practical while KBZ stays quadratic. The
// search space is the governor's state count — the orderings each
// strategy covers; exhaustive search covers all n! but prices only the
// prefixes its bound cannot rule out, so its wall clock grows far more
// slowly than the space.
func E3StrategyScaling() *Table {
	t := &Table{
		ID:     "E3",
		Title:  "Optimize-time scaling by strategy (one conjunctive rule, time per optimization; orderings covered)",
		Paper:  "\"the dynamic programming method ... improves this to O(n·2^n) ... this method becomes prohibitive when the join involves many relations\" (§7.1–7.2)",
		Header: []string{"n", "exhaustive", "dp", "kbz", "anneal(400)", "covered: exhaustive", "dp", "kbz", "anneal"},
	}
	r := rand.New(rand.NewSource(7))
	strategies := []core.Strategy{
		core.Exhaustive{FallbackAt: 99},
		core.DP{},
		core.KBZ{},
		core.Anneal{Seed: 1, Steps: 400},
	}
	for _, n := range []int{4, 6, 8, 10, 12} {
		c := workload.RandomConjunct(r, n, workload.Chain)
		row := []string{fmt.Sprint(n)}
		var covered []string
		for si, s := range strategies {
			if si == 0 && n > 9 {
				row = append(row, "(skipped: n!)")
				covered = append(covered, "-")
				continue
			}
			states := orderStates(s, c)
			covered = append(covered, fmt.Sprint(states))
			t.metric(fmt.Sprintf("states_n%d_%s", n, s.Name()), float64(states))
			reps := 3
			start := time.Now()
			for k := 0; k < reps; k++ {
				orderCost(s, c)
			}
			el := time.Since(start) / time.Duration(reps)
			row = append(row, el.Round(time.Microsecond).String())
			if n == 8 {
				t.metric("us_n8_"+s.Name(), float64(el.Microseconds()))
			}
		}
		t.Rows = append(t.Rows, append(row, covered...))
	}
	t.Notes = append(t.Notes,
		"covered = optimizer states charged: n! for exhaustive, n·2^(n-1) for dp, one per root for kbz, one per probe for anneal",
		"exhaustive covers n! orderings but skips every prefix already as dear as the best safe ordering, so its time grows far more slowly than n!",
		"exhaustive is skipped past n=9 (its space is n!); kbz stays polynomial",
		"reproduces the feasibility edge behind \"limit the queries to no more than 10 or 15 joins\"")
	return t
}

func pct(num, den int) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(num)/float64(den))
}
