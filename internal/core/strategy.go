// Package core implements the paper's primary contribution: the LDL
// query optimizer. It contains the NR-OPT algorithm for nonrecursive
// queries (Figure 7-1), the OPT algorithm adding contracted-clique
// nodes (Figure 7-2), binding-indexed memoization of OR-subtrees, the
// c-permutation enumeration for recursive cliques, and the three
// interchangeable search strategies of §7.1 — exhaustive enumeration
// (with Selinger-style dynamic programming), the KBZ quadratic
// algorithm, and simulated annealing — with safety analysis integrated
// per §8.2 (unsafe executions cost +Inf and are pruned by the ordinary
// minimization).
package core

import (
	"math"
	"math/rand"
	"sort"

	"ldl/internal/cost"
	"ldl/internal/lang"
	"ldl/internal/resource"
)

// Strategy orders the goals of one conjunct (one rule body). It returns
// the chosen permutation and its costing under the full cost model.
// Implementations must return a ConjunctResult with Safe=false (and
// infinite Total) when no safe ordering was found.
//
// OrderBudget is the governed variant: each candidate ordering priced
// under the cost model charges one optimizer state against gov. A
// non-nil error is always a *resource.ResourceError; on
// resource.ErrOptimizerBudget the returned permutation/costing are the
// best found before the budget tripped (an anytime result the caller
// may still compare against its fallback strategy). Order is
// OrderBudget with no governor and can never fail.
type Strategy interface {
	Name() string
	Order(m *cost.Model, body []lang.Literal, bound map[string]bool, inCard float64, sf cost.StatsFn) ([]int, cost.ConjunctResult)
	OrderBudget(m *cost.Model, body []lang.Literal, bound map[string]bool, inCard float64, sf cost.StatsFn, gov *resource.Governor) ([]int, cost.ConjunctResult, error)
}

// identityPerm returns 0..n-1.
func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Exhaustive enumerates every permutation of the body — the strategy
// whose "complete nature supplies the basis for assessing the soundness
// of the overall approach". Factorial in the body length; FallbackAt
// bounds the length after which it delegates to DP.
type Exhaustive struct {
	// FallbackAt delegates to DP when the body exceeds this length
	// (default 8).
	FallbackAt int
}

func (Exhaustive) Name() string { return "exhaustive" }

func (e Exhaustive) Order(m *cost.Model, body []lang.Literal, bound map[string]bool, inCard float64, sf cost.StatsFn) ([]int, cost.ConjunctResult) {
	perm, r, _ := e.OrderBudget(m, body, bound, inCard, sf, nil)
	return perm, r
}

// OrderBudget walks the permutations depth first in lexicographic
// order — the order adorn.Permutations lists them, so ties still go to
// the first ordering found — pricing each prefix once for all of its
// completions. A prefix that is unsafe, or whose cost already reaches
// the best safe total, is skipped: every step costs ≥ 0 (the Pricer
// turns the bound off when statistics break that), so none of its
// completions could win the strict < comparison. A skipped prefix still
// charges the governor one state per completion, so state counts,
// budget trips and the anytime best are those of the full n! walk.
func (e Exhaustive) OrderBudget(m *cost.Model, body []lang.Literal, bound map[string]bool, inCard float64, sf cost.StatsFn, gov *resource.Governor) ([]int, cost.ConjunctResult, error) {
	limit := e.FallbackAt
	if limit <= 0 {
		limit = 8
	}
	if len(body) > limit {
		return DP{}.OrderBudget(m, body, bound, inCard, sf, gov)
	}
	n := len(body)
	pr := m.NewPricer(body, bound, inCard, sf)
	pre := pr.Prefixes(n + 1)
	pr.Start(&pre[0])
	// The identity ordering is the incumbent; best keeps only its Safe
	// and Total, which is all the comparisons read.
	for k := 0; k < n; k++ {
		pr.Step(&pre[k+1], &pre[k], k)
	}
	bestPerm := identityPerm(n)
	best := cost.Prefix{Safe: pre[n].Safe, Total: pre[n].Total}
	// completions[k] is the number of orderings below a prefix of k
	// goals; used[g] marks the goals placed in perm.
	work := make([]int, 3*n+1)
	completions, perm, used := work[:n+1], work[n+1:2*n+1], work[2*n+1:]
	completions[n] = 1
	for k := n - 1; k >= 0; k-- {
		completions[k] = satMul(completions[k+1], n-k)
	}
	var walk func(k int) error
	walk = func(k int) error {
		if k == n {
			if err := gov.AddStates(1); err != nil {
				return err
			}
			if better(&pre[n], &best) {
				best.Safe, best.Total = true, pre[n].Total
				copy(bestPerm, perm)
			}
			return nil
		}
		for g := 0; g < n; g++ {
			if used[g] != 0 {
				continue
			}
			pr.Step(&pre[k+1], &pre[k], g)
			if c := &pre[k+1]; !c.Safe || pr.Exact() && best.Safe && c.Total >= best.Total {
				if err := gov.AddStates(completions[k+1]); err != nil {
					return err
				}
				continue
			}
			perm[k], used[g] = g, 1
			err := walk(k + 1)
			used[g] = 0
			if err != nil {
				return err
			}
		}
		return nil
	}
	err := walk(0)
	return bestPerm, pr.Price(bestPerm), err
}

// better is betterThan over prefix states.
func better(a, b *cost.Prefix) bool {
	if a.Safe != b.Safe {
		return a.Safe
	}
	return a.Total < b.Total
}

func betterThan(a, b cost.ConjunctResult) bool {
	if a.Safe != b.Safe {
		return a.Safe
	}
	return a.Total < b.Total
}

// satMul multiplies non-negative counts, saturating instead of
// overflowing.
func satMul(a, b int) int {
	if b != 0 && a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// DP is the dynamic-programming enumeration of [Sel 79]: O(2^n) states
// instead of n! permutations, exact under our cost model because
// cardinality estimates depend only on the set of goals joined so far,
// not their order.
type DP struct{}

func (DP) Name() string { return "dp" }

func (d DP) Order(m *cost.Model, body []lang.Literal, bound map[string]bool, inCard float64, sf cost.StatsFn) ([]int, cost.ConjunctResult) {
	perm, r, _ := d.OrderBudget(m, body, bound, inCard, sf, nil)
	return perm, r
}

// OrderBudget fills the table by subset: each entry is the best
// ordering of its goals, extended by one Step from the best ordering of
// the subset without its last goal; every (subset, last goal) pair
// charges one state.
func (DP) OrderBudget(m *cost.Model, body []lang.Literal, bound map[string]bool, inCard float64, sf cost.StatsFn, gov *resource.Governor) ([]int, cost.ConjunctResult, error) {
	n := len(body)
	pr := m.NewPricer(body, bound, inCard, sf)
	if n == 0 {
		return nil, pr.Price(nil), nil
	}
	table := pr.Prefixes(1 << uint(n))
	lastOf := make([]int, 1<<uint(n))
	pr.Start(&table[0])
	scratch := pr.Prefixes(2)
	for s := 1; s < 1<<uint(n); s++ {
		cand, best := &scratch[0], &scratch[1]
		bestSet := false
		for last := 0; last < n; last++ {
			if s&(1<<uint(last)) == 0 {
				continue
			}
			if err := gov.AddStates(1); err != nil {
				// Mid-table abort: the identity ordering is the only
				// complete costing available at this point.
				perm := identityPerm(n)
				return perm, pr.Price(perm), err
			}
			pr.Step(cand, &table[s&^(1<<uint(last))], last)
			if !bestSet || better(cand, best) {
				cand, best = best, cand
				lastOf[s] = last
				bestSet = true
			}
		}
		pr.Copy(&table[s], best)
	}
	perm := make([]int, n)
	for s, k := 1<<uint(n)-1, n-1; k >= 0; k-- {
		perm[k] = lastOf[s]
		s &^= 1 << uint(lastOf[s])
	}
	return perm, pr.Price(perm), nil
}

// Anneal is the simulated-annealing strategy of §7.1: a random walk of
// the permutation space whose neighbor relation swaps exactly two
// positions, with a geometric cooling schedule. Deterministic for a
// fixed Seed.
type Anneal struct {
	Seed  int64
	Steps int     // probe budget (default 400)
	T0    float64 // initial temperature as a fraction of the initial cost (default 0.5)
	Alpha float64 // cooling factor per step (default 0.98)
}

func (Anneal) Name() string { return "anneal" }

func (a Anneal) Order(m *cost.Model, body []lang.Literal, bound map[string]bool, inCard float64, sf cost.StatsFn) ([]int, cost.ConjunctResult) {
	perm, r, _ := a.OrderBudget(m, body, bound, inCard, sf, nil)
	return perm, r
}

func (a Anneal) OrderBudget(m *cost.Model, body []lang.Literal, bound map[string]bool, inCard float64, sf cost.StatsFn, gov *resource.Governor) ([]int, cost.ConjunctResult, error) {
	n := len(body)
	steps := a.Steps
	if steps <= 0 {
		steps = 400
	}
	alpha := a.Alpha
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.98
	}
	t0frac := a.T0
	if t0frac <= 0 {
		t0frac = 0.5
	}
	rng := rand.New(rand.NewSource(a.Seed))
	pr := m.NewPricer(body, bound, inCard, sf)

	cur := initialPerm(pr, n)
	curRes := pr.Price(cur)
	bestPerm := append([]int{}, cur...)
	bestRes := curRes

	temp := t0frac * float64(curRes.Total)
	if curRes.Total.IsInfinite() || temp <= 0 {
		temp = 1000
	}
	for i := 0; i < steps; i++ {
		if n < 2 {
			break
		}
		if err := gov.AddStates(1); err != nil {
			// The walk is an anytime algorithm: the best ordering seen
			// so far is a complete answer.
			return bestPerm, bestRes, err
		}
		x, y := rng.Intn(n), rng.Intn(n)
		if x == y {
			continue
		}
		cand := append([]int{}, cur...)
		cand[x], cand[y] = cand[y], cand[x]
		r := pr.Price(cand)
		accept := false
		switch {
		case betterThan(r, curRes):
			accept = true
		case r.Safe && curRes.Safe:
			delta := float64(r.Total - curRes.Total)
			accept = rng.Float64() < math.Exp(-delta/temp)
		case r.Safe && !curRes.Safe:
			accept = true
		}
		if accept {
			cur, curRes = cand, r
			if betterThan(curRes, bestRes) {
				bestPerm = append(bestPerm[:0], cur...)
				bestRes = curRes
			}
		}
		temp *= alpha
	}
	return bestPerm, bestRes, nil
}

// initialPerm seeds the walk with a greedy EC-feasible ordering:
// repeatedly pick the unplaced goal that is evaluable now and has the
// smallest estimated expansion.
func initialPerm(pr *cost.Pricer, n int) []int {
	used := make([]bool, n)
	var perm []int
	for len(perm) < n {
		bestIdx := -1
		var bestCost cost.Cost
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			cand := append(append([]int{}, perm...), i)
			r := pr.Price(cand)
			if !r.Safe {
				continue
			}
			if bestIdx < 0 || r.Total < bestCost {
				bestIdx, bestCost = i, r.Total
			}
		}
		if bestIdx < 0 {
			// No EC-feasible extension: place remaining goals in order
			// (the conjunct will cost Inf and the caller will see it).
			for i := 0; i < n; i++ {
				if !used[i] {
					perm = append(perm, i)
				}
			}
			return perm
		}
		used[bestIdx] = true
		perm = append(perm, bestIdx)
	}
	return perm
}

// sortInts sorts a copy (helper for deterministic tests).
func sortInts(xs []int) []int {
	c := append([]int{}, xs...)
	sort.Ints(c)
	return c
}
