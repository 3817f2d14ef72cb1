package cost_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"ldl/internal/adorn"
	"ldl/internal/core"
	"ldl/internal/cost"
	"ldl/internal/resource"
)

// The differential test for the ordering searches lives beside the
// oracle it needs (cost.ConjunctOracle, in this package's test files).

type search func(rb cost.RandomBody, gov *resource.Governor) ([]int, cost.ConjunctResult, error)

func oracleBetter(a, b cost.ConjunctResult) bool {
	if a.Safe != b.Safe {
		return a.Safe
	}
	return a.Total < b.Total
}

// bruteForce prices every ordering from scratch with the oracle, in
// adorn.Permutations order, one governed state per ordering.
func bruteForce(rb cost.RandomBody, gov *resource.Governor) ([]int, cost.ConjunctResult, error) {
	n := len(rb.Body)
	bestPerm := identity(n)
	best := rb.Model.ConjunctOracle(rb.Body, bestPerm, rb.Bound, 1, nil)
	for _, perm := range adorn.Permutations(n) {
		if err := gov.AddStates(1); err != nil {
			return bestPerm, best, err
		}
		if r := rb.Model.ConjunctOracle(rb.Body, perm, rb.Bound, 1, nil); oracleBetter(r, best) {
			best, bestPerm = r, slices.Clone(perm)
		}
	}
	return bestPerm, best, nil
}

// oracleDP is the subset table priced by re-costing every candidate
// ordering from scratch with the oracle.
func oracleDP(rb cost.RandomBody, gov *resource.Governor) ([]int, cost.ConjunctResult, error) {
	n := len(rb.Body)
	price := func(perm []int) cost.ConjunctResult {
		return rb.Model.ConjunctOracle(rb.Body, perm, rb.Bound, 1, nil)
	}
	type entry struct {
		perm []int
		res  cost.ConjunctResult
	}
	table := make([]entry, 1<<n)
	table[0] = entry{perm: []int{}, res: cost.ConjunctResult{Safe: true}}
	for s := 1; s < 1<<n; s++ {
		var best entry
		for last := 0; last < n; last++ {
			if s&(1<<last) == 0 {
				continue
			}
			if err := gov.AddStates(1); err != nil {
				return identity(n), price(identity(n)), err
			}
			perm := append(slices.Clone(table[s&^(1<<last)].perm), last)
			if r := price(perm); best.perm == nil || oracleBetter(r, best.res) {
				best = entry{perm: perm, res: r}
			}
		}
		table[s] = best
	}
	return table[1<<n-1].perm, table[1<<n-1].res, nil
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func strategy(s core.Strategy) search {
	return func(rb cost.RandomBody, gov *resource.Governor) ([]int, cost.ConjunctResult, error) {
		return s.OrderBudget(rb.Model, rb.Body, rb.Bound, 1, nil, gov)
	}
}

// run executes a search under a state budget (0: unlimited, with
// offset states already charged) and returns the states it charged.
func run(f search, rb cost.RandomBody, budget, offset int) ([]int, cost.ConjunctResult, error, int) {
	gov := resource.New(nil, resource.Budget{MaxStates: budget})
	if gov == nil {
		gov = resource.New(nil, resource.Budget{MaxStates: 1 << 40})
	}
	if err := gov.AddStates(offset); err != nil {
		panic(err)
	}
	perm, res, err := f(rb, gov)
	return perm, res, err, gov.Snapshot().StatesExplored - offset
}

func sameErr(a, b error) bool {
	var ra, rb *resource.ResourceError
	if errors.As(a, &ra) != errors.As(b, &rb) {
		return false
	}
	if ra == nil {
		return a == nil && b == nil
	}
	return ra.Limit == rb.Limit && ra.Detail == rb.Detail && ra.Counters.StatesExplored == rb.Counters.StatesExplored
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// TestSearchDifferential: on generated bodies of 1..8 goals, Exhaustive
// returns brute force's ordering and DP the re-pricing table's, with
// bit-identical costings and the same governed state counts — n! for
// exhaustive, n·2^(n-1) for DP — and, for a sweep of state budgets, the
// same anytime best and the same budget error.
func TestSearchDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	perN := []int{0, 40, 40, 40, 30, 20, 8, 3, 2}
	if testing.Short() {
		perN = []int{0, 10, 10, 10, 8, 6, 2, 1, 1}
	}
	pairs := []struct {
		name      string
		got, want search
		statesOfN func(n int) int
	}{
		{"exhaustive", strategy(core.Exhaustive{}), bruteForce, factorial},
		{"dp", strategy(core.DP{}), oracleDP, func(n int) int { return n << (n - 1) }},
	}
	for n := 1; n < len(perN); n++ {
		for trial := 0; trial < perN[n]; trial++ {
			rb := cost.NewRandomBody(r, n, trial%4 == 3)
			for _, p := range pairs {
				gp, gr, gerr, gs := run(p.got, rb, 0, 0)
				wp, wr, _, _ := run(p.want, rb, 0, 0)
				if gerr != nil || !slices.Equal(gp, wp) || gs != p.statesOfN(n) {
					t.Fatalf("%s %v: perm %v (err %v, %d states), want %v (%d states)", p.name, rb, gp, gerr, gs, wp, p.statesOfN(n))
				}
				if d := cost.SameResult(gr, wr); d != "" {
					t.Fatalf("%s %v: %s", p.name, rb, d)
				}
				full := p.statesOfN(n)
				budgets := []int{1, 2, full / 3, full - 1, full, full + 1}
				if n <= 6 {
					budgets = append(budgets, 1+r.Intn(full))
				}
				for _, b := range budgets {
					if b < 1 {
						continue
					}
					offset := r.Intn(3)
					gp, gr, gerr, gs := run(p.got, rb, b+offset, offset)
					wp, wr, werr, ws := run(p.want, rb, b+offset, offset)
					if !slices.Equal(gp, wp) || !sameErr(gerr, werr) || gs != ws {
						t.Fatalf("%s %v budget %d+%d: perm %v err %v states %d, want %v err %v states %d",
							p.name, rb, offset, b, gp, gerr, gs, wp, werr, ws)
					}
					if d := cost.SameResult(gr, wr); d != "" {
						t.Fatalf("%s %v budget %d: %s", p.name, rb, b, d)
					}
				}
			}
		}
	}
}
