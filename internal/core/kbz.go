package core

import (
	"sort"

	"ldl/internal/cost"
	"ldl/internal/lang"
	"ldl/internal/resource"
)

// KBZ is the quadratic-time join-ordering strategy of [KBZ 86]: build
// the query graph (goals connected by shared variables), reduce it to a
// spanning tree when cyclic, and for each candidate root linearize the
// rooted tree by ascending rank, where a module's rank (T-1)/C captures
// the Adjacent Sequence Interchange (ASI) property. The candidate
// linearizations are then priced under the full cost model and the best
// kept — heuristically effective for cyclic queries and non-ASI cost
// models, as [Vil 87] measured.
type KBZ struct{}

func (KBZ) Name() string { return "kbz" }

type kbzModule struct {
	seq  []int
	T, C float64
}

func (m kbzModule) rank() float64 {
	if m.C <= 0 {
		return 0
	}
	return (m.T - 1) / m.C
}

func mergeModules(a, b kbzModule) kbzModule {
	return kbzModule{
		seq: append(append([]int{}, a.seq...), b.seq...),
		T:   a.T * b.T,
		C:   a.C + a.T*b.C,
	}
}

func (k KBZ) Order(m *cost.Model, body []lang.Literal, bound map[string]bool, inCard float64, sf cost.StatsFn) ([]int, cost.ConjunctResult) {
	perm, r, _ := k.OrderBudget(m, body, bound, inCard, sf, nil)
	return perm, r
}

// OrderBudget for KBZ charges states for accounting but never enforces
// the state limit: KBZ is the quadratic floor of the degradation
// ladder (exhaustive/DP → KBZ → error), so it must keep working after
// the budget that triggered the downgrade has tripped. Deadlines and
// cancellation still apply.
func (KBZ) OrderBudget(m *cost.Model, body []lang.Literal, bound map[string]bool, inCard float64, sf cost.StatsFn, gov *resource.Governor) ([]int, cost.ConjunctResult, error) {
	gov = gov.StatesExempt()
	pr := m.NewPricer(body, bound, inCard, sf)
	// Separate relational goals from builtins/negations; the latter are
	// re-inserted greedily afterwards.
	var rel []int
	var other []int
	for i, l := range body {
		if lang.IsBuiltin(l.Pred) || l.Neg {
			other = append(other, i)
		} else {
			rel = append(rel, i)
		}
	}
	if len(rel) == 0 {
		perm := identityPerm(len(body))
		return perm, pr.Price(perm), nil
	}

	// Query graph over relational goals: edge when two goals share a
	// variable not already bound by the query.
	varHolders := map[string][]int{}
	for _, i := range rel {
		seen := map[string]bool{}
		body[i].VarSet(seen)
		for v := range seen {
			if !bound[v] {
				varHolders[v] = append(varHolders[v], i)
			}
		}
	}
	adj := map[int]map[int]bool{}
	for _, i := range rel {
		adj[i] = map[int]bool{}
	}
	for _, holders := range varHolders {
		for a := 0; a < len(holders); a++ {
			for b := a + 1; b < len(holders); b++ {
				adj[holders[a]][holders[b]] = true
				adj[holders[b]][holders[a]] = true
			}
		}
	}

	// Components, each linearized separately (cross products between
	// components are unavoidable).
	comps := components(rel, adj)
	bestPerm := identityPerm(len(body))
	bestRes := pr.Price(bestPerm)

	// Try every root in each component (n roots × an O(n log n)
	// linearization keeps the strategy quadratic) and keep the root
	// whose linearization prices cheapest under the full model;
	// concatenate component orders by ascending estimated cardinality.
	type compOrder struct {
		order []int
		card  float64
	}
	var chosen []compOrder
	for _, comp := range comps {
		var bestCO compOrder
		var bestCost cost.Cost
		bestSet := false
		for _, root := range comp {
			if err := gov.AddStates(1); err != nil {
				return bestPerm, bestRes, err
			}
			order := linearize(m, body, bound, sf, comp, adj, root)
			r := pr.Price(order)
			if !bestSet || (r.Safe && r.Total < bestCost) {
				bestCO = compOrder{order: order, card: r.OutCard}
				bestCost = r.Total
				bestSet = true
			}
		}
		chosen = append(chosen, bestCO)
	}
	sort.SliceStable(chosen, func(i, j int) bool { return chosen[i].card < chosen[j].card })
	var relOrder []int
	for _, co := range chosen {
		relOrder = append(relOrder, co.order...)
	}
	perm := insertNonRelational(body, relOrder, other, bound)
	res := pr.Price(perm)
	if betterThan(res, bestRes) {
		return perm, res, nil
	}
	return bestPerm, bestRes, nil
}

// linearize runs the IKKBZ rank merge on the spanning tree of comp
// rooted at root and returns the goal order.
func linearize(m *cost.Model, body []lang.Literal, bound map[string]bool, sf cost.StatsFn, comp []int, adj map[int]map[int]bool, root int) []int {
	// Spanning tree via Prim, keeping the most selective edges: when a
	// cycle forces an edge to be dropped, dropping the least
	// constraining one loses the least pruning power (the standard
	// tree-reduction heuristic for cyclic queries).
	parent := map[int]int{root: -1}
	inTree := map[int]bool{root: true}
	for len(inTree) < len(comp) {
		bestU, bestV := -1, -1
		bestW := 0.0
		for _, u := range comp {
			if !inTree[u] {
				continue
			}
			var ns []int
			for w := range adj[u] {
				ns = append(ns, w)
			}
			sort.Ints(ns)
			for _, v := range ns {
				if inTree[v] {
					continue
				}
				w := edgeSelectivity(m, body, sf, u, v)
				if bestU < 0 || w < bestW {
					bestU, bestV, bestW = u, v, w
				}
			}
		}
		if bestU < 0 {
			break // disconnected within comp: cannot happen
		}
		parent[bestV] = bestU
		inTree[bestV] = true
	}
	children := map[int][]int{}
	for v, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], v)
		}
	}
	for _, cs := range children {
		sort.Ints(cs)
	}

	// Per-node module parameters: accessing v with its tree parent's
	// variables (plus the query bindings) instantiated.
	moduleOf := func(v int) kbzModule {
		b := map[string]bool{}
		for k := range bound {
			b[k] = true
		}
		if p := parent[v]; p >= 0 {
			body[p].VarSet(b)
		}
		r := m.Conjunct([]lang.Literal{body[v]}, nil, b, 1, sf)
		T := r.OutCard
		C := float64(r.Total)
		if C <= 0 {
			C = 1e-9
		}
		return kbzModule{seq: []int{v}, T: T, C: C}
	}

	// Bottom-up chain construction with rank normalization.
	var chainOf func(v int) []kbzModule
	chainOf = func(v int) []kbzModule {
		var kidChains [][]kbzModule
		for _, c := range children[v] {
			kidChains = append(kidChains, chainOf(c))
		}
		merged := mergeByRank(kidChains)
		chain := append([]kbzModule{moduleOf(v)}, merged...)
		return normalize(chain)
	}
	chain := chainOf(root)
	var out []int
	for _, mod := range chain {
		out = append(out, mod.seq...)
	}
	return out
}

// edgeSelectivity estimates how constraining the join between goals u
// and v is: the expansion of v given u's variables bound, normalized by
// v's cardinality — smaller is more selective.
func edgeSelectivity(m *cost.Model, body []lang.Literal, sf cost.StatsFn, u, v int) float64 {
	b := map[string]bool{}
	body[u].VarSet(b)
	r := m.Conjunct([]lang.Literal{body[v]}, nil, b, 1, sf)
	card := 1.0
	if sf == nil {
		sf = m.BaseStats
	}
	if s := sf(body[v]); s.Card > 1 {
		card = s.Card
	}
	return r.OutCard / card
}

// mergeByRank merges sorted chains by ascending rank.
func mergeByRank(chains [][]kbzModule) []kbzModule {
	var out []kbzModule
	idx := make([]int, len(chains))
	for {
		best := -1
		for ci := range chains {
			if idx[ci] >= len(chains[ci]) {
				continue
			}
			if best < 0 || chains[ci][idx[ci]].rank() < chains[best][idx[best]].rank() {
				best = ci
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, chains[best][idx[best]])
		idx[best]++
	}
}

// normalize merges adjacent modules while ranks are out of ascending
// order; the head module (the subtree root) must precede its
// descendants, so any descendant module with a smaller rank is fused
// into it.
func normalize(chain []kbzModule) []kbzModule {
	out := append([]kbzModule{}, chain...)
	for i := 0; i+1 < len(out); {
		if out[i].rank() > out[i+1].rank() {
			out[i] = mergeModules(out[i], out[i+1])
			out = append(out[:i+1], out[i+2:]...)
			if i > 0 {
				i--
			}
		} else {
			i++
		}
	}
	return out
}

// insertNonRelational places builtins/negations at the earliest
// position where they are effectively computable.
func insertNonRelational(body []lang.Literal, relOrder, other []int, bound map[string]bool) []int {
	perm := append([]int{}, relOrder...)
	for _, oi := range other {
		l := body[oi]
		b := map[string]bool{}
		for k := range bound {
			b[k] = true
		}
		pos := len(perm)
		placed := false
		for p := 0; p <= len(perm); p++ {
			if ready(l, b) {
				pos = p
				placed = true
				break
			}
			if p < len(perm) {
				applyBindings(body[perm[p]], b)
			}
		}
		if !placed {
			pos = len(perm)
		}
		perm = append(perm[:pos], append([]int{oi}, perm[pos:]...)...)
	}
	return perm
}

func ready(l lang.Literal, bound map[string]bool) bool {
	if lang.IsBuiltin(l.Pred) {
		return lang.BuiltinEC(l, bound)
	}
	// negation: all vars bound
	for _, v := range l.Vars(nil) {
		if !bound[v.Name] {
			return false
		}
	}
	return true
}

func applyBindings(l lang.Literal, bound map[string]bool) {
	if lang.IsBuiltin(l.Pred) {
		if lang.BuiltinEC(l, bound) {
			for _, v := range lang.BuiltinBinds(l, bound) {
				bound[v] = true
			}
		}
		return
	}
	if !l.Neg {
		l.VarSet(bound)
	}
}

func components(nodes []int, adj map[int]map[int]bool) [][]int {
	seen := map[int]bool{}
	var comps [][]int
	for _, n := range nodes {
		if seen[n] {
			continue
		}
		var comp []int
		stack := []int{n}
		seen[n] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			var ns []int
			for w := range adj[v] {
				ns = append(ns, w)
			}
			sort.Ints(ns)
			for _, w := range ns {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}
