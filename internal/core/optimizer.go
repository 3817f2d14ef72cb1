package core

import (
	"errors"
	"fmt"

	"ldl/internal/adorn"
	"ldl/internal/cost"
	"ldl/internal/depgraph"
	"ldl/internal/lang"
	"ldl/internal/plan"
	"ldl/internal/resource"
	"ldl/internal/safety"
	"ldl/internal/stats"
	"ldl/internal/term"
)

// Optimizer is the LDL query optimizer: it searches the execution space
// {MP, PR, PA} (with PS, PP and EL resolved locally, per §7.1) for a
// minimum-cost, safe processing tree, query-form-specifically — the
// plan for P(c, y)? is computed independently of the plan for P(x, y)?.
type Optimizer struct {
	Prog     *lang.Program
	Graph    *depgraph.Graph
	Model    *cost.Model
	Strategy Strategy

	// MaxCPermEnum caps the exhaustive c-permutation cross product for
	// a clique; larger spaces fall back to simulated annealing over
	// c-permutations, as §7.3 proposes (default 5040).
	MaxCPermEnum int
	// AnnealCPermSteps is the probe budget for that fallback.
	AnnealCPermSteps int
	// DisableMemo turns off the binding-indexed memoization of Figure
	// 7-1 — only for the ablation experiment that measures its value.
	DisableMemo bool

	// Gov meters the search: every candidate ordering priced charges
	// one state, and deadlines/cancellation abort the optimization. A
	// tripped state budget does not fail the search — the strategy
	// degrades to KBZ (the quadratic floor) and the downgrade is
	// recorded for Plan.Explain. nil means ungoverned.
	Gov *resource.Governor

	// Memoization of OR-subtree optimizations, indexed by binding (the
	// linchpin of Figure 7-1's complexity bound). MemoLookups/MemoHits
	// are exposed for the E10 experiment.
	memo        map[memoKey]*orResult
	MemoLookups int
	MemoHits    int

	statsMemo  map[string]stats.RelStats
	statsBusy  map[string]bool
	ruleIdxFor map[string][]int
}

type memoKey struct {
	tag   string
	adorn lang.Adornment
	root  bool // the root subquery may additionally use counting
}

type orResult struct {
	node   *plan.Node
	cost   cost.Cost
	card   float64
	reason string
	// err aborts the whole optimization (deadline passed, context
	// canceled). Budget *downgrades* never surface here — they are
	// absorbed by the fallback ladder and recorded on the governor.
	err error
}

// Result is a finished optimization.
type Result struct {
	Plan   *plan.Node
	Cost   cost.Cost
	Card   float64
	Safe   bool
	Reason string
	// Downgrades lists graceful degradations the governed search took
	// (e.g. exhaustive → KBZ after the state budget tripped); rendered
	// by Plan.Explain so callers can see the plan is best-effort.
	Downgrades []string

	prog  *lang.Program
	query lang.Query
}

// New builds an optimizer over a program, its dependency graph (from
// depgraph.Analyze; read-only, so one graph serves every optimizer over
// the program) and a catalog. strategy defaults to Exhaustive.
func New(prog *lang.Program, g *depgraph.Graph, cat *stats.Catalog, strategy Strategy) *Optimizer {
	if strategy == nil {
		strategy = Exhaustive{}
	}
	o := &Optimizer{
		Prog:             prog,
		Graph:            g,
		Model:            cost.NewModel(cat),
		Strategy:         strategy,
		MaxCPermEnum:     5040,
		AnnealCPermSteps: 300,
		memo:             map[memoKey]*orResult{},
		statsMemo:        map[string]stats.RelStats{},
		statsBusy:        map[string]bool{},
		ruleIdxFor:       map[string][]int{},
	}
	for i, r := range prog.Rules {
		o.ruleIdxFor[r.Head.Tag()] = append(o.ruleIdxFor[r.Head.Tag()], i)
	}
	return o
}

// Optimize runs the OPT algorithm (Figure 7-2) for the query form.
func (o *Optimizer) Optimize(q lang.Query) (*Result, error) {
	tag := q.Goal.Tag()
	res := &Result{prog: o.Prog, query: q}
	if !o.Prog.IsDerived(tag) {
		// Base-relation query: a single scan.
		n := plan.Scan(q.Goal)
		s := o.Model.Cat.Stats(tag)
		n.EstCard = s.Card
		n.EstCost = cost.Cost(s.Card)
		res.Plan, res.Cost, res.Card, res.Safe = n, n.EstCost, n.EstCard, true
		return res, nil
	}
	r := o.optimizeOr(tag, q.Adornment(), q.Goal, true)
	if r.err != nil {
		return nil, r.err
	}
	res.Plan = r.node
	res.Cost = r.cost
	res.Card = r.card
	res.Safe = !r.cost.IsInfinite()
	res.Reason = r.reason
	res.Downgrades = o.Gov.Downgrades()
	return res, nil
}

// Compile lowers the optimized plan to an executable program.
func (r *Result) Compile() (*plan.Compiled, error) {
	if !r.Safe {
		return nil, fmt.Errorf("core: query %s is unsafe: %s", r.query, r.Reason)
	}
	return plan.ToProgram(r.Plan, r.prog, r.query)
}

// statsFn resolves literal statistics: derived predicates use the
// memoized full-extension estimate, base predicates the catalog.
func (o *Optimizer) statsFn(l lang.Literal) stats.RelStats {
	if o.Prog.IsDerived(l.Tag()) {
		return o.statsOf(l.Tag())
	}
	return o.Model.Cat.Stats(l.Tag())
}

// statsOf estimates the full extension of a derived predicate from
// the statistics of the predicates its rules read.
func (o *Optimizer) statsOf(tag string) stats.RelStats {
	if s, ok := o.statsMemo[tag]; ok {
		return s
	}
	if o.statsBusy[tag] {
		return o.Model.Cat.Default
	}
	o.statsBusy[tag] = true
	defer func() { o.statsBusy[tag] = false }()

	clique := o.Graph.CliqueOf(tag)
	var card float64
	dom := 1.0
	if clique != nil && clique.Recursive {
		rules := o.cliqueRules(clique)
		a, err := adorn.Adorn(rules, clique.Contains, tag, lang.AllFree, nil)
		if err == nil {
			c := o.Model.Clique(a, cost.RecSemiNaive, o.statsFn)
			if c.Safe {
				card = c.FixCard
			} else {
				card = o.Model.Cat.Default.Card
			}
		} else {
			card = o.Model.Cat.Default.Card
		}
		dom = o.domainProxy(rules, clique.Contains)
	} else {
		for _, r := range o.Prog.RulesFor(tag) {
			cr := o.Model.Conjunct(r.Body, nil, nil, 1, o.statsFn)
			if cr.Safe {
				card += cr.OutCard
			} else {
				card += o.Model.Cat.Default.Card
			}
		}
		dom = o.domainProxy(o.Prog.RulesFor(tag), func(string) bool { return false })
	}
	if card < 1 {
		card = 1
	}
	arity := 0
	if rs := o.Prog.RulesFor(tag); len(rs) > 0 {
		arity = rs[0].Head.Arity()
	}
	d := make([]float64, arity)
	for i := range d {
		d[i] = card
		if dom < d[i] {
			d[i] = dom
		}
		if d[i] < 1 {
			d[i] = 1
		}
	}
	s := stats.RelStats{Card: card, Distinct: d}
	o.statsMemo[tag] = s
	return s
}

func (o *Optimizer) domainProxy(rules []lang.Rule, inClique func(string) bool) float64 {
	dom := 1.0
	for _, r := range rules {
		for _, l := range r.Body {
			if l.Neg || lang.IsBuiltin(l.Pred) || inClique(l.Tag()) {
				continue
			}
			s := o.statsFn(l)
			for i := 0; i < l.Arity(); i++ {
				if d := s.DistinctAt(i); d > dom {
					dom = d
				}
			}
		}
	}
	return dom
}

func (o *Optimizer) cliqueRules(c *depgraph.Clique) []lang.Rule {
	rules := make([]lang.Rule, len(c.Rules))
	for i, ri := range c.Rules {
		rules[i] = o.Prog.Rules[ri]
	}
	return rules
}

// optimizeOr is case 2 of OPT (= Figure 7-1's OR-node handling):
// optimize the subtree once per binding pattern, memoized.
func (o *Optimizer) optimizeOr(tag string, ad lang.Adornment, occurrence lang.Literal, root bool) *orResult {
	key := memoKey{tag: tag, adorn: ad, root: root}
	o.MemoLookups++
	if r, ok := o.memo[key]; ok && !o.DisableMemo {
		o.MemoHits++
		return r
	}
	clique := o.Graph.CliqueOf(tag)
	var r *orResult
	if clique != nil && clique.Recursive {
		r = o.optimizeFix(tag, ad, occurrence, clique, root)
	} else {
		r = o.optimizeUnion(tag, ad, occurrence)
	}
	if r.err != nil {
		// Aborted searches are not memoized: the whole optimization is
		// unwinding and the entry would be junk.
		return r
	}
	o.memo[key] = r
	return r
}

// optimizeUnion handles a nonrecursive derived predicate: optimize each
// rule's body (the AND case), compare the pipelined (binding-restricted)
// evaluation against the materialized (full) one, and keep the cheaper —
// the MP decision for this node.
func (o *Optimizer) optimizeUnion(tag string, ad lang.Adornment, occurrence lang.Literal) *orResult {
	rules := o.Prog.RulesFor(tag)
	idxs := o.ruleIdxFor[tag]

	build := func(useAd lang.Adornment) *orResult {
		node := plan.Union(occurrence)
		node.Adorn = useAd
		var total float64
		var card float64
		unsafeReason := ""
		for ri, r := range rules {
			rr := o.optimizeRule(r, idxs[ri], useAd)
			if rr.err != nil {
				return rr
			}
			node.Kids = append(node.Kids, rr.node)
			if rr.cost.IsInfinite() {
				if unsafeReason == "" {
					unsafeReason = rr.reason
				}
				total = float64(cost.Infinite())
				continue
			}
			total += float64(rr.cost)
			card += rr.card
		}
		uc, _ := o.Model.UnionCost([]float64{card})
		total += float64(uc)
		res := &orResult{node: node, cost: cost.Cost(total), card: card, reason: unsafeReason}
		node.EstCost = res.cost
		node.EstCard = card
		return res
	}

	full := build(lang.AllFree)
	if full.err != nil {
		return full
	}
	full.node.Mode = plan.Materialized
	if ad == lang.AllFree {
		return full
	}
	restricted := build(ad)
	if restricted.err != nil {
		return restricted
	}
	restricted.node.Mode = plan.Pipelined
	// Pipelined computation pays the magic bookkeeping overhead.
	restricted.cost = cost.Cost(float64(restricted.cost) * o.Model.MagicOverhead)
	restricted.node.EstCost = restricted.cost
	if restricted.cost < full.cost {
		return restricted
	}
	return full
}

// optimizeRule is case 1 of OPT (the AND node): choose the body
// permutation with the configured strategy, verify safety of the chosen
// ordering, and recursively optimize derived subtrees for the bindings
// the permutation implies.
func (o *Optimizer) optimizeRule(r lang.Rule, globalIdx int, headAdorn lang.Adornment) *orResult {
	bound := map[string]bool{}
	for i, arg := range r.Head.Args {
		if headAdorn.Bound(i) {
			term.VarSet(arg, bound)
		}
	}
	perm, cr, oerr := o.Strategy.OrderBudget(o.Model, r.Body, bound, 1, o.statsFn, o.Gov)
	node := plan.Join()
	node.Rule = &r
	node.RuleIdx = globalIdx
	node.Adorn = headAdorn
	if oerr != nil {
		_, isKBZ := o.Strategy.(KBZ)
		if !errors.Is(oerr, resource.ErrOptimizerBudget) || isKBZ {
			return &orResult{node: node, err: oerr}
		}
		// Graceful degradation (the ladder's second rung): the
		// exhaustive/DP/anneal search ran out of states — re-order with
		// the quadratic KBZ strategy and keep the better of its answer
		// and the partial best the aborted search returned.
		o.Gov.NoteDowngrade(fmt.Sprintf(
			"rule %s: %s ordering search exceeded the optimizer state budget; fell back to kbz",
			r.Head, o.Strategy.Name()))
		kperm, kcr, kerr := (KBZ{}).OrderBudget(o.Model, r.Body, bound, 1, o.statsFn, o.Gov)
		if kerr != nil {
			return &orResult{node: node, err: kerr}
		}
		if betterThan(kcr, cr) {
			perm, cr = kperm, kcr
		}
	}
	if !cr.Safe {
		node.EstCost = cost.Infinite()
		return &orResult{node: node, cost: cost.Infinite(), reason: fmt.Sprintf("rule %s: %s", r, cr.Reason)}
	}
	if v := safety.CheckRule(r, perm, headAdorn); !v.Safe {
		node.EstCost = cost.Infinite()
		return &orResult{node: node, cost: cost.Infinite(), reason: v.Reason}
	}
	total := float64(cr.Total)
	// Build children in execution order; derived children are optimized
	// for the binding the permutation hands them, with the cheaper of
	// pipelined/materialized chosen (the MP label of the subtree).
	kids := make([]*plan.Node, 0, len(perm))
	for si, bi := range perm {
		l := r.Body[bi]
		step := cr.Steps[si]
		switch {
		case lang.IsBuiltin(l.Pred):
			kids = append(kids, plan.Builtin(l))
		case o.Prog.IsDerived(l.Tag()):
			sub := o.optimizeOr(l.Tag(), step.Adorn, l, false)
			if sub.err != nil {
				return &orResult{node: node, err: sub.err}
			}
			kids = append(kids, sub.node.Clone())
			if sub.cost.IsInfinite() {
				return &orResult{node: node, cost: cost.Infinite(), reason: sub.reason}
			}
			total += float64(sub.cost)
		default:
			sc := plan.Scan(l)
			sc.Adorn = step.Adorn
			kids = append(kids, sc)
		}
	}
	node.Kids = kids
	node.Perm = append([]int{}, perm...)
	node.Methods = make([]cost.JoinMethod, len(kids))
	for si := range cr.Steps {
		node.Methods[si] = cr.Steps[si].Method
	}
	node.EstCost = cost.Cost(total)
	node.EstCard = cr.OutCard
	return &orResult{node: node, cost: cost.Cost(total), card: cr.OutCard}
}
