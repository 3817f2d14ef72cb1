package cost

import (
	"fmt"

	"ldl/internal/lang"
	"ldl/internal/term"
)

// Pricer prices orderings of one conjunct. Conjunct is a left fold over
// the ordering, so the Pricer splits it in two: everything that does not
// depend on the order — each goal's statistics, the numbering of the
// body's variables, the shape of every argument — is resolved once,
// when the Pricer is built, and a Prefix carries what does (which
// variables are bound and by what, the running cardinality and cost).
// Step extends a Prefix by one goal, so every ordering that shares a
// prefix shares its costing: the exhaustive and dynamic-programming
// searches price each prefix once, not once per completion.
type Pricer struct {
	m      *Model
	body   []lang.Literal
	inCard float64
	goals  []goalShape
	nvars  int
	head   []int32 // variables bound before the first goal
	exact  bool
}

type goalKind uint8

const (
	goalRel goalKind = iota
	goalBuiltin
	goalNeg
)

// goalShape is the order-independent part of one goal's costing.
type goalShape struct {
	kind goalKind
	// Builtins: whether the goal has two sides, whether it is "=", and
	// whether each side is an arithmetic expression.
	binary, eq, lhsArith, rhsArith bool
	// card is a relational goal's cardinality; sel a builtin's filter
	// selectivity.
	card, sel float64
	args      []argShape
	// vars lists the goal's variables once each, in the order
	// lang.Literal.Vars returns them.
	vars []int32
	// lhs and rhs are the variables of a builtin's two sides.
	lhs, rhs []int32
}

// argShape is one argument: a variable (v ≥ 0), a constant, or a
// compound term with the variables in vars.
type argShape struct {
	v int32
	// prev is the first earlier column holding the same variable, or
	// -1; a repeated free variable correlates the two columns.
	prev int32
	vars []int32
	// dist is the relation's distinct count at this column.
	dist float64
}

// Prefix is the costing state after some goals of a conjunct: its
// running Total cost and cardinality, and Safe=false (Total infinite)
// once some goal violated EC at its position. Obtain Prefixes from
// Pricer.Prefixes; Start and Step fill them.
type Prefix struct {
	Total Cost
	Card  float64
	Safe  bool
	// vars holds, per body variable, 0 while it is unbound, -1 once the
	// head, a builtin or a compound argument bound it, and otherwise the
	// largest distinct count among the relational columns that bound it,
	// so join selectivity can use the symmetric 1/max(d_left, d_right)
	// formula. stats.RelStats.DistinctAt is always positive, so the
	// three cases never collide.
	vars []float64
}

// NewPricer resolves body for pricing: boundVars are instantiated
// before the first goal, inCard incoming bindings feed it, and sf (nil
// means the catalog) supplies each relational goal's statistics, read
// once here.
func (m *Model) NewPricer(body []lang.Literal, boundVars map[string]bool, inCard float64, sf StatsFn) *Pricer {
	p := new(Pricer)
	p.init(m, body, boundVars, inCard, sf)
	return p
}

func (p *Pricer) init(m *Model, body []lang.Literal, boundVars map[string]bool, inCard float64, sf StatsFn) {
	if sf == nil {
		sf = m.BaseStats
	}
	// Size every table up front: one allocation each.
	nargs, nocc := 0, 0
	for _, l := range body {
		nargs += len(l.Args)
		for _, a := range l.Args {
			nocc += occurrences(a)
		}
	}
	*p = Pricer{m: m, body: body, inCard: inCard, goals: make([]goalShape, len(body))}
	args := make([]argShape, nargs)
	// A goal's variable lists (its compound arguments', its own, a
	// builtin's two sides) each hold at most its occurrences, and the
	// head list at most the body's; each list is cut from the free tail
	// of one array. The numbering (names) outlives init only as nvars,
	// so small bodies keep it on the stack.
	free := make([]int32, 0, 4*nocc)
	var nameBuf [16]string
	names := nameBuf[:0]
	var list []int32
	// The bound on a prefix's completions is exact only while every
	// step cost is non-negative; a negative or NaN cardinality (a
	// hand-built catalog can carry one) or model constant turns pruning
	// off.
	p.exact = m.TupleCPU >= 0 && m.ProbeIO >= 0 && m.ScanIO >= 0 && m.BuildCPU >= 0
	for gi, l := range body {
		g := &p.goals[gi]
		g.args, args = args[:len(l.Args):len(l.Args)], args[len(l.Args):]
		for i, a := range l.Args {
			as := argShape{v: -1, prev: -1}
			switch x := a.(type) {
			case term.Var:
				as.v, names = varID(names, x.Name)
				for j := 0; j < i; j++ {
					if g.args[j].v == as.v {
						as.prev = int32(j)
						break
					}
				}
			case term.Comp:
				list, names = appendVars(x, free, names)
				as.vars, free = seal(list)
			}
			g.args[i] = as
		}
		list = free
		for _, a := range l.Args {
			list, names = appendVars(a, list, names)
		}
		g.vars, free = seal(list)
		switch {
		case lang.IsBuiltin(l.Pred):
			g.kind = goalBuiltin
			g.sel = lang.BuiltinSelectivity(l.Pred)
			g.eq = l.Pred == lang.OpEq
			if g.binary = len(l.Args) == 2; g.binary {
				list, names = appendVars(l.Args[0], free, names)
				g.lhs, free = seal(list)
				list, names = appendVars(l.Args[1], free, names)
				g.rhs, free = seal(list)
				g.lhsArith, g.rhsArith = lang.IsArithExpr(l.Args[0]), lang.IsArithExpr(l.Args[1])
			}
		case l.Neg:
			g.kind = goalNeg
		default:
			st := sf(l)
			if g.card = st.Card; !(g.card >= 0) {
				p.exact = false
			}
			for i := range g.args {
				g.args[i].dist = st.DistinctAt(i)
			}
		}
	}
	p.nvars = len(names)
	list = free
	for id, name := range names {
		if boundVars[name] {
			list = append(list, int32(id))
		}
	}
	p.head, _ = seal(list)
}

// occurrences counts the variable occurrences in t.
func occurrences(t term.Term) int {
	switch x := t.(type) {
	case term.Var:
		return 1
	case term.Comp:
		n := 0
		for _, a := range x.Args {
			n += occurrences(a)
		}
		return n
	}
	return 0
}

// varID numbers a variable in order of first occurrence.
func varID(names []string, name string) (int32, []string) {
	for id, n := range names {
		if n == name {
			return int32(id), names
		}
	}
	return int32(len(names)), append(names, name)
}

// appendVars appends to dst the variables of t it does not hold yet.
func appendVars(t term.Term, dst []int32, names []string) ([]int32, []string) {
	switch x := t.(type) {
	case term.Var:
		var id int32
		id, names = varID(names, x.Name)
		for _, v := range dst {
			if v == id {
				return dst, names
			}
		}
		return append(dst, id), names
	case term.Comp:
		for _, a := range x.Args {
			dst, names = appendVars(a, dst, names)
		}
	}
	return dst, names
}

// seal ends a variable list begun at the free tail of the list array
// (free[:0], extended by append) and returns the list and the new tail.
func seal(list []int32) (sealed, rest []int32) {
	return list[:len(list):len(list)], list[len(list):]
}

// Exact reports whether every step cost is non-negative, so a prefix's
// Total bounds the Total of each of its completions from below.
func (p *Pricer) Exact() bool { return p.exact }

// Prefixes allocates n prefix states sharing one backing array.
func (p *Pricer) Prefixes(n int) []Prefix {
	vars := make([]float64, n*p.nvars)
	out := make([]Prefix, n)
	for i := range out {
		out[i].vars = vars[i*p.nvars : (i+1)*p.nvars : (i+1)*p.nvars]
	}
	return out
}

// Start resets dst to the empty prefix.
func (p *Pricer) Start(dst *Prefix) {
	clear(dst.vars)
	for _, v := range p.head {
		dst.vars[v] = -1
	}
	dst.Total, dst.Safe = 0, true
	dst.Card = p.inCard
	if dst.Card < 1 {
		dst.Card = 1
	}
}

// Copy sets dst to src.
func (p *Pricer) Copy(dst, src *Prefix) {
	copy(dst.vars, src.vars)
	dst.Total, dst.Card, dst.Safe = src.Total, src.Card, src.Safe
}

func (x *Prefix) has(v int32) bool { return x.vars[v] != 0 }

func (x *Prefix) all(vs []int32) bool {
	for _, v := range vs {
		if x.vars[v] == 0 {
			return false
		}
	}
	return true
}

func (x *Prefix) bind(vs []int32) {
	for _, v := range vs {
		if x.vars[v] == 0 {
			x.vars[v] = -1
		}
	}
}

// Step sets dst to src extended by goal gi (dst may be src) and
// returns the step's record, meaningful only while dst.Safe. For each
// relational step the cheapest available join method is chosen locally
// — the paper's observation that "for a given permutation, the choice
// of join method becomes a local decision".
func (p *Pricer) Step(dst, src *Prefix, gi int) Step {
	if dst != src {
		p.Copy(dst, src)
	}
	l := p.body[gi]
	st := Step{Lit: l}
	if !src.Safe {
		return st
	}
	g := &p.goals[gi]
	var ad lang.Adornment
	for i, a := range g.args {
		if (a.v >= 0 && dst.has(a.v)) || (a.v < 0 && dst.all(a.vars)) {
			ad = ad.WithBound(i)
		}
	}
	st.Adorn = ad
	card, total := dst.Card, float64(dst.Total)
	switch g.kind {
	case goalBuiltin:
		if !g.ec(dst) {
			dst.Safe, dst.Total = false, Infinite()
			return st
		}
		total += card * p.m.TupleCPU
		if g.eq && !dst.all(g.vars) {
			// computes a value: one output per input
			dst.bind(g.vars)
		} else {
			card *= g.sel
		}
	case goalNeg:
		if !dst.all(g.vars) {
			dst.Safe, dst.Total = false, Infinite()
			return st
		}
		total += card * p.m.ProbeIO
		card *= 0.5
	default:
		mu := matchesPerBinding(g, ad, dst)
		method, stepCost := p.m.bestJoin(card, g.card, mu, ad)
		st.Method = method
		total += stepCost
		card *= mu
		dst.bind(g.vars)
		for _, a := range g.args {
			if a.v >= 0 && a.dist > dst.vars[a.v] {
				dst.vars[a.v] = a.dist
			}
		}
	}
	if card < 0.001 {
		card = 0.001
	}
	dst.Card, dst.Total = card, Cost(total)
	st.OutCard, st.Cost = card, Cost(total)
	return st
}

// ec is lang.BuiltinEC over the prefix's bound variables.
func (g *goalShape) ec(x *Prefix) bool {
	if !g.binary {
		return false
	}
	lb, rb := x.all(g.lhs), x.all(g.rhs)
	if !g.eq {
		return lb && rb
	}
	if g.lhsArith && !lb || g.rhsArith && !rb {
		return false
	}
	// Unification with one fully bound side grounds the other side.
	return lb || rb
}

// matchesPerBinding estimates how many tuples of the goal's relation
// match one incoming binding: card restricted per bound column by the
// symmetric join selectivity 1/max(d_binder, d_column) (falling back to
// 1/d_column for constants and head bindings), and by repeated
// variables within the goal.
func matchesPerBinding(g *goalShape, ad lang.Adornment, x *Prefix) float64 {
	mu := g.card
	for i, a := range g.args {
		if ad.Bound(i) {
			d := a.dist
			if a.v >= 0 && x.vars[a.v] > d {
				d = x.vars[a.v]
			}
			mu *= 1 / d
			continue
		}
		// A free variable repeated across free columns correlates them.
		if a.v >= 0 && a.prev >= 0 {
			d := a.dist
			if dp := g.args[a.prev].dist; dp > d {
				d = dp
			}
			mu *= 1 / d
		}
	}
	if mu < 0.001 {
		mu = 0.001
	}
	return mu
}

// Price costs evaluating the body in the order given by perm (nil means
// identity order; a shorter perm prices that prefix), recording every
// step.
func (p *Pricer) Price(perm []int) ConjunctResult {
	n := len(perm)
	if perm == nil {
		n = len(p.body)
	}
	res := ConjunctResult{Safe: true, OutCard: p.inCard, Steps: make([]Step, 0, n)}
	var buf [16]float64 // small bodies price on the stack
	vars := buf[:]
	if p.nvars > len(buf) {
		vars = make([]float64, p.nvars)
	}
	x := Prefix{vars: vars[:p.nvars]}
	p.Start(&x)
	for k := 0; k < n; k++ {
		gi := k
		if perm != nil {
			gi = perm[k]
		}
		st := p.Step(&x, &x, gi)
		if !x.Safe {
			// A failed step binds nothing: x still shows what was bound
			// before the goal.
			res.Safe = false
			res.Reason = p.unsafeReason(&x, gi)
			res.Total = Infinite()
			return res
		}
		res.Steps = append(res.Steps, st)
	}
	res.Total = x.Total
	res.OutCard = x.Card
	return res
}

// unsafeReason explains why goal gi is not evaluable after prefix x.
func (p *Pricer) unsafeReason(x *Prefix, gi int) string {
	l := p.body[gi]
	if p.goals[gi].kind == goalBuiltin {
		return fmt.Sprintf("goal %s not effectively computable at its position", l)
	}
	for i, v := range l.Vars(nil) {
		if !x.has(p.goals[gi].vars[i]) {
			return fmt.Sprintf("negated goal %s has unbound variable %s", l, v.Name)
		}
	}
	return ""
}

// Conjunct prices evaluating body in the order given by perm, starting
// from one incoming binding per initial tuple (inCard) with boundVars
// already instantiated. A nil perm means identity order. It is the
// one-shot form of a Pricer.
func (m *Model) Conjunct(body []lang.Literal, perm []int, boundVars map[string]bool, inCard float64, sf StatsFn) ConjunctResult {
	var p Pricer
	p.init(m, body, boundVars, inCard, sf)
	return p.Price(perm)
}
