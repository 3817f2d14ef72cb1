package eval

import (
	"fmt"
	"strings"

	"ldl/internal/lang"
	"ldl/internal/store"
	"ldl/internal/term"
)

// TopDown is a memoizing (tabled) top-down evaluator: it answers a
// query by goal-directed resolution, creating one answer table per
// distinct call pattern and iterating the tables to a mutual fixpoint.
// It computes only tuples relevant to the query — the literal
// realization of the pipelined (triangle-node) execution that the magic
// rewrite emulates bottom-up — and therefore terminates on some
// function-symbol programs whose bottom-up fixpoint diverges (e.g. a
// list-length rule called with the list bound).
//
// It is a test-only oracle: the engine's bottom-up evaluator and TopDown
// are independent implementations of the same semantics, and the
// differential tests (TestQuickTopDownEqualsBottomUp) lean on that.
type TopDown struct {
	Prog     *lang.Program
	DB       *store.Database
	Counters Counters

	opts     Options
	tables   map[string]*tdTable
	order    []*tdTable      // creation order, for deterministic iteration
	negCache map[string]bool // ground negated-call results (stratified)
}

type tdTable struct {
	key     string
	pred    string
	arity   int
	pattern []term.Term // canonicalized call arguments
	answers *store.Relation
}

// NewTopDown prepares a tabled evaluator over prog and db.
func NewTopDown(prog *lang.Program, db *store.Database, opts Options) *TopDown {
	opts.norm()
	return &TopDown{Prog: prog, DB: db, opts: opts, tables: map[string]*tdTable{}, negCache: map[string]bool{}}
}

// canonicalCall renders a call pattern key: resolved arguments with
// variables normalized by first occurrence. Distinct variables map to
// $0, $1, ... — names the parser cannot produce, so there is no
// collision with program constants.
func canonicalCall(pred string, args []term.Term) (string, []term.Term) {
	names := map[string]int{}
	var normalize func(t term.Term) term.Term
	normalize = func(t term.Term) term.Term {
		switch x := t.(type) {
		case term.Var:
			i, ok := names[x.Name]
			if !ok {
				i = len(names)
				names[x.Name] = i
			}
			return term.Var{Name: fmt.Sprintf("$%d", i)}
		case term.Comp:
			out := make([]term.Term, len(x.Args))
			for i, a := range x.Args {
				out[i] = normalize(a)
			}
			return term.Comp{Functor: x.Functor, Args: out}
		default:
			return t
		}
	}
	norm := make([]term.Term, len(args))
	var b strings.Builder
	b.WriteString(pred)
	b.WriteByte('(')
	for i, a := range args {
		norm[i] = normalize(a)
		b.WriteString(norm[i].String())
		b.WriteByte(',')
	}
	b.WriteByte(')')
	return b.String(), norm
}

// tableFor returns (creating on demand) the table for a call.
func (td *TopDown) tableFor(pred string, arity int, args []term.Term) *tdTable {
	key, pattern := canonicalCall(pred, args)
	if t, ok := td.tables[key]; ok {
		return t
	}
	t := &tdTable{
		key:     key,
		pred:    pred,
		arity:   arity,
		pattern: pattern,
		answers: store.NewRelation(key, arity),
	}
	td.tables[key] = t
	td.order = append(td.order, t)
	return t
}

// Query answers the goal, iterating all call tables to a fixpoint.
func (td *TopDown) Query(q lang.Query) ([]store.Tuple, error) {
	if !td.Prog.IsDerived(q.Goal.Tag()) {
		// Base-relation query: filter the stored tuples directly.
		out := store.NewRelation("ans", q.Goal.Arity())
		rel := td.DB.Relation(q.Goal.Tag())
		if rel == nil {
			return nil, nil
		}
		for _, t := range rel.Lookup(0, nil) {
			if _, ok := term.UnifyAll(q.Goal.Args, []term.Term(t), term.NewSubst()); ok {
				mustInsert(out, t)
			}
		}
		return out.Sorted(), nil
	}
	seed := td.tableFor(q.Goal.Pred, q.Goal.Arity(), q.Goal.Args)
	for round := 0; ; round++ {
		if round > td.opts.MaxIterations {
			return nil, fmt.Errorf("%w: top-down tables exceeded %d rounds", ErrRunaway, td.opts.MaxIterations)
		}
		if err := td.opts.Gov.AddIteration(); err != nil {
			return nil, err
		}
		td.Counters.Iterations++
		changed := false
		// New tables may appear while iterating; the slice grows.
		for i := 0; i < len(td.order); i++ {
			n, err := td.evalTable(td.order[i])
			if err != nil {
				return nil, err
			}
			if n {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	out := store.NewRelation("ans", q.Goal.Arity())
	for _, t := range seed.answers.Lookup(0, nil) {
		if _, ok := term.UnifyAll(q.Goal.Args, []term.Term(t), term.NewSubst()); ok {
			mustInsert(out, t)
		}
	}
	return out.Sorted(), nil
}

// evalTable re-derives one call table from the current state of every
// table it depends on; returns whether new answers appeared.
func (td *TopDown) evalTable(t *tdTable) (bool, error) {
	changed := false
	tag := fmt.Sprintf("%s/%d", t.pred, t.arity)
	// A derived predicate can also carry base facts; match them against
	// the call pattern directly.
	if rel := td.DB.Relation(tag); rel != nil {
		for _, tup := range rel.Lookup(0, nil) {
			td.Counters.Unifications++
			if _, ok := term.UnifyAll(t.pattern, []term.Term(tup), term.NewSubst()); !ok {
				continue
			}
			added, err := t.answers.Insert(tup)
			if err != nil {
				return changed, err
			}
			if added {
				changed = true
				td.Counters.TuplesDerived++
				if err := td.opts.Gov.AddTuples(1); err != nil {
					return changed, err
				}
			}
		}
	}
	for ri, r := range td.Prog.RulesFor(tag) {
		rr := r.Rename(ri + 1)
		s, ok := term.UnifyAll(rr.Head.Args, t.pattern, term.NewSubst())
		if !ok {
			continue
		}
		emit := func(s2 term.Subst) error {
			args := s2.ResolveAll(rr.Head.Args)
			for _, a := range args {
				if !term.Ground(a) {
					return fmt.Errorf("eval: top-down call %s produced non-ground answer — unbound head variable (unsafe call pattern)", t.key)
				}
			}
			added, err := t.answers.Insert(store.Tuple(args))
			if err != nil {
				return err
			}
			if added {
				changed = true
				td.Counters.TuplesDerived++
				if td.Counters.TuplesDerived > td.opts.MaxTuples {
					return fmt.Errorf("%w: more than %d tuples", ErrRunaway, td.opts.MaxTuples)
				}
				if err := td.opts.Gov.AddTuples(1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := td.solveBody(rr.Body, 0, s, nil, emit); err != nil {
			return changed, err
		}
	}
	return changed, nil
}

// solveBody resolves body[i:] under s, deferring builtins/negation
// until evaluable, creating subcall tables for derived literals.
func (td *TopDown) solveBody(body []lang.Literal, i int, s term.Subst, pending []lang.Literal, emit func(term.Subst) error) error {
	// Resolution can loop through huge candidate sets without tabling
	// anything new; enforce the deadline here as well.
	if err := td.opts.Gov.Tick(); err != nil {
		return err
	}
	for pi := 0; pi < len(pending); pi++ {
		l := pending[pi]
		ok, done, err := td.tryDeferred(l, s)
		if err != nil {
			return err
		}
		if !done {
			continue
		}
		if !ok {
			return nil
		}
		rest := append(append([]lang.Literal{}, pending[:pi]...), pending[pi+1:]...)
		return td.solveBody(body, i, s, rest, emit)
	}
	if i >= len(body) {
		if len(pending) > 0 {
			return fmt.Errorf("eval: top-down goals %v never became evaluable (unsafe rule ordering)", pending)
		}
		return emit(s)
	}
	l := body[i]
	if lang.IsBuiltin(l.Pred) || l.Neg {
		ok, done, err := td.tryDeferred(l, s)
		if err != nil {
			return err
		}
		if done {
			if !ok {
				return nil
			}
			return td.solveBody(body, i+1, s, pending, emit)
		}
		return td.solveBody(body, i+1, s, append(pending, l), emit)
	}
	resolved := s.ResolveAll(l.Args)
	var candidates []store.Tuple
	if td.Prog.IsDerived(l.Tag()) {
		sub := td.tableFor(l.Pred, l.Arity(), resolved)
		candidates = sub.answers.Lookup(0, nil)
	} else {
		rel := td.DB.Relation(l.Tag())
		if rel == nil {
			return nil
		}
		var mask uint32
		probe := make(store.Tuple, len(resolved))
		for ai, a := range resolved {
			if term.Ground(a) {
				mask |= 1 << uint(ai)
				probe[ai] = a
			}
		}
		td.Counters.Lookups++
		candidates = rel.Lookup(mask, probe)
	}
	for _, tup := range candidates {
		td.Counters.Unifications++
		s2, ok := term.UnifyAll(resolved, []term.Term(tup), s.Clone())
		if !ok {
			continue
		}
		if err := td.solveBody(body, i+1, s2, pending, emit); err != nil {
			return err
		}
	}
	return nil
}

// tryDeferred mirrors the bottom-up engine's builtin/negation handling.
// Negated derived goals read the corresponding all-free table (safe
// because stratification was checked when the program was analyzed by
// the caller; TopDown itself assumes a stratifiable program).
func (td *TopDown) tryDeferred(l lang.Literal, s term.Subst) (ok, done bool, err error) {
	if l.Neg {
		resolved := s.ResolveAll(l.Args)
		for _, a := range resolved {
			if !term.Ground(a) {
				return false, false, nil
			}
		}
		td.Counters.Lookups++
		if td.Prog.IsDerived(l.Tag()) {
			// A negated derived goal must be answered from a COMPLETED
			// table — checking a half-filled one would let premature
			// negations leak answers. Stratification guarantees the
			// negated predicate sits strictly below the current one, so
			// a nested evaluation terminates; results are cached.
			key, _ := canonicalCall(l.Pred, resolved)
			if res, cached := td.negCache[key]; cached {
				return res, true, nil
			}
			sub := NewTopDown(td.Prog, td.DB, td.opts)
			ts, err := sub.Query(lang.Query{Goal: lang.Literal{Pred: l.Pred, Args: resolved}})
			td.Counters.TuplesDerived += sub.Counters.TuplesDerived
			td.Counters.Unifications += sub.Counters.Unifications
			td.Counters.Lookups += sub.Counters.Lookups
			if err != nil {
				return false, false, err
			}
			res := len(ts) == 0
			td.negCache[key] = res
			return res, true, nil
		}
		rel := td.DB.Relation(l.Tag())
		if rel == nil {
			return true, true, nil
		}
		return !containsTuple(rel, store.Tuple(resolved)), true, nil
	}
	bound := map[string]bool{}
	for _, v := range l.Vars(nil) {
		if term.Ground(s.Resolve(v)) {
			bound[v.Name] = true
		}
	}
	if !lang.BuiltinEC(l, bound) {
		return false, false, nil
	}
	td.Counters.BuiltinCalls++
	ok, err = lang.EvalBuiltin(l, s)
	return ok, true, err
}

// Tables reports how many call tables were created — a measure of how
// goal-directed the evaluation stayed.
func (td *TopDown) Tables() int { return len(td.tables) }
