package eval

// The reference interpreter: a tuple-at-a-time, substitution-map
// evaluation of a rule body, in body order, with the same builtin
// deferral and negation semantics the join programs compile. It is
// the oracle of the kernel equivalence suites — every answer, error
// and work counter of the block executor must equal what it produces —
// and it runs only under test, attached to an engine through
// Options.reference.

import (
	"fmt"

	"ldl/internal/lang"
	"ldl/internal/store"
	"ldl/internal/term"
)

// referenceOpts returns opts with the reference interpreter attached.
func referenceOpts(opts Options) Options {
	opts.reference = referenceApply
	return opts
}

// referenceApply evaluates one rule body left-to-right; every newly
// derived head tuple is inserted into the head relation and reported to
// collect (if non-nil) by its head tag. deltaOcc, when >= 0, makes body literal
// deltaOcc read from deltas[tag] instead of the full relation.
func referenceApply(cx *evalCtx, r lang.Rule, deltaOcc int, deltas map[string]*store.Relation, collect func(tag string) error) error {
	head := cx.e.ensureDerived(r.Head.Tag(), r.Head.Arity())
	emit := func(s term.Subst) error {
		args := s.ResolveAll(r.Head.Args)
		for _, a := range args {
			if !term.Ground(a) {
				return fmt.Errorf("eval: rule %s produced non-ground head %s — unbound head variable (unsafe rule)", r, lang.Literal{Pred: r.Head.Pred, Args: args})
			}
		}
		t := store.Tuple(args)
		added, err := head.Insert(t)
		if err != nil {
			return err
		}
		if !added {
			return nil
		}
		return cx.recordInserted(r.Head.Tag(), collect)
	}
	return cx.joinBody(r.Body, 0, deltaOcc, deltas, term.NewSubst(), nil, emit)
}

// joinBody enumerates the substitutions satisfying body[i:], carrying
// pending builtins/negations that were not yet effectively computable.
func (cx *evalCtx) joinBody(body []lang.Literal, i, deltaOcc int, deltas map[string]*store.Relation, s term.Subst, pending []lang.Literal, emit func(term.Subst) error) error {
	e := cx.e
	if err := e.opts.Gov.Tick(); err != nil {
		return err
	}
	// Flush any pending goal that has become evaluable.
	for pi := 0; pi < len(pending); pi++ {
		l := pending[pi]
		ok, done, err := cx.tryDeferred(l, s)
		if err != nil {
			return err
		}
		if !done {
			continue
		}
		if !ok {
			return nil // goal failed under s: prune this branch
		}
		rest := make([]lang.Literal, 0, len(pending)-1)
		rest = append(rest, pending[:pi]...)
		rest = append(rest, pending[pi+1:]...)
		pending = rest
		pi = -1 // restart: new bindings may enable others
	}
	if i >= len(body) {
		if len(pending) > 0 {
			return fmt.Errorf("eval: goals %v never became evaluable (unsafe rule ordering)", pending)
		}
		return emit(s)
	}
	l := body[i]
	if lang.IsBuiltin(l.Pred) || l.Neg {
		ok, done, err := cx.tryDeferred(l, s)
		if err != nil {
			return err
		}
		if done {
			if !ok {
				return nil
			}
			return cx.joinBody(body, i+1, deltaOcc, deltas, s, pending, emit)
		}
		return cx.joinBody(body, i+1, deltaOcc, deltas, s, append(pending, l), emit)
	}
	// Positive relational literal.
	var rel *store.Relation
	if i == deltaOcc && deltas != nil {
		rel = deltas[l.Tag()]
	} else {
		rel = e.RelationFor(l.Tag())
	}
	if rel == nil || rel.Len() == 0 {
		return nil
	}
	resolved := s.ResolveAll(l.Args)
	var mask uint32
	probe := make(store.Tuple, len(resolved))
	for ai, a := range resolved {
		if term.Ground(a) {
			mask |= 1 << uint(ai)
			probe[ai] = a
		}
	}
	e.Counters.Lookups++
	for _, t := range rel.Lookup(mask, probe) {
		e.Counters.Unifications++
		s2 := s.Clone()
		ok := true
		for ai, a := range resolved {
			if mask&(1<<uint(ai)) != 0 {
				// Lookup already verified the bound columns match.
				continue
			}
			if s2, ok = term.Unify(a, t[ai], s2); !ok {
				break
			}
		}
		if !ok {
			continue
		}
		if err := cx.joinBody(body, i+1, deltaOcc, deltas, s2, pending, emit); err != nil {
			return err
		}
	}
	return nil
}

// tryDeferred attempts a builtin or negated goal. done=false means the
// goal is not yet sufficiently instantiated and must be deferred.
func (cx *evalCtx) tryDeferred(l lang.Literal, s term.Subst) (ok, done bool, err error) {
	e := cx.e
	if l.Neg {
		resolved := s.ResolveAll(l.Args)
		for _, a := range resolved {
			if !term.Ground(a) {
				return false, false, nil
			}
		}
		if lang.IsBuiltin(l.Pred) {
			return false, false, fmt.Errorf("eval: negated builtin %s", l)
		}
		rel := e.RelationFor(l.Tag())
		e.Counters.Lookups++
		if rel == nil {
			return true, true, nil
		}
		return !containsTuple(rel, store.Tuple(resolved)), true, nil
	}
	// Builtin: evaluable when the EC condition holds under s.
	bound := map[string]bool{}
	for _, v := range l.Vars(nil) {
		if term.Ground(s.Resolve(v)) {
			bound[v.Name] = true
		}
	}
	if !lang.BuiltinEC(l, bound) {
		return false, false, nil
	}
	e.Counters.BuiltinCalls++
	ok, err = lang.EvalBuiltin(l, s)
	return ok, true, err
}
