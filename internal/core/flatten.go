package core

import (
	"fmt"

	"ldl/internal/depgraph"
	"ldl/internal/lang"
	"ldl/internal/term"
)

// Flattening (the FU transformation of §5) applied as rule unfolding:
// §8.3 shows a query — p(X,Y,Z) <- X=3, Z=X+Y, asked together with
// Y=2^X — that is finite yet has no safe goal ordering, unless the
// callee's equalities are combined into one conjunct and reordered
// there. The paper's first optimizer version excluded flattening but
// noted that "an extension of the LDL optimizer to support flattening
// only requires adding another equivalence-preserving transformation";
// this file is that extension: when no safe execution exists, the
// optimizer unfolds non-recursive single-rule predicates into their
// callers and searches again.

// Unfold performs one round of flattening over prog: every positive
// body literal whose predicate is non-recursive, fact-free and defined
// by exactly one rule is replaced by that rule's body (standardized
// apart and unified with the call). It returns the new program — the
// unfolded rules, carrying prog's fact tags but not its facts — and
// whether any literal was unfolded.
func Unfold(prog *lang.Program) (*lang.Program, bool, error) {
	g, err := depgraph.Analyze(prog)
	if err != nil {
		return nil, false, err
	}
	unfoldable := func(tag string) bool {
		return prog.IsDerived(tag) && !prog.HasFacts(tag) && !g.IsRecursive(tag) &&
			len(prog.RulesFor(tag)) == 1
	}
	changed := false
	fresh := 0
	var out []lang.Rule
	for _, r := range prog.Rules {
		newRule := lang.Rule{Head: r.Head}
		s := term.NewSubst()
		dropped := false
		for _, l := range r.Body {
			if l.Neg || lang.IsBuiltin(l.Pred) || !unfoldable(l.Tag()) {
				newRule.Body = append(newRule.Body, l)
				continue
			}
			def := prog.RulesFor(l.Tag())[0]
			fresh++
			def = def.Rename(fresh)
			s2, ok := term.UnifyAll(def.Head.Args, s.ResolveAll(l.Args), s.Clone())
			if !ok {
				// The call can never succeed: the whole rule is dead.
				dropped = true
				changed = true
				break
			}
			s = s2
			newRule.Body = append(newRule.Body, def.Body...)
			changed = true
		}
		if dropped {
			continue
		}
		newRule.Head = newRule.Head.Resolve(s)
		for i := range newRule.Body {
			newRule.Body[i] = newRule.Body[i].Resolve(s)
		}
		out = append(out, newRule)
	}
	if !changed {
		return prog, false, nil
	}
	np, err := prog.WithRules(out)
	if err != nil {
		return nil, false, fmt.Errorf("core: unfolding produced an invalid program: %w", err)
	}
	return np, true, nil
}

// OptimizeFlattened runs Optimize and, if the query form has no safe
// execution, repeatedly flattens the program (up to maxRounds unfold
// rounds) and re-optimizes, returning the first safe result. The
// returned Result compiles against the flattened program. When every
// round stays unsafe the last (unsafe) result is returned so the caller
// still sees the diagnosis.
func (o *Optimizer) OptimizeFlattened(q lang.Query, maxRounds int) (*Result, error) {
	res, err := o.Optimize(q)
	if err != nil || res.Safe {
		return res, err
	}
	if maxRounds <= 0 {
		maxRounds = 8
	}
	prog := o.Prog
	for round := 0; round < maxRounds; round++ {
		np, changed, err := Unfold(prog)
		if err != nil {
			return nil, err
		}
		if !changed {
			break
		}
		prog = np
		g, err := depgraph.Analyze(prog)
		if err != nil {
			return nil, err
		}
		o2 := New(prog, g, o.Model.Cat, o.Strategy)
		// The rescue rounds share the original call's governor so the
		// whole flatten-and-retry loop stays under one budget.
		o2.Gov = o.Gov
		r2, err := o2.Optimize(q)
		if err != nil {
			return nil, err
		}
		if r2.Safe {
			return r2, nil
		}
		res = r2
	}
	return res, nil
}
