package plan

import (
	"fmt"
	"sort"
	"strings"

	"ldl/internal/lang"
	"ldl/internal/store"
	"ldl/internal/term"
)

// Rows is the result of directly evaluating a (non-recursive)
// processing subtree: a set of variable bindings.
type Rows struct {
	Vars []string
	Data []term.Subst
}

// Canonical renders the rows deterministically for comparison: each row
// projects onto Vars, sorted and deduplicated.
func (r *Rows) Canonical() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range r.Data {
		parts := make([]string, len(r.Vars))
		for i, v := range r.Vars {
			parts[i] = s.Resolve(term.Var{Name: v}).String()
		}
		row := strings.Join(parts, ",")
		if !seen[row] {
			seen[row] = true
			out = append(out, row)
		}
	}
	sort.Strings(out)
	return out
}

// Eval directly evaluates a non-recursive processing tree against the
// database. It exists to validate the equivalence-preserving
// transformations independently of the program-rewrite execution path;
// recursive (Fix) nodes are out of scope here and return an error.
// Pipelined and materialized nodes produce identical rows (the modes
// differ in cost, not in semantics), so Eval ignores Mode.
func Eval(n *Node, db *store.Database) (*Rows, error) {
	return evalNode(n, db, []term.Subst{term.NewSubst()})
}

// evalNode evaluates n once per incoming binding, concatenating results.
func evalNode(n *Node, db *store.Database, in []term.Subst) (*Rows, error) {
	var out []term.Subst
	switch n.Kind {
	case KindScan:
		rel := db.Relation(n.Lit.Tag())
		if rel == nil {
			break
		}
		// The probe tuple and match-index buffer are hoisted out of the
		// per-binding loop: one allocation each per scan node, reused
		// across all incoming bindings instead of Scan's per-call buffer.
		probe := make(store.Tuple, len(n.Lit.Args))
		var idxBuf []int32
		consume := func(s term.Subst, resolved []term.Term, t store.Tuple) error {
			s2, ok := term.UnifyAll(resolved, []term.Term(t), s.Clone())
			if !ok {
				return nil
			}
			keep, err := applyFilters(n.Filters, s2)
			if err != nil {
				return err
			}
			if keep {
				out = append(out, s2)
			}
			return nil
		}
		for _, s := range in {
			// Probe pushdown: ground argument positions become an
			// indexed probe instead of a full scan, so a selective scan
			// node touches only its matching tuples. AppendMatches
			// collects (and verifies) the match indexes before any row
			// is consumed, so the iteration is stable regardless of
			// what the caller does with the rows; the buffer is free to
			// reuse on the next binding because each result is fully
			// consumed before the next call.
			resolved := s.ResolveAll(n.Lit.Args)
			var mask uint32
			for ai, a := range resolved {
				if term.Ground(a) {
					mask |= 1 << uint(ai)
					probe[ai] = a
				}
			}
			if mask == 0 {
				n := rel.Len()
				for ti := 0; ti < n; ti++ {
					if err := consume(s, resolved, rel.TupleAt(ti)); err != nil {
						return nil, err
					}
				}
				continue
			}
			idxBuf = rel.AppendMatches(mask, probe, idxBuf[:0])
			for _, j := range idxBuf {
				if err := consume(s, resolved, rel.TupleAt(int(j))); err != nil {
					return nil, err
				}
			}
		}
	case KindBuiltin:
		for _, s := range in {
			s2 := s.Clone()
			ok, err := lang.EvalBuiltin(n.Lit, s2)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, s2)
			}
		}
	case KindJoin:
		// Row-at-a-time with builtin deferral: a builtin child whose
		// variables are not yet bound waits until a later child binds
		// them (mirroring the engine's runtime reordering safety net).
		var joinRows func(idx int, s term.Subst, pending []*Node) error
		joinRows = func(idx int, s term.Subst, pending []*Node) error {
			for pi := 0; pi < len(pending); pi++ {
				if !builtinReady(pending[pi].Lit, s) {
					continue
				}
				s2 := s.Clone()
				ok, err := lang.EvalBuiltin(pending[pi].Lit, s2)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				rest := append(append([]*Node{}, pending[:pi]...), pending[pi+1:]...)
				return joinRows(idx, s2, rest)
			}
			if idx >= len(n.Kids) {
				if len(pending) > 0 {
					return fmt.Errorf("plan: builtin %s never became evaluable", pending[0].Lit)
				}
				keep, err := applyFilters(n.Filters, s)
				if err != nil {
					return err
				}
				if keep {
					out = append(out, s)
				}
				return nil
			}
			k := n.Kids[idx]
			if k.Kind == KindBuiltin && !builtinReady(k.Lit, s) {
				return joinRows(idx+1, s, append(pending, k))
			}
			r, err := evalNode(k, db, []term.Subst{s})
			if err != nil {
				return err
			}
			for _, s2 := range r.Data {
				if err := joinRows(idx+1, s2, pending); err != nil {
					return err
				}
			}
			return nil
		}
		for _, s := range in {
			if err := joinRows(0, s, nil); err != nil {
				return nil, err
			}
		}
	case KindUnion:
		for _, k := range n.Kids {
			r, err := evalNode(k, db, in)
			if err != nil {
				return nil, err
			}
			out = append(out, r.Data...)
		}
		kept := out[:0]
		for _, s := range out {
			keep, err := applyFilters(n.Filters, s)
			if err != nil {
				return nil, err
			}
			if keep {
				kept = append(kept, s)
			}
		}
		out = kept
	case KindFix:
		return nil, fmt.Errorf("plan: direct evaluation of CC nodes is not supported; compile via ToProgram")
	default:
		return nil, fmt.Errorf("plan: cannot evaluate %s node", n.Kind)
	}
	vars := n.Proj
	if vars == nil {
		set := map[string]bool{}
		n.varSet(set)
		for v := range set {
			vars = append(vars, v)
		}
		sort.Strings(vars)
	}
	return &Rows{Vars: vars, Data: out}, nil
}

// builtinReady reports whether the builtin literal is effectively
// computable under s.
func builtinReady(l lang.Literal, s term.Subst) bool {
	bound := map[string]bool{}
	for _, v := range l.Vars(nil) {
		if term.Ground(s.Resolve(v)) {
			bound[v.Name] = true
		}
	}
	return lang.BuiltinEC(l, bound)
}

func applyFilters(fs []lang.Literal, s term.Subst) (bool, error) {
	for _, f := range fs {
		ok, err := lang.EvalBuiltin(f, s)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// RelationOf materializes the rows into a relation over the given
// variable order (defaults to rows.Vars).
func (r *Rows) RelationOf(vars []string) *store.Relation {
	if vars == nil {
		vars = r.Vars
	}
	rel := store.NewRelation("result", len(vars))
	for _, s := range r.Data {
		t := make(store.Tuple, len(vars))
		ok := true
		for i, v := range vars {
			tv := s.Resolve(term.Var{Name: v})
			if !term.Ground(tv) {
				ok = false
				break
			}
			t[i] = tv
		}
		if ok {
			rel.MustInsert(t)
		}
	}
	return rel
}
