// Package lang defines the rule language of LDL: literals, rules,
// programs and the evaluable (builtin) predicates, together with
// adornments — the bound/free argument patterns that drive both the
// optimizer's sideways-information-passing choices and the safety
// analysis.
package lang

import (
	"fmt"
	"strconv"
	"strings"

	"ldl/internal/term"
)

// Literal is an occurrence of a predicate applied to argument terms. A
// negated literal (stratified negation extension) has Neg set.
type Literal struct {
	Pred string
	Args []term.Term
	Neg  bool
}

// Lit is a convenience constructor.
func Lit(pred string, args ...term.Term) Literal {
	return Literal{Pred: pred, Args: args}
}

// NotLit builds a negated literal.
func NotLit(pred string, args ...term.Term) Literal {
	return Literal{Pred: pred, Args: args, Neg: true}
}

// Arity is the number of arguments.
func (l Literal) Arity() int { return len(l.Args) }

// Tag identifies the predicate as "name/arity".
func (l Literal) Tag() string { return l.Pred + "/" + strconv.Itoa(len(l.Args)) }

func (l Literal) String() string {
	var b strings.Builder
	if l.Neg {
		b.WriteString("not ")
	}
	if IsBuiltin(l.Pred) && len(l.Args) == 2 {
		b.WriteString(l.Args[0].String())
		b.WriteByte(' ')
		b.WriteString(l.Pred)
		b.WriteByte(' ')
		b.WriteString(l.Args[1].String())
		return b.String()
	}
	b.WriteString(l.Pred)
	if len(l.Args) > 0 {
		b.WriteByte('(')
		for i, a := range l.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// Vars appends the variables of the literal to dst in first-occurrence
// order without duplicates.
func (l Literal) Vars(dst []term.Var) []term.Var {
	for _, a := range l.Args {
		dst = term.Vars(a, dst)
	}
	return dst
}

// VarSet adds the literal's variable names to set.
func (l Literal) VarSet(set map[string]bool) {
	for _, a := range l.Args {
		term.VarSet(a, set)
	}
}

// Rename standardizes the literal apart using suffix n.
func (l Literal) Rename(n int) Literal {
	args := make([]term.Term, len(l.Args))
	for i, a := range l.Args {
		args[i] = term.Rename(a, n)
	}
	return Literal{Pred: l.Pred, Args: args, Neg: l.Neg}
}

// Resolve applies a substitution to every argument.
func (l Literal) Resolve(s term.Subst) Literal {
	return Literal{Pred: l.Pred, Args: s.ResolveAll(l.Args), Neg: l.Neg}
}

// Adornment is a bound/free pattern over a predicate's arguments,
// encoded as a bitmask: bit i set means argument i is bound. Arities up
// to 31 are supported, far beyond the paper's "k usually less than
// five".
type Adornment uint32

// MaxAdornArity is the largest arity an Adornment can describe.
const MaxAdornArity = 31

// Bound reports whether argument i is bound.
func (a Adornment) Bound(i int) bool { return a&(1<<uint(i)) != 0 }

// WithBound returns a with argument i marked bound.
func (a Adornment) WithBound(i int) Adornment { return a | 1<<uint(i) }

// AllFree is the adornment with every argument free.
const AllFree Adornment = 0

// AllBound returns the adornment with the first n arguments bound.
func AllBound(n int) Adornment { return Adornment(1<<uint(n) - 1) }

// Pattern renders the adornment for an n-argument predicate, e.g. "bf".
func (a Adornment) Pattern(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if a.Bound(i) {
			b.WriteByte('b')
		} else {
			b.WriteByte('f')
		}
	}
	return b.String()
}

// ParseAdornment parses a pattern such as "bfb".
func ParseAdornment(p string) (Adornment, error) {
	if len(p) > MaxAdornArity {
		return 0, fmt.Errorf("lang: adornment %q longer than %d", p, MaxAdornArity)
	}
	var a Adornment
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case 'b':
			a = a.WithBound(i)
		case 'f':
		default:
			return 0, fmt.Errorf("lang: adornment %q: bad character %q", p, p[i])
		}
	}
	return a, nil
}

// AdornLiteral computes the adornment of l given the set of variable
// names already bound (by the head's bound arguments or by goals earlier
// in the chosen permutation). An argument is bound when it contains no
// variable outside bound — in particular, constant arguments are bound.
func AdornLiteral(l Literal, bound map[string]bool) Adornment {
	var a Adornment
	for i, arg := range l.Args {
		if argBound(arg, bound) {
			a = a.WithBound(i)
		}
	}
	return a
}

func argBound(t term.Term, bound map[string]bool) bool {
	switch x := t.(type) {
	case term.Var:
		return bound[x.Name]
	case term.Comp:
		for _, a := range x.Args {
			if !argBound(a, bound) {
				return false
			}
		}
	}
	return true
}

// AdornedName is the replicated predicate name for an adorned occurrence
// of pred, e.g. "sg.bf" for adornment bf — the paper's 'P.a' renaming.
func AdornedName(pred string, a Adornment, arity int) string {
	return pred + "." + a.Pattern(arity)
}
