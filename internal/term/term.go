// Package term implements the term algebra of LDL: constants, variables
// and complex terms (functor applications, lists), together with
// substitutions and unification. It is the foundation every other layer
// (language, storage, evaluation, optimization) builds on.
//
// Terms form a sum type. Go lacks native sum types, so the package uses
// a sealed interface discriminated by Kind; rewriting code switches on
// Kind (or on the concrete type) and the sealed marker keeps the set of
// cases closed.
package term

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the variants of the Term sum type.
type Kind uint8

// The closed set of term variants.
const (
	KindVar  Kind = iota // logical variable
	KindAtom             // symbolic constant, e.g. john
	KindInt              // integer constant
	KindStr              // string constant
	KindComp             // compound term f(t1,...,tn); lists are './2' chains
)

func (k Kind) String() string {
	switch k {
	case KindVar:
		return "var"
	case KindAtom:
		return "atom"
	case KindInt:
		return "int"
	case KindStr:
		return "str"
	case KindComp:
		return "compound"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Term is the sealed sum type of LDL terms.
type Term interface {
	// Kind reports the variant of the term.
	Kind() Kind
	// String renders the term in LDL surface syntax.
	String() string
	// sealed prevents implementations outside this package, keeping the
	// sum type closed so Kind switches stay exhaustive.
	sealed()
}

// Var is a logical variable. Two variables are the same variable iff
// their names are equal; renaming (standardizing apart) appends a
// numeric suffix.
type Var struct {
	Name string
}

// Atom is a symbolic constant.
type Atom string

// Int is an integer constant.
type Int int64

// Str is a string constant.
type Str string

// Comp is a compound term: a functor applied to one or more arguments.
// The empty list is the Atom "[]"; non-empty lists are Comp{".", [Head,
// Tail]}.
type Comp struct {
	Functor string
	Args    []Term
}

func (Var) Kind() Kind  { return KindVar }
func (Atom) Kind() Kind { return KindAtom }
func (Int) Kind() Kind  { return KindInt }
func (Str) Kind() Kind  { return KindStr }
func (Comp) Kind() Kind { return KindComp }

func (Var) sealed()  {}
func (Atom) sealed() {}
func (Int) sealed()  {}
func (Str) sealed()  {}
func (Comp) sealed() {}

func (v Var) String() string  { return v.Name }
func (a Atom) String() string { return string(a) }
func (i Int) String() string  { return strconv.FormatInt(int64(i), 10) }
func (s Str) String() string  { return strconv.Quote(string(s)) }

func (c Comp) String() string {
	if c.Functor == "." && len(c.Args) == 2 {
		return listString(c)
	}
	var b strings.Builder
	b.WriteString(c.Functor)
	b.WriteByte('(')
	for i, a := range c.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}

// EmptyList is the atom denoting the empty list.
const EmptyList = Atom("[]")

// Cons builds the list cell [head|tail].
func Cons(head, tail Term) Comp { return Comp{Functor: ".", Args: []Term{head, tail}} }

// List builds a proper list of the given elements.
func List(elems ...Term) Term {
	t := Term(EmptyList)
	for i := len(elems) - 1; i >= 0; i-- {
		t = Cons(elems[i], t)
	}
	return t
}

// ListSlice decomposes a proper list into its elements. ok is false if t
// is not a proper list (ends in a variable or non-[] atom).
func ListSlice(t Term) (elems []Term, ok bool) {
	for {
		switch x := t.(type) {
		case Atom:
			if x == EmptyList {
				return elems, true
			}
			return nil, false
		case Comp:
			if x.Functor == "." && len(x.Args) == 2 {
				elems = append(elems, x.Args[0])
				t = x.Args[1]
				continue
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

func listString(c Comp) string {
	var b strings.Builder
	b.WriteByte('[')
	first := true
	var t Term = c
loop:
	for {
		switch x := t.(type) {
		case Comp:
			if x.Functor == "." && len(x.Args) == 2 {
				if !first {
					b.WriteString(", ")
				}
				first = false
				b.WriteString(x.Args[0].String())
				t = x.Args[1]
				continue
			}
			break loop
		case Atom:
			if x == EmptyList {
				b.WriteByte(']')
				return b.String()
			}
			break loop
		default:
			break loop
		}
	}
	b.WriteByte('|')
	b.WriteString(t.String())
	b.WriteByte(']')
	return b.String()
}

// Equal reports structural equality of two terms.
func Equal(a, b Term) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch x := a.(type) {
	case Var:
		return x.Name == b.(Var).Name
	case Atom:
		return x == b.(Atom)
	case Int:
		return x == b.(Int)
	case Str:
		return x == b.(Str)
	case Comp:
		y := b.(Comp)
		if x.Functor != y.Functor || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Compare imposes a total order on terms: Var < Atom < Int < Str < Comp,
// then by value (compounds by functor, arity, then arguments
// left-to-right). It is used for canonical sorting and deduplication.
func Compare(a, b Term) int {
	if ka, kb := a.Kind(), b.Kind(); ka != kb {
		return int(ka) - int(kb)
	}
	switch x := a.(type) {
	case Var:
		return strings.Compare(x.Name, b.(Var).Name)
	case Atom:
		return strings.Compare(string(x), string(b.(Atom)))
	case Int:
		y := b.(Int)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case Str:
		return strings.Compare(string(x), string(b.(Str)))
	case Comp:
		y := b.(Comp)
		if c := strings.Compare(x.Functor, y.Functor); c != 0 {
			return c
		}
		if c := len(x.Args) - len(y.Args); c != 0 {
			return c
		}
		for i := range x.Args {
			if c := Compare(x.Args[i], y.Args[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	return 0
}

// Ground reports whether t contains no variables.
func Ground(t Term) bool {
	switch x := t.(type) {
	case Var:
		return false
	case Comp:
		for _, a := range x.Args {
			if !Ground(a) {
				return false
			}
		}
	}
	return true
}

// Vars appends the variables of t to dst in first-occurrence order,
// without duplicates (relative to dst's existing contents).
func Vars(t Term, dst []Var) []Var {
	switch x := t.(type) {
	case Var:
		for _, v := range dst {
			if v.Name == x.Name {
				return dst
			}
		}
		return append(dst, x)
	case Comp:
		for _, a := range x.Args {
			dst = Vars(a, dst)
		}
	}
	return dst
}

// VarSet collects the variable names of t into set.
func VarSet(t Term, set map[string]bool) {
	switch x := t.(type) {
	case Var:
		set[string(x.Name)] = true
	case Comp:
		for _, a := range x.Args {
			VarSet(a, set)
		}
	}
}

// Size is the number of constant and functor symbols in t; variables
// count zero. It is the norm used by the safety analyzer's well-founded
// orders ("the size of the list is monotonically decreasing").
func Size(t Term) int {
	switch x := t.(type) {
	case Var:
		return 0
	case Comp:
		n := 1
		for _, a := range x.Args {
			n += Size(a)
		}
		return n
	default:
		return 1
	}
}

// ProperSubterm reports whether sub occurs strictly inside t.
func ProperSubterm(sub, t Term) bool {
	c, ok := t.(Comp)
	if !ok {
		return false
	}
	for _, a := range c.Args {
		if Equal(sub, a) || ProperSubterm(sub, a) {
			return true
		}
	}
	return false
}

// Key renders a canonical encoding of a ground term, suitable as a hash
// map key. Two ground terms have equal keys iff they are Equal.
// Calling Key on a non-ground term panics: only ground tuples are
// stored, and a silent collision between variables would corrupt sets.
func Key(t Term) string {
	var b strings.Builder
	appendKey(&b, t)
	return b.String()
}

// AppendKey writes the canonical encoding of t to b (ground terms only).
func AppendKey(b *strings.Builder, t Term) { appendKey(b, t) }

func appendKey(b *strings.Builder, t Term) {
	switch x := t.(type) {
	case Var:
		panic("term.Key: non-ground term " + x.Name)
	case Atom:
		b.WriteByte('a')
		b.WriteString(strconv.Itoa(len(x)))
		b.WriteByte(':')
		b.WriteString(string(x))
	case Int:
		b.WriteByte('i')
		b.WriteString(strconv.FormatInt(int64(x), 10))
		b.WriteByte(';')
	case Str:
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(len(x)))
		b.WriteByte(':')
		b.WriteString(string(x))
	case Comp:
		b.WriteByte('c')
		b.WriteString(strconv.Itoa(len(x.Functor)))
		b.WriteByte(':')
		b.WriteString(x.Functor)
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(len(x.Args)))
		b.WriteByte('(')
		for _, a := range x.Args {
			appendKey(b, a)
		}
		b.WriteByte(')')
	}
}

// Rename returns t with every variable name suffixed by "#<n>", used to
// standardize rules apart before unification.
func Rename(t Term, n int) Term {
	switch x := t.(type) {
	case Var:
		return Var{Name: x.Name + "#" + strconv.Itoa(n)}
	case Comp:
		args := make([]Term, len(x.Args))
		for i, a := range x.Args {
			args[i] = Rename(a, n)
		}
		return Comp{Functor: x.Functor, Args: args}
	default:
		return t
	}
}
