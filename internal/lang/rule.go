package lang

import (
	"fmt"
	"strings"

	"ldl/internal/term"
)

// Rule is a Horn clause: Head <- Body[0], ..., Body[n-1]. A fact is a
// rule with an empty body and a ground head.
type Rule struct {
	Head Literal
	Body []Literal
}

func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	var b strings.Builder
	b.WriteString(r.Head.String())
	b.WriteString(" <- ")
	for i, l := range r.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(l.String())
	}
	b.WriteByte('.')
	return b.String()
}

// IsFact reports whether the rule has an empty body.
func (r Rule) IsFact() bool { return len(r.Body) == 0 }

// Rename standardizes the whole rule apart using suffix n.
func (r Rule) Rename(n int) Rule {
	body := make([]Literal, len(r.Body))
	for i, l := range r.Body {
		body[i] = l.Rename(n)
	}
	return Rule{Head: r.Head.Rename(n), Body: body}
}

// Vars returns the variables of the rule in first-occurrence order
// (head first).
func (r Rule) Vars() []term.Var {
	vs := r.Head.Vars(nil)
	for _, l := range r.Body {
		vs = l.Vars(vs)
	}
	return vs
}

// Validate reports structural problems: negated heads, builtin heads,
// arity overflow for the adornment encoding.
func (r Rule) Validate() error {
	if r.Head.Neg {
		return fmt.Errorf("lang: rule %s: negated head", r)
	}
	if IsBuiltin(r.Head.Pred) {
		return fmt.Errorf("lang: rule %s: builtin predicate %q in head", r, r.Head.Pred)
	}
	if r.Head.Arity() > MaxAdornArity {
		return fmt.Errorf("lang: rule %s: arity %d exceeds %d", r, r.Head.Arity(), MaxAdornArity)
	}
	for _, l := range r.Body {
		if l.Arity() > MaxAdornArity {
			return fmt.Errorf("lang: rule %s: literal %s arity exceeds %d", r, l, MaxAdornArity)
		}
		if l.Neg && IsBuiltin(l.Pred) {
			return fmt.Errorf("lang: rule %s: negated builtin %s", r, l)
		}
	}
	if r.IsFact() {
		for _, a := range r.Head.Args {
			if !term.Ground(a) {
				return fmt.Errorf("lang: fact %s is not ground", r)
			}
		}
	}
	return nil
}

// Program is a knowledge base: a set of rules (the rule base) plus the
// facts for base predicates, which the storage layer materializes. Facts
// given as body-less rules with ground heads are separated out by
// NewProgram, which also records their predicate tags: once the facts
// are stored, a holder may drop Facts and the program still knows which
// predicates have facts.
type Program struct {
	Rules []Rule
	Facts []Rule

	byHead   map[string][]int // head tag -> indexes into Rules
	factTags []string         // tags with facts, by first appearance
	hasFacts map[string]bool
}

// NewProgram splits rules from facts, validates each clause and builds
// the head index.
func NewProgram(clauses []Rule) (*Program, error) {
	p := &Program{byHead: map[string][]int{}, hasFacts: map[string]bool{}}
	for _, c := range clauses {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if c.IsFact() {
			p.Facts = append(p.Facts, c)
			p.noteFactTag(c.Head.Tag())
			continue
		}
		p.byHead[c.Head.Tag()] = append(p.byHead[c.Head.Tag()], len(p.Rules))
		p.Rules = append(p.Rules, c)
	}
	return p, nil
}

// RulesFor returns the rules whose head predicate matches tag.
func (p *Program) RulesFor(tag string) []Rule {
	idx := p.byHead[tag]
	out := make([]Rule, len(idx))
	for i, j := range idx {
		out[i] = p.Rules[j]
	}
	return out
}

// WithRules returns a program of the given rules that carries p's fact
// tags but none of its facts: the facts live in the database, and the
// new program only needs to know which predicates have them.
func (p *Program) WithRules(rules []Rule) (*Program, error) {
	np, err := NewProgram(rules)
	if err != nil {
		return nil, err
	}
	for _, tag := range p.factTags {
		np.noteFactTag(tag)
	}
	return np, nil
}

func (p *Program) noteFactTag(tag string) {
	if !p.hasFacts[tag] {
		p.hasFacts[tag] = true
		p.factTags = append(p.factTags, tag)
	}
}

// IsDerived reports whether tag appears as the head of any rule.
func (p *Program) IsDerived(tag string) bool { return len(p.byHead[tag]) > 0 }

// HasFacts reports whether the program was built with facts for tag.
func (p *Program) HasFacts(tag string) bool { return p.hasFacts[tag] }

// PredTags returns every predicate tag appearing anywhere in the
// program (heads, bodies, facts), deterministically ordered by first
// appearance.
func (p *Program) PredTags() []string {
	var tags []string
	seen := map[string]bool{}
	add := func(tag string) {
		if !seen[tag] {
			seen[tag] = true
			tags = append(tags, tag)
		}
	}
	for _, r := range p.Rules {
		add(r.Head.Tag())
		for _, l := range r.Body {
			if !IsBuiltin(l.Pred) {
				add(l.Tag())
			}
		}
	}
	for _, tag := range p.factTags {
		add(tag)
	}
	return tags
}

func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for _, f := range p.Facts {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Query is a query form: a goal literal whose constant (or explicitly
// adorned) arguments are bound. Per the paper, optimization is
// query-specific: P(c, y)? is compiled separately from P(x, y)?.
type Query struct {
	Goal Literal
}

// Adornment computes the query form's binding pattern: an argument is
// bound iff it is ground in the goal.
func (q Query) Adornment() Adornment {
	var a Adornment
	for i, arg := range q.Goal.Args {
		if term.Ground(arg) {
			a = a.WithBound(i)
		}
	}
	return a
}

func (q Query) String() string { return q.Goal.String() + "?" }
