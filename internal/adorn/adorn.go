// Package adorn implements the recursive-query machinery of §7.3: the
// adorned version of a recursive clique induced by a subquery binding
// and a c-permutation (one body permutation — hence one SIP — per
// rule), and the program rewrites that exploit the adornment: the magic
// sets method and the counting method. Both rewrites emit ordinary
// programs that the eval engine runs semi-naively, which is exactly the
// paper's architecture (recursion compiles to fixpoint operators over
// the extended algebra).
package adorn

import (
	"fmt"
	"sort"

	"ldl/internal/lang"
	"ldl/internal/term"
)

// SIPChooser selects the body permutation (the SIP) for a clique rule.
// ruleIdx indexes the clique's rule slice; headAdorn is the adornment
// of the replicated head, letting implementations pick different SIPs
// per replica as the paper allows. A nil return means identity order.
type SIPChooser func(ruleIdx int, headAdorn lang.Adornment) []int

// UniformCPerm is the c-permutation used by the optimizer's enumeration:
// one fixed permutation per rule, shared by all of that rule's adorned
// replicas ("each possible cross product of nc permutations defines a
// c-permutation").
func UniformCPerm(perms [][]int) SIPChooser {
	return func(ruleIdx int, _ lang.Adornment) []int {
		if ruleIdx < len(perms) {
			return perms[ruleIdx]
		}
		return nil
	}
}

// AdornedRule is one replicated, adorned, permuted clique rule.
type AdornedRule struct {
	// Rule has head renamed to 'P.a' and in-clique body literals renamed
	// to their adorned versions; the body is in SIP order.
	Rule lang.Rule
	// Orig is the index of the source rule in the clique's rule slice.
	Orig int
	// HeadAdorn is the adornment of the head.
	HeadAdorn lang.Adornment
	// BodyAdorns gives the adornment of each body literal (SIP order).
	BodyAdorns []lang.Adornment
	// BoundBefore[i] is the set of variable names bound before body
	// literal i executes (includes head bindings); BoundBefore has one
	// extra final entry for "after the whole body".
	BoundBefore []map[string]bool
}

// Adorned is the adorned program of one clique for one subquery.
type Adorned struct {
	// QueryTag/QueryAdorn identify the subquery 'P.a' that seeded the
	// adornment.
	QueryTag   string
	QueryAdorn lang.Adornment
	// Rules are the adorned replicas, in generation order.
	Rules []AdornedRule
	// PredAdorn maps each adorned name (e.g. "sg.bf") to its adornment,
	// and OrigOf maps it back to the original predicate tag.
	PredAdorn map[string]lang.Adornment
	OrigOf    map[string]string
	// Arity of the clique predicates by original tag.
	arity map[string]int
}

// AnswerName is the adorned name of the queried predicate.
func (a *Adorned) AnswerName() string {
	return lang.AdornedName(pred(a.QueryTag), a.QueryAdorn, a.arity[a.QueryTag])
}

func pred(tag string) string {
	for i := 0; i < len(tag); i++ {
		if tag[i] == '/' {
			return tag[:i]
		}
	}
	return tag
}

// Adorn constructs the adorned program for a clique. rules are the
// clique's rules; inClique tests membership of a predicate tag;
// queryTag and queryAdorn describe the subquery; choose supplies the
// SIP of each replicated rule. The construction follows §7.3: starting
// from the subquery's adorned predicate, each rule for a marked adorned
// predicate is replicated with its body permuted, body literals are
// adorned using the bindings accumulated left to right, and newly
// generated adorned clique predicates are processed in turn until no
// unmarked adorned predicates remain.
func Adorn(rules []lang.Rule, inClique func(string) bool, queryTag string, queryAdorn lang.Adornment, choose SIPChooser) (*Adorned, error) {
	a := &Adorned{
		QueryTag:   queryTag,
		QueryAdorn: queryAdorn,
		PredAdorn:  map[string]lang.Adornment{},
		OrigOf:     map[string]string{},
		arity:      map[string]int{},
	}
	if choose == nil {
		choose = func(int, lang.Adornment) []int { return nil }
	}
	byHead := map[string][]int{}
	for i, r := range rules {
		byHead[r.Head.Tag()] = append(byHead[r.Head.Tag()], i)
		a.arity[r.Head.Tag()] = r.Head.Arity()
	}
	if _, ok := byHead[queryTag]; !ok {
		return nil, fmt.Errorf("adorn: no clique rule defines %s", queryTag)
	}
	type work struct {
		tag   string
		adorn lang.Adornment
	}
	marked := map[string]bool{}
	queue := []work{{queryTag, queryAdorn}}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		aname := lang.AdornedName(pred(w.tag), w.adorn, a.arity[w.tag])
		if marked[aname] {
			continue
		}
		marked[aname] = true
		a.PredAdorn[aname] = w.adorn
		a.OrigOf[aname] = w.tag
		for _, ri := range byHead[w.tag] {
			ar, newPreds, err := adornRule(rules[ri], ri, w.adorn, inClique, choose)
			if err != nil {
				return nil, err
			}
			a.Rules = append(a.Rules, ar)
			for _, np := range newPreds {
				queue = append(queue, work{np.tag, np.adorn})
			}
		}
	}
	return a, nil
}

type newPred struct {
	tag   string
	adorn lang.Adornment
}

// adornRule replicates one rule for one head adornment.
func adornRule(r lang.Rule, ri int, headAdorn lang.Adornment, inClique func(string) bool, choose SIPChooser) (AdornedRule, []newPred, error) {
	perm := choose(ri, headAdorn)
	if perm == nil {
		perm = identity(len(r.Body))
	}
	if len(perm) != len(r.Body) {
		return AdornedRule{}, nil, fmt.Errorf("adorn: rule %d: permutation %v does not match body length %d", ri, perm, len(r.Body))
	}
	seen := make([]bool, len(r.Body))
	for _, p := range perm {
		if p < 0 || p >= len(r.Body) || seen[p] {
			return AdornedRule{}, nil, fmt.Errorf("adorn: rule %d: invalid permutation %v", ri, perm)
		}
		seen[p] = true
	}
	bound := map[string]bool{}
	for i, arg := range r.Head.Args {
		if headAdorn.Bound(i) {
			term.VarSet(arg, bound)
		}
	}
	headName := lang.AdornedName(r.Head.Pred, headAdorn, r.Head.Arity())
	ar := AdornedRule{
		Rule:      lang.Rule{Head: lang.Literal{Pred: headName, Args: r.Head.Args}},
		Orig:      ri,
		HeadAdorn: headAdorn,
	}
	var created []newPred
	for _, bi := range perm {
		l := r.Body[bi]
		ar.BoundBefore = append(ar.BoundBefore, cloneSet(bound))
		la := lang.AdornLiteral(l, bound)
		ar.BodyAdorns = append(ar.BodyAdorns, la)
		out := l
		switch {
		case lang.IsBuiltin(l.Pred):
			if lang.BuiltinEC(l, bound) {
				for _, v := range lang.BuiltinBinds(l, bound) {
					bound[v] = true
				}
			}
		case l.Neg:
			// negation binds nothing
		default:
			if inClique(l.Tag()) {
				out = lang.Literal{Pred: lang.AdornedName(l.Pred, la, l.Arity()), Args: l.Args, Neg: l.Neg}
				created = append(created, newPred{l.Tag(), la})
			}
			// A positive relational literal binds all of its variables.
			l.VarSet(bound)
		}
		ar.Rule.Body = append(ar.Rule.Body, out)
	}
	ar.BoundBefore = append(ar.BoundBefore, cloneSet(bound))
	return ar, created, nil
}

func cloneSet(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Permutations enumerates all permutations of {0..n-1} in lexicographic
// order. The optimizer's exhaustive strategy iterates this; n above ~8
// is delegated to the smarter strategies.
func Permutations(n int) [][]int {
	var out [][]int
	p := identity(n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			cp := make([]int, n)
			copy(cp, p)
			out = append(out, cp)
			return
		}
		for i := k; i < n; i++ {
			p[k], p[i] = p[i], p[k]
			rec(k + 1)
			p[k], p[i] = p[i], p[k]
		}
	}
	rec(0)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// String renders the adorned program in the paper's style.
func (a *Adorned) String() string {
	s := ""
	for _, r := range a.Rules {
		s += r.Rule.String() + "\n"
	}
	return s
}
