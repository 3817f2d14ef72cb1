package ldl

// Prepared plans: the optimize-once, execute-many API the serving layer
// builds its plan cache on.
//
// The paper's optimizer is query-form-specific but value-independent:
// the chosen plan depends on the goal's binding pattern (which argument
// positions are bound) and the database statistics, never on *which*
// constants occupy the bound positions, at top level or nested inside
// a compound argument — the cost model reads only cardinalities and
// distinct counts. sg(john, Y) and sg(mary, Y) therefore compile to
// structurally identical programs that differ only in the constant
// embedded in the magic/counting seed facts and in the
// answer-collection rule. Prepare exploits this: it optimizes the goal
// with opaque placeholder constants, rewrites the compiled program so
// no placeholder remains in any rule (each becomes a variable bound by
// a single-tuple parameter relation), and precompiles the join kernels
// and the dependency graph. Executing the prepared form then costs only
// inserting the actual constants — as parameter-relation tuples and
// substituted seed facts — into a copy-on-write fork of the current
// epoch: zero optimizer search, zero rewriting, zero kernel
// compilation per call. Optimize runs the same prepare and run steps in
// literal mode: the constants stay inline and the result is pinned to
// the epoch it was optimized on.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"ldl/internal/core"
	"ldl/internal/depgraph"
	"ldl/internal/eval"
	"ldl/internal/lang"
	"ldl/internal/parser"
	"ldl/internal/stats"
	"ldl/internal/term"
)

// paramMark prefixes placeholder atoms. The NUL byte cannot appear in
// any atom the lexer produces, so placeholders can never collide with
// program or query constants.
const paramMark = "\x00p"

func paramAtom(i int) term.Atom { return term.Atom(paramMark + strconv.Itoa(i)) }

// paramRel names the single-tuple parameter relation feeding parameter
// i into the rewritten rules. The $ keeps it in the same reserved
// namespace as the magic/counting auxiliary predicates.
func paramRel(i int) string { return "ldl$p" + strconv.Itoa(i) }

func paramVar(i int) term.Var { return term.Var{Name: "\x00P" + strconv.Itoa(i)} }

// paramIndex recognizes placeholder atoms.
func paramIndex(a term.Atom) (int, bool) {
	s := string(a)
	if !strings.HasPrefix(s, paramMark) {
		return 0, false
	}
	n, err := strconv.Atoi(s[len(paramMark):])
	if err != nil {
		return 0, false
	}
	return n, true
}

// QueryForm canonicalizes a goal into its adorned-form key: predicate,
// arity, constant positions (c0, c1, ... in order of appearance) and
// variable repetition structure (v0, v1, ... numbered by first
// occurrence, so sg(X, X) and sg(X, Y) are distinct forms). A compound
// argument keeps its functor and arity in the key and canonicalizes its
// own arguments the same way, so p(f(a), Y) and p(f(b), Z) share the
// key p/2(f/1(c0),v0). Two goals with equal keys are answered by the
// same prepared plan with different parameter bindings.
func QueryForm(goal string) (_ string, err error) {
	defer guard(&err)
	lit, err := parser.ParseLiteral(goal)
	if err != nil {
		return "", err
	}
	key, _, _ := canonicalForm(lit)
	return key, nil
}

// canonicalForm computes the cache key, the shape literal (every
// constant, top-level or nested in a compound, replaced by a
// placeholder atom) and the constants in placeholder order.
func canonicalForm(lit lang.Literal) (string, lang.Literal, []term.Term) {
	var b strings.Builder
	var consts []term.Term
	vars := map[string]int{}
	b.WriteString(lit.Pred)
	shape := lang.Literal{Pred: lit.Pred, Args: canonicalArgs(&b, vars, &consts, lit.Args)}
	return b.String(), shape, consts
}

// canonicalArgs writes "/arity(k0,k1,...)" to b, numbering variables
// by first occurrence in vars and appending constants to consts, and
// returns the shape arguments.
func canonicalArgs(b *strings.Builder, vars map[string]int, consts *[]term.Term, args []term.Term) []term.Term {
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(len(args)))
	b.WriteByte('(')
	shape := make([]term.Term, len(args))
	for i, t := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		switch x := t.(type) {
		case term.Var:
			n, ok := vars[x.Name]
			if !ok {
				n = len(vars)
				vars[x.Name] = n
			}
			b.WriteByte('v')
			b.WriteString(strconv.Itoa(n))
			shape[i] = t
		case term.Comp:
			b.WriteString(x.Functor)
			shape[i] = term.Comp{Functor: x.Functor, Args: canonicalArgs(b, vars, consts, x.Args)}
		default: // Atom, Int, Str
			b.WriteByte('c')
			b.WriteString(strconv.Itoa(len(*consts)))
			shape[i] = paramAtom(len(*consts))
			*consts = append(*consts, t)
		}
	}
	b.WriteByte(')')
	return shape
}

// Prepared is a query form optimized and compiled once, executable many
// times with different constants. It is immutable after Prepare and
// safe for concurrent Execute calls.
type Prepared struct {
	sys     *System
	key     string
	shape   lang.Literal
	epochID uint64
	result  *core.Result
	opts    options

	// Statistics fingerprint for epoch-delta revalidation. A plan is
	// only a function of the catalog entries its program reads, so an
	// epoch advance that left those entries unchanged (facts landed in
	// unrelated relations) does not stale the plan. baseTags is the
	// sorted list of base relations the compiled program scans; statsFP
	// hashes their catalog entries as of Prepare; validEpoch caches the
	// newest epoch the fingerprint was verified against, so repeated
	// lookups between loads pay one atomic read, not a rehash.
	baseTags   []string
	statsFP    uint64
	validEpoch atomic.Uint64

	// Compiled artifacts, nil when the form is unsafe.
	prog      *lang.Program
	kernels   *eval.ProgramKernels
	graph     *depgraph.Graph
	seeds     []lang.Rule // seed-fact templates, placeholders included
	methodFor map[string]eval.Method
	ansPred   string
}

// Prepare optimizes and compiles a query form for repeated execution.
// The goal's constants act as placeholders: any goal with the same
// canonical form (same QueryForm key) can be executed against the
// result. Options carry over to every Execute, where a call may
// replace them.
func (s *System) Prepare(goal string, opts ...Option) (_ *Prepared, err error) {
	defer guard(&err)
	o := options{}.with(opts)
	lit, err := parser.ParseLiteral(goal)
	if err != nil {
		return nil, err
	}
	key, shape, consts := canonicalForm(lit)
	p, _, err := s.prepare(s.snapshot(), key, shape, len(consts), o)
	return p, err
}

// prepare optimizes shape against epoch ep and compiles the result
// once: seed facts are split off as bind-time templates, the rules are
// made placeholder-free, and their kernels and dependency graph are
// built. nparams counts the placeholders in shape; it is 0 in Optimize's
// literal mode, where the goal's constants stay inline and the rules
// pass through unchanged. The optimizer is returned for its memo
// diagnostics.
func (s *System) prepare(ep *epochState, key string, shape lang.Literal, nparams int, o options) (*Prepared, *core.Optimizer, error) {
	strat, err := o.strategy.impl(o.seed)
	if err != nil {
		return nil, nil, err
	}
	if s.graphErr != nil {
		return nil, nil, s.graphErr
	}
	opt := core.New(s.prog, s.graph, ep.cat, strat)
	opt.Gov = o.governor()
	var res *core.Result
	if o.flatten {
		res, err = opt.OptimizeFlattened(lang.Query{Goal: shape}, 8)
	} else {
		res, err = opt.Optimize(lang.Query{Goal: shape})
	}
	if err != nil {
		return nil, nil, err
	}
	p := &Prepared{sys: s, key: key, shape: shape, epochID: ep.id, result: res, opts: o}
	if !res.Safe {
		// The unsafe verdict is static (binding-pattern analysis), not
		// statistical: the empty-fingerprint entry stays fresh across
		// every epoch, so the serving layer never re-prepares a form
		// that can never become safe.
		p.statsFP = statsFingerprint(ep.cat, nil)
		return p, opt, nil
	}
	compiled, err := res.Compile()
	if err != nil {
		return nil, nil, err
	}
	// Partition the compiled program: facts become bind-time seed
	// templates (they may carry placeholders, e.g. the magic seed
	// m$sg.bf(<param>)); rules are made placeholder-free so the
	// compiled kernels are valid for every future binding.
	var rules []lang.Rule
	for _, c := range compiled.Clauses {
		if c.IsFact() {
			p.seeds = append(p.seeds, c)
			continue
		}
		rules = append(rules, rewriteParams(c, nparams))
	}
	prog2, err := lang.NewProgram(rules)
	if err != nil {
		return nil, nil, err
	}
	graph, err := depgraph.Analyze(prog2)
	if err != nil {
		return nil, nil, err
	}
	p.prog = prog2
	p.graph = graph
	p.kernels = eval.CompileProgram(prog2)
	p.methodFor = methodOverrides(compiled.FixMethods, prog2)
	p.ansPred = compiled.AnswerTag[:strings.LastIndexByte(compiled.AnswerTag, '/')]
	p.baseTags = progBaseTags(prog2)
	p.statsFP = statsFingerprint(ep.cat, p.baseTags)
	return p, opt, nil
}

// progBaseTags collects the base relations a compiled program scans:
// every body tag that is not derived by the program itself, not a
// builtin, and not a bind-time parameter relation. These are exactly
// the catalog entries whose statistics the optimizer's choice depended
// on.
func progBaseTags(prog *lang.Program) []string {
	derived := map[string]bool{}
	for _, r := range prog.Rules {
		derived[r.Head.Tag()] = true
	}
	seen := map[string]bool{}
	var tags []string
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			tag := l.Tag()
			if seen[tag] || derived[tag] || lang.IsBuiltin(l.Pred) ||
				strings.HasPrefix(l.Pred, "ldl$p") {
				continue
			}
			seen[tag] = true
			tags = append(tags, tag)
		}
	}
	sort.Strings(tags)
	return tags
}

// statsFingerprint hashes the catalog entries of the given tags —
// presence, cardinality, per-column distinct counts, acyclicity. Two
// catalogs with equal fingerprints over a plan's baseTags yield the
// same optimizer inputs for that plan.
func statsFingerprint(cat *stats.Catalog, tags []string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	for _, tag := range tags {
		io.WriteString(h, tag)
		h.Write([]byte{0})
		if !cat.Has(tag) {
			// Distinguish "served from Default" from a real entry that
			// happens to equal it: gaining first-class stats must
			// change the fingerprint.
			h.Write([]byte{0xff})
		}
		rs := cat.Stats(tag)
		w64(math.Float64bits(rs.Card))
		w64(uint64(len(rs.Distinct)))
		for _, d := range rs.Distinct {
			w64(math.Float64bits(d))
		}
		if rs.Acyclic {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// Fresh reports whether the prepared plan is still current against the
// system's latest epoch. It is epoch-delta aware: when the epoch has
// advanced, the plan stays fresh if the catalog entries it was
// optimized over are unchanged (the load touched unrelated relations)
// — revalidated is true exactly when that check ran and passed.
// Execution always runs against the current snapshot regardless, so
// freshness is about plan optimality, never answer correctness. Safe
// for concurrent use.
func (p *Prepared) Fresh() (fresh, revalidated bool) {
	ep := p.sys.snapshot()
	if ep.id == p.epochID || ep.id == p.validEpoch.Load() {
		return true, false
	}
	if statsFingerprint(ep.cat, p.baseTags) != p.statsFP {
		return false, false
	}
	p.validEpoch.Store(ep.id)
	return true, true
}

// rewriteParams eliminates placeholder constants from a compiled rule:
// every occurrence of placeholder i becomes the variable #Pi, and for
// each distinct placeholder used, the single-tuple parameter-relation
// literal ldl$pi(#Pi) is prepended to the body. Prepending preserves
// the optimizer's chosen join order and is itself optimal: the
// parameter relation holds exactly one tuple, so the "join" against it
// only installs the constant binding before the real joins probe with
// it — precisely what the inline constant did.
func rewriteParams(r lang.Rule, nparams int) lang.Rule {
	if nparams == 0 {
		return r
	}
	used := map[int]bool{}
	head := substLitParams(r.Head, used)
	body := make([]lang.Literal, len(r.Body))
	for i, l := range r.Body {
		body[i] = substLitParams(l, used)
	}
	if len(used) == 0 {
		return r
	}
	pre := make([]lang.Literal, 0, len(used))
	for i := 0; i < nparams; i++ {
		if used[i] {
			pre = append(pre, lang.Lit(paramRel(i), paramVar(i)))
		}
	}
	return lang.Rule{Head: head, Body: append(pre, body...)}
}

func substLitParams(l lang.Literal, used map[int]bool) lang.Literal {
	args, changed := mapArgs(l.Args, func(t term.Term) (term.Term, bool) {
		return placeholderToVar(t, used)
	})
	if !changed {
		return l
	}
	return lang.Literal{Pred: l.Pred, Args: args, Neg: l.Neg}
}

// mapArgs applies f to each arg, copying the slice only if something
// changed; the bool reports whether it did.
func mapArgs(in []term.Term, f func(term.Term) (term.Term, bool)) ([]term.Term, bool) {
	var out []term.Term
	for i, a := range in {
		na, ch := f(a)
		if ch && out == nil {
			out = append([]term.Term(nil), in...)
		}
		if out != nil {
			out[i] = na
		}
	}
	if out == nil {
		return in, false
	}
	return out, true
}

func placeholderToVar(t term.Term, used map[int]bool) (term.Term, bool) {
	switch x := t.(type) {
	case term.Atom:
		if i, ok := paramIndex(x); ok {
			used[i] = true
			return paramVar(i), true
		}
	case term.Comp:
		if args, ch := mapArgs(x.Args, func(a term.Term) (term.Term, bool) {
			return placeholderToVar(a, used)
		}); ch {
			return term.Comp{Functor: x.Functor, Args: args}, true
		}
	}
	return t, false
}

// substParams replaces placeholder atoms with the actual constants —
// the bind-time counterpart of rewriteParams, applied to seed-fact
// templates.
func substParams(t term.Term, consts []term.Term) (term.Term, bool) {
	switch x := t.(type) {
	case term.Atom:
		if i, ok := paramIndex(x); ok && i < len(consts) {
			return consts[i], true
		}
	case term.Comp:
		if args, ch := mapArgs(x.Args, func(a term.Term) (term.Term, bool) {
			return substParams(a, consts)
		}); ch {
			return term.Comp{Functor: x.Functor, Args: args}, true
		}
	}
	return t, false
}

// Key returns the canonical query-form key (see QueryForm).
func (p *Prepared) Key() string { return p.key }

// Epoch returns the epoch the form was optimized against. The serving
// layer compares it with the system's current epoch to decide whether
// the cached plan's statistics are stale.
func (p *Prepared) Epoch() uint64 { return p.epochID }

// Safe reports whether a safe (terminating) execution was found.
func (p *Prepared) Safe() bool { return p.result.Safe }

// Reason explains why the form is unsafe (empty when Safe).
func (p *Prepared) Reason() string { return p.result.Reason }

// Cost is the estimated cost of the chosen execution (+Inf if unsafe).
func (p *Prepared) Cost() float64 { return float64(p.result.Cost) }

// Explain renders the prepared processing tree with parameters shown as
// $0, $1, ...
func (p *Prepared) Explain() string {
	return strings.ReplaceAll(p.explain("prepared: "+p.key), paramMark, "$")
}

// explain renders the chosen processing tree (Figure 4-1 style: squares
// materialize, triangles pipeline, CC marks recursive cliques) under a
// one-line header.
func (p *Prepared) explain(header string) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteByte('\n')
	if !p.result.Safe {
		fmt.Fprintf(&b, "UNSAFE: %s\n", p.result.Reason)
		return b.String()
	}
	fmt.Fprintf(&b, "estimated cost: %.1f, cardinality: %.1f\n", float64(p.result.Cost), p.result.Card)
	// Downgrade notes accumulate in the order the search visits rules;
	// sort them so Explain lists them by rule text, not by walk order.
	notes := append([]string(nil), p.result.Downgrades...)
	sort.Strings(notes)
	for _, d := range notes {
		fmt.Fprintf(&b, "note: %s\n", d)
	}
	b.WriteString(p.result.Plan.Render())
	return b.String()
}

// Execute runs the prepared plan with the constants taken from goal,
// which must have the same canonical form as the prepared goal (same
// QueryForm key). Per-call options (deadline, context, budgets)
// overlay the Prepare-time options. It is safe to call concurrently:
// each call forks the current epoch snapshot copy-on-write, binds the
// constants, and evaluates with the shared precompiled kernels.
func (p *Prepared) Execute(goal string, opts ...Option) ([][]string, error) {
	rows, _, err := p.ExecuteStats(goal, opts...)
	return rows, err
}

// ExecuteStats is Execute plus work counters.
func (p *Prepared) ExecuteStats(goal string, opts ...Option) (_ [][]string, es ExecStats, err error) {
	defer guard(&err)
	if !p.result.Safe {
		return nil, es, fmt.Errorf("ldl: prepared form %s is unsafe: %s", p.key, p.result.Reason)
	}
	o := p.opts.with(opts)
	lit, err := parser.ParseLiteral(goal)
	if err != nil {
		return nil, es, err
	}
	key, _, consts := canonicalForm(lit)
	if key != p.key {
		return nil, es, fmt.Errorf("ldl: goal %s has form %s, prepared form is %s", goal, key, p.key)
	}
	return p.run(p.sys.snapshot(), lit.Args, consts, o)
}

// run executes the safe compiled form against epoch ep with consts
// bound to the placeholders, and returns the answers matching args. It
// forks, not clones, the epoch: the snapshot is never touched, and setup
// costs O(relations the bindings touch), not O(database).
func (p *Prepared) run(ep *epochState, args, consts []term.Term, o options) (_ [][]string, es ExecStats, err error) {
	db2 := ep.db.Fork()
	// Bind: substituted seed facts plus one single-tuple parameter
	// relation per constant.
	bind := make([]lang.Rule, 0, len(p.seeds)+len(consts))
	for _, f := range p.seeds {
		bind = append(bind, lang.Rule{Head: substLitConsts(f.Head, consts)})
	}
	for i, c := range consts {
		bind = append(bind, lang.Rule{Head: lang.Lit(paramRel(i), c)})
	}
	if len(bind) > 0 {
		bp, err := lang.NewProgram(bind)
		if err != nil {
			return nil, es, err
		}
		if err := db2.LoadFacts(bp); err != nil {
			return nil, es, err
		}
	}
	// Budgets turn a diverging execution (which the safety analysis
	// should have prevented) into an error instead of a hang. The
	// governor layers the caller's (typically tighter) budget on top.
	e, err := eval.New(p.prog, db2, eval.Options{
		Method: eval.SemiNaive, MethodFor: p.methodFor,
		MaxTuples: 5_000_000, MaxIterations: 200_000,
		SizeHints: ep.hints,
		Gov:       o.governor(),
		Kernels:   p.kernels, Graph: p.graph,
	})
	if err != nil {
		return nil, es, err
	}
	if err := e.Run(); err != nil {
		return nil, es, err
	}
	ts, err := e.Answers(lang.Query{Goal: lang.Literal{Pred: p.ansPred, Args: args}})
	if err != nil {
		return nil, es, err
	}
	return renderRows(ts), execStats(e, ep.id), nil
}

func substLitConsts(l lang.Literal, consts []term.Term) lang.Literal {
	args, changed := mapArgs(l.Args, func(t term.Term) (term.Term, bool) {
		return substParams(t, consts)
	})
	if !changed {
		return l
	}
	return lang.Literal{Pred: l.Pred, Args: args, Neg: l.Neg}
}
