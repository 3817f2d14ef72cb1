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
// the fixpoint and the answer: the goal is parsed once (ParseGoal) into
// its key and constants, and the constants' interned IDs are written —
// as parameter-relation tuples and into seed rows pre-shaped once per
// form — into relations a pooled engine owns, which shadow the current
// epoch's for that run; the epoch itself is only read. Zero optimizer
// search, zero rewriting, zero kernel compilation and no program built
// per call. Optimize runs the same prepare and run steps in literal
// mode: the constants stay inline and the result is pinned to the epoch
// it was optimized on.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
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

// Goal is a parsed query goal: its arguments, its canonical form key
// (see QueryForm) and its constants in placeholder order. ParseGoal
// reads the text once; the serving layer looks its plan up by Key and
// runs it with Prepared.ExecuteGoal, which reads no text again.
type Goal struct {
	text   string
	args   []term.Term
	key    string
	consts []term.Term
}

// ParseGoal parses a goal such as "sg(john, Y)" and canonicalizes it.
func ParseGoal(goal string) (_ Goal, err error) {
	defer guard(&err)
	lit, err := parser.ParseLiteral(goal)
	if err != nil {
		return Goal{}, err
	}
	key, consts := formKey(lit)
	return Goal{text: goal, args: lit.Args, key: key, consts: consts}, nil
}

// Key is the goal's canonical form key (see QueryForm).
func (g Goal) Key() string { return g.key }

// QueryForm canonicalizes a goal into its adorned-form key: predicate,
// arity, constant positions (c0, c1, ... in order of appearance) and
// variable repetition structure (v0, v1, ... numbered by first
// occurrence, so sg(X, X) and sg(X, Y) are distinct forms). A compound
// argument keeps its functor and arity in the key and canonicalizes its
// own arguments the same way, so p(f(a), Y) and p(f(b), Z) share the
// key p/2(f/1(c0),v0). Two goals with equal keys are answered by the
// same prepared plan with different parameter bindings.
func QueryForm(goal string) (string, error) {
	g, err := ParseGoal(goal)
	return g.key, err
}

// formKey computes the cache key and the constants in placeholder
// order: everything a request needs of its goal's form.
func formKey(lit lang.Literal) (string, []term.Term) {
	var b strings.Builder
	var consts []term.Term
	vars := map[string]int{}
	b.WriteString(lit.Pred)
	appendFormKey(&b, vars, &consts, lit.Args)
	return b.String(), consts
}

// appendFormKey writes "/arity(k0,k1,...)" to b, numbering variables
// by first occurrence in vars and appending constants to consts.
func appendFormKey(b *strings.Builder, vars map[string]int, consts *[]term.Term, args []term.Term) {
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(len(args)))
	b.WriteByte('(')
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
		case term.Comp:
			b.WriteString(x.Functor)
			appendFormKey(b, vars, consts, x.Args)
		default: // Atom, Int, Str
			b.WriteByte('c')
			b.WriteString(strconv.Itoa(len(*consts)))
			*consts = append(*consts, t)
		}
	}
	b.WriteByte(')')
}

// shapeArgs replaces every constant of args, top-level or nested in a
// compound, by the placeholder atom of its position in formKey's
// order, numbering from *n: the shape literal Prepare optimizes.
func shapeArgs(args []term.Term, n *int) []term.Term {
	shape := make([]term.Term, len(args))
	for i, t := range args {
		switch x := t.(type) {
		case term.Var:
			shape[i] = t
		case term.Comp:
			shape[i] = term.Comp{Functor: x.Functor, Args: shapeArgs(x.Args, n)}
		default: // Atom, Int, Str
			shape[i] = paramAtom(*n)
			*n++
		}
	}
	return shape
}

// Prepared is a query form optimized and compiled once, executable many
// times with different constants. It is immutable after Prepare and
// safe for concurrent Execute calls.
type Prepared struct {
	sys     *System
	key     string
	shape   lang.Literal
	nparams int
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
	ansTag    string

	// Built on the first execute, so Prepare pays for neither: the
	// rows a run binds (bindRows), and the pool of engines whose
	// derived, delta and input relations runs recycle.
	bindOnce sync.Once
	binds    []bindRow
	engines  eval.Pool
}

// bindRow is one row a run binds before its fixpoint — a seed fact or
// a parameter relation's single tuple — pre-shaped in ID space: the
// layout slot of its relation and, per column, a fixed interned ID, a
// parameter index, or a compound template whose placeholders are
// substituted and the result interned.
type bindRow struct {
	slot int
	cols []bindCol
}

type bindCol struct {
	id    term.ID   // fixed constant; 0 when param or tmpl applies
	param int       // >= 0: the goal's constant of this index
	tmpl  term.Term // compound holding placeholders, when non-nil
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
	key, _ := formKey(lit)
	nparams := 0
	shape := lang.Literal{Pred: lit.Pred, Args: shapeArgs(lit.Args, &nparams)}
	p, _, err := s.prepare(s.snapshot(), key, shape, nparams, o)
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
	p := &Prepared{sys: s, key: key, shape: shape, nparams: nparams, epochID: ep.id, result: res, opts: o}
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
	p.kernels = eval.CompileProgram(prog2, graph)
	p.methodFor = methodOverrides(compiled.FixMethods, prog2)
	p.ansTag = compiled.AnswerTag
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

// ExecuteGoal runs the prepared plan with the constants taken from
// goal, which must have the same canonical form as the prepared goal
// (same Key). Per-call options (deadline, context, budgets) overlay
// the Prepare-time options. It is safe to call concurrently: each call
// binds the constants' interned IDs into run-owned relations of a
// pooled engine and evaluates the current epoch snapshot, read-only,
// with the shared precompiled kernels.
func (p *Prepared) ExecuteGoal(goal Goal, opts ...Option) (_ [][]string, es ExecStats, err error) {
	defer guard(&err)
	if !p.result.Safe {
		return nil, es, fmt.Errorf("ldl: prepared form %s is unsafe: %s", p.key, p.result.Reason)
	}
	if goal.key != p.key {
		return nil, es, fmt.Errorf("ldl: goal %s has form %s, prepared form is %s", goal.text, goal.key, p.key)
	}
	return p.run(p.sys.snapshot(), goal.args, goal.consts, p.opts.with(opts))
}

// ExecuteStats is ExecuteGoal on a goal given as text, plus work
// counters.
func (p *Prepared) ExecuteStats(goal string, opts ...Option) ([][]string, ExecStats, error) {
	g, err := ParseGoal(goal)
	if err != nil {
		return nil, ExecStats{}, err
	}
	return p.ExecuteGoal(g, opts...)
}

// run executes the safe compiled form against epoch ep with consts
// bound to the placeholders, and returns the answers matching args.
// The epoch is only read: the bound rows go into relations the run's
// engine owns, which shadow the database's, so setup costs
// O(bound rows), not O(database) or O(relations).
func (p *Prepared) run(ep *epochState, args, consts []term.Term, o options) (_ [][]string, es ExecStats, err error) {
	p.bindOnce.Do(p.buildBinds)
	// Budgets turn a diverging execution (which the safety analysis
	// should have prevented) into an error instead of a hang. The
	// governor layers the caller's (typically tighter) budget on top.
	e := p.engines.Get(p.kernels, ep.db, eval.Options{
		Method: eval.SemiNaive, MethodFor: p.methodFor,
		MaxTuples: 5_000_000, MaxIterations: 200_000,
		SizeHints: ep.hints,
		Gov:       o.governor(),
	})
	defer p.engines.Put(e)
	var idbuf [8]term.ID
	ids := idbuf[:0]
	for _, c := range consts {
		ids = append(ids, term.Intern(c))
	}
	var rowbuf [8]term.ID
	for _, b := range p.binds {
		row := rowbuf[:0]
		for _, c := range b.cols {
			switch {
			case c.param >= 0:
				row = append(row, ids[c.param])
			case c.tmpl != nil:
				t, _ := substParams(c.tmpl, consts)
				row = append(row, term.Intern(t))
			default:
				row = append(row, c.id)
			}
		}
		e.Input(b.slot).InsertIDs(row)
	}
	if err := e.Run(); err != nil {
		return nil, es, err
	}
	ts, err := e.AnswersFor(p.ansTag, args)
	if err != nil {
		return nil, es, err
	}
	return renderRows(ts), execStats(e, ep.id), nil
}

// buildBinds pre-shapes the rows every run binds: each seed fact in
// order, then each parameter relation's tuple. A row of a predicate
// the compiled program does not mention is left out — no rule could
// see it.
func (p *Prepared) buildBinds() {
	for _, f := range p.seeds {
		slot, ok := p.kernels.Slot(f.Head.Tag())
		if !ok {
			continue
		}
		b := bindRow{slot: slot, cols: make([]bindCol, len(f.Head.Args))}
		for i, a := range f.Head.Args {
			b.cols[i] = bindColOf(a)
		}
		p.binds = append(p.binds, b)
	}
	for i := 0; i < p.nparams; i++ {
		if slot, ok := p.kernels.Slot(paramRel(i) + "/1"); ok {
			p.binds = append(p.binds, bindRow{slot: slot, cols: []bindCol{{param: i}}})
		}
	}
}

// bindColOf classifies one seed argument: a placeholder is the
// goal's constant of its index, a compound holding placeholders is a
// template, and anything else a constant interned once here.
func bindColOf(a term.Term) bindCol {
	if x, ok := a.(term.Atom); ok {
		if i, ok := paramIndex(x); ok {
			return bindCol{param: i}
		}
	}
	if hasPlaceholder(a) {
		return bindCol{param: -1, tmpl: a}
	}
	return bindCol{param: -1, id: term.Intern(a)}
}

// hasPlaceholder reports whether t is or contains a placeholder atom.
func hasPlaceholder(t term.Term) bool {
	switch x := t.(type) {
	case term.Atom:
		_, ok := paramIndex(x)
		return ok
	case term.Comp:
		for _, a := range x.Args {
			if hasPlaceholder(a) {
				return true
			}
		}
	}
	return false
}
