// Package eval is the execution engine: bottom-up fixpoint evaluation
// of Horn clause programs against a fact base, clique by clique in the
// follows order, with naive or semi-naive iteration, builtin deferral,
// and stratified negation. It is both the runtime that executes
// optimized plans (after plan-directed program rewriting) and the
// reference evaluator that correctness tests compare against.
//
// An engine evaluates one query on one goroutine: concurrency lives
// between queries (each over its own engine and a shared, read-only
// epoch), never inside a fixpoint.
package eval

import (
	"errors"
	"fmt"
	"sort"

	"ldl/internal/depgraph"
	"ldl/internal/lang"
	"ldl/internal/resource"
	"ldl/internal/store"
	"ldl/internal/term"
)

// Method selects the fixpoint iteration discipline for recursive
// cliques.
type Method int

const (
	// Naive recomputes every rule from the full relations each round.
	Naive Method = iota
	// SemiNaive sources one recursive literal per rule application from
	// the previous round's delta.
	SemiNaive
)

func (m Method) String() string {
	if m == Naive {
		return "naive"
	}
	return "seminaive"
}

// ErrRunaway is returned when evaluation exceeds the configured tuple
// or iteration budget — the runtime symptom of an unsafe execution.
var ErrRunaway = errors.New("eval: derivation exceeded budget (likely unsafe execution)")

// Options configures an Engine.
type Options struct {
	Method Method
	// MethodFor overrides the iteration method for the clique containing
	// the given predicate tag (plans label each CC node individually).
	MethodFor map[string]Method
	// MaxIterations bounds fixpoint rounds per clique (0 = 1e6).
	MaxIterations int
	// MaxTuples bounds total derived tuples (0 = 10M); exceeding it
	// aborts with ErrRunaway.
	MaxTuples int
	// SizeHints maps predicate tags to expected cardinalities; derived
	// relations and delta sets are pre-sized from them so fixpoint runs
	// avoid rehash growth. Missing entries cost nothing.
	SizeHints map[string]int
	// DisableKernels turns off the compiled join-kernel path
	// (compile.go), forcing every rule through the generic joinBody
	// interpreter. The zero value — kernels on — is the default; the
	// flag exists for A/B verification and as an escape hatch.
	DisableKernels bool
	// BatchSize is the block size of the kernel executor (block.go):
	// compiled rules push columnar frames of up to this many rows
	// through each join step. 0 or negative selects DefaultBatchSize,
	// which is what every caller outside this package's tests uses;
	// the tests shrink it to cross flush boundaries on small inputs.
	// Answers, errors, and work counters are identical at every size.
	BatchSize int
	// Kernels, when non-nil, supplies precompiled join kernels for the
	// program (built once with CompileProgram over the same *Program
	// this engine evaluates). The engine then performs zero kernel
	// compilation — the prepared-plan serving fast path. Ignored when
	// DisableKernels is set or when the kernel set was compiled for a
	// different program value.
	Kernels *ProgramKernels
	// Graph, when non-nil, supplies the precomputed dependency analysis
	// of the program (depgraph.Analyze over the same *Program),
	// skipping re-analysis per execution. The graph is read-only during
	// evaluation and safely shared across engines.
	Graph *depgraph.Graph
	// Gov, when non-nil, meters the evaluation at tuple/iteration
	// granularity: derived tuples, fixpoint rounds, and wall-clock
	// deadlines/cancellation all charge against it, and a violation
	// aborts the run with the governor's typed ResourceError. It is the
	// caller-facing budget; MaxIterations/MaxTuples above remain the
	// engine's own runaway backstop.
	Gov *resource.Governor
}

func (o *Options) norm() {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 1_000_000
	}
	if o.MaxTuples <= 0 {
		o.MaxTuples = 10_000_000
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
}

// Counters expose how much work an evaluation did; experiments use them
// as a deterministic cost proxy.
type Counters struct {
	Iterations    int   // fixpoint rounds across all cliques
	TuplesDerived int   // tuples added to derived relations
	Unifications  int64 // head/body unification attempts
	Lookups       int64 // relation probe operations
	BuiltinCalls  int64
	// KernelCompiles counts rules compiled to join kernels by this
	// engine. Zero when Options.Kernels supplied every clique's
	// programs — the assertion the prepared-plan cache tests make.
	KernelCompiles int
	// KernelFallbacks counts rule resolutions that fell back to the
	// generic interpreter because the rule has no join kernel, per
	// clique evaluation (mirroring KernelCompiles). Zero means every
	// rule ran compiled. Always zero when kernels are disabled — the
	// generic path is then chosen, not fallen back to.
	KernelFallbacks int
	// Blocks counts columnar frames the kernel executor dispatched
	// between join steps (scan outputs flushed downstream), one-row
	// frames of head-aliasing applications included. Zero when every
	// rule ran in the generic interpreter.
	Blocks int64
}

// Engine evaluates one program against one database.
type Engine struct {
	Prog     *lang.Program
	DB       *store.Database
	Graph    *depgraph.Graph
	Counters Counters

	opts    Options
	derived map[string]*store.Relation
	ran     bool
}

// New analyzes prog and prepares an engine. The database is not
// modified; derived relations live in the engine.
func New(prog *lang.Program, db *store.Database, opts Options) (*Engine, error) {
	opts.norm()
	g := opts.Graph
	if g == nil {
		var err error
		g, err = depgraph.Analyze(prog)
		if err != nil {
			return nil, err
		}
	}
	return &Engine{Prog: prog, DB: db, Graph: g, opts: opts, derived: map[string]*store.Relation{}}, nil
}

// DerivedTags returns the tags of every derived relation this engine
// materialized, in sorted order — the serving layer walks them after a
// run to record observed extensions (live cardinality and distinct
// counts) back into the statistics catalog.
func (e *Engine) DerivedTags() []string {
	out := make([]string, 0, len(e.derived))
	for t := range e.derived {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// RelationFor returns the relation holding tag's tuples: the derived
// relation if tag is derived, otherwise the base relation (nil if the
// database has none).
func (e *Engine) RelationFor(tag string) *store.Relation {
	if r, ok := e.derived[tag]; ok {
		return r
	}
	return e.DB.Relation(tag)
}

func (e *Engine) ensureDerived(tag string, arity int) *store.Relation {
	if r, ok := e.derived[tag]; ok {
		return r
	}
	r := store.NewRelationSized(tag, arity, e.opts.SizeHints[tag])
	// A predicate can have both facts and rules; the derived relation
	// starts from the base facts so they are not shadowed.
	if base := e.DB.Relation(tag); base != nil {
		for _, t := range base.Tuples() {
			r.MustInsert(t)
		}
	}
	e.derived[tag] = r
	return r
}

// Run computes every derived predicate, cliques in follows order.
func (e *Engine) Run() error {
	if e.ran {
		return nil
	}
	// Pre-create derived relations so empty predicates exist.
	for _, r := range e.Prog.Rules {
		e.ensureDerived(r.Head.Tag(), r.Head.Arity())
	}
	for _, c := range e.Graph.TopoCliques() {
		if len(c.Rules) == 0 {
			continue // base predicate
		}
		if err := e.evalClique(c); err != nil {
			return err
		}
	}
	e.ran = true
	return nil
}

// cliqueRules resolves a clique's rule indexes and iteration method.
func (e *Engine) cliqueRules(c *depgraph.Clique) ([]lang.Rule, Method) {
	rules := make([]lang.Rule, len(c.Rules))
	for i, ri := range c.Rules {
		rules[i] = e.Prog.Rules[ri]
	}
	method := e.opts.Method
	for _, p := range c.Preds {
		if m, ok := e.opts.MethodFor[p]; ok {
			method = m
			break
		}
	}
	return rules, method
}

// newDeltas builds one empty delta relation per clique predicate,
// pre-sized from the cardinality hints (deltas peak well below the
// full relation, so they get half the hint).
func (e *Engine) newDeltas(c *depgraph.Clique) map[string]*store.Relation {
	deltas := make(map[string]*store.Relation, len(c.Preds))
	for _, p := range c.Preds {
		rel := e.RelationFor(p)
		arity := 0
		if rel != nil {
			arity = rel.Arity
		}
		deltas[p] = store.NewRelationSized(p+"Δ", arity, e.opts.SizeHints[p]/2)
	}
	return deltas
}

// evalClique runs the sequential fixpoint for one clique.
func (e *Engine) evalClique(c *depgraph.Clique) error {
	rules, method := e.cliqueRules(c)
	crs := e.compileRules(c, rules)
	cx := &evalCtx{e: e}
	if !c.Recursive {
		// Single pass suffices: dependencies are already computed.
		for i, r := range rules {
			if err := cx.applyRule(r, crs[i], -1, nil, nil); err != nil {
				return err
			}
		}
		return nil
	}
	// Seed round: naive application of every rule from current state.
	deltas := e.newDeltas(c)
	// collect fires immediately after a successful head insert, so the
	// new tuple is the head relation's last row and InsertFrom reuses
	// its interned IDs and hash instead of re-hashing.
	collect := func(tag string, t store.Tuple) {
		head := e.derived[tag]
		deltas[tag].InsertFrom(head, head.Len()-1)
	}
	for i, r := range rules {
		if err := cx.applyRule(r, crs[i], -1, nil, collect); err != nil {
			return err
		}
	}
	for iter := 0; ; iter++ {
		if iter >= e.opts.MaxIterations {
			return fmt.Errorf("%w: clique %v exceeded %d iterations", ErrRunaway, c.Preds, e.opts.MaxIterations)
		}
		if err := e.opts.Gov.AddIteration(); err != nil {
			return err
		}
		e.Counters.Iterations++
		empty := true
		for _, d := range deltas {
			if d.Len() > 0 {
				empty = false
			}
		}
		if empty {
			return nil
		}
		next := map[string]*store.Relation{}
		for p, d := range deltas {
			next[p] = store.NewRelationSized(p+"Δ", d.Arity, e.opts.SizeHints[p]/2)
		}
		collectNext := func(tag string, t store.Tuple) {
			head := e.derived[tag]
			next[tag].InsertFrom(head, head.Len()-1)
		}
		for i, r := range rules {
			switch method {
			case Naive:
				// Recompute from full relations; novelty filtering in
				// applyRule keeps only new tuples.
				if err := cx.applyRule(r, crs[i], -1, nil, collectNext); err != nil {
					return err
				}
			case SemiNaive:
				// One variant per recursive body occurrence, sourcing
				// that occurrence from the delta.
				for bi, l := range r.Body {
					if l.Neg || lang.IsBuiltin(l.Pred) || !c.Contains(l.Tag()) {
						continue
					}
					if err := cx.applyRule(r, crs[i], bi, deltas, collectNext); err != nil {
						return err
					}
				}
			}
		}
		deltas = next
	}
}

// evalCtx is the context of one clique evaluation: the engine it
// writes (derived relations, Engine.Counters) and the kernel states its
// rule applications reuse across rounds.
type evalCtx struct {
	e *Engine
	// kstates caches one reusable kernel execution state per compiled
	// rule this context has run (register frame, probe and match
	// buffers), created lazily by kstate.
	kstates map[*compiledRule]*kernelState
}

// recordInserted does the bookkeeping for a head insert that was
// genuinely new: counters, the runaway backstop, the governor, and the
// delta-collect callback.
func (cx *evalCtx) recordInserted(tag string, t store.Tuple, collect func(string, store.Tuple)) error {
	e := cx.e
	e.Counters.TuplesDerived++
	if e.Counters.TuplesDerived > e.opts.MaxTuples {
		return fmt.Errorf("%w: more than %d tuples", ErrRunaway, e.opts.MaxTuples)
	}
	if err := e.opts.Gov.AddTuples(1); err != nil {
		return err
	}
	if collect != nil {
		collect(tag, t)
	}
	return nil
}

// applyRule evaluates one rule body left-to-right; every newly derived
// head tuple is inserted into the head relation and passed to collect
// (if non-nil).
// deltaOcc, when >= 0, makes body literal deltaOcc read from
// deltas[tag] instead of the full relation. A non-nil cr routes the
// application through the rule's compiled join kernel; nil runs the
// generic interpreter below.
func (cx *evalCtx) applyRule(r lang.Rule, cr *compiledRule, deltaOcc int, deltas map[string]*store.Relation, collect func(string, store.Tuple)) error {
	if cr != nil {
		return cx.applyCompiled(cr, deltaOcc, deltas, collect)
	}
	e := cx.e
	head := e.ensureDerived(r.Head.Tag(), r.Head.Arity())
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
		return cx.recordInserted(r.Head.Tag(), t, collect)
	}
	return cx.joinBody(r.Body, 0, deltaOcc, deltas, term.NewSubst(), nil, emit)
}

// compileRules resolves each rule of a clique to its join kernel (nil
// entries fall back to the generic interpreter). With precompiled
// Options.Kernels for this program the lookup is free; otherwise rules
// are compiled once per clique evaluation — every fixpoint round and
// every semi-naive delta variant shares the same program either way.
func (e *Engine) compileRules(c *depgraph.Clique, rules []lang.Rule) []*compiledRule {
	crs := make([]*compiledRule, len(rules))
	if e.opts.DisableKernels {
		return crs
	}
	if pk := e.opts.Kernels; pk != nil && pk.prog == e.Prog {
		for i, ri := range c.Rules {
			crs[i] = pk.rules[ri]
		}
		e.noteFallbacks(crs, 0)
		return crs
	}
	for i, r := range rules {
		crs[i] = compileRule(r)
	}
	e.noteFallbacks(crs, len(rules))
	return crs
}

// noteFallbacks adds a clique's kernel-resolution counters: compiled
// counts compilation work done here (zero on the precompiled fast
// path), and every nil kernel is a generic-interpreter fallback.
func (e *Engine) noteFallbacks(crs []*compiledRule, compiled int) {
	fallbacks := 0
	for _, cr := range crs {
		if cr == nil {
			fallbacks++
		}
	}
	e.Counters.KernelCompiles += compiled
	e.Counters.KernelFallbacks += fallbacks
}

// joinBody enumerates the substitutions satisfying body[i:], carrying
// pending builtins/negations that were not yet effectively computable.
func (cx *evalCtx) joinBody(body []lang.Literal, i, deltaOcc int, deltas map[string]*store.Relation, s term.Subst, pending []lang.Literal, emit func(term.Subst) error) error {
	e := cx.e
	// The join can churn for a long time without deriving anything new
	// (novelty filtering discards duplicates), so the deadline is
	// checked here too, not only on derivation.
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
		return !rel.Contains(store.Tuple(resolved)), true, nil
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

// Answers runs the engine (if needed) and returns the ground instances
// of the query goal, deduplicated, in canonical order.
func (e *Engine) Answers(q lang.Query) ([]store.Tuple, error) {
	if err := e.Run(); err != nil {
		return nil, err
	}
	rel := e.RelationFor(q.Goal.Tag())
	if rel == nil {
		return nil, nil
	}
	out := store.NewRelationSized("ans", q.Goal.Arity(), rel.Len())
	for _, t := range rel.Snapshot() {
		e.Counters.Unifications++
		if s, ok := term.UnifyAll(q.Goal.Args, []term.Term(t), term.NewSubst()); ok {
			_ = s
			out.MustInsert(t)
		}
	}
	return out.Sorted(), nil
}

// AnswerSubsts returns, for each matching tuple, the substitution of
// the query's variables.
func (e *Engine) AnswerSubsts(q lang.Query) ([]term.Subst, error) {
	tuples, err := e.Answers(q)
	if err != nil {
		return nil, err
	}
	var out []term.Subst
	for _, t := range tuples {
		if s, ok := term.UnifyAll(q.Goal.Args, []term.Term(t), term.NewSubst()); ok {
			out = append(out, s)
		}
	}
	return out, nil
}
