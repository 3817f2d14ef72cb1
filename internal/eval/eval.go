// Package eval is the execution engine: bottom-up fixpoint evaluation
// of Horn clause programs against a fact base, clique by clique in the
// follows order, with naive or semi-naive iteration, builtin deferral,
// and stratified negation. Every rule runs as a compiled join program
// (compile.go) on the block executor (block.go) — for optimized plans
// after plan-directed program rewriting, for unoptimized evaluation,
// and for view maintenance (incremental.go) alike. Goal-directed
// evaluation comes from the magic and counting rewrites, not from a
// second engine; the tabled top-down evaluator is a test-only oracle.
//
// An engine evaluates one query on one goroutine: concurrency lives
// between queries (each over its own engine and a shared, read-only
// epoch), never inside a fixpoint.
package eval

import (
	"errors"
	"fmt"
	"slices"
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
	// the kernel set was compiled for a different program value.
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

	// reference, set only by this package's tests, runs every rule
	// application through the substitution-map reference interpreter
	// (reference_test.go) instead of its join program: the oracle the
	// kernels' answers, errors and work counters are checked against.
	reference func(cx *evalCtx, r lang.Rule, deltaOcc int, deltas map[string]*store.Relation, collect func(tag string) error) error
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
	// Blocks counts columnar frames the kernel executor dispatched
	// between join steps (scan outputs flushed downstream), one-row
	// frames of head-aliasing applications included.
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
// materialized, in sorted order — view maintenance walks them after a
// run to freeze each view into the epoch it publishes with.
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
		for i := 0; i < base.Len(); i++ {
			if _, err := r.InsertFrom(base, i); err != nil {
				panic(err) // same arity: the tag carries it
			}
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
	e.ensureHeads()
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

// ensureHeads pre-creates the derived relation of every rule head, so
// empty predicates exist — from the precompiled kernels' head tags when
// the engine has them.
func (e *Engine) ensureHeads() {
	if pk := e.opts.Kernels; pk != nil && pk.prog == e.Prog {
		for _, cr := range pk.rules {
			e.ensureDerived(cr.headTag, cr.rule.Head.Arity())
		}
		return
	}
	for _, r := range e.Prog.Rules {
		e.ensureDerived(r.Head.Tag(), r.Head.Arity())
	}
}

// method resolves a clique's iteration method.
func (e *Engine) method(c *depgraph.Clique) Method {
	for _, p := range c.Preds {
		if m, ok := e.opts.MethodFor[p]; ok {
			return m
		}
	}
	return e.opts.Method
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

// collectInto returns a delta collector into the map *deltas holds
// when it fires: it fires immediately after a successful head insert,
// so the new tuple is the head relation's last row and InsertFrom
// reuses its interned IDs and hash instead of re-hashing. A delta that
// cannot take the row (an arity mismatch) is an error of the run, not a
// silently shorter fixpoint.
func (e *Engine) collectInto(deltas *map[string]*store.Relation) func(tag string) error {
	return func(tag string) error {
		head := e.derived[tag]
		_, err := (*deltas)[tag].InsertFrom(head, head.Len()-1)
		return err
	}
}

// evalClique runs the fixpoint for one clique.
func (e *Engine) evalClique(c *depgraph.Clique) error {
	crs := e.compileRules(c)
	cx := newEvalCtx(e, crs)
	defer cx.release()
	if !c.Recursive {
		// Single pass suffices: dependencies are already computed.
		for _, cr := range crs {
			if err := cx.applyRule(cr, -1, nil, nil); err != nil {
				return err
			}
		}
		return nil
	}
	// The deltas take their arities from the clique's relations, which
	// Run pre-creates but a scratch clique of RunIncremental does not.
	for _, cr := range crs {
		e.ensureDerived(cr.headTag, cr.rule.Head.Arity())
	}
	// Seed round: naive application of every rule from current state.
	deltas := e.newDeltas(c)
	collect := e.collectInto(&deltas)
	for _, cr := range crs {
		if err := cx.applyRule(cr, -1, nil, collect); err != nil {
			return err
		}
	}
	_, err := cx.rounds(c, crs, e.method(c), deltas)
	return err
}

// rounds runs a recursive clique's delta rounds from the seeded deltas
// until a round starts with every delta empty, and returns how many
// rounds it counted (each one in Counters.Iterations and against the
// governor, the final empty one included). Naive recomputes every rule
// from the full relations, and novelty filtering keeps only new
// tuples; semi-naive applies one variant per recursive body
// occurrence, sourcing that occurrence from the previous round's
// delta. Two delta maps alternate: the map a round has finished
// reading is reset and refilled by the round after it, so a fixpoint of
// any length allocates at most one map of delta relations beyond the
// seed's.
func (cx *evalCtx) rounds(c *depgraph.Clique, crs []*compiledRule, method Method, deltas map[string]*store.Relation) (int, error) {
	e := cx.e
	var next, spare map[string]*store.Relation
	collectNext := e.collectInto(&next)
	for iter := 0; ; iter++ {
		if iter >= e.opts.MaxIterations {
			return iter, fmt.Errorf("%w: clique %v exceeded %d iterations", ErrRunaway, c.Preds, e.opts.MaxIterations)
		}
		if err := e.opts.Gov.AddIteration(); err != nil {
			return iter, err
		}
		e.Counters.Iterations++
		empty := true
		for _, d := range deltas {
			if d.Len() > 0 {
				empty = false
			}
		}
		if empty {
			return iter + 1, nil
		}
		if next = spare; next == nil {
			next = e.newDeltas(c)
		} else {
			for _, d := range next {
				d.Reset()
			}
		}
		for _, cr := range crs {
			if method == Naive {
				if err := cx.applyRule(cr, -1, nil, collectNext); err != nil {
					return iter + 1, err
				}
				continue
			}
			for bi, tag := range cr.bodyTags {
				if tag == "" || !c.Contains(tag) {
					continue
				}
				if err := cx.applyRule(cr, bi, deltas, collectNext); err != nil {
					return iter + 1, err
				}
			}
		}
		deltas, spare = next, deltas
	}
}

// evalCtx is the context of one clique evaluation: the engine it
// writes (derived relations, Engine.Counters) and the kernel states its
// rule applications reuse across rounds. Whoever creates a context
// calls release when the clique is done.
type evalCtx struct {
	e *Engine
	// kstates holds one kernel execution state per compiled rule this
	// context has run (register frames, probe and match buffers), taken
	// lazily by kstate.
	kstates []heldState
}

// newEvalCtx returns a context for one evaluation of the rules crs.
func newEvalCtx(e *Engine, crs []*compiledRule) *evalCtx {
	return &evalCtx{e: e, kstates: make([]heldState, 0, len(crs))}
}

// heldState is a kernel state an evaluation context holds, with the
// rule whose pool it returns to.
type heldState struct {
	cr *compiledRule
	ks *kernelState
}

// recordInserted does the bookkeeping for a head insert that was
// genuinely new: counters, the runaway backstop, the governor, and the
// delta-collect callback.
func (cx *evalCtx) recordInserted(tag string, collect func(tag string) error) error {
	e := cx.e
	e.Counters.TuplesDerived++
	if e.Counters.TuplesDerived > e.opts.MaxTuples {
		return fmt.Errorf("%w: more than %d tuples", ErrRunaway, e.opts.MaxTuples)
	}
	if err := e.opts.Gov.AddTuples(1); err != nil {
		return err
	}
	if collect != nil {
		return collect(tag)
	}
	return nil
}

// compileRules resolves each rule of a clique to its join kernel. With
// precompiled Options.Kernels for this program the lookup is free;
// otherwise rules are compiled once per clique evaluation — every
// fixpoint round and every semi-naive delta variant shares the same
// program either way.
func (e *Engine) compileRules(c *depgraph.Clique) []*compiledRule {
	crs := make([]*compiledRule, len(c.Rules))
	pk := e.opts.Kernels
	for i, ri := range c.Rules {
		if pk != nil && pk.prog == e.Prog {
			crs[i] = pk.rules[ri]
			continue
		}
		crs[i] = compileRule(e.Prog.Rules[ri])
		e.Counters.KernelCompiles++
	}
	return crs
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
	rows := rel.Lookup(0, nil)
	e.Counters.Unifications += int64(len(rows))
	return Select(rows, q.Goal.Args), nil
}

// Select filters rows in place to those that unify with args and sorts
// them canonically. Rows read from one relation are a set, so the
// result needs no deduplication. Every kept row equals a ground
// argument in its column, so the sort compares only the other columns:
// the comparator answers exactly as the full canonical one does.
func Select(rows []store.Tuple, args []term.Term) []store.Tuple {
	s := term.NewSubst()
	keep := rows[:0]
	for _, t := range rows {
		clear(s)
		if _, ok := term.UnifyAll(args, t, s); ok {
			keep = append(keep, t)
		}
	}
	var vary []int
	for k, a := range args {
		if !term.Ground(a) {
			vary = append(vary, k)
		}
	}
	slices.SortFunc(keep, func(a, b store.Tuple) int {
		for _, k := range vary {
			if c := term.Compare(a[k], b[k]); c != 0 {
				return c
			}
		}
		return 0
	})
	return keep
}
