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
	reference func(cx *evalCtx, cr *compiledRule, deltaOcc int, delta, sink *store.Relation) error
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

	opts Options
	// kern is Options.Kernels when it was compiled for Prog, else nil.
	kern *ProgramKernels
	lay  *layout
	// rels holds, per layout slot, the relation this run reads and
	// writes: a derived relation once created, a bound input, or the
	// database's base relation once resolved. own holds the relations
	// the engine itself created, per slot, which a pooled engine keeps
	// (emptied) across runs; deltas holds each recursive clique's two
	// alternating delta sets by clique-local index, likewise kept.
	rels   []*store.Relation
	own    []*store.Relation
	deltas [][2][]*store.Relation
	cx     evalCtx
	ran    bool
}

// New analyzes prog and prepares an engine. The database is not
// modified; derived relations live in the engine.
func New(prog *lang.Program, db *store.Database, opts Options) (*Engine, error) {
	opts.norm()
	e := &Engine{Prog: prog, DB: db, opts: opts}
	if pk := opts.Kernels; pk != nil && pk.prog == prog {
		e.kern = pk
		e.lay = pk.layout()
		e.Graph = pk.graph
	} else {
		g := opts.Graph
		if g == nil {
			var err error
			if g, err = depgraph.Analyze(prog); err != nil {
				return nil, err
			}
		}
		e.Graph = g
		e.lay = newLayout(g)
	}
	e.rels = make([]*store.Relation, len(e.lay.tags))
	e.own = make([]*store.Relation, len(e.lay.tags))
	e.deltas = make([][2][]*store.Relation, len(e.lay.cliques))
	e.cx.e = e
	return e, nil
}

// DerivedTags returns the tags of every derived relation this engine
// materialized, in sorted order — view maintenance walks them after a
// run to freeze each view into the epoch it publishes with.
func (e *Engine) DerivedTags() []string {
	var out []string
	for s := 0; s < e.lay.nderived; s++ {
		if e.rels[s] != nil {
			out = append(out, e.lay.tags[s])
		}
	}
	sort.Strings(out)
	return out
}

// RelationFor returns the relation holding tag's tuples: the derived
// relation if tag is derived, a bound input relation (see Input), and
// otherwise the base relation (nil if the database has none).
func (e *Engine) RelationFor(tag string) *store.Relation {
	if s, ok := e.lay.slotOf[tag]; ok && e.rels[s] != nil {
		return e.rels[s]
	}
	return e.DB.Relation(tag)
}

// rel resolves slot s for a rule application: what RelationFor returns
// for its tag. A base relation is resolved once per run.
func (e *Engine) rel(s int) *store.Relation {
	if r := e.rels[s]; r != nil {
		return r
	}
	r := e.DB.Relation(e.lay.tags[s])
	if s >= e.lay.nderived {
		e.rels[s] = r
	}
	return r
}

// ensureDerived returns derived slot s's relation, creating it on
// first use.
func (e *Engine) ensureDerived(s int) *store.Relation {
	if r := e.rels[s]; r != nil {
		return r
	}
	return e.takeOwn(s)
}

// Input returns the relation a caller binds slot's rows into before
// Run: for a derived predicate its derived relation (holding the
// database's facts of the tag, as Run would start it), otherwise a
// run-owned relation that shadows the database's for this run only,
// starting from the database's rows of the tag. The database itself
// is never written. The slot comes from ProgramKernels.Slot.
func (e *Engine) Input(slot int) *store.Relation {
	if r := e.rels[slot]; r != nil && (slot < e.lay.nderived || r == e.own[slot]) {
		return r
	}
	return e.takeOwn(slot)
}

// takeOwn makes the engine's own relation of slot s the one this run
// resolves s to — a new one, or in a pooled engine the emptied one of
// an earlier run — starting from the database's facts of the tag: a
// predicate can have both facts and rules, and bound rows add to its
// facts, so neither shadows them. r is empty and the base a set, so no
// row can already be present.
func (e *Engine) takeOwn(s int) *store.Relation {
	tag := e.lay.tags[s]
	r := e.own[s]
	if r == nil {
		r = store.NewRelationSized(tag, e.lay.arity[s], e.opts.SizeHints[tag])
		e.own[s] = r
	}
	if base := e.DB.Relation(tag); base != nil {
		for i := 0; i < base.Len(); i++ {
			if err := r.AppendFrom(base, i); err != nil {
				panic(err) // same arity: the tag carries it
			}
		}
	}
	e.rels[s] = r
	return r
}

// Run computes every derived predicate, cliques in follows order.
func (e *Engine) Run() error {
	if e.ran {
		return nil
	}
	e.ensureHeads()
	for ci, c := range e.Graph.TopoCliques() {
		if len(c.Rules) == 0 {
			continue // base predicate
		}
		if err := e.evalClique(ci, c); err != nil {
			return err
		}
	}
	e.ran = true
	return nil
}

// ensureHeads pre-creates the derived relation of every rule head, so
// empty predicates exist.
func (e *Engine) ensureHeads() {
	for s := 0; s < e.lay.nderived; s++ {
		e.ensureDerived(s)
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

// deltaSets returns clique ci's two delta sets, empty and indexed by
// clique-local slot, creating them on the clique's first evaluation —
// pre-sized from the cardinality hints (deltas peak well below the
// full relation, so they get half the hint).
func (e *Engine) deltaSets(ci int) (cur, next []*store.Relation) {
	d := &e.deltas[ci]
	if d[0] == nil {
		slots := e.lay.cliques[ci].slots
		for k := range d {
			d[k] = make([]*store.Relation, len(slots))
			for j, s := range slots {
				tag := e.lay.tags[s]
				d[k][j] = store.NewRelationSized(tag+"Δ", e.lay.arity[s], e.opts.SizeHints[tag]/2)
			}
		}
		return d[0], d[1]
	}
	for _, set := range d {
		for _, r := range set {
			r.Reset()
		}
	}
	return d[0], d[1]
}

// evalClique runs the fixpoint for clique ci.
func (e *Engine) evalClique(ci int, c *depgraph.Clique) error {
	crs := e.compileRules(ci, c)
	cx := e.newEvalCtx()
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
		e.ensureDerived(cr.headSlot)
	}
	// Seed round: naive application of every rule from current state.
	deltas, next := e.deltaSets(ci)
	for _, cr := range crs {
		if err := cx.applyRule(cr, -1, nil, deltas[cr.headLocal]); err != nil {
			return err
		}
	}
	_, err := cx.rounds(c, crs, e.method(c), deltas, next)
	return err
}

// rounds runs a recursive clique's delta rounds from the seeded deltas
// until a round starts with every delta empty, and returns how many
// rounds it counted (each one in Counters.Iterations and against the
// governor, the final empty one included). Naive recomputes every rule
// from the full relations, and novelty filtering keeps only new
// tuples; semi-naive applies one variant per recursive body
// occurrence, sourcing that occurrence from the previous round's
// delta. The two delta sets alternate by clique-local slot: the set a
// round has finished reading is reset and refilled by the round after
// it, and each new head row is collected into next[cr.headLocal].
func (cx *evalCtx) rounds(c *depgraph.Clique, crs []*compiledRule, method Method, deltas, next []*store.Relation) (int, error) {
	e := cx.e
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
		for _, d := range next {
			d.Reset()
		}
		for _, cr := range crs {
			sink := next[cr.headLocal]
			if method == Naive {
				if err := cx.applyRule(cr, -1, nil, sink); err != nil {
					return iter + 1, err
				}
				continue
			}
			for bi, k := range cr.bodyLocal {
				if k < 0 {
					continue
				}
				if err := cx.applyRule(cr, bi, deltas[k], sink); err != nil {
					return iter + 1, err
				}
			}
		}
		deltas, next = next, deltas
	}
}

// evalCtx is the context of one clique evaluation: the engine it
// writes (derived relations, Engine.Counters) and the kernel states its
// rule applications reuse across rounds. Whoever takes a context calls
// release when the clique is done.
type evalCtx struct {
	e *Engine
	// kstates holds one kernel execution state per compiled rule this
	// context has run (register frames, probe and match buffers), taken
	// lazily by kstate.
	kstates []heldState
}

// newEvalCtx returns the engine's context, emptied, for one clique
// evaluation: cliques run one after another, so one context serves
// them all.
func (e *Engine) newEvalCtx() *evalCtx {
	e.cx.kstates = e.cx.kstates[:0]
	return &e.cx
}

// heldState is a kernel state an evaluation context holds, with the
// rule whose pool it returns to.
type heldState struct {
	cr *compiledRule
	ks *kernelState
}

// recordInserted does the bookkeeping for a head insert that was
// genuinely new — counters, the runaway backstop, the governor — and
// collects the row, the head's last, into sink when there is one. The
// row was just proven new to the head and sink only ever holds rows of
// that head, so it is appended without a dedup probe.
func (cx *evalCtx) recordInserted(head, sink *store.Relation) error {
	e := cx.e
	e.Counters.TuplesDerived++
	if e.Counters.TuplesDerived > e.opts.MaxTuples {
		return fmt.Errorf("%w: more than %d tuples", ErrRunaway, e.opts.MaxTuples)
	}
	if err := e.opts.Gov.AddTuples(1); err != nil {
		return err
	}
	if sink != nil {
		return sink.AppendFrom(head, head.Len()-1)
	}
	return nil
}

// compileRules resolves each rule of clique ci to its join kernel.
// With precompiled Options.Kernels for this program the lookup is
// free; otherwise rules are compiled once per clique evaluation —
// every fixpoint round and every semi-naive delta variant shares the
// same program either way.
func (e *Engine) compileRules(ci int, c *depgraph.Clique) []*compiledRule {
	if e.kern != nil {
		return e.lay.cliques[ci].rules
	}
	crs := make([]*compiledRule, len(c.Rules))
	for i, ri := range c.Rules {
		crs[i] = compileRule(e.Prog.Rules[ri])
		e.lay.annotate(crs[i])
		e.Counters.KernelCompiles++
	}
	return crs
}

// Answers runs the engine (if needed) and returns the ground instances
// of the query goal, deduplicated, in canonical order.
func (e *Engine) Answers(q lang.Query) ([]store.Tuple, error) {
	return e.AnswersFor(q.Goal.Tag(), q.Goal.Args)
}

// AnswersFor is Answers for a goal given as its predicate tag and
// arguments, which a caller holding the tag already builds no string
// for.
func (e *Engine) AnswersFor(tag string, args []term.Term) ([]store.Tuple, error) {
	if err := e.Run(); err != nil {
		return nil, err
	}
	rel := e.RelationFor(tag)
	if rel == nil {
		return nil, nil
	}
	rows := rel.Lookup(0, nil)
	e.Counters.Unifications += int64(len(rows))
	return Select(rows, args), nil
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
