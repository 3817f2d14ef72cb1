// Package ldl is a from-scratch Go implementation of the LDL query
// optimizer described in R. Krishnamurthy & C. Zaniolo, "Optimization
// in a Logic Based Language for Knowledge and Data Intensive
// Applications" (EDBT 1988), together with the complete substrate that
// paper assumes: a Horn-clause language with complex terms and
// evaluable predicates, a relational/fixpoint execution engine,
// recursive-query rewrites (magic sets, counting), database statistics
// and a cost model.
//
// The entry point is a System: load a program (rules + facts), then ask
// it to Optimize query forms. Optimization is query-form-specific —
// sg(john, Y)? compiles to a different execution than sg(X, Y)? — and
// integrates safety: queries with no terminating execution are
// rejected with a diagnosis rather than looping forever.
//
//	sys, _ := ldl.Load(src)
//	plan, _ := sys.Optimize("sg(john, Y)", ldl.WithStrategy(ldl.StrategyExhaustive))
//	fmt.Println(plan.Explain())
//	rows, _ := plan.Execute()
package ldl

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldl/internal/core"
	"ldl/internal/cost"
	"ldl/internal/depgraph"
	"ldl/internal/eval"
	"ldl/internal/lang"
	"ldl/internal/parser"
	"ldl/internal/resource"
	"ldl/internal/segment"
	"ldl/internal/stats"
	"ldl/internal/store"
	"ldl/internal/wal"
)

// The resource-governor error taxonomy. Optimize, Execute and the
// evaluators return errors matchable with errors.Is against these
// sentinels when a configured budget is exceeded; every such error is
// a *ResourceError carrying the work counters at the violation, read
// with errors.As. Safety (rejecting queries with no terminating
// execution) is a static guarantee; these budgets are the dynamic
// complement — a safe query can still be too expensive to run.
var (
	// ErrTimeout: the WithTimeout bound or the WithContext deadline
	// passed before the call finished.
	ErrTimeout = resource.ErrTimeout
	// ErrCanceled: the WithContext context was canceled.
	ErrCanceled = resource.ErrCanceled
	// ErrTupleBudget: evaluation derived more tuples than WithMaxTuples
	// allows.
	ErrTupleBudget = resource.ErrTupleBudget
	// ErrIterationBudget: the fixpoint ran more rounds than
	// WithMaxIterations allows.
	ErrIterationBudget = resource.ErrIterationBudget
	// ErrOptimizerBudget: the plan search exhausted WithOptimizerBudget.
	// Inside Optimize this triggers graceful degradation to the KBZ
	// strategy instead of failing, so it is rarely observed by callers;
	// it is exported so the taxonomy is complete.
	ErrOptimizerBudget = resource.ErrOptimizerBudget
	// ErrInternal wraps a recovered internal panic: the library
	// guarantees that no malformed program or optimizer bug can take
	// down a serving process through Load, Optimize or Execute.
	ErrInternal = errors.New("ldl: internal error")
)

// ResourceError is the concrete type of all budget errors; Counters
// reports tuples derived, fixpoint iterations, optimizer states
// explored and elapsed time at the moment the budget tripped.
type ResourceError = resource.ResourceError

// ResourceCounters is the counter block inside a ResourceError.
type ResourceCounters = resource.Counters

// guard converts a panic escaping an internal layer into ErrInternal.
// Deferred at every public API boundary so one bad program cannot
// crash the process hosting the library.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: panic: %v", ErrInternal, r)
	}
}

// Strategy names the optimizer's search strategy for conjunct ordering.
type Strategy string

// The three interchangeable strategies of the paper's §7.1, plus the
// Selinger dynamic-programming variant of exhaustive search.
const (
	StrategyExhaustive Strategy = "exhaustive"
	StrategyDP         Strategy = "dp"
	StrategyKBZ        Strategy = "kbz"
	StrategyAnneal     Strategy = "anneal"
)

func (s Strategy) impl(seed int64) (core.Strategy, error) {
	switch s {
	case StrategyExhaustive, "":
		return core.Exhaustive{}, nil
	case StrategyDP:
		return core.DP{}, nil
	case StrategyKBZ:
		return core.KBZ{}, nil
	case StrategyAnneal:
		return core.Anneal{Seed: seed}, nil
	}
	return nil, fmt.Errorf("ldl: unknown strategy %q", s)
}

// System is a loaded knowledge base: rule base, fact base and gathered
// statistics. The fact base is versioned into epochs: every update
// (InsertFacts, SetStats) builds a new immutable epoch and publishes it
// atomically, so any number of concurrent readers (Execute, Prepared
// executions) run against a consistent snapshot while exactly one
// writer at a time advances the state. An epoch is never mutated after
// publication — executions fork it copy-on-write for their transient
// seed facts.
type System struct {
	prog    *lang.Program
	queries []lang.Query

	// writeMu serializes epoch construction; epoch is the atomically
	// published current snapshot. head is the newest *appended* epoch —
	// under group commit a writer chains its epoch onto head (and logs
	// it) inside writeMu, then waits for the cohort fsync and publishes
	// outside it, so the log never stalls behind an fsync and readers
	// never see a batch before it is durable. head == published except
	// in the window where commits are in flight; headLSN is the log
	// position covering head. Both are guarded by writeMu.
	writeMu sync.Mutex
	epoch   atomic.Pointer[epochState]
	head    *epochState
	headLSN int64

	// changed is the publish broadcast behind Changed: nil until someone
	// asks, closed and cleared by the next publish. Guarded by changedMu.
	changedMu sync.Mutex
	changed   chan struct{}

	// readOnly marks a replica: InsertFacts refuses with a
	// *ReadOnlyError pointing at leaderAddr until Promote. Guarded by
	// writeMu.
	readOnly   bool
	leaderAddr string

	// term is the leader-term high-water mark (guarded by writeMu):
	// every logged batch is stamped with it, Promote bumps it, and
	// ObserveTerm adopts higher terms seen on the wire — demoting a
	// stale leader to read-only when one appears. fenced counts fencing
	// events (stale streams refused, demotions latched) for STATS.
	term   uint64
	fenced atomic.Int64

	// observed holds derived-extension statistics recorded after
	// materializing executions (exact cardinality and live per-column
	// distinct counts of fully computed derived predicates). When
	// feedback is enabled they overlay the catalog at Optimize/Prepare
	// time, replacing the optimizer's static analytic estimates. Kept
	// outside the epoch so recording an observation does not advance the
	// epoch (which would invalidate prepared-plan caches keyed on it).
	obsMu    sync.Mutex
	observed map[string]stats.RelStats
	feedback atomic.Bool

	// Durability (nil / zero unless Load saw WithStorageDir — the
	// in-memory path pays only a nil check). wal is the write-ahead log
	// every committed batch hits before its epoch publishes; recovery
	// is what boot found in the storage directory; ckptBytes triggers
	// the background checkpointer, ckptBusy dedupes triggers and ckptMu
	// serializes the checkpoints themselves. seg is the segment
	// directory state behind segCheckpoint and StorageStats (seg.man is
	// guarded by ckptMu); segFlushes is the lifetime flush counter.
	wal        *wal.Log
	recovery   *wal.RecoveryReport
	ckptBytes  int64
	ckptBusy   atomic.Bool
	ckptMu     sync.Mutex
	seg        *segState
	segFlushes atomic.Int64

	// graph is the program's dependency analysis, made once at Load and
	// read-only after: every Prepare's optimizer and every epoch's view
	// maintenance share it. graphErr (a program that cannot be
	// stratified) surfaces where the graph is first needed — Prepare
	// and Query, or Load itself for a materialized System.
	graph    *depgraph.Graph
	graphErr error

	// Materialized views (zero unless Load saw WithMaterialized):
	// maintenance configuration, the Load-time compiled kernels every
	// epoch's maintenance reuses, and the lifetime telemetry behind
	// IVMStats. The views themselves live on the epoch (epochState.mat)
	// so they publish atomically with the facts.
	matCfg  matConfig
	matKern *eval.ProgramKernels
	ivm     ivmCounters
}

// epochState is one immutable published version of the fact base: the
// database, its statistics catalog, and the evaluator pre-sizing hints
// derived from the catalog.
type epochState struct {
	id    uint64
	db    *store.Database
	cat   *stats.Catalog
	hints map[string]int
	// mat holds this epoch's materialized derived relations and base
	// watermarks; nil when the System is not materialized or this
	// epoch's maintenance degraded. Immutable after publication, like
	// everything else here.
	mat *matState
}

// newEpoch assembles an epoch, deriving the size hints: base predicates
// get their exact cardinality so derived relations seeded from base
// facts skip every rehash growth step up to that size.
func newEpoch(id uint64, db *store.Database, cat *stats.Catalog) *epochState {
	hints := make(map[string]int)
	for _, tag := range cat.Tags() {
		if c := cat.Stats(tag).Card; c > 0 {
			hints[tag] = int(c)
		}
	}
	return &epochState{id: id, db: db, cat: cat, hints: hints}
}

// snapshot returns the current epoch. The returned state is immutable;
// callers may read it for as long as they like regardless of concurrent
// writers.
func (s *System) snapshot() *epochState { return s.epoch.Load() }

// headState returns the newest appended epoch — the one new writes must
// chain onto, which is ahead of the published snapshot while a group
// commit is in flight. Caller holds writeMu.
func (s *System) headState() *epochState {
	if s.head != nil {
		return s.head
	}
	return s.epoch.Load()
}

// publish makes next the current snapshot unless a later epoch already
// is. Out-of-order publication happens under group commit: writer B's
// cohort fsync (covering A's record too) can finish before A wakes up —
// B publishes both, and A's late store must not roll the snapshot back.
// A later epoch always contains every earlier epoch's facts, so the
// monotonic rule is safe. A winning store wakes every Changed waiter.
func (s *System) publish(next *epochState) {
	for {
		cur := s.epoch.Load()
		if cur != nil && cur.id >= next.id {
			return
		}
		if s.epoch.CompareAndSwap(cur, next) {
			break
		}
	}
	s.changedMu.Lock()
	if s.changed != nil {
		close(s.changed)
		s.changed = nil
	}
	s.changedMu.Unlock()
}

// Changed returns a channel that is closed the next time a new epoch
// publishes — on a leader's commit, a follower's replicated apply, or a
// statistics refresh. Bursts coalesce: one close covers every publish
// until the channel is asked for again. To wait without missing an
// epoch, take the channel before reading Epoch:
//
//	for ch := sys.Changed(); sys.Epoch() < want; ch = sys.Changed() {
//		<-ch
//	}
func (s *System) Changed() <-chan struct{} {
	s.changedMu.Lock()
	defer s.changedMu.Unlock()
	if s.changed == nil {
		s.changed = make(chan struct{})
	}
	return s.changed
}

// Epoch returns the identifier of the currently published fact-base
// version. It increases by one per update; two executions reporting the
// same epoch saw the same facts.
func (s *System) Epoch() uint64 { return s.snapshot().id }

// Load parses LDL source text (rules, facts and optional "goal?" query
// forms), loads the facts and gathers exact statistics. With
// WithStorageDir the facts recovered from the storage directory (the
// newest manifest's segments plus the log tail) are merged with the
// program's own, and subsequent InsertFacts batches are write-ahead
// logged.
func Load(src string, opts ...SystemOption) (_ *System, err error) {
	defer guard(&err)
	cfg := sysConfig{walFS: wal.OS()}
	for _, f := range opts {
		f(&cfg)
	}
	prog, queries, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	// Predicates mixing facts and rules are normalized so program
	// rewrites (magic, counting) keep their facts.
	prog, err = lang.Normalize(prog)
	if err != nil {
		return nil, err
	}
	s := &System{prog: prog, queries: queries, observed: map[string]stats.RelStats{}}
	s.graph, s.graphErr = depgraph.Analyze(prog)
	s.term = 1 // terms start at 1; durable boots raise it from recovery
	s.matCfg = cfg.mat
	if err := s.matSetup(); err != nil {
		return nil, err
	}
	// Both tiers boot the same way: a prefix of the database (nothing,
	// or the storage tier's attached segments), the program facts, the
	// log suffix replayed through applyBatch, then the boot epoch.
	db, man := store.NewDatabase(), &segment.Manifest{}
	if cfg.segDir != "" {
		// Segment parts attach before any tail row, program facts included.
		if man, err = s.attachSegments(db, cfg); err != nil {
			return nil, err
		}
	}
	if err := db.LoadFacts(prog); err != nil {
		return nil, err
	}
	id := max(1, man.Epoch)
	if cfg.segDir != "" {
		if err := s.openLog(db, cfg, man.Epoch); err != nil {
			return nil, err
		}
		id = max(id, s.recovery.Epoch)
	}
	// The boot catalog is the manifest's persisted statistics (none off
	// the storage tier) updated for every relation that grew past its
	// flushed watermark — the same stats.Update every later epoch makes,
	// so a clean segment boot gathers nothing.
	cat, grown := stats.NewCatalog(), map[string]int{}
	for _, re := range man.Rels {
		cat.Set(re.Tag, re.Stats)
		if db.Relation(re.Tag).Len() > re.Rows {
			grown[re.Tag] = re.Rows
		}
	}
	if err := s.start(id, db, stats.Update(cat, db, grown)); err != nil {
		return nil, err
	}
	return s, nil
}

// start publishes a System's first epoch, on every tier. Views are
// process-local (never logged or checkpointed), so they are rebuilt here
// from the booted facts in one scratch run; maintenance is incremental
// from the next epoch on.
func (s *System) start(id uint64, db *store.Database, cat *stats.Catalog) error {
	ep := newEpoch(id, db, cat)
	if err := s.materializeBoot(ep); err != nil {
		return err
	}
	s.epoch.Store(ep)
	return nil
}

// InsertFacts parses src — which must contain only facts — and
// publishes a new epoch containing them. The current epoch is forked
// copy-on-write: only the relations the batch touches are duplicated,
// and only their statistics are re-gathered (from the store's
// incrementally maintained exact counters), so the cost of an update is
// proportional to the touched relations, not the database. Concurrent
// readers keep their snapshots; the new facts are visible to executions
// that start after InsertFacts returns. It returns the number of
// genuinely new tuples and the new epoch id.
func (s *System) InsertFacts(src string) (added int, epoch uint64, err error) {
	defer guard(&err)
	prog, queries, err := parser.ParseProgram(src)
	if err != nil {
		return 0, 0, err
	}
	if len(queries) > 0 {
		return 0, 0, fmt.Errorf("ldl: InsertFacts: source contains a query form")
	}
	if len(prog.Rules) > 0 {
		return 0, 0, fmt.Errorf("ldl: InsertFacts: %s is a rule, not a fact", prog.Rules[0].Head)
	}
	return s.commit(factBatch(prog.Facts), true)
}

// factBatch groups parsed facts into the wal.Batch a leader commits:
// one entry per relation, each relation's tuples in source order, the
// relations sorted by tag for a deterministic log encoding. The same
// batch is applied to the store and logged, so the rows a leader
// inserts are exactly the rows its followers and its recovery replay.
func factBatch(facts []lang.Rule) wal.Batch {
	byTag := map[string]*wal.RelFacts{}
	var tags []string
	for _, c := range facts {
		tag := c.Head.Tag()
		g := byTag[tag]
		if g == nil {
			g = &wal.RelFacts{Tag: tag, Arity: c.Head.Arity()}
			byTag[tag] = g
			tags = append(tags, tag)
		}
		g.Tuples = append(g.Tuples, c.Head.Args)
	}
	sort.Strings(tags)
	rels := make([]wal.RelFacts, len(tags))
	for i, tag := range tags {
		rels[i] = *byTag[tag]
	}
	return wal.Batch{Rels: rels}
}

// applyBatch inserts a batch of base facts into db — the only code that
// adds outside rows to a store: leader commits, follower applies and
// log recovery all land here. It returns each touched relation's length
// before the batch (the watermarks stats.Update and view maintenance
// read the appended suffix from) and the number of genuinely new rows.
func (s *System) applyBatch(db *store.Database, b wal.Batch) (marks map[string]int, added int, err error) {
	marks = make(map[string]int, len(b.Rels))
	for _, r := range b.Rels {
		if s.prog.IsDerived(r.Tag) {
			return nil, 0, fmt.Errorf("%s is a derived predicate in the current program", r.Tag)
		}
		rel := db.EnsureOwned(r.Tag, r.Arity)
		if _, seen := marks[r.Tag]; !seen {
			marks[r.Tag] = rel.Len()
		}
		for _, tup := range r.Tuples {
			isNew, err := rel.Insert(store.Tuple(tup))
			if err != nil {
				return nil, 0, err
			}
			if isNew {
				added++
			}
		}
	}
	return marks, added, nil
}

// commit is the one write path of the epoch chain, shared by leader
// InsertFacts (leader) and follower ApplyReplicated (!leader). Under
// writeMu a caller-specific gate runs first — a leader refuses when
// read-only and stamps the batch with the next epoch and its term; a
// follower fences stale terms, adopts newer ones, and skips term bumps
// and duplicates — then the shared steps: fork the head, apply the
// batch, derive the catalog, append the log record without syncing,
// maintain the views, freeze the written relations, and chain the epoch
// as the new head. Every step costs O(batch), not O(relation). The critical
// section holds no fsync, so concurrent writers pile their records into
// one segment back to back — the cohort one group commit covers.
//
// Outside writeMu comes write-ahead ordering: the record must be durable
// (per the fsync policy) before any reader can observe its epoch. On
// failure the epoch is not published and the log is wedged, so no later
// batch can publish over the hole. A skipped batch returns epoch 0.
func (s *System) commit(b wal.Batch, leader bool) (added int, epoch uint64, err error) {
	op := "replicate"
	if leader {
		op = "InsertFacts"
	}
	var next *epochState
	var lsn int64
	if err := func() error {
		s.writeMu.Lock()
		defer s.writeMu.Unlock()
		ep := s.headState()
		if leader {
			if s.readOnly {
				return &ReadOnlyError{Leader: s.leaderAddr}
			}
			b.Epoch, b.Term = ep.id+1, s.term
		} else {
			// A batch from a term below the high-water mark comes from a
			// deposed leader — refused before the epoch dedup, so even a
			// "duplicate" from a stale stream surfaces the fence. Term 0
			// marks a pre-term stream and bypasses the check.
			if b.Term > 0 && b.Term < s.term {
				s.fenced.Add(1)
				return &FencedError{Local: s.term, Stream: b.Term}
			}
			s.term = max(s.term, b.Term)
			if b.Kind == wal.RecTerm || b.Epoch <= ep.id {
				return nil // a term bump carries no facts; older epochs are redelivery
			}
		}
		db := ep.db.Fork()
		marks, n, err := s.applyBatch(db, b)
		if err != nil {
			return fmt.Errorf("ldl: %s: %w", op, err)
		}
		added, next = n, newEpoch(b.Epoch, db, stats.Update(ep.cat, db, marks))
		if s.wal != nil {
			if lsn, err = s.wal.AppendCommit(b); err != nil {
				return fmt.Errorf("ldl: %s: write-ahead log: %w", op, err)
			}
			s.headLSN = lsn
		}
		// Views continue the previous fixpoint from exactly this batch's
		// rows, before the epoch is chained, so they publish with it.
		s.maintainViews(next, ep)
		// Publish every written relation frozen: its rows move into
		// immutable parts, so the next commit's fork copies none of them.
		for tag := range marks {
			db.Freeze(tag)
		}
		s.head = next
		return nil
	}(); err != nil || next == nil {
		return 0, 0, err
	}
	if s.wal != nil {
		if err := s.wal.Commit(lsn); err != nil {
			return 0, 0, fmt.Errorf("ldl: %s: write-ahead log: %w", op, err)
		}
	}
	s.publish(next)
	s.maybeCheckpoint()
	return added, next.id, nil
}

// EnableStatsFeedback turns on the execution→cost-model feedback loop:
// after each materializing execution the exact cardinality and live
// per-column distinct counts of every fully computed derived predicate
// are recorded, and later Optimize/Prepare calls use them in place of
// the static analytic estimates. Off by default so that plan choice is
// a pure function of the loaded facts (the reproducibility property the
// optimizer tests rely on); the serving layer turns it on.
func (s *System) EnableStatsFeedback(on bool) { s.feedback.Store(on) }

// effectiveCat returns the epoch catalog, overlaid with the observed
// derived-extension statistics when feedback is enabled.
func (s *System) effectiveCat(ep *epochState) *stats.Catalog {
	if !s.feedback.Load() {
		return ep.cat
	}
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	if len(s.observed) == 0 {
		return ep.cat
	}
	cat := ep.cat.Clone()
	for tag, st := range s.observed {
		cat.Set(tag, st)
	}
	return cat
}

// recordObserved walks the engine's derived relations after a run and
// records them into the feedback overlay. A derived tag carrying the
// all-free adornment (pred.ff…f) is, by construction of the rewrites,
// the complete extension of pred — its exact cardinality and distinct
// counts are ground truth for the cost model, recorded under the plain
// tag and overwritten freely. A partially bound adornment (pred.bf…)
// is the extension restricted by this execution's constants; it is
// recorded under the adorned tag itself — which is exactly what
// statsOf looks up when costing the rewritten program of a later query
// of the same form — aggregated as the max over the constants seen, the
// safe estimate for an arbitrary future binding.
func (s *System) recordObserved(e *eval.Engine) {
	if !s.feedback.Load() {
		return
	}
	for _, tag := range e.DerivedTags() {
		slash := strings.LastIndexByte(tag, '/')
		if slash < 0 {
			continue
		}
		name := tag[:slash]
		// The magic rewrite materializes the restricted extension of an
		// adorned predicate as a$pred.adorn — strip the prefix so it is
		// recorded under the adorned tag itself (the tag statsOf costs).
		// The other rewrite auxiliaries (m$ seeds, c$ supplementaries,
		// q$ answer projections) are not predicate extensions: skip.
		if rest, ok := strings.CutPrefix(name, "a$"); ok {
			name = rest
		} else if strings.ContainsRune(name, '$') {
			continue
		}
		dot := strings.LastIndexByte(name, '.')
		if dot < 0 {
			continue
		}
		pat := name[dot+1:]
		if len(pat) == 0 || strings.Count(pat, "f")+strings.Count(pat, "b") != len(pat) {
			continue // not an adornment pattern
		}
		r := e.RelationFor(tag)
		if r == nil || r.Len() == 0 {
			continue
		}
		st := stats.GatherOne(r)
		s.obsMu.Lock()
		if strings.Count(pat, "f") == len(pat) {
			// Full extension: ground truth, latest run wins.
			s.observed[name[:dot]+tag[slash:]] = st
		} else {
			// Bound form: max over constants.
			key := name + tag[slash:]
			if old, ok := s.observed[key]; !ok || st.Card > old.Card {
				s.observed[key] = st
			}
		}
		s.obsMu.Unlock()
	}
}

// Queries returns the query forms embedded in the source ("goal?").
func (s *System) Queries() []string {
	out := make([]string, len(s.queries))
	for i, q := range s.queries {
		out[i] = q.Goal.String()
	}
	return out
}

// Relations lists the base and loaded relations with cardinalities.
func (s *System) Relations() []string {
	ep := s.snapshot()
	var out []string
	for _, tag := range ep.db.Tags() {
		out = append(out, fmt.Sprintf("%s (%d tuples)", tag, ep.db.Relation(tag).Len()))
	}
	sort.Strings(out)
	return out
}

// SetStats overrides the statistics of one relation — the hook
// experiments use to explore synthetic "states of the database". Like
// every statistics change it publishes a new epoch (same facts, new
// catalog), so prepared plans keyed on the epoch re-optimize.
func (s *System) SetStats(tag string, card float64, distinct []float64) {
	s.writeMu.Lock()
	ep := s.headState() // chain off head: an in-flight commit's facts must stay in the chain
	cat := ep.cat.Clone()
	cat.Set(tag, stats.RelStats{Card: card, Distinct: distinct})
	if s.seg != nil {
		s.seg.overridden[tag] = true
	}
	next := newEpoch(ep.id+1, ep.db, cat)
	next.mat = ep.mat // same facts, same views
	s.head = next
	lsn := s.headLSN
	s.writeMu.Unlock()
	if s.wal != nil && lsn > 0 {
		// The chained epoch carries facts whose commit may still be in
		// flight; wait for their durability before publishing over them.
		if s.wal.Commit(lsn) != nil {
			return // log wedged: the stats tweak dies with the write path
		}
	}
	s.publish(next)
}

// Option configures one Optimize call.
type Option func(*options)

type options struct {
	strategy Strategy
	seed     int64
	flatten  bool

	// Resource governor configuration. Zero values mean "no limit";
	// with everything zero no governor is built and the hot paths pay
	// only a nil check.
	ctx           context.Context
	timeout       time.Duration
	maxTuples     int
	maxIterations int
	optStates     int
}

// with returns o overlaid with opts.
func (o options) with(opts []Option) options {
	for _, f := range opts {
		f(&o)
	}
	return o
}

// governor builds the resource governor for one call. Each call gets a
// fresh deadline (now + timeout), so a Plan optimized under a timeout
// grants every Execute the full duration again.
func (o *options) governor() *resource.Governor {
	b := resource.Budget{
		MaxTuples:     o.maxTuples,
		MaxIterations: o.maxIterations,
		MaxStates:     o.optStates,
	}
	if o.timeout > 0 {
		b.Deadline = time.Now().Add(o.timeout)
	}
	return resource.New(o.ctx, b)
}

// WithStrategy selects the search strategy (default exhaustive).
func WithStrategy(st Strategy) Option { return func(o *options) { o.strategy = st } }

// WithSeed seeds the stochastic strategy.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithContext makes the call observe ctx: cancellation surfaces as
// ErrCanceled, a context deadline as ErrTimeout. The check is
// amortized (the clock is read every few hundred derivations), so
// cancellation takes effect within microseconds, not instantly.
func WithContext(ctx context.Context) Option { return func(o *options) { o.ctx = ctx } }

// WithTimeout bounds the wall-clock time of each governed call
// (Optimize, and each Execute separately); exceeding it returns
// ErrTimeout wrapping a *ResourceError.
func WithTimeout(d time.Duration) Option { return func(o *options) { o.timeout = d } }

// WithMaxTuples bounds how many tuples an execution may derive across
// all relations; exceeding it returns ErrTupleBudget. It bounds space
// as well as time: every derived tuple is materialized.
func WithMaxTuples(n int) Option { return func(o *options) { o.maxTuples = n } }

// WithMaxIterations bounds the number of fixpoint rounds; exceeding it
// returns ErrIterationBudget.
func WithMaxIterations(n int) Option { return func(o *options) { o.maxIterations = n } }

// WithOptimizerBudget bounds the plan-search effort of Optimize to n
// explored states (join orders costed, c-permutations priced). On
// exhaustion the optimizer degrades instead of failing: rule-ordering
// search falls back to the quadratic KBZ strategy and the recursive
// -clique search keeps the best candidate priced so far. Downgrades are
// recorded in Plan.Explain. KBZ itself is exempt (it is the floor of
// the ladder), so Optimize still returns a plan unless time runs out.
func WithOptimizerBudget(n int) Option { return func(o *options) { o.optStates = n } }

// WithFlattening enables the §8.3 rescue: when a query form has no
// safe execution, non-recursive single-rule predicates are unfolded
// into their callers (the FU transformation applied as rewriting) and
// the search retried — the extension the paper sketches for later
// optimizer versions.
func WithFlattening() Option { return func(o *options) { o.flatten = true } }

// Plan is one goal optimized and compiled with its constants inline: a
// Prepared form pinned to the epoch it was optimized against. Execute
// runs on that snapshot with the precompiled kernels, so a Plan's
// answers are stable under concurrent InsertFacts and repeated
// executions skip optimization and kernel compilation alike.
type Plan struct {
	prep  *Prepared
	epoch *epochState
	// Optimizer diagnostics.
	MemoLookups int
	MemoHits    int
}

// Optimize compiles and optimizes one query form, e.g. "sg(john, Y)".
// It never fails on unsafe queries — it returns a Plan whose Safe()
// reports false with a Reason(); Execute then refuses to run.
func (s *System) Optimize(goal string, opts ...Option) (_ *Plan, err error) {
	defer guard(&err)
	o := options{}.with(opts)
	lit, err := parser.ParseLiteral(goal)
	if err != nil {
		return nil, err
	}
	ep := s.snapshot()
	p, opt, err := s.prepare(ep, lit.String(), lit, 0, o)
	if err != nil {
		return nil, err
	}
	return &Plan{prep: p, epoch: ep, MemoLookups: opt.MemoLookups, MemoHits: opt.MemoHits}, nil
}

// Safe reports whether a safe (terminating) execution was found.
func (p *Plan) Safe() bool { return p.prep.Safe() }

// Reason explains why the query is unsafe (empty when Safe).
func (p *Plan) Reason() string { return p.prep.Reason() }

// Cost is the estimated cost of the chosen execution (+Inf if unsafe).
func (p *Plan) Cost() float64 { return p.prep.Cost() }

// Explain renders the chosen processing tree (Figure 4-1 style:
// squares materialize, triangles pipeline, CC marks recursive cliques).
func (p *Plan) Explain() string { return p.prep.explain("query: " + p.prep.key + "?") }

// ExecStats reports how much work an execution did.
type ExecStats struct {
	TuplesDerived int
	Iterations    int
	Unifications  int64
	Lookups       int64
	// KernelCompiles counts rule bodies compiled to join kernels during
	// this execution. Optimized executions (Plan and Prepared alike)
	// run kernels compiled once when the form was optimized, so they
	// always report 0; only EvaluateUnoptimized compiles here.
	KernelCompiles int
	// KernelFallbacks is always 0: every rule compiles to a join
	// kernel, so no rule falls back to an interpreter. The field stays
	// because the benchmark's traced run and the corpus goldens
	// (fallbacks=0) still read it.
	KernelFallbacks int
	// Blocks counts columnar frames the kernel executor dispatched
	// between join steps, including the one-row frames of applications
	// that read the relation they insert into.
	Blocks int64
	// Epoch identifies the fact-base snapshot the execution ran
	// against.
	Epoch uint64
}

// Execute evaluates the plan on its epoch and returns the answers as
// rows of rendered terms, in canonical order.
func (p *Plan) Execute() ([][]string, error) {
	rows, _, err := p.ExecuteStats()
	return rows, err
}

// ExecuteStats is Execute plus work counters.
func (p *Plan) ExecuteStats() (_ [][]string, es ExecStats, err error) {
	defer guard(&err)
	if !p.Safe() {
		return nil, es, fmt.Errorf("ldl: query %s is unsafe: %s", p.prep.key, p.Reason())
	}
	return p.prep.run(p.epoch, p.prep.shape.Args, nil, p.prep.opts)
}

// methodOverrides maps the plan's per-fixpoint recursive-method choices
// onto the compiled program's predicate tags (naive evaluation is the
// only one the engine needs told about; semi-naive is its default).
func methodOverrides(fixMethods map[string]cost.RecMethod, prog2 *lang.Program) map[string]eval.Method {
	methodFor := map[string]eval.Method{}
	for tag, meth := range fixMethods {
		if meth != cost.RecNaive {
			continue
		}
		base := tag[:strings.IndexByte(tag, '/')]
		for _, t2 := range prog2.PredTags() {
			name := t2[:strings.LastIndexByte(t2, '/')]
			if name == base || strings.HasPrefix(name, base+".") {
				methodFor[t2] = eval.Naive
			}
		}
	}
	return methodFor
}

func execStats(e *eval.Engine, epoch uint64) ExecStats {
	return ExecStats{
		TuplesDerived:  e.Counters.TuplesDerived,
		Iterations:     e.Counters.Iterations,
		Unifications:   e.Counters.Unifications,
		Lookups:        e.Counters.Lookups,
		KernelCompiles: e.Counters.KernelCompiles,
		Blocks:         e.Counters.Blocks,
		Epoch:          epoch,
	}
}

func renderRows(ts []store.Tuple) [][]string {
	rows := make([][]string, len(ts))
	for i, t := range ts {
		row := make([]string, len(t))
		for j, v := range t {
			row[j] = v.String()
		}
		rows[i] = row
	}
	return rows
}

// Query is the one-shot convenience: optimize with defaults and run.
func (s *System) Query(goal string, opts ...Option) ([][]string, error) {
	p, err := s.Optimize(goal, opts...)
	if err != nil {
		return nil, err
	}
	if !p.Safe() {
		return nil, fmt.Errorf("ldl: query %s is unsafe: %s", goal, p.Reason())
	}
	return p.Execute()
}

// EvaluateTopDown answers the goal with the tabled top-down evaluator:
// goal-directed resolution with one answer table per call pattern — the
// literal realization of pipelined execution, and an independent oracle
// against the bottom-up engine. It can answer bound query forms (e.g. a
// list-consuming recursion with the list supplied) whose bottom-up
// fixpoint does not exist.
func (s *System) EvaluateTopDown(goal string, opts ...Option) (_ [][]string, es ExecStats, err error) {
	defer guard(&err)
	o := options{}.with(opts)
	lit, err := parser.ParseLiteral(goal)
	if err != nil {
		return nil, es, err
	}
	ep := s.snapshot()
	td := eval.NewTopDown(s.prog, ep.db, eval.Options{MaxTuples: 5_000_000, MaxIterations: 200_000, Gov: o.governor()})
	ts, err := td.Query(lang.Query{Goal: lit})
	if err != nil {
		return nil, es, err
	}
	es = ExecStats{
		TuplesDerived: td.Counters.TuplesDerived,
		Iterations:    td.Counters.Iterations,
		Unifications:  td.Counters.Unifications,
		Lookups:       td.Counters.Lookups,
		Epoch:         ep.id,
	}
	return renderRows(ts), es, nil
}

// EvaluateUnoptimized runs the query on the original program with plain
// semi-naive evaluation and no optimization — the baseline the paper's
// optimizer improves on, exposed for comparison and testing.
func (s *System) EvaluateUnoptimized(goal string, opts ...Option) (_ [][]string, es ExecStats, err error) {
	defer guard(&err)
	o := options{}.with(opts)
	lit, err := parser.ParseLiteral(goal)
	if err != nil {
		return nil, es, err
	}
	ep := s.snapshot()
	e, err := eval.New(s.prog, ep.db, eval.Options{
		Method:    eval.SemiNaive,
		SizeHints: ep.hints,
		Gov:       o.governor(), Graph: s.graph,
	})
	if err != nil {
		return nil, es, err
	}
	ts, err := e.Answers(lang.Query{Goal: lit})
	if err != nil {
		return nil, es, err
	}
	return renderRows(ts), execStats(e, ep.id), nil
}
