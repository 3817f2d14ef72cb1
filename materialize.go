package ldl

// Materialized derived relations, maintained incrementally across
// epochs.
//
// A System opened with WithMaterialized keeps the full extensions of
// every derived predicate of the loaded program alongside each epoch.
// The views are part of the epoch: computed before the epoch publishes,
// immutable afterwards, so a reader that loads the snapshot gets facts
// and views from the same consistent version — publish stays atomic.
//
// Maintenance is the point. InsertFacts does not recompute the views
// from an empty fixpoint; it resumes the previous epoch's fixpoint with
// exactly the appended base rows as the seed delta (eval.RunIncremental),
// so an append of 10 tuples to a million-fact base costs work
// proportional to the 10 tuples' consequences. The insert-only epoch
// discipline makes this sound for the monotone fragment; strata that
// read a changed relation through negation are recomputed from scratch
// per-stratum (detected via the dependency graph), so answers are never
// silently stale. The equivalence suites check the views after every
// epoch against a fresh Load of the accumulated facts, whose boot
// computes the same views from an empty fixpoint.
//
// Watermarks: because relations only ever append, the state of a base
// relation at materialization time is just its row count. The epoch's
// matState records those counts; the next maintenance turns them into
// seed deltas with store.DeltaSince. Failure degrades instead of
// wedging writes: a maintenance error drops the views for that epoch
// (queries fall back to computing answers) and the next successful
// insert rebuilds them from scratch — counted in ivm_scratch_fallbacks.

import (
	"fmt"
	"sync/atomic"

	"ldl/internal/eval"
	"ldl/internal/parser"
	"ldl/internal/store"
	"ldl/internal/term"
)

// matConfig is the Load-time materialization configuration.
type matConfig struct {
	enabled bool
}

// matState is the materialized side of one epoch: the derived
// extensions and the base-relation watermarks (row counts) they were
// computed at. Immutable once the epoch publishes; unchanged relations
// are shared by pointer across epochs.
type matState struct {
	rels  map[string]*store.Relation // derived tag -> full extension
	marks map[string]int             // base tag -> row count at materialization
}

// ivmCounters is the System-lifetime maintenance telemetry behind
// IVMStats; all fields are updated atomically so STATS never takes the
// write lock.
type ivmCounters struct {
	epochs      atomic.Int64
	rounds      atomic.Int64
	scratchFB   atomic.Int64
	deltaRows   atomic.Int64
	lastDelta   atomic.Int64
	viewQueries atomic.Int64
}

// WithMaterialized makes the System maintain materialized views of
// every derived predicate, incrementally across epochs. Queries can
// then be served straight from the views with AnswersFromViews.
func WithMaterialized() SystemOption {
	return func(c *sysConfig) { c.mat.enabled = true }
}

// matSetup caches the compiled program kernels maintenance reuses every
// epoch. Called once from Load; a program that cannot be stratified
// cannot be materialized, so the graph's error surfaces at Load.
func (s *System) matSetup() error {
	if !s.matCfg.enabled {
		return nil
	}
	if s.graphErr != nil {
		return fmt.Errorf("ldl: materialize: %w", s.graphErr)
	}
	s.matKern = eval.CompileProgram(s.prog)
	return nil
}

// matEngine builds a maintenance engine over the epoch's database. The
// default eval backstops (10M tuples, 1M rounds) bound a diverging
// program; the graph and kernels are the Load-time cached ones.
func (s *System) matEngine(ep *epochState) (*eval.Engine, error) {
	return eval.New(s.prog, ep.db, eval.Options{
		Method:    eval.SemiNaive,
		SizeHints: ep.hints,
		Graph:     s.graph,
		Kernels:   s.matKern,
	})
}

// buildMat computes the matState for an epoch. With a prior state it
// continues the prior fixpoint from the appended base suffixes;
// otherwise (boot, or a rebuild after a degrade) it runs from scratch. Returns the number of
// appended base rows that seeded the continuation (0 for scratch).
func (s *System) buildMat(ep *epochState, prev *matState) (*matState, eval.IncrementalStats, int, error) {
	var st eval.IncrementalStats
	e, err := s.matEngine(ep)
	if err != nil {
		return nil, st, 0, err
	}
	base := 0
	if prev == nil {
		if err := e.Run(); err != nil {
			return nil, st, 0, err
		}
	} else {
		deltas := baseDeltas(ep.db, prev.marks)
		for _, d := range deltas {
			base += d.Len()
		}
		if st, err = e.RunIncremental(prev.rels, deltas); err != nil {
			return nil, st, 0, err
		}
	}
	rels := make(map[string]*store.Relation)
	for _, tag := range e.DerivedTags() {
		// Freeze each view's tail into an immutable shared part: the
		// next epoch's maintenance clones these (CloneOwned) to continue
		// the fixpoint, and a frozen relation clones at O(appended
		// delta) instead of O(view) — the epoch cost the watermark
		// machinery promises. Relations untouched since the last freeze
		// return themselves, so steady-state epochs add no parts.
		rels[tag] = e.RelationFor(tag).Frozen()
	}
	marks := make(map[string]int)
	for _, tag := range ep.db.Tags() {
		marks[tag] = ep.db.Relation(tag).Len()
	}
	return &matState{rels: rels, marks: marks}, st, base, nil
}

// baseDeltas derives the seed deltas from the watermarks: for every
// base relation that grew past its recorded mark (or appeared since),
// the appended suffix.
func baseDeltas(db *store.Database, marks map[string]int) map[string]*store.Relation {
	out := map[string]*store.Relation{}
	for _, tag := range db.Tags() {
		r := db.Relation(tag)
		if from := marks[tag]; r.Len() > from {
			out[tag] = r.DeltaSince(from)
		}
	}
	return out
}

// materializeBoot computes the initial views for the first epoch.
// Called from start on every boot tier, before the epoch is stored; a
// failure here fails Load — a program whose full fixpoint cannot be
// computed cannot be served from views at all.
func (s *System) materializeBoot(ep *epochState) error {
	if !s.matCfg.enabled {
		return nil
	}
	mat, _, _, err := s.buildMat(ep, nil)
	if err != nil {
		return fmt.Errorf("ldl: materialize: %w", err)
	}
	ep.mat = mat
	s.ivm.epochs.Add(1)
	return nil
}

// maintainViews carries the views from the previous epoch onto next.
// Called with writeMu held, before next is chained as the head, so the
// views publish atomically with the facts. Never fails the write: a
// maintenance error drops the views for this epoch (degrade, counted as
// a scratch fallback) and the next insert rebuilds from scratch.
func (s *System) maintainViews(next, prev *epochState) {
	if !s.matCfg.enabled {
		return
	}
	var pm *matState
	if prev != nil {
		pm = prev.mat
	}
	mat, st, base, err := s.buildMat(next, pm)
	if err != nil {
		next.mat = nil
		s.ivm.scratchFB.Add(1)
		return
	}
	next.mat = mat
	s.ivm.epochs.Add(1)
	if pm == nil {
		s.ivm.scratchFB.Add(1) // full recompute: rebuild after a degrade
		return
	}
	s.ivm.rounds.Add(int64(st.Rounds))
	s.ivm.scratchFB.Add(int64(st.CliquesScratch))
	delta := int64(base + st.DeltaDerived)
	s.ivm.deltaRows.Add(delta)
	s.ivm.lastDelta.Store(delta)
}

// Materialized reports whether the System maintains materialized views.
func (s *System) Materialized() bool { return s.matCfg.enabled }

// AnswersFromViews serves a query form directly from the current
// epoch's materialized views: no optimization, no fixpoint — an index
// probe on the ground argument positions plus a unification filter,
// with answers in the same canonical order as Query/Execute. ok is
// false (with no error) when the query cannot be served from views:
// the System is not materialized, this epoch's views were dropped by a
// maintenance degrade, or the predicate is unknown.
func (s *System) AnswersFromViews(goal string) (rows [][]string, ok bool, err error) {
	defer guard(&err)
	lit, err := parser.ParseLiteral(goal)
	if err != nil {
		return nil, false, err
	}
	ep := s.snapshot()
	if ep.mat == nil {
		return nil, false, nil
	}
	rel := ep.mat.rels[lit.Tag()]
	if rel == nil {
		// Base predicates serve straight from the (immutable) store.
		rel = ep.db.Relation(lit.Tag())
	}
	if rel == nil {
		return nil, false, nil
	}
	var mask uint32
	probe := make(store.Tuple, len(lit.Args))
	for i, a := range lit.Args {
		if i < 32 && term.Ground(a) {
			mask |= 1 << uint(i)
			probe[i] = a
		}
	}
	rows = renderRows(eval.Select(rel.Lookup(mask, probe), lit.Args))
	s.ivm.viewQueries.Add(1)
	return rows, true, nil
}

// IVMStats is the incremental-view-maintenance telemetry STATS exposes:
// how many epochs were materialized, how much incremental work they
// took, and when the system fell off the incremental path.
type IVMStats struct {
	// Enabled reports whether the System materializes views at all; the
	// other fields are zero when it does not.
	Enabled bool
	// Epochs counts successfully materialized epochs (including boot).
	Epochs int64
	// IncrementalRounds counts in-clique fixpoint rounds run by epoch
	// continuations — the work metric of the incremental path.
	IncrementalRounds int64
	// ScratchFallbacks counts per-stratum scratch recomputations:
	// negation over a changed stratum, and maintenance degrades.
	ScratchFallbacks int64
	// DeltaRows is the cumulative size of all epoch deltas (appended
	// base rows + newly derived rows); LastDeltaRows is the newest
	// epoch's.
	DeltaRows     int64
	LastDeltaRows int64
	// ViewQueries counts queries answered from the views.
	ViewQueries int64
}

// IVMStats reports the materialization counters.
func (s *System) IVMStats() IVMStats {
	return IVMStats{
		Enabled:           s.matCfg.enabled,
		Epochs:            s.ivm.epochs.Load(),
		IncrementalRounds: s.ivm.rounds.Load(),
		ScratchFallbacks:  s.ivm.scratchFB.Load(),
		DeltaRows:         s.ivm.deltaRows.Load(),
		LastDeltaRows:     s.ivm.lastDelta.Load(),
		ViewQueries:       s.ivm.viewQueries.Load(),
	}
}
