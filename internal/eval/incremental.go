package eval

// Cross-epoch incremental fixpoint (incremental view maintenance).
//
// The epoch discipline is insert-only, so when a batch appends base
// tuples the previous epoch's derived relations are a sound *starting
// point* for the next fixpoint: within the monotone fragment nothing
// ever needs to be retracted, and semi-naive evaluation already knows
// how to grow a fixpoint from a delta. RunIncremental resumes the
// stratified fixpoint from the prior epoch's derived relations,
// seeding each clique with exactly the changed rows of its inputs —
// the appended base suffix, plus the derived consequences of upstream
// cliques — instead of re-deriving the world from empty relations.
//
// Per clique (in the follows order), three outcomes:
//
//   - unchanged: no input changed → the prior relation is shared by
//     pointer. Zero work, zero memory.
//   - incremental: inputs changed only through positive literals → the
//     prior relation is cloned (flat array copies, indexes carried),
//     and a cross-epoch seed round applies one semi-naive variant per
//     changed body occurrence — the delta occurrence reads the change,
//     every other occurrence reads the full new relation, which covers
//     every new derivation (any new combination contains at least one
//     changed row; the variant designating that occurrence finds it).
//     Recursive cliques then iterate the ordinary in-clique semi-naive
//     rounds from the tuples the seed round produced.
//   - scratch: some rule reads a changed input through negation (or an
//     upstream clique changed non-monotonically). Insert-only at the
//     base does NOT imply growth here — a new fact can newly satisfy a
//     negated goal and retract derived tuples — so the clique is
//     recomputed from scratch, exactly as a fresh run would. Its
//     output is then diffed against the prior epoch: if it grew
//     monotonically anyway, downstream cliques continue incrementally
//     from the diff; if anything was retracted, everything downstream
//     of it falls back to scratch too (detected per clique via the
//     dependency graph, never silently stale).

import (
	"fmt"

	"ldl/internal/depgraph"
	"ldl/internal/lang"
	"ldl/internal/store"
	"ldl/internal/term"
)

// IncrementalStats reports what an epoch continuation did — the
// serving layer aggregates these into the ivm_* operator counters.
type IncrementalStats struct {
	// CliquesShared counts cliques whose inputs were untouched: their
	// prior relations were adopted by pointer.
	CliquesShared int
	// CliquesIncremental counts cliques continued semi-naively from
	// the prior epoch's relations.
	CliquesIncremental int
	// CliquesScratch counts per-stratum fallbacks to full recomputation
	// (negation over a changed input, or a non-monotone upstream).
	CliquesScratch int
	// Rounds counts in-clique fixpoint rounds run by the incremental
	// continuations (seed rounds excluded, matching Counters.Iterations
	// accounting; scratch cliques' rounds are not included).
	Rounds int
	// DeltaDerived counts derived tuples appended across all changed
	// cliques — the size of the epoch's derived delta.
	DeltaDerived int
}

// RunIncremental computes the program's fixpoint as a continuation of
// a prior epoch's run. prior maps every derived tag to its relation in
// the previous materialization (treated as immutable — changed cliques
// work on clones); baseDeltas maps changed base tags to relations
// holding exactly the appended rows. The engine's database must be the
// new epoch (full relations including the appended rows). After it
// returns, Answers/RelationFor serve the new fixpoint exactly as after
// Run.
func (e *Engine) RunIncremental(prior map[string]*store.Relation, baseDeltas map[string]*store.Relation) (IncrementalStats, error) {
	var st IncrementalStats
	if e.ran {
		return st, fmt.Errorf("eval: RunIncremental on an engine that already ran")
	}
	// changed maps a tag (base or derived) to the delta relation holding
	// its rows appended this epoch. nonMono marks tags whose extension
	// may have shrunk — no sound insert-delta exists for them.
	changed := make(map[string]*store.Relation, len(baseDeltas))
	for tag, d := range baseDeltas {
		if d != nil && d.Len() > 0 {
			changed[tag] = d
		}
	}
	nonMono := map[string]bool{}

	for _, c := range e.Graph.TopoCliques() {
		if len(c.Rules) == 0 {
			continue // base predicate
		}
		mode := e.cliqueChangeMode(c, changed, nonMono)
		// A clique head that also received base-fact appends would need
		// its own rows seeded as a delta of itself; the serving layer
		// refuses derived-tag inserts, so treat it as scratch if it ever
		// happens rather than reasoning about self-deltas.
		if mode != cliqueScratch {
			for _, p := range c.Preds {
				if baseDeltas[p] != nil && baseDeltas[p].Len() > 0 {
					mode = cliqueScratch
				}
			}
		}
		if mode != cliqueScratch {
			// The continuation needs every prior relation of the clique.
			for _, p := range c.Preds {
				if prior[p] == nil {
					mode = cliqueScratch
					break
				}
			}
		}

		switch mode {
		case cliqueUnchanged:
			st.CliquesShared++
			for _, p := range c.Preds {
				e.derived[p] = prior[p]
			}

		case cliqueIncremental:
			st.CliquesIncremental++
			preLen := make(map[string]int, len(c.Preds))
			for _, p := range c.Preds {
				r := prior[p].CloneOwned()
				e.derived[p] = r
				preLen[p] = r.Len()
			}
			rounds, err := e.continueClique(c, changed)
			if err != nil {
				return st, err
			}
			st.Rounds += rounds
			for _, p := range c.Preds {
				if n := e.derived[p].Len() - preLen[p]; n > 0 {
					changed[p] = e.derived[p].DeltaSince(preLen[p])
					st.DeltaDerived += n
				}
			}

		case cliqueScratch:
			st.CliquesScratch++
			if err := e.evalClique(c); err != nil {
				return st, err
			}
			for _, p := range c.Preds {
				delta, grew := diffDelta(prior[p], e.derived[p])
				if !grew {
					nonMono[p] = true
					continue
				}
				if delta != nil && delta.Len() > 0 {
					changed[p] = delta
					st.DeltaDerived += delta.Len()
				}
			}
		}
	}
	// Predicates with rules but outside every walked clique cannot exist
	// (Analyze puts every head in a clique); still, mirror Run's
	// pre-create so empty heads resolve.
	e.ensureHeads()
	e.ran = true
	return st, nil
}

// cliqueMode classifies how a clique's inputs changed this epoch.
type cliqueMode int

const (
	cliqueUnchanged cliqueMode = iota
	cliqueIncremental
	cliqueScratch
)

// cliqueChangeMode inspects every body literal of the clique's rules:
// no changed input → unchanged; changed inputs read only positively →
// incremental; a changed (or non-monotone) input read through negation,
// or any non-monotone input at all → scratch.
func (e *Engine) cliqueChangeMode(c *depgraph.Clique, changed map[string]*store.Relation, nonMono map[string]bool) cliqueMode {
	mode := cliqueUnchanged
	for _, ri := range c.Rules {
		for _, l := range e.Prog.Rules[ri].Body {
			if lang.IsBuiltin(l.Pred) {
				continue
			}
			tag := l.Tag()
			if nonMono[tag] {
				return cliqueScratch
			}
			if changed[tag] == nil {
				continue
			}
			if l.Neg {
				return cliqueScratch
			}
			mode = cliqueIncremental
		}
	}
	return mode
}

// continueClique runs the cross-epoch semi-naive continuation for one
// clique whose inputs changed monotonically: a seed round with one
// variant per changed body occurrence, then (for recursive cliques)
// the ordinary in-clique rounds from the seeded deltas. Returns the
// number of in-clique rounds run.
func (e *Engine) continueClique(c *depgraph.Clique, changed map[string]*store.Relation) (int, error) {
	crs := e.compileRules(c)
	cx := newEvalCtx(e, crs)
	defer cx.release()
	deltas := e.newDeltas(c)
	collect := e.collectInto(&deltas)
	// Seed round: for each body occurrence of a changed input, apply the
	// rule with that occurrence reading the change and the rest reading
	// full new relations. In-clique occurrences read the prior (cloned)
	// relations here — their own change is exactly what the rounds below
	// propagate.
	for _, cr := range crs {
		for bi, tag := range cr.bodyTags {
			if tag == "" || changed[tag] == nil {
				continue
			}
			if err := cx.applyRule(cr, bi, changed, collect); err != nil {
				return 0, err
			}
		}
	}
	if !c.Recursive {
		return 0, nil
	}
	return cx.rounds(c, crs, SemiNaive, deltas)
}

// diffDelta compares a scratch-recomputed relation against its prior
// epoch's extension. If prior ⊆ cur (the clique grew monotonically
// despite the fallback), it returns the rows of cur missing from prior
// as a delta and true; otherwise (genuine retraction) it returns
// (nil, false). A nil prior — the first materialization of the tag —
// counts as monotone growth from empty.
func diffDelta(prior, cur *store.Relation) (*store.Relation, bool) {
	if cur == nil {
		return nil, prior == nil || prior.Len() == 0
	}
	if prior == nil || prior.Len() == 0 {
		if cur.Len() == 0 {
			return nil, true
		}
		return cur.DeltaSince(0), true
	}
	if prior.Len() > cur.Len() {
		return nil, false
	}
	row := make([]term.ID, cur.Arity)
	rowOf := func(r *store.Relation, i int) []term.ID {
		for c := range row {
			row[c] = r.IDAt(c, i)
		}
		return row
	}
	for i := 0; i < prior.Len(); i++ {
		if !cur.ContainsIDs(rowOf(prior, i)) {
			return nil, false
		}
	}
	if cur.Len() == prior.Len() {
		return nil, true // identical extensions
	}
	d := store.NewRelationSized(cur.Name+"+", cur.Arity, cur.Len()-prior.Len())
	for i := 0; i < cur.Len(); i++ {
		if prior.ContainsIDs(rowOf(cur, i)) {
			continue
		}
		if _, err := d.InsertFrom(cur, i); err != nil {
			panic(err) // same arity by construction
		}
	}
	return d, true
}
