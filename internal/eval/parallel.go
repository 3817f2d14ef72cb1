package eval

// The parallel stratified fixpoint. Two levels of parallelism, both
// bounded by Options.Parallel workers:
//
//  1. Clique level: the follows order on recursive cliques is a partial
//     order (the condensation DAG of the predicate dependency graph).
//     Cliques whose transitive dependencies are disjoint — independent
//     strata — evaluate concurrently; a clique starts only when every
//     clique it reads from has completed, so every relation a running
//     clique reads is immutable.
//
//  2. Rule level: within one clique, each fixpoint round fans its rule
//     applications ("variants": rule × delta occurrence) across the
//     pool. Workers read a frozen view of all relations and buffer
//     candidate head tuples per variant; a barrier then merges the
//     buffers — in variant order, so the engine is deterministic for a
//     fixed worker count — into the head relations and the next deltas.
//
// Both levels preserve the least-fixpoint semantics exactly: within a
// clique only positive recursion occurs (stratification pushes negation
// between cliques), so evaluation is monotone and the frozen-read,
// merge-later schedule converges to the same fixpoint as the sequential
// engine's eager-visibility schedule — possibly in a different number
// of rounds, but with identical final relations and identical Answers.

import (
	"fmt"
	"sync"

	"ldl/internal/depgraph"
	"ldl/internal/lang"
	"ldl/internal/store"
)

// variant is one unit of parallel work inside a fixpoint round: a rule
// application with a designated delta occurrence (-1 = read full
// relations everywhere). cr is the rule's compiled join kernel (nil =
// generic interpreter); the compiledRule is immutable, so every delta
// variant and every worker shares one program, each with its own
// kernelState.
type variant struct {
	rule     lang.Rule
	cr       *compiledRule
	deltaOcc int
}

// runParallel schedules all cliques over the worker pool, respecting
// the follows partial order.
func (e *Engine) runParallel() error {
	cliques := e.Graph.TopoCliques()
	deps := e.Graph.CliqueDeps()
	done := make([]chan struct{}, len(cliques))
	for i := range done {
		done[i] = make(chan struct{})
	}
	// The semaphore bounds cliques evaluated at once; within a clique,
	// runVariants bounds its own fan-out, so worst-case concurrency is
	// workers×workers goroutines but only ~GOMAXPROCS run at a time.
	sem := make(chan struct{}, e.opts.Parallel)
	var wg sync.WaitGroup
	for i, c := range cliques {
		wg.Add(1)
		go func(i int, c *depgraph.Clique) {
			defer wg.Done()
			defer close(done[i])
			for _, d := range deps[i] {
				<-done[d]
			}
			if e.aborted.Load() || len(c.Rules) == 0 {
				return
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := e.evalCliqueParallel(c); err != nil {
				e.mu.Lock()
				if e.runErr == nil {
					e.runErr = err
				}
				e.mu.Unlock()
				e.aborted.Store(true)
			}
		}(i, c)
	}
	wg.Wait()
	return e.runErr
}

// evalCliqueParallel is evalClique with the per-round rule fan-out.
func (e *Engine) evalCliqueParallel(c *depgraph.Clique) error {
	rules, method := e.cliqueRules(c)
	crs := e.compileRules(c, rules)
	// Kernel-state caches, one per worker slot, hoisted to clique scope:
	// a fixpoint runs many rounds over the same compiled rules, and
	// recreating the states every round would re-allocate every frame,
	// probe row and match-index buffer each iteration. Worker w of every
	// round uses slot w exclusively (and the rounds themselves are
	// sequential), so the states are never shared between goroutines
	// that run concurrently.
	ksp := make([]map[*compiledRule]*kernelState, e.opts.Parallel)
	for i := range ksp {
		ksp[i] = map[*compiledRule]*kernelState{}
	}
	if !c.Recursive {
		vs := make([]variant, len(rules))
		for i, r := range rules {
			vs[i] = variant{rule: r, cr: crs[i], deltaOcc: -1}
		}
		_, err := e.runRound(vs, nil, nil, ksp)
		return err
	}
	deltas := e.newDeltas(c)
	seed := make([]variant, len(rules))
	for i, r := range rules {
		seed[i] = variant{rule: r, cr: crs[i], deltaOcc: -1}
	}
	if _, err := e.runRound(seed, nil, deltas, ksp); err != nil {
		return err
	}
	for iter := 0; ; iter++ {
		if iter >= e.opts.MaxIterations {
			return fmt.Errorf("%w: clique %v exceeded %d iterations", ErrRunaway, c.Preds, e.opts.MaxIterations)
		}
		if err := e.opts.Gov.AddIteration(); err != nil {
			return err
		}
		e.mu.Lock()
		e.Counters.Iterations++
		e.mu.Unlock()
		empty := true
		for _, d := range deltas {
			if d.Len() > 0 {
				empty = false
			}
		}
		if empty {
			return nil
		}
		var vs []variant
		for i, r := range rules {
			switch method {
			case Naive:
				vs = append(vs, variant{rule: r, cr: crs[i], deltaOcc: -1})
			case SemiNaive:
				for bi, l := range r.Body {
					if l.Neg || lang.IsBuiltin(l.Pred) || !c.Contains(l.Tag()) {
						continue
					}
					vs = append(vs, variant{rule: r, cr: crs[i], deltaOcc: bi})
				}
			}
		}
		next := make(map[string]*store.Relation, len(deltas))
		for p, d := range deltas {
			next[p] = store.NewRelationSized(p+"Δ", d.Arity, e.opts.SizeHints[p]/2)
		}
		if _, err := e.runRound(vs, deltas, next, ksp); err != nil {
			return err
		}
		deltas = next
	}
}

// runRound evaluates every variant against the frozen current state,
// then merges the per-variant buffers into the head relations (and
// newDeltas, when non-nil) in variant order. It returns the number of
// genuinely new tuples.
func (e *Engine) runRound(vs []variant, deltas, newDeltas map[string]*store.Relation, ksp []map[*compiledRule]*kernelState) (int, error) {
	// A single-variant round has nothing to fan out; run it in direct
	// mode — immediate head inserts, no buffer, no merge — exactly like
	// the sequential engine, with counters kept round-local and merged
	// under the lock. Chain-shaped recursions hit this path every round,
	// and it keeps them at sequential speed instead of paying the
	// buffer-and-merge tax for zero parallelism.
	if len(vs) == 1 {
		var local Counters
		cx := &evalCtx{e: e, counters: &local, kstates: ksp[0]}
		var collect func(string, store.Tuple)
		if newDeltas != nil {
			collect = func(tag string, t store.Tuple) {
				head := e.derived[tag]
				newDeltas[tag].InsertFrom(head, head.Len()-1)
			}
		}
		err := cx.applyRule(vs[0].rule, vs[0].cr, vs[0].deltaOcc, deltas, collect)
		e.mu.Lock()
		e.Counters.add(&local)
		e.mu.Unlock()
		return local.TuplesDerived, err
	}
	bufs := make([]*store.Relation, len(vs))
	errs := make([]error, len(vs))
	workers := e.opts.Parallel
	if workers > len(vs) {
		workers = len(vs)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(kstates map[*compiledRule]*kernelState) {
			defer wg.Done()
			// Worker-local counters keep the hot loop free of shared
			// writes; merged under the engine lock at the end. The
			// kernel-state cache lives at clique scope (slot w of ksp),
			// so repeated variants of the same compiled rule reuse
			// their register frames and probe buffers across jobs AND
			// across rounds (a worker runs one job at a time and rounds
			// are sequential, so the states are never shared).
			var local Counters
			for i := range jobs {
				if e.aborted.Load() {
					continue
				}
				v := vs[i]
				buf := store.NewRelation(v.rule.Head.Tag()+"◦", v.rule.Head.Arity())
				cx := &evalCtx{e: e, counters: &local, buf: buf, kstates: kstates}
				if err := cx.applyRule(v.rule, v.cr, v.deltaOcc, deltas, nil); err != nil {
					errs[i] = err
					e.aborted.Store(true)
					continue
				}
				bufs[i] = buf
			}
			e.mu.Lock()
			e.Counters.add(&local)
			e.mu.Unlock()
		}(ksp[w])
	}
	for i := range vs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	// Surface the first error in variant order, for determinism.
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if e.aborted.Load() {
		// Another clique failed; report nothing here, the scheduler
		// already captured its error.
		return 0, nil
	}
	// Merge barrier: single-threaded for this clique; relations written
	// here are read by no other goroutine (dependency discipline).
	added := 0
	for i, buf := range bufs {
		if buf == nil {
			continue
		}
		tag := vs[i].rule.Head.Tag()
		head := e.derived[tag]
		for ri := 0; ri < buf.Len(); ri++ {
			// InsertFrom reuses the buffer's interned IDs and row hash:
			// the merge costs one probe and a few appends per tuple, never
			// a re-hash or a second intern-table visit.
			ok, err := head.InsertFrom(buf, ri)
			if err != nil {
				return added, err
			}
			if !ok {
				continue
			}
			added++
			if newDeltas != nil {
				newDeltas[tag].InsertFrom(head, head.Len()-1)
			}
		}
	}
	over := int(e.derivedN.Add(int64(added))) > e.opts.MaxTuples
	e.mu.Lock()
	e.Counters.TuplesDerived += added
	e.mu.Unlock()
	if over {
		return added, fmt.Errorf("%w: more than %d tuples", ErrRunaway, e.opts.MaxTuples)
	}
	return added, nil
}
