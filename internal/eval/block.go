package eval

// Block-at-a-time execution of compiled join programs — the one
// executor of what compile.go produces. A kernelRun pushes a columnar
// frame — a struct-of-arrays of interned term.ID register columns —
// through each step at a time, so probes, tests and head insertion run
// as tight loops over dense ID slices with amortized dispatch. Frames
// stay in ID space end to end: scans gather candidate IDs straight
// from the relation's columns (ColumnAt / AppendMatchesID), and terms
// are only materialized at the edges — pattern decomposition,
// arithmetic, and genuinely new head tuples.
//
// Equivalence contract. Execution preserves the answers, error, and
// work counters of a tuple-at-a-time substitution-map interpreter (this
// package's test reference) exactly:
//
//   - Emission order is depth-first-identical: a scan appends matches
//     in candidate order and flushes the output frame downstream
//     before gathering more, so head tuples arrive in the order a
//     tuple-at-a-time walk derives them.
//   - Error order is depth-first-equivalent: when a row fails in a
//     filter step, the rows ordered before it keep running through the
//     remaining steps first (their emissions happen; their own error,
//     if any, wins — it is earlier in depth-first order), then the
//     remembered error returns and the rows after it never run.
//   - Counters tick per row: Lookups once per input row of a scan or
//     negation, Unifications once per scan candidate, BuiltinCalls
//     once per row of a test/assign/match step.
//   - Visibility: a full frame batches probes ahead of the emits they
//     feed, so a scan must never read the relation being inserted
//     into. Only the head relation is written during an application,
//     and applications whose scans or negations resolve to the head
//     itself (seed and naive rounds of recursive cliques, every delta
//     round of non-linear recursion) flush after every row instead
//     (kernelRun.limit = 1), which is the tuple-at-a-time walk with its
//     mid-application visibility.

import (
	"ldl/internal/lang"
	"ldl/internal/store"
	"ldl/internal/term"
)

// DefaultBatchSize is the tuned default block size: large enough to
// amortize per-block costs, small enough that a frame's register
// columns stay cache-resident (256 rows × 4-byte IDs = 1KiB/register).
const DefaultBatchSize = 256

// bframe is one columnar register frame: cols[reg][row] is the
// interned ID bound to reg at that row. Scan-output frames are dense
// (rows 0..n-1 valid); filter steps narrow a frame with a selection
// vector instead of compacting the columns.
type bframe struct {
	cols [][]term.ID
	n    int
}

// kernelState is the mutable, reusable execution state for one
// compiled rule in one evaluation context: the frames plus every
// buffer the join program needs, so steady-state rule application
// allocates nothing. A context returns its states to the rule's pool
// when its clique is done, and later evaluations of the same compiled
// rule — every execution of a cached query form — take them back
// instead of building new ones. Constant cells of the probe, negation,
// and head rows are prefilled here, once: interned IDs never change.
type kernelState struct {
	size    int               // rows per scan-output frame
	rels    []*store.Relation // per scanIdx, resolved per application
	negRels []*store.Relation // per negIdx, resolved per application
	idxs    [][]int32         // per scanIdx: reusable match-index buffers
	root    *bframe           // single-row entry frame
	frames  []*bframe         // per scanIdx: that scan's output frame
	sels    [][]int32         // per step index: selection scratch
	ident   []int32           // identity selection 0..size-1, read-only
	probes  [][]term.ID       // per scanIdx: probe ID row, const IDs prefilled
	rcols   [][][]term.ID     // per scanIdx: borrowed relation columns
	negIDs  [][]term.ID       // per negIdx: ID row, const IDs prefilled

	headIDs   [][]term.ID // columnar head materialization
	headConst []term.ID   // per head column: const ID, 0 otherwise

	run kernelRun // the current application's parameters
}

// idxBufCap is the starting capacity of a scan's match-index buffer:
// fixpoint rounds reuse the state, and starting at a useful capacity
// avoids the regrow churn of the first rounds.
const idxBufCap = 64

// newKernelState builds a rule's execution state for frames of size
// rows. Every ID column it needs is carved from one slab and every
// slice header from a few more, so a state costs a fixed handful of
// allocations however many steps its rule has.
func newKernelState(cr *compiledRule, size int) *kernelState {
	probeCells, negCells := 0, 0
	for _, st := range cr.steps {
		switch st.kind {
		case kScan:
			probeCells += len(st.cols)
		case kNeg:
			negCells += len(st.negCols)
		}
	}
	nhead := len(cr.head)
	ids := make([]term.ID, cr.nregs*(1+cr.nscans*size)+probeCells+negCells+nhead*(size+1))
	take := func(n int) []term.ID {
		s := ids[:n:n]
		ids = ids[n:]
		return s
	}
	hdrs := make([][]term.ID, cr.nregs*(1+cr.nscans)+cr.nscans+probeCells+cr.nnegs+nhead)
	headers := func(n int) [][]term.ID {
		s := hdrs[:n:n]
		hdrs = hdrs[n:]
		return s
	}
	frames := make([]bframe, 1+cr.nscans)
	newFrame := func(f *bframe, rows int) *bframe {
		f.cols = headers(cr.nregs)
		for i := range f.cols {
			f.cols[i] = take(rows)
		}
		return f
	}
	rels := make([]*store.Relation, cr.nscans+cr.nnegs)
	bufs := make([][]int32, cr.nscans+len(cr.steps))
	i32 := make([]int32, size+cr.nscans*idxBufCap)
	ks := &kernelState{
		size:    size,
		rels:    rels[:cr.nscans:cr.nscans],
		negRels: rels[cr.nscans:],
		idxs:    bufs[:cr.nscans:cr.nscans],
		root:    newFrame(&frames[0], 1),
		frames:  make([]*bframe, cr.nscans),
		sels:    bufs[cr.nscans:],
		ident:   i32[:size:size],
		probes:  headers(cr.nscans),
		rcols:   make([][][]term.ID, cr.nscans),
		negIDs:  headers(cr.nnegs),
	}
	for i := range ks.frames {
		ks.frames[i] = newFrame(&frames[1+i], size)
		off := size + i*idxBufCap
		ks.idxs[i] = i32[off : off : off+idxBufCap]
	}
	for i := range ks.ident {
		ks.ident[i] = int32(i)
	}
	for _, st := range cr.steps {
		switch st.kind {
		case kScan:
			p := take(len(st.cols))
			for i, c := range st.cols {
				if c.op == kcolConst {
					p[i] = term.Intern(c.val)
				}
			}
			ks.probes[st.scanIdx] = p
			ks.rcols[st.scanIdx] = headers(len(st.cols))
		case kNeg:
			row := take(len(st.negCols))
			for i, bt := range st.negCols {
				if bt.reg < 0 && bt.args == nil {
					row[i] = term.Intern(bt.lit)
				}
			}
			ks.negIDs[st.negIdx] = row
		}
	}
	ks.headIDs = headers(nhead)
	for i := range ks.headIDs {
		ks.headIDs[i] = take(size)
	}
	ks.headConst = take(nhead)
	for i, c := range cr.head {
		if c.op == kcolConst {
			ks.headConst[i] = term.Intern(c.val)
		}
	}
	return ks
}

// kstate returns the context's kernel state for cr: the one it already
// holds, else a released state from the rule's pool, else a new one. A
// pooled state built for another BatchSize is dropped, not reused.
// Contexts are goroutine-local, so no locking.
func (cx *evalCtx) kstate(cr *compiledRule) *kernelState {
	for _, h := range cx.kstates {
		if h.cr == cr {
			return h.ks
		}
	}
	size := cx.e.opts.BatchSize
	ks, _ := cr.pool.Get().(*kernelState)
	if ks == nil || ks.size != size {
		ks = newKernelState(cr, size)
	}
	cx.kstates = append(cx.kstates, heldState{cr, ks})
	return ks
}

// release returns every kernel state the context holds to its rule's
// pool, first dropping the relations and borrowed columns it points
// at, so a pooled state pins no epoch and no derived relation.
func (cx *evalCtx) release() {
	for _, h := range cx.kstates {
		clear(h.ks.rels)
		clear(h.ks.negRels)
		for _, rc := range h.ks.rcols {
			clear(rc)
		}
		h.ks.run.cx, h.ks.run.head, h.ks.run.sink = nil, nil, nil
		h.cr.pool.Put(h.ks)
	}
	clear(cx.kstates)
	cx.kstates = cx.kstates[:0]
}

// aliasesHead reports whether any resolved scan or negation relation
// is the head relation itself — the one configuration that cannot
// batch probes ahead of emits (see the visibility note above).
func (ks *kernelState) aliasesHead(head *store.Relation) bool {
	for _, r := range ks.rels {
		if r == head {
			return true
		}
	}
	for _, r := range ks.negRels {
		if r == head {
			return true
		}
	}
	return false
}

// kernelRun bundles the per-application parameters of a join-program
// execution so the recursive step walk passes a single receiver. It
// lives in the rule's kernel state, so an application allocates none.
type kernelRun struct {
	cx    *evalCtx
	cr    *compiledRule
	ks    *kernelState
	head  *store.Relation
	sink  *store.Relation // collects each new head row; nil for none
	limit int             // rows a scan gathers before flushing downstream
	onNew func(int) error // InsertRows' callback, bound once per state
}

// applyRule executes one application of a rule's join program: every
// newly derived head tuple is inserted into the head relation and
// collected into sink (if non-nil). deltaOcc, when >= 0, makes body
// literal deltaOcc read from delta instead of the full relation.
func (cx *evalCtx) applyRule(cr *compiledRule, deltaOcc int, delta, sink *store.Relation) error {
	e := cx.e
	if e.opts.reference != nil {
		return e.opts.reference(cx, cr, deltaOcc, delta, sink)
	}
	ks := cx.kstate(cr)
	// Resolve each scan's relation: the designated delta occurrence
	// reads this round's delta, everything else the full relation.
	for i := range cr.steps {
		switch st := &cr.steps[i]; st.kind {
		case kScan:
			ks.rels[st.scanIdx] = e.rel(st.slot)
		case kNeg:
			ks.negRels[st.negIdx] = e.rel(st.slot)
		}
	}
	if delta != nil && deltaOcc >= 0 && deltaOcc < len(cr.scanForBody) {
		if si := cr.scanForBody[deltaOcc]; si >= 0 {
			ks.rels[si] = delta
		}
	}
	k := &ks.run
	k.cx, k.cr, k.ks = cx, cr, ks
	k.head = e.ensureDerived(cr.headSlot)
	k.sink = sink
	k.limit = ks.size
	if k.onNew == nil {
		k.onNew = func(int) error { return k.cx.recordInserted(k.head, k.sink) }
	}
	if ks.aliasesHead(k.head) {
		k.limit = 1
	}
	// No registers are bound before step 0: a single-row root frame.
	return k.run(0, ks.root, ks.ident[:1])
}

// run executes the join program from step si onward over the selected
// rows of frame f.
func (k *kernelRun) run(si int, f *bframe, sel []int32) error {
	if len(sel) == 0 {
		return nil
	}
	// The join can churn for a long time without deriving anything new
	// (novelty filtering discards duplicates), so the deadline is
	// checked here too, not only on derivation — amortized: once per
	// (step, frame) instead of once per row.
	if err := k.cx.e.opts.Gov.Tick(); err != nil {
		return err
	}
	if si == len(k.cr.steps) {
		return k.emit(f, sel)
	}
	st := &k.cr.steps[si]
	switch st.kind {
	case kScan:
		return k.scan(si, st, f, sel)
	case kTest:
		keep := k.ks.sels[si][:0]
		var rowErr error
		for _, r := range sel {
			k.cx.e.Counters.BuiltinCalls++
			ok, err := k.evalTestRow(st, f, r)
			if err != nil {
				// Depth-first error discipline: finish the rows ordered
				// before this one (their error, if any, is earlier and
				// wins), drop the rows after it, then surface this error.
				rowErr = err
				break
			}
			if ok {
				keep = append(keep, r)
			}
		}
		k.ks.sels[si] = keep
		if err := k.run(si+1, f, keep); err != nil {
			return err
		}
		return rowErr
	case kAssign:
		keep := k.ks.sels[si][:0]
		var rowErr error
		dst := f.cols[st.dstReg]
		for _, r := range sel {
			k.cx.e.Counters.BuiltinCalls++
			id, err := k.resolveNormRowID(st.rhs, f, r)
			if err != nil {
				rowErr = err
				break
			}
			dst[r] = id
			keep = append(keep, r)
		}
		k.ks.sels[si] = keep
		if err := k.run(si+1, f, keep); err != nil {
			return err
		}
		return rowErr
	case kMatch:
		keep := k.ks.sels[si][:0]
		var rowErr error
		for _, r := range sel {
			k.cx.e.Counters.BuiltinCalls++
			v, err := k.resolveNormRow(st.rhs, f, r)
			if err != nil {
				rowErr = err
				break
			}
			if matchPatID(st.pat, v, f.cols, r) {
				keep = append(keep, r)
			}
		}
		k.ks.sels[si] = keep
		if err := k.run(si+1, f, keep); err != nil {
			return err
		}
		return rowErr
	case kNeg:
		rel := k.ks.negRels[st.negIdx]
		keep := k.ks.sels[si][:0]
		row := k.ks.negIDs[st.negIdx]
		for _, r := range sel {
			// The lookup counts before the nil check; a missing
			// relation still passes every row.
			k.cx.e.Counters.Lookups++
			if rel != nil {
				known := true
				for i := range st.negCols {
					switch bt := &st.negCols[i]; {
					case bt.args != nil:
						// A constructed value that was never interned
						// is stored nowhere: the row passes.
						id, found := term.TryLookupID(buildTermID(bt, f.cols, r))
						row[i], known = id, known && found
					case bt.reg >= 0:
						row[i] = f.cols[bt.reg][r]
					}
				}
				if known && rel.ContainsIDs(row) {
					continue
				}
			}
			keep = append(keep, r)
		}
		k.ks.sels[si] = keep
		return k.run(si+1, f, keep)
	case kFail:
		// Unsafe rule: the first row in depth-first order aborts the
		// application with the bindings it carries.
		r := sel[0]
		return st.fail(func(reg int) term.Term { return term.InternedTerm(f.cols[reg][r]) })
	}
	return nil
}

// scan gathers, for every selected input row, the matching candidate
// rows of the step's relation into the scan's output frame, flushing
// it downstream whenever it fills — so emission order stays depth-
// first-identical while probes and gathers run over dense ID columns.
func (k *kernelRun) scan(si int, st *kstep, f *bframe, sel []int32) error {
	rel := k.ks.rels[st.scanIdx]
	if rel == nil || rel.Len() == 0 {
		return nil
	}
	ks := k.ks
	out := ks.frames[st.scanIdx]
	out.n = 0
	// Borrow the relation's ID columns once per input frame when it is
	// one flat run. Only the head relation is written during an
	// application; when rel is the head (limit 1), rows below the length
	// captured here never move (ColumnAt's contract), and every
	// candidate index — the captured full-scan length, the match list
	// collected before any flush — is below it. A parts-backed relation
	// serves ColumnAt from a dense copy built once per relation
	// instance: O(relation) for what may be a handful of candidates (a
	// maintenance epoch probing a large view it just forked), so its
	// rows are read in place instead (rcols nil, see cellID).
	var rcols [][]term.ID
	if rel.Parts() == 0 {
		rcols = ks.rcols[st.scanIdx]
		for c := range rcols {
			rcols[c] = rel.ColumnAt(c)
		}
	}
	flush := func() error {
		if out.n == 0 {
			return nil
		}
		k.cx.e.Counters.Blocks++
		n := out.n
		out.n = 0
		return k.run(si+1, out, ks.ident[:n])
	}
	if st.mask == 0 {
		// Full scan: capture the length once — emits may append to rel
		// mid-iteration when it is the head.
		n := rel.Len()
		for _, r := range sel {
			k.cx.e.Counters.Lookups++
			for j := 0; j < n; j++ {
				k.candidate(st, f, r, rcols, rel, int32(j), out)
				if out.n == k.limit {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
		return flush()
	}
	probe := ks.probes[st.scanIdx]
	for _, r := range sel {
		ok := true
		for i, c := range st.cols {
			switch c.op {
			case kcolProbe:
				probe[i] = f.cols[c.reg][r]
			case kcolBuild:
				// A constructed probe value that was never interned
				// cannot equal any stored value: count the lookup (an
				// interpreter probes and finds nothing) and move on.
				id, found := term.TryLookupID(buildTermID(c.bld, f.cols, r))
				if !found {
					ok = false
				}
				probe[i] = id
			}
		}
		k.cx.e.Counters.Lookups++
		if !ok {
			continue
		}
		idxs := rel.AppendMatchesID(st.mask, probe, k.ks.idxs[st.scanIdx][:0])
		k.ks.idxs[st.scanIdx] = idxs
		for _, j := range idxs {
			k.candidate(st, f, r, rcols, rel, j, out)
			if out.n == k.limit {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	return flush()
}

// candidate verifies one scan candidate against the non-probe columns
// and, on success, appends its bindings as a new row of out.
func (k *kernelRun) candidate(st *kstep, f *bframe, r int32, rcols [][]term.ID, rel *store.Relation, j int32, out *bframe) {
	k.cx.e.Counters.Unifications++
	o := out.n
	// Carry the registers bound before this step into the output row
	// first; column processing below is left to right, so a pattern's
	// probe can read a register an earlier column just bound.
	for reg := 0; reg < st.nbound; reg++ {
		out.cols[reg][o] = f.cols[reg][r]
	}
	for i, c := range st.cols {
		switch c.op {
		case kcolOut:
			out.cols[c.reg][o] = cellID(rcols, rel, i, j)
		case kcolChk:
			if out.cols[c.reg][o] != cellID(rcols, rel, i, j) {
				return
			}
		case kcolPat:
			if !matchPatID(c.pat, term.InternedTerm(cellID(rcols, rel, i, j)), out.cols, int32(o)) {
				return
			}
			// kcolConst, kcolProbe, kcolBuild: always part of the probe
			// mask, so the candidate arrives pre-verified.
		}
	}
	out.n++
}

// cellID reads column c of rel's row j: from the borrowed dense columns
// when scan took them, in place otherwise.
func cellID(rcols [][]term.ID, rel *store.Relation, c int, j int32) term.ID {
	if rcols != nil {
		return rcols[c][j]
	}
	return rel.IDAt(c, int(j))
}

// matchPatID matches a ground value against a pattern template,
// binding fresh registers of row r. It is the kernels' one-way
// unification: the value side is ground (it came out of a relation or
// a bound template), so no occurs check or bidirectional binding is
// needed. Patterns reach below the column granularity the frame
// stores, so the candidate side is a term; registers hold interned IDs.
func matchPatID(p *kpat, v term.Term, cols [][]term.ID, r int32) bool {
	switch p.kind {
	case patConst:
		return term.Equal(p.lit, v)
	case patProbe:
		return term.Equal(term.InternedTerm(cols[p.reg][r]), v)
	case patOut:
		id, _, ok := term.TryIntern(v)
		if !ok {
			return false // unreachable: candidate values are ground
		}
		cols[p.reg][r] = id
		return true
	case patComp:
		c, ok := v.(term.Comp)
		if !ok || c.Functor != p.functor || len(c.Args) != len(p.args) {
			return false
		}
		for i, ap := range p.args {
			if !matchPatID(ap, c.Args[i], cols, r) {
				return false
			}
		}
		return true
	}
	return false
}

// buildTermID assembles the template's term from row r's registers.
// Registers hold only ground values, so the result is always ground.
func buildTermID(bld *btmpl, cols [][]term.ID, r int32) term.Term {
	if bld.args != nil {
		out := make([]term.Term, len(bld.args))
		for i := range bld.args {
			out[i] = buildTermID(&bld.args[i], cols, r)
		}
		return term.Comp{Functor: bld.functor, Args: out}
	}
	if bld.reg >= 0 {
		return term.InternedTerm(cols[bld.reg][r])
	}
	return bld.lit
}

// evalTestRow evaluates a comparison step for one row, lhs first so
// error timing matches lang.EvalBuiltin. "=" / "\=" normalize both
// sides (evaluate one that is an arithmetic expression — including one
// sitting in a register, e.g. from a fact f(1+2)) and compare
// structurally.
func (k *kernelRun) evalTestRow(st *kstep, f *bframe, r int32) (bool, error) {
	switch st.test {
	case testEq, testNe:
		var eq bool
		if st.lhs.bld != nil || st.rhs.bld != nil {
			// A constructed side compares as a term, so a test never
			// interns the values it builds.
			lv, err := k.resolveNormRow(st.lhs, f, r)
			if err != nil {
				return false, err
			}
			rv, err := k.resolveNormRow(st.rhs, f, r)
			if err != nil {
				return false, err
			}
			eq = term.Equal(lv, rv)
		} else {
			lid, err := k.resolveNormRowID(st.lhs, f, r)
			if err != nil {
				return false, err
			}
			rid, err := k.resolveNormRowID(st.rhs, f, r)
			if err != nil {
				return false, err
			}
			// Normalized sides are interned, so structural equality is
			// ID equality.
			eq = lid == rid
		}
		if st.test == testEq {
			return eq, nil
		}
		return !eq, nil
	}
	a, err := k.evalArithRow(st.lhs, f, r)
	if err != nil {
		return false, err
	}
	c, err := k.evalArithRow(st.rhs, f, r)
	if err != nil {
		return false, err
	}
	switch st.test {
	case testLt:
		return a < c, nil
	case testLe:
		return a <= c, nil
	case testGt:
		return a > c, nil
	case testGe:
		return a >= c, nil
	}
	return false, nil
}

// resolveNormRowID resolves a template for one row to an interned ID
// with "=" normalization: arithmetic expressions (static or dynamic)
// evaluate to their integer value, everything else passes through —
// a construction's top functor is never an arithmetic operator of its
// arity, so it is built and never evaluated.
func (k *kernelRun) resolveNormRowID(t tmpl, f *bframe, r int32) (term.ID, error) {
	if t.args != nil {
		v, err := k.evalArithRow(t, f, r)
		if err != nil {
			return 0, err
		}
		return term.Intern(v), nil
	}
	if t.bld != nil {
		return term.Intern(buildTermID(t.bld, f.cols, r)), nil
	}
	if t.reg >= 0 {
		id := f.cols[t.reg][r]
		v := term.InternedTerm(id)
		if lang.IsArithExpr(v) {
			iv, err := lang.EvalArith(v)
			if err != nil {
				return 0, err
			}
			return term.Intern(iv), nil
		}
		return id, nil
	}
	v, err := lang.NormalizeEqSide(t.lit)
	if err != nil {
		return 0, err
	}
	return term.Intern(v), nil
}

// resolveNormRow is resolveNormRowID returning the term itself — the
// value side of a kMatch step, which the pattern walk consumes
// structurally, and the sides of a test over a construction.
func (k *kernelRun) resolveNormRow(t tmpl, f *bframe, r int32) (term.Term, error) {
	if t.args != nil {
		v, err := k.evalArithRow(t, f, r)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
	if t.bld != nil {
		return buildTermID(t.bld, f.cols, r), nil
	}
	if t.reg >= 0 {
		return lang.NormalizeEqSide(term.InternedTerm(f.cols[t.reg][r]))
	}
	return lang.NormalizeEqSide(t.lit)
}

// evalArithRow evaluates a template as an arithmetic expression for
// one row, without constructing term.Comp nodes for the variable-
// bearing expressions the compiler broke into sub-templates.
func (k *kernelRun) evalArithRow(t tmpl, f *bframe, r int32) (term.Int, error) {
	if t.args == nil {
		if t.bld != nil {
			// Not an arithmetic operator of its arity: EvalArith raises
			// the interpreter's error for it.
			return lang.EvalArith(buildTermID(t.bld, f.cols, r))
		}
		if t.reg >= 0 {
			return lang.EvalArith(term.InternedTerm(f.cols[t.reg][r]))
		}
		return lang.EvalArith(t.lit)
	}
	a, err := k.evalArithRow(t.args[0], f, r)
	if err != nil {
		return 0, err
	}
	if len(t.args) == 1 {
		return lang.ApplyArith1(t.functor, a)
	}
	c, err := k.evalArithRow(t.args[1], f, r)
	if err != nil {
		return 0, err
	}
	return lang.ApplyArith2(t.functor, a, c)
}

// headID materializes head column i for one row.
func (k *kernelRun) headID(i int, f *bframe, r int32) term.ID {
	c := &k.cr.head[i]
	switch c.op {
	case kcolProbe:
		return f.cols[c.reg][r]
	case kcolBuild:
		// Constructed head terms enter the store, so interning them is
		// not probe-side waste.
		return term.Intern(buildTermID(c.bld, f.cols, r))
	default: // kcolConst
		return k.ks.headConst[i]
	}
}

// emit inserts the selected rows' head tuples, in row order, with the
// dedup, counter, and abort semantics of a per-row emit. The compiler
// guarantees groundness (registers only ever hold ground values, and
// an unsafe head ends the program in a kFail), so no per-arg check. The block's head rows are materialized columnar and
// bulk-inserted; onNew fires per genuinely new row, in row order, so
// TuplesDerived accounting and delta collection match a per-row emit
// exactly.
func (k *kernelRun) emit(f *bframe, sel []int32) error {
	ks := k.ks
	m := 0
	for _, r := range sel {
		for i := range ks.headIDs {
			ks.headIDs[i][m] = k.headID(i, f, r)
		}
		m++
	}
	_, err := k.head.InsertRows(ks.headIDs, m, k.onNew)
	return err
}
