package eval

// Rule compilation to positional join kernels. The paper's premise
// (§4, §7) is that rules are *compiled* into relational operations in
// the order the optimizer chose; this file realizes that for the
// fixpoint engine. compileRule turns a rule body into a join program —
// a flat array of steps whose column behavior is resolved once, at
// compile time:
//
//   - each positive literal becomes a scan step whose columns are
//     classified as constants (index probe), already-bound variables
//     (index probe from a register), first occurrences (write a
//     register), or repeats within the literal (compare a register);
//   - each builtin becomes a test or an assignment placed at the
//     earliest point its arguments are instantiated — the effective
//     computability (EC) schedule of §8.1, resolved statically because
//     instantiation depends only on literal order, never on data;
//   - each negated literal becomes an anti-join membership test, again
//     placed at its EC point.
//
// Complex terms compile too: a compound argument with fresh variables
// becomes a decomposition pattern (kcolPat / kMatch), a compound whose
// variables are all bound becomes a construction template (kcolBuild)
// in probes, head positions, builtin sides and negated literals. Every
// rule compiles, the unsafe ones included: their programs end in a
// kFail step that raises the interpreter's error for the first row
// reaching it. block.go is the one executor of these programs; the
// substitution-map interpreter they replaced survives only as this
// package's test reference (reference_test.go), which every answer,
// error and work counter of the kernels is checked against.

import (
	"fmt"
	"sync"

	"ldl/internal/depgraph"
	"ldl/internal/lang"
	"ldl/internal/term"
)

// kcolOp classifies one column of a scan step (or head template).
type kcolOp uint8

const (
	// kcolConst: the column must equal a compile-time constant; part of
	// the index probe (or prefilled in the head buffer).
	kcolConst kcolOp = iota
	// kcolProbe: the column must equal a register bound before this
	// step; part of the index probe (or copied into the head buffer).
	kcolProbe
	// kcolOut: first occurrence of a variable — write the candidate's
	// column value into the register.
	kcolOut
	// kcolChk: the variable first occurred earlier in this same literal
	// — compare the candidate's column against the register.
	kcolChk
	// kcolPat: a compound argument containing at least one variable not
	// yet bound — decompose the candidate's column against a pattern
	// template, binding fresh registers (cons(H, T) pulling a list
	// apart). Cannot join the probe mask: its value is unknown until
	// the candidate arrives.
	kcolPat
	// kcolBuild: a compound argument (or head position) whose variables
	// are all bound — construct the term from the registers. In a scan
	// it joins the probe mask, exactly like the reference interpreter,
	// whose per-row resolution makes such a column ground.
	kcolBuild
)

// kcol is one column's compiled behavior.
type kcol struct {
	op  kcolOp
	reg int       // kcolProbe/kcolOut/kcolChk
	val term.Term // kcolConst
	pat *kpat     // kcolPat
	bld *btmpl    // kcolBuild
}

// kpatKind discriminates pattern-template nodes.
type kpatKind uint8

const (
	// patConst: the subterm must equal a ground compile-time constant.
	patConst kpatKind = iota
	// patProbe: the subterm must equal a register bound earlier (in an
	// earlier step, or by a patOut to the left in this same pattern).
	patProbe
	// patOut: first occurrence of a variable — bind the register to the
	// subterm.
	patOut
	// patComp: the subterm must be a compound with this functor and
	// arity; recurse into the argument patterns left to right.
	patComp
)

// kpat is a compiled decomposition pattern: one-way structural
// unification of a pattern containing variables against a ground
// candidate value. Matching walks candidates left to right, so a
// variable bound by a patOut is visible to every patProbe after it —
// the same order term.Unify resolves a non-ground pattern.
type kpat struct {
	kind    kpatKind
	reg     int       // patProbe/patOut
	lit     term.Term // patConst
	functor string    // patComp
	args    []*kpat   // patComp
}

// btmpl is a compiled construction template: a ground term assembled
// structurally from registers and constants. Construction is purely
// structural — arithmetic functors are built as compound terms, not
// evaluated, exactly as ResolveAll leaves them in head positions,
// probe columns and negated literals. Exactly one representation
// applies: args != nil → compound node, else reg >= 0 → register,
// else lit.
type btmpl struct {
	reg     int       // >= 0: copy a register
	lit     term.Term // ground literal
	functor string    // compound node
	args    []btmpl   // compound node arguments
}

// kstepKind discriminates the step variants of a join program.
type kstepKind uint8

const (
	kScan   kstepKind = iota // positive literal: indexed relation scan
	kTest   kstepKind = iota // builtin comparison over bound values
	kAssign                  // "=" binding a fresh variable to a value
	kNeg                     // negated literal: membership anti-test
	kMatch                   // "=" decomposing a bound value against a pattern
	kFail                    // unsafe rule: the first row reaching it aborts
)

// testOp is the comparison operator of a kTest step.
type testOp uint8

const (
	testEq testOp = iota
	testNe
	testLt
	testLe
	testGt
	testGe
)

// tmpl is a compiled value template: a register reference, a ground
// literal term, an arithmetic expression over sub-templates (evaluated
// over register values without constructing term.Comp nodes), or any
// other compound with variables, constructed structurally. Exactly one
// representation applies: args != nil → arithmetic node, else bld !=
// nil → construction, else reg >= 0 → register, else lit.
type tmpl struct {
	reg     int
	lit     term.Term
	functor string
	args    []tmpl
	bld     *btmpl
}

// kstep is one step of a join program. A single struct with per-kind
// fields keeps the interpreter loop free of interface dispatch.
type kstep struct {
	kind kstepKind

	// kScan and kNeg: the layout slot of the relation read
	slot int

	// kScan
	tag     string // predicate tag
	scanIdx int    // index into kernelState.{rels, probes, idxs, frames}
	mask    uint32 // probe columns (kcolConst + kcolProbe + kcolBuild)
	cols    []kcol // per-column behavior, len == literal arity
	nbound  int    // registers bound before this step, carried into its output frame

	// kTest / kAssign / kMatch
	test     testOp
	lhs, rhs tmpl  // kTest: both sides; kAssign/kMatch: rhs only
	dstReg   int   // kAssign: register receiving the value
	pat      *kpat // kMatch: pattern matched against rhs's value

	// kNeg
	negTag  string
	negIdx  int     // index into kernelState.{negRels, negIDs}
	negCols []btmpl // structural, as the interpreter probes them

	// kFail: the error for the first row reaching the step, given that
	// row's register values.
	fail func(val func(reg int) term.Term) error
}

// compiledRule is a rule's join program. It is immutable after
// compilation and safely shared across goroutines; all mutable
// execution state lives in kernelState, which evaluation contexts take
// from and return to the rule's pool.
type compiledRule struct {
	rule lang.Rule
	// headTag is the head literal's tag, resolved here so that no rule
	// application builds a tag string.
	headTag string
	steps   []kstep
	nregs   int
	nscans  int
	nnegs   int
	head    []kcol // kcolConst, kcolProbe or kcolBuild; nil after a kFail
	// Slots (layout.go), set by layout.annotate before the rule first
	// runs: the head's layout slot and clique-local index, and per body
	// literal the clique-local index of an in-clique positive
	// relational literal (-1 otherwise) — the occurrences a semi-naive
	// round sources from a delta.
	headSlot  int
	headLocal int
	bodyLocal []int
	// scanForBody maps a body-literal index to its scan step's scanIdx
	// (-1 for builtins/negations) — the delta-occurrence remap used by
	// semi-naive variants, which share this one program.
	scanForBody []int
	// scanStep maps a scanIdx back to its index in steps.
	scanStep []int
	// pool holds released kernel states of this rule (see evalCtx): a
	// cached query form's executions reuse them instead of rebuilding
	// frames and buffers per clique evaluation.
	pool sync.Pool
}

// ProgramKernels is the once-per-program compiled kernel set: one join
// program per rule of the program, indexed by global rule index. It is
// immutable and safely shared across engines and goroutines — the
// serving layer compiles a prepared query form's program once and every
// subsequent execution reuses the same kernels, paying zero
// compilation.
type ProgramKernels struct {
	prog  *lang.Program
	graph *depgraph.Graph
	rules []*compiledRule

	// The slot layout and the rules' slot annotations are built on the
	// first run, not at compile time, so a form that is prepared and
	// never executed pays nothing for them.
	layOnce sync.Once
	lay     *layout
}

// CompileProgram compiles every rule of prog to its join kernel. g is
// prog's dependency graph, which the kernels' slot layout numbers
// cliques by.
func CompileProgram(prog *lang.Program, g *depgraph.Graph) *ProgramKernels {
	pk := &ProgramKernels{prog: prog, graph: g, rules: make([]*compiledRule, len(prog.Rules))}
	for i, r := range prog.Rules {
		pk.rules[i] = compileRule(r)
	}
	return pk
}

// layout returns the kernels' slot layout, building it and annotating
// every rule on first use.
func (pk *ProgramKernels) layout() *layout {
	pk.layOnce.Do(func() {
		l := newLayout(pk.graph)
		for _, cr := range pk.rules {
			l.annotate(cr)
		}
		for ci, c := range pk.graph.Cliques {
			rules := make([]*compiledRule, len(c.Rules))
			for i, ri := range c.Rules {
				rules[i] = pk.rules[ri]
			}
			l.cliques[ci].rules = rules
		}
		pk.lay = l
	})
	return pk.lay
}

// Slot returns the layout slot of tag — the address Engine.Input takes
// — and whether tag is a predicate of the program at all.
func (pk *ProgramKernels) Slot(tag string) (int, bool) {
	s, ok := pk.layout().slotOf[tag]
	return s, ok
}

// compileRule compiles r to its join program. Compilation is total:
// every rule gets a program, and the shapes that are unsafe to run —
// a head variable no body literal binds, goals whose EC point never
// arrives, a negated builtin — end in a kFail step that raises, for
// the first row reaching it, the error the substitution-map
// interpreter raises at the same point. A rule whose rows never get
// there (an empty scan, a test that filters every row) still succeeds.
// Rules come from lang.NewProgram, which bounds every literal's arity
// by lang.MaxAdornArity, so every column fits the uint32 probe mask.
func compileRule(r lang.Rule) *compiledRule {
	cr := &compiledRule{rule: r, headTag: r.Head.Tag(), scanForBody: make([]int, len(r.Body))}
	regOf := map[string]int{}
	newReg := func(name string) int {
		reg := cr.nregs
		cr.nregs++
		regOf[name] = reg
		return reg
	}

	// mkBuild compiles a construction template: every variable must be
	// bound already. Construction is structural (see btmpl).
	var mkBuild func(t term.Term) (btmpl, bool)
	mkBuild = func(t term.Term) (btmpl, bool) {
		switch x := t.(type) {
		case term.Var:
			reg, ok := regOf[x.Name]
			if !ok {
				return btmpl{}, false
			}
			return btmpl{reg: reg}, true
		case term.Comp:
			if term.Ground(t) {
				return btmpl{reg: -1, lit: t}, true
			}
			args := make([]btmpl, len(x.Args))
			for i, a := range x.Args {
				bt, ok := mkBuild(a)
				if !ok {
					return btmpl{}, false
				}
				args[i] = bt
			}
			return btmpl{reg: -1, functor: x.Functor, args: args}, true
		default:
			return btmpl{reg: -1, lit: t}, true
		}
	}

	// mkTmpl compiles a fully-instantiated value position; it fails
	// only when a variable is not bound yet. An arithmetic compound
	// becomes an expression node; any other compound with variables is
	// built structurally, as EvalBuiltin leaves it (it evaluates only a
	// side's top-level arithmetic functor).
	var mkTmpl func(t term.Term) (tmpl, bool)
	mkTmpl = func(t term.Term) (tmpl, bool) {
		switch x := t.(type) {
		case term.Var:
			reg, ok := regOf[x.Name]
			if !ok {
				return tmpl{}, false
			}
			return tmpl{reg: reg}, true
		case term.Comp:
			if term.Ground(t) {
				return tmpl{reg: -1, lit: t}, true
			}
			if n, isOp := lang.ArithArity(x.Functor); isOp && len(x.Args) == n {
				args := make([]tmpl, len(x.Args))
				for i, a := range x.Args {
					at, ok := mkTmpl(a)
					if !ok {
						return tmpl{}, false
					}
					args[i] = at
				}
				return tmpl{reg: -1, functor: x.Functor, args: args}, true
			}
			bt, ok := mkBuild(t)
			if !ok {
				return tmpl{}, false
			}
			return tmpl{reg: -1, bld: &bt}, true
		default: // Atom, Int, Str
			return tmpl{reg: -1, lit: t}, true
		}
	}

	// mkPat compiles a decomposition pattern. Fresh variables allocate
	// registers and are marked in newHere, so a later plain occurrence
	// in the same scan literal compiles to a compare (kcolChk), never a
	// probe — the value only exists once the candidate arrives.
	var mkPat func(t term.Term, newHere map[string]bool) *kpat
	mkPat = func(t term.Term, newHere map[string]bool) *kpat {
		switch x := t.(type) {
		case term.Var:
			if reg, have := regOf[x.Name]; have {
				return &kpat{kind: patProbe, reg: reg}
			}
			p := &kpat{kind: patOut, reg: newReg(x.Name)}
			if newHere != nil {
				newHere[x.Name] = true
			}
			return p
		case term.Comp:
			if term.Ground(t) {
				return &kpat{kind: patConst, lit: t}
			}
			args := make([]*kpat, len(x.Args))
			for i, a := range x.Args {
				args[i] = mkPat(a, newHere)
			}
			return &kpat{kind: patComp, functor: x.Functor, args: args}
		default:
			return &kpat{kind: patConst, lit: t}
		}
	}

	boundSet := func() map[string]bool {
		m := make(map[string]bool, len(regOf))
		for v := range regOf {
			m[v] = true
		}
		return m
	}

	// fail appends a kFail step raising err, which receives the failing
	// row's bindings of the variables bound at this point.
	fail := func(err func(term.Subst) error) {
		bound := make(map[string]int, len(regOf))
		for v, reg := range regOf {
			bound[v] = reg
		}
		cr.steps = append(cr.steps, kstep{kind: kFail, fail: func(val func(reg int) term.Term) error {
			s := term.NewSubst()
			for v, reg := range bound {
				s[v] = val(reg)
			}
			return err(s)
		}})
	}

	// compileDeferred compiles a builtin or negated goal at its EC
	// point, reporting false while the goal must stay deferred.
	compileDeferred := func(l lang.Literal) bool {
		if l.Neg {
			// A negation waits until every argument is ground.
			set := map[string]bool{}
			l.VarSet(set)
			for v := range set {
				if _, have := regOf[v]; !have {
					return false
				}
			}
			if lang.IsBuiltin(l.Pred) {
				// NewProgram rejects these; the interpreter raises this
				// once the goal's arguments are ground.
				neg := l // a copy, so that only this branch heap-allocates it
				fail(func(term.Subst) error { return fmt.Errorf("eval: negated builtin %s", neg) })
				return true
			}
			// Arguments probe structurally, compounds unevaluated — as
			// ResolveAll leaves them.
			st := kstep{kind: kNeg, negTag: l.Tag(), negIdx: cr.nnegs, negCols: make([]btmpl, len(l.Args))}
			for i, a := range l.Args {
				st.negCols[i], _ = mkBuild(a)
			}
			cr.nnegs++
			cr.steps = append(cr.steps, st)
			return true
		}
		// Builtin. BuiltinEC is false for a builtin of the wrong arity,
		// which therefore stays pending, as in the interpreter.
		if !lang.BuiltinEC(l, boundSet()) {
			return false
		}
		lt, lok := mkTmpl(l.Args[0])
		rt, rok := mkTmpl(l.Args[1])
		if lok && rok {
			cr.steps = append(cr.steps, kstep{kind: kTest, test: testOps[l.Pred], lhs: lt, rhs: rt})
			return true
		}
		// Only "=" is evaluable with an unbound side, and EC makes the
		// other side fully bound. A single fresh variable is an
		// assignment; a compound with fresh variables is a decomposition
		// match against the bound side's value. EC also rules out an
		// arithmetic functor on the unbound side, so the pattern never
		// needs evaluating.
		value, pattern := lt, l.Args[1]
		if !lok {
			value, pattern = rt, l.Args[0]
		}
		if v, isVar := pattern.(term.Var); isVar {
			cr.steps = append(cr.steps, kstep{kind: kAssign, dstReg: newReg(v.Name), rhs: value})
			return true
		}
		cr.steps = append(cr.steps, kstep{kind: kMatch, pat: mkPat(pattern, nil), rhs: value})
		return true
	}

	var pending []lang.Literal
	// flushPending retries deferred goals after a binding step, with a
	// restart after each success — mirroring the interpreter's flush
	// loop: an assignment flushed from pending may enable another goal.
	flushPending := func() {
		for pi := 0; pi < len(pending); pi++ {
			if !compileDeferred(pending[pi]) {
				continue
			}
			pending = append(pending[:pi:pi], pending[pi+1:]...)
			pi = -1
		}
	}

	for bi, l := range r.Body {
		cr.scanForBody[bi] = -1
		if l.Neg || lang.IsBuiltin(l.Pred) {
			if !compileDeferred(l) {
				pending = append(pending, l)
				continue
			}
			flushPending()
			continue
		}
		// Positive relational literal → scan step.
		st := kstep{kind: kScan, tag: l.Tag(), scanIdx: cr.nscans, cols: make([]kcol, len(l.Args)), nbound: cr.nregs}
		newHere := map[string]bool{}
		for ai, a := range l.Args {
			if v, isVar := a.(term.Var); isVar {
				if reg, have := regOf[v.Name]; have {
					if newHere[v.Name] {
						st.cols[ai] = kcol{op: kcolChk, reg: reg}
					} else {
						st.cols[ai] = kcol{op: kcolProbe, reg: reg}
						st.mask |= 1 << uint(ai)
					}
					continue
				}
				st.cols[ai] = kcol{op: kcolOut, reg: newReg(v.Name)}
				newHere[v.Name] = true
				continue
			}
			if !term.Ground(a) {
				// A compound with variables. All bound (and none bound
				// first in this literal, whose value only exists per
				// candidate): construct it per application and probe —
				// the interpreter's per-row resolution makes such a
				// column ground, so it probes on it too, and the
				// candidate sets (hence the work counters) must agree.
				// Otherwise: decompose the candidate's column against a
				// pattern, binding the fresh variables.
				if bt, ok := mkBuild(a); ok && !anyNewHere(a, newHere) {
					st.cols[ai] = kcol{op: kcolBuild, bld: &bt}
					st.mask |= 1 << uint(ai)
					continue
				}
				st.cols[ai] = kcol{op: kcolPat, pat: mkPat(a, newHere)}
				continue
			}
			st.cols[ai] = kcol{op: kcolConst, val: a}
			st.mask |= 1 << uint(ai)
		}
		cr.scanForBody[bi] = st.scanIdx
		cr.scanStep = append(cr.scanStep, len(cr.steps))
		cr.nscans++
		cr.steps = append(cr.steps, st)
		flushPending()
	}
	if len(pending) > 0 {
		fail(func(term.Subst) error {
			return fmt.Errorf("eval: goals %v never became evaluable (unsafe rule ordering)", pending)
		})
		return cr
	}
	// Head template: registers, constants, and fully-bound construction
	// templates (cons(Y, P) assembled from body bindings). A variable no
	// body literal binds — also one buried in a compound — makes the
	// rule unsafe: its program ends in the interpreter's error, which
	// shows the head resolved under the failing row.
	head := make([]kcol, len(r.Head.Args))
	for ai, a := range r.Head.Args {
		bt, ok := mkBuild(a)
		switch {
		case !ok:
			fail(func(s term.Subst) error {
				args := s.ResolveAll(r.Head.Args)
				return fmt.Errorf("eval: rule %s produced non-ground head %s — unbound head variable (unsafe rule)", r, lang.Literal{Pred: r.Head.Pred, Args: args})
			})
			return cr
		case bt.reg >= 0:
			head[ai] = kcol{op: kcolProbe, reg: bt.reg}
		case bt.args != nil:
			bld := bt
			head[ai] = kcol{op: kcolBuild, bld: &bld}
		default:
			head[ai] = kcol{op: kcolConst, val: a}
		}
	}
	cr.head = head
	return cr
}

// testOps maps the comparison builtins to their kTest operators.
var testOps = map[string]testOp{
	lang.OpEq: testEq, lang.OpNe: testNe,
	lang.OpLt: testLt, lang.OpLe: testLe, lang.OpGt: testGt, lang.OpGe: testGe,
}

// anyNewHere reports whether t contains a variable first bound inside
// the scan literal currently being compiled — such a variable has no
// value until the candidate arrives, so a compound containing it can
// never be constructed into the probe.
func anyNewHere(t term.Term, newHere map[string]bool) bool {
	switch x := t.(type) {
	case term.Var:
		return newHere[x.Name]
	case term.Comp:
		for _, a := range x.Args {
			if anyNewHere(a, newHere) {
				return true
			}
		}
	}
	return false
}
