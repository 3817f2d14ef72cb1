package eval

import (
	"strings"
	"testing"

	"ldl/internal/lang"
	"ldl/internal/parser"
	"ldl/internal/store"
	"ldl/internal/term"
)

// parseOneRule parses src and returns its single rule.
func parseOneRule(t *testing.T, src string) *compiledRule {
	t.Helper()
	prog, _, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 {
		t.Fatalf("want 1 rule, got %d", len(prog.Rules))
	}
	return compileRule(prog.Rules[0])
}

// TestCompileRuleCompilability: compilation is total. Every rule gets
// a join program; the unsafe ones (an unbound head variable, a goal
// whose EC point never arrives) end in a kFail step that raises the
// interpreter's error for the first row reaching it.
func TestCompileRuleCompilability(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		unsafe bool
	}{
		{"linear recursion", "tc(X, Y) <- e(X, Z), tc(Z, Y).", false},
		{"constants and repeats", "p(X) <- e(1, X), e(X, X).", false},
		{"inline builtin after binding", "p(X) <- q(X), X > 3.", false},
		{"deferred builtin before binding", "p(X) <- X > 3, q(X).", false},
		{"assignment", "p(Y) <- q(X), Y = X + 1.", false},
		{"deferred assignment", "p(Y) <- Y = X + 1, q(X).", false},
		{"negation", "p(X) <- q(X), not r(X).", false},
		{"deferred negation", "p(X) <- not r(X), q(X).", false},
		{"eq test both bound", "p(X) <- q(X), r(Y), X = Y.", false},
		{"ground compound column", "p(X) <- q(f(a), X).", false},
		{"constant head column", "p(X, 0) <- q(X).", false},
		{"complex head term", "p(X, f(X)) <- q(X).", false},
		{"non-ground compound column", "p(X) <- q(f(X)).", false},
		{"bound compound probe column", "p(X) <- q(X), r(f(X)).", false},
		{"eq needs unification", "p(X) <- q(Y), f(X) = Y.", false},
		{"eq both sides compound", "p(X, Y) <- q(X), r(Y), f(X) = f(Y).", false},
		{"compound negation arg", "p(X) <- q(X), not r(f(X)).", false},

		{"unbound head variable", "p(X, Y) <- q(X).", true},
		{"unbound head compound variable", "p(X, f(Y)) <- q(X).", true},
		{"never-evaluable builtin", "p(X) <- X > Y, q(X).", true},
		{"never-ground negation", "p(X) <- q(X), not r(X, Z).", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cr := parseOneRule(t, c.src)
			if cr == nil {
				t.Fatalf("compileRule(%q) = nil", c.src)
			}
			last := cr.steps[len(cr.steps)-1].kind
			if (last == kFail) != c.unsafe {
				t.Errorf("compileRule(%q): ends in kFail=%v, want %v", c.src, last == kFail, c.unsafe)
			}
			for _, st := range cr.steps[:len(cr.steps)-1] {
				if st.kind == kFail {
					t.Errorf("compileRule(%q): kFail before the last step", c.src)
				}
			}
		})
	}
}

func TestCompiledProgramShape(t *testing.T) {
	cr := parseOneRule(t, "p(Y) <- e(X, Z), Y = Z + 1, tc(Z, Y), not r(X).")
	if cr == nil {
		t.Fatal("rule should compile")
	}
	kinds := make([]kstepKind, len(cr.steps))
	for i, st := range cr.steps {
		kinds[i] = st.kind
	}
	// e scan binds X, Z; the assignment becomes evaluable immediately
	// after; tc probes on both columns; the negation waits for nothing
	// new but sits at its body position.
	want := []kstepKind{kScan, kAssign, kScan, kNeg}
	for i := range want {
		if i >= len(kinds) || kinds[i] != want[i] {
			t.Fatalf("step kinds = %v, want %v", kinds, want)
		}
	}
	if cr.nscans != 2 || cr.nnegs != 1 || cr.nregs != 3 {
		t.Errorf("nscans=%d nnegs=%d nregs=%d, want 2 1 3", cr.nscans, cr.nnegs, cr.nregs)
	}
	// The tc scan probes both columns (Z and Y are bound by then).
	if tc := cr.steps[2]; tc.mask != 0b11 {
		t.Errorf("tc scan mask = %b, want 11", tc.mask)
	}
	// Semi-naive remap: body literal 0 (e) is scan 0, literal 2 (tc) is
	// scan 1, the builtin and negation are not scans.
	if got := cr.scanForBody; !(got[0] == 0 && got[1] == -1 && got[2] == 1 && got[3] == -1) {
		t.Errorf("scanForBody = %v", got)
	}
}

// kernelPrograms is the equivalence corpus: every engine-level feature
// the kernels implement in one list, the shapes that once needed the
// interpreter as a fallback included.
var kernelPrograms = []struct {
	name string
	src  string
	goal string
}{
	{"tc", tcSrc, "tc(X, Y)"},
	{"tc bound", tcSrc, "tc(1, Y)"},
	{"cyclic tc", `
e(1, 2). e(2, 3). e(3, 1).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
`, "tc(X, Y)"},
	// Non-linear recursion: both body occurrences alias the head in
	// every delta round, so every application runs on one-row frames.
	{"nonlinear tc", `
e(1, 2). e(2, 3). e(3, 4). e(4, 2).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- tc(X, Z), tc(Z, Y).
`, "tc(X, Y)"},
	{"samegen", `
up(a, p1). up(b, p1). up(p1, g1). up(p2, g1). up(c, p2).
flat(g1, g1).
dn(Y, X) <- up(X, Y).
sg(X, Y) <- flat(X, Y).
sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
`, "sg(a, Y)"},
	{"arith and comparisons", `
n(1). n(2). n(3). n(4).
double(X, Y) <- n(X), Y = X * 2.
bigpair(X, Y) <- n(X), n(Y), X < Y, Y >= 3.
odd(X) <- n(X), X mod 2 = 1.
`, "bigpair(X, Y)"},
	{"deferred builtin", `
n(1). n(2). n(3).
shift(Y, X) <- Y = X + 10, n(X).
`, "shift(Y, X)"},
	{"negation", `
n(1). n(2). n(3). n(4). m(2). m(4).
onlyn(X) <- n(X), not m(X).
`, "onlyn(X)"},
	{"stratified negation", `
e(1, 2). e(2, 3).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
unreach(X, Y) <- e(X, _ignore1), e(_ignore2, Y), not tc(X, Y).
`, "unreach(X, Y)"},
	{"repeated variable", `
e(1, 1). e(1, 2). e(2, 2). e(2, 3).
loop(X) <- e(X, X).
`, "loop(X)"},
	{"constants in body", `
e(1, 2). e(1, 3). e(2, 3).
fromone(X) <- e(1, X).
`, "fromone(X)"},
	{"fallback complex terms", `
e(a, b). e(b, c).
path(X, Y, cons(X, cons(Y, nil))) <- e(X, Y).
path(X, Z, cons(X, P)) <- e(X, Y), path(Y, Z, P).
`, "path(a, Z, P)"},
	{"mixed fallback and kernel", `
e(1, 2). e(2, 3).
wrap(X, f(X)) <- e(X, _ignore).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
`, "tc(X, Y)"},
	{"eq unification fallback", `
q(f(1)). q(f(2)).
unwrap(X) <- q(Y), f(X) = Y.
`, "unwrap(X)"},
	{"eq both sides compound", `
q(1). q(2). r(2). r(3).
same(X, Y) <- q(X), r(Y), f(X) = f(Y).
`, "same(X, Y)"},
	{"ne over compounds", `
q(1). q(2). r(2).
other(X, Y) <- q(X), r(Y), f(X, a) \= f(Y, a).
`, "other(X, Y)"},
	{"assign a compound", `
q(1). q(2).
wrapped(Y) <- q(X), Y = box(X, X + 1).
`, "wrapped(Y)"},
	{"match against a built compound", `
q(1, 2). q(3, 4).
swap(B, A) <- q(X, Y), pair(A, B) = pair(X, Y).
`, "swap(B, A)"},
	{"compound negation arg", `
q(1). q(2). q(3). r(f(2)).
unmarked(X) <- q(X), not r(f(X)).
`, "unmarked(X)"},
	{"arithmetic negation arg", `
q(1). q(2). r(1 + 1). r(2).
absent(X) <- q(X), not r(X + 1).
`, "absent(X)"},
	{"deferred compound negation", `
q(1). q(2). r(g(1)).
free(X) <- not r(g(X)), q(X).
`, "free(X)"},
}

// TestKernelEquivalence runs every program through {reference,
// compiled, compiled with 4-row blocks} × {Naive, SemiNaive} and
// requires identical answers and identical work counters between the
// kernels and the reference interpreter.
func TestKernelEquivalence(t *testing.T) {
	for _, p := range kernelPrograms {
		t.Run(p.name, func(t *testing.T) {
			modes := []struct {
				name string
				opts Options
			}{
				{"reference", referenceOpts(Options{})},
				{"compiled", Options{}},
				// Tiny blocks force the flush-at-capacity path on every
				// program, not just large workloads.
				{"compiled4", Options{BatchSize: 4}},
			}
			for _, m := range []Method{Naive, SemiNaive} {
				var ref string
				var refEng *Engine
				for i, md := range modes {
					eng, err := tryRun(p.src, m, md.opts)
					if err != nil {
						t.Fatalf("%v/%s: %v", m, md.name, err)
					}
					got := answers(t, eng, p.goal)
					if i == 0 {
						ref, refEng = got, eng
						continue
					}
					if got != ref {
						t.Errorf("%v/%s: answers diverge\n got %s\nwant %s", m, md.name, got, ref)
					}
					if !sameWork(refEng.Counters, eng.Counters) {
						t.Errorf("%v/%s: counters diverge: reference %+v vs compiled %+v", m, md.name, refEng.Counters, eng.Counters)
					}
				}
			}
		})
	}
}

// sameWork reports whether two runs did the same logical work, probe
// for probe: the kernels must match the reference interpreter at every
// block size. KernelCompiles and Blocks count the executor's own
// machinery, not query work.
func sameWork(a, b Counters) bool {
	return a.Lookups == b.Lookups && a.Unifications == b.Unifications &&
		a.BuiltinCalls == b.BuiltinCalls && a.TuplesDerived == b.TuplesDerived &&
		a.Iterations == b.Iterations
}

// TestKernelErrorParity: runtime errors (division by zero reached
// through a join, the unsafe shapes whose programs end in kFail, a
// comparison over a compound) must surface with the reference
// interpreter's exact message, and a rule whose rows never reach the
// failing point must succeed with the same work counters.
func TestKernelErrorParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string // required error substring; "" = must succeed
	}{
		{"division by zero", `
n(0). n(1).
inv(X, Y) <- n(X), Y = 10 / X.
`, "division by zero"},
		{"unbound head variable", `
n(1).
p(X, Y) <- n(X).
`, "unbound head variable"},
		{"unbound head compound variable", `
n(1). n(2).
p(X, f(X, Y)) <- n(X).
`, "produced non-ground head p(1, f(1, Y))"},
		{"never evaluable", `
n(1).
p(X) <- n(X), X > Z.
`, "never became evaluable"},
		{"never-ground negation", `
n(1). r(1, 2).
p(X) <- n(X), not r(X, Z).
`, "goals [not r(X, Z)] never became evaluable"},
		{"comparison over a compound", `
n(1).
p(X) <- n(X), f(X) < 3.
`, "f/1 is not an arithmetic operator"},
		{"arithmetic over a compound", `
n(1). n(2).
p(X) <- n(X), n(Y), X + f(Y) = 3.
`, "f/1 is not an arithmetic operator"},
		{"dead branch hides the error", `
n(1). n(2).
p(Y) <- n(X), X > 5, Y = X / 0.
`, ""},
		{"empty body relation hides the unsafe head", `
n(1).
p(X, Y) <- m(X).
q(X) <- n(X), m(X), X > Z.
`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, refErr := tryRun(c.src, SemiNaive, referenceOpts(Options{}))
			got, err := tryRun(c.src, SemiNaive, Options{})
			if c.frag == "" {
				if refErr != nil || err != nil {
					t.Fatalf("unexpected error: reference %v, compiled %v", refErr, err)
				}
				if !sameWork(ref.Counters, got.Counters) {
					t.Errorf("counters diverge: reference %+v vs compiled %+v", ref.Counters, got.Counters)
				}
				return
			}
			if refErr == nil || !strings.Contains(refErr.Error(), c.frag) {
				t.Fatalf("reference: error %v, want substring %q", refErr, c.frag)
			}
			if err == nil || err.Error() != refErr.Error() {
				t.Errorf("compiled: error %v, want the reference's %q", err, refErr)
			}
		})
	}
}

// TestUnsafeBuiltinShapes covers the unsafe shapes the parser cannot
// produce — a builtin of the wrong arity, a negated builtin — by
// building the rules directly: both compile to a program that fails
// exactly as the reference interpreter does once a row reaches them.
func TestUnsafeBuiltinShapes(t *testing.T) {
	x, y := term.Var{Name: "X"}, term.Var{Name: "Y"}
	n := lang.Lit("n", x)
	cases := []struct {
		name string
		rule lang.Rule
	}{
		{"wrong arity", lang.Rule{Head: lang.Lit("p", x), Body: []lang.Literal{n, lang.Lit(lang.OpLt, x, y, x)}}},
		{"negated builtin", lang.Rule{Head: lang.Lit("p", x), Body: []lang.Literal{n, lang.NotLit(lang.OpGt, x, term.Int(0))}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if last := compileRule(c.rule).steps; last[len(last)-1].kind != kFail {
				t.Fatalf("%s: program does not end in kFail", c.rule)
			}
			run := func(opts Options) error {
				db := store.NewDatabase()
				mustInsert(db.Ensure("n/1", 1), store.Tuple{term.Int(1)})
				// Built directly: NewProgram rejects a negated builtin.
				prog := &lang.Program{Rules: []lang.Rule{c.rule}}
				e, err := New(prog, db, opts)
				if err != nil {
					t.Fatal(err)
				}
				return e.Run()
			}
			refErr, err := run(referenceOpts(Options{})), run(Options{})
			if refErr == nil {
				t.Fatal("reference interpreter accepted the rule")
			}
			if err == nil || err.Error() != refErr.Error() {
				t.Errorf("compiled: error %v, want the reference's %q", err, refErr)
			}
		})
	}
}

// TestKernelStateRelease: a kernel state an evaluation context returns
// to its rule's pool holds no relation and no borrowed column — a
// pooled state must not pin an epoch or a derived relation — and a
// pooled state built for another BatchSize is not reused.
func TestKernelStateRelease(t *testing.T) {
	prog, _, err := parser.ParseProgram(`
e(1, 2). e(2, 3). e(3, 4). bad(3).
tc(X, Y) <- e(X, Y), not bad(X).
tc(X, Y) <- e(X, Z), tc(Z, Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	pk := CompileProgram(prog)
	e, err := New(prog, db, Options{Kernels: pk})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Apply every rule once more in a fresh context, then release it.
	cx := &evalCtx{e: e}
	held := make([]*kernelState, len(pk.rules))
	for i, cr := range pk.rules {
		if err := cx.applyRule(cr, -1, nil, nil); err != nil {
			t.Fatal(err)
		}
		held[i] = cx.kstate(cr)
	}
	if held[0].rels[0] == nil || held[0].negRels[0] == nil || held[0].rcols[0][0] == nil {
		t.Fatal("applied state resolved no relation or borrowed no column")
	}
	cx.release()
	for i, ks := range held {
		for _, r := range append(append([]*store.Relation(nil), ks.rels...), ks.negRels...) {
			if r != nil {
				t.Errorf("rule %d: released state holds relation %s", i, r.Name)
			}
		}
		for si, cols := range ks.rcols {
			for c, col := range cols {
				if col != nil {
					t.Errorf("rule %d: released state holds borrowed column %d of scan %d", i, c, si)
				}
			}
		}
	}

	cr := pk.rules[0]
	small := newKernelState(cr, 4)
	cr.pool.Put(small)
	e8, err := New(prog, db, Options{Kernels: pk, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	cx8 := &evalCtx{e: e8}
	if ks := cx8.kstate(cr); ks == small || ks.size != 8 {
		t.Errorf("BatchSize 8 took a state of size %d (the size-4 one: %v)", ks.size, ks == small)
	}
	cx8.release()
}
