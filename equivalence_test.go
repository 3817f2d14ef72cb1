package ldl

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldl/internal/wal"
)

// TestCorpusCoversExamples pins the golden corpus to the example
// programs: every directory under examples/ must have a corpus file of
// the same name (with divergent predicates documented out), so adding
// an example forces extending the equivalence suite.
func TestCorpusCoversExamples(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		f := filepath.Join("testdata", "corpus", e.Name()+".ldl")
		if _, err := os.Stat(f); err != nil {
			t.Errorf("example %q has no corpus file %s", e.Name(), f)
		}
	}
}

// corpusSystems loads every corpus program (the examples plus the
// negation/builtin-deferral/complex-term/non-linear-recursion corpora)
// and runs fn on each in a subtest named after the file.
func corpusSystems(t *testing.T, fn func(t *testing.T, name, src string, sys *System)) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.ldl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files found")
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".ldl")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := Load(string(src))
			if err != nil {
				t.Fatal(err)
			}
			if len(sys.Queries()) == 0 {
				t.Fatalf("%s has no embedded queries", f)
			}
			fn(t, name, string(src), sys)
		})
	}
}

// TestGoldenEquivalence is the optimizer's acceptance over the corpus:
// every embedded query of every corpus program runs on the original
// program (EvaluateUnoptimized) and through the plan the optimizer
// chose (Optimize, then Execute on the rewritten program), and the
// sorted answer sets must be byte-identical. A goal whose termination
// the optimizer cannot establish has no plan to run; its Explain text
// is pinned by TestCorpusOptimizedGolden. The block executor's agreement with the reference
// interpreter, answer for answer and probe for probe, is
// internal/eval's TestCorpusEquivalence.
func TestGoldenEquivalence(t *testing.T) {
	corpusSystems(t, func(t *testing.T, _, _ string, sys *System) {
		for _, goal := range sys.Queries() {
			plan, err := sys.Optimize(goal)
			if err != nil {
				t.Fatalf("%s: %v", goal, err)
			}
			if !plan.Safe() {
				t.Logf("%s: no safe plan", goal)
				continue
			}
			ref, _, err := sys.EvaluateUnoptimized(goal)
			if err != nil {
				t.Fatalf("%s / unoptimized: %v", goal, err)
			}
			rows, err := plan.Execute()
			if err != nil {
				t.Fatalf("%s / optimized: %v", goal, err)
			}
			want := strings.Join(sortedRows(ref), "\n")
			if want == "" {
				// An all-empty answer set would make the equivalence
				// vacuous for this goal; the corpus includes one
				// intentionally empty query (structural fact
				// matching), so only note it.
				t.Logf("%s: empty answer set", goal)
			}
			if got := strings.Join(sortedRows(rows), "\n"); got != want {
				t.Errorf("%s: optimized answers diverge from unoptimized\n got:\n%s\nwant:\n%s", goal, got, want)
			}
		}
	})
}

// TestCorpusCounterParity is the block executor's work-accounting
// acceptance across storage layouts: for every corpus query, the
// logical work counters (tuples, iterations, unifications, lookups) of
// a bottom-up run over flat in-memory relations must equal those of the
// same run over checkpointed segments reopened from disk — the layout
// of a relation is invisible in everything except Blocks and wall
// clock. It also pins every program to the kernel path: no rule falls
// back (KernelFallbacks 0) and the structured-term and non-linear
// programs run in frames (Blocks > 0).
func TestCorpusCounterParity(t *testing.T) {
	framed := map[string]bool{"complexterms": true, "listapp": true, "treefold": true, "nonlinear": true}
	corpusSystems(t, func(t *testing.T, name, src string, mem *System) {
		fs := wal.NewMemFS()
		disk, err := Load(src, withStorageFS(fs)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := disk.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := disk.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := Load(src, withStorageFS(fs.Crash(true))...)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		for _, goal := range mem.Queries() {
			_, want, err := mem.EvaluateUnoptimized(goal)
			if err != nil {
				t.Fatalf("%s / memory: %v", goal, err)
			}
			_, got, err := reopened.EvaluateUnoptimized(goal)
			if err != nil {
				t.Fatalf("%s / segments: %v", goal, err)
			}
			if want.KernelFallbacks != 0 {
				t.Errorf("%s: KernelFallbacks = %d, want 0 (all rules must compile)", goal, want.KernelFallbacks)
			}
			if framed[name] && want.Blocks == 0 {
				t.Errorf("%s: Blocks = 0, kernel executor never engaged", goal)
			}
			// Zero what legitimately differs: the frame count follows
			// the part layout, and the epochs are each System's own.
			for _, es := range []*ExecStats{&want, &got} {
				es.Blocks, es.Epoch = 0, 0
			}
			if got != want {
				t.Errorf("%s: counters over segments diverge: %+v vs memory %+v", goal, got, want)
			}
		}
	})
}

// TestKernelWorkReduction pins the logical work of the transitive-
// closure workload on the block executor (the counters are a cost
// proxy the experiments rely on); that it equals the reference
// interpreter's, probe for probe, is internal/eval's
// TestCorpusEquivalence. The wall-clock/allocation side shows up in
// BenchmarkFixpointKernels.
func TestKernelWorkReduction(t *testing.T) {
	var b strings.Builder
	for i := 1; i <= 30; i++ {
		fmt.Fprintf(&b, "e(%d, %d).\n", i, i+1)
	}
	b.WriteString("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n")
	sys, err := Load(b.String())
	if err != nil {
		t.Fatal(err)
	}
	_, es, err := sys.EvaluateUnoptimized("tc(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if es.KernelFallbacks != 0 || es.Blocks == 0 {
		t.Errorf("KernelFallbacks = %d, Blocks = %d: want every rule on the block executor", es.KernelFallbacks, es.Blocks)
	}
	if es.TuplesDerived != 30*31/2 {
		t.Errorf("TuplesDerived = %d, want %d", es.TuplesDerived, 30*31/2)
	}
}

// TestCompoundFormEquivalence is the parameterization soundness check
// for constants nested in compound arguments. Each form is prepared
// once from its first goal and re-bound to every goal of the form; the
// prepared answers must equal the literal-mode Plan's and unoptimized
// evaluation's, and the prepared and literal unsafe verdicts must
// agree — with and without the flattening rescue.
func TestCompoundFormEquivalence(t *testing.T) {
	forms := map[string][][]string{
		"complexterms": {
			{"pair(a, p(a, b))", "pair(b, p(b, c))", "pair(a, p(a, c))"},
			{"pair(X, p(X, b))", "pair(X, p(X, d))"},
			{"path(a, Z, cons(a, P))", "path(b, Z, cons(b, P))"},
			{"path(X, d, cons(X, cons(Y, nil)))", "path(X, c, cons(X, cons(Y, nil)))"},
		},
		"listapp": {
			{"suffix(cons(2, T))", "suffix(cons(3, T))"},
			{"app(cons(3, nil), Ys, Zs)", "app(cons(5, nil), Ys, Zs)"},
			{"llen(cons(3, nil), N)", "llen(cons(1, nil), N)"},
			{"app(Xs, cons(4, cons(5, nil)), Zs)", "app(Xs, cons(4, cons(6, nil)), Zs)"},
		},
		"treefold": {
			{"fold(leaf(3), S)", "fold(leaf(10), S)", "fold(leaf(99), S)"},
			{"fold(node(leaf(10), leaf(20)), S)", "fold(node(leaf(1), leaf(2)), S)"},
			{"sub(node(L, leaf(2)))", "sub(node(L, leaf(20)))"},
		},
	}
	answered := 0 // re-bound goals with a safe plan and a nonempty answer
	for name, fs := range forms {
		src, err := os.ReadFile(filepath.Join("testdata", "corpus", name+".ldl"))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Load(string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range [][]Option{nil, {WithFlattening()}} {
			for _, goals := range fs {
				p, err := sys.Prepare(goals[0], opts...)
				if err != nil {
					t.Fatalf("%s: Prepare(%s): %v", name, goals[0], err)
				}
				for _, goal := range goals {
					plan, err := sys.Optimize(goal, opts...)
					if err != nil {
						t.Fatalf("%s: Optimize(%s): %v", name, goal, err)
					}
					if plan.Safe() != p.Safe() {
						t.Errorf("%s: %s: literal safe=%v (%s), prepared %s safe=%v (%s)",
							name, goal, plan.Safe(), plan.Reason(), p.Key(), p.Safe(), p.Reason())
						continue
					}
					if !p.Safe() {
						continue
					}
					got, err := p.Execute(goal)
					if err != nil {
						t.Fatalf("%s: prepared %s: %v", name, goal, err)
					}
					lit, err := plan.Execute()
					if err != nil {
						t.Fatalf("%s: literal %s: %v", name, goal, err)
					}
					ref := strings.Join(unoptimized(t, sys, goal), ";")
					if g := strings.Join(sortedRows(got), ";"); g != ref {
						t.Errorf("%s: %s: prepared %s, unoptimized %s", name, goal, g, ref)
					}
					if l := strings.Join(sortedRows(lit), ";"); l != ref {
						t.Errorf("%s: %s: literal %s, unoptimized %s", name, goal, l, ref)
					}
					if ref != "" {
						answered++
					}
				}
			}
		}
	}
	if answered < 20 {
		t.Errorf("only %d safe goals with answers; the equivalence is near vacuous", answered)
	}
}
