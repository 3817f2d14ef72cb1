package ldl

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestGoldenEquivalence is the kernel acceptance suite: every corpus
// program (the examples plus the negation/builtin-deferral/complex-
// term/non-linear-recursion corpora) runs its embedded queries through
// the generic interpreter and the compiled join kernels, and both
// answer sets must be byte-identical.
// EvaluateUnoptimized sorts answers canonically, so equality here
// really is byte equality.
func TestGoldenEquivalence(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.ldl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files found")
	}
	configs := []struct {
		name string
		opts []Option
	}{
		{"generic", []Option{WithCompiledKernels(false)}},
		{"compiled", nil},
	}
	render := func(rows [][]string) string {
		var b strings.Builder
		for _, r := range rows {
			b.WriteString(strings.Join(r, ","))
			b.WriteByte('\n')
		}
		return b.String()
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
			queries := sys.Queries()
			if len(queries) == 0 {
				t.Fatalf("%s has no embedded queries", f)
			}
			for _, goal := range queries {
				var ref string
				for i, cfg := range configs {
					rows, _, err := sys.EvaluateUnoptimized(goal, cfg.opts...)
					if err != nil {
						t.Fatalf("%s / %s: %v", goal, cfg.name, err)
					}
					got := render(rows)
					if i == 0 {
						ref = got
						if strings.TrimSpace(ref) == "" {
							// An all-empty answer set would make the
							// equivalence vacuous for this goal; the
							// corpus includes one intentionally empty
							// query (structural fact matching), so only
							// note it.
							t.Logf("%s: empty answer set", goal)
						}
						continue
					}
					if got != ref {
						t.Errorf("%s / %s: answers diverge from generic\n got:\n%s\nwant:\n%s",
							goal, cfg.name, got, ref)
					}
				}
			}
		})
	}
}

// TestCorpusCounterParity is the kernel executor's work-accounting
// acceptance: for every corpus query, generic and compiled execution
// must report identical logical work counters (tuples, iterations,
// unifications, lookups) — framing is invisible in everything except
// Blocks and wall clock, including the one-row frames of applications
// that read the relation they insert into (nonlinear.ldl aliases the
// head in every delta round). It also pins the structured-term and
// non-linear programs to the kernel path: their rules must all compile
// (KernelFallbacks 0) and run there (Blocks > 0).
func TestCorpusCounterParity(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.ldl"))
	if err != nil {
		t.Fatal(err)
	}
	noFallback := map[string]bool{"complexterms": true, "listapp": true, "treefold": true, "nonlinear": true}
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
			for _, goal := range sys.Queries() {
				_, generic, err := sys.EvaluateUnoptimized(goal, WithCompiledKernels(false))
				if err != nil {
					t.Fatalf("%s: %v", goal, err)
				}
				_, compiled, err := sys.EvaluateUnoptimized(goal)
				if err != nil {
					t.Fatalf("%s: %v", goal, err)
				}
				if noFallback[name] {
					if compiled.KernelFallbacks != 0 {
						t.Errorf("%s: KernelFallbacks = %d, want 0 (all rules must compile)", goal, compiled.KernelFallbacks)
					}
					if compiled.Blocks == 0 {
						t.Errorf("%s: Blocks = 0, kernel executor never engaged", goal)
					}
				}
				// Zero the counters that legitimately differ across
				// executors before the exact-match compare.
				for _, es := range []*ExecStats{&generic, &compiled} {
					es.KernelCompiles, es.KernelFallbacks, es.Blocks = 0, 0, 0
				}
				if compiled != generic {
					t.Errorf("%s: compiled counters diverge: %+v vs generic %+v", goal, compiled, generic)
				}
			}
		})
	}
}

// TestKernelWorkReduction documents why the kernels exist: on the
// transitive-closure workload the compiled path must report the same
// logical work (the counters are a cost proxy the experiments rely
// on) while the wall-clock/allocation win shows up in
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
	_, esCompiled, err := sys.EvaluateUnoptimized("tc(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	_, esGeneric, err := sys.EvaluateUnoptimized("tc(X, Y)", WithCompiledKernels(false))
	if err != nil {
		t.Fatal(err)
	}
	// KernelCompiles and Blocks legitimately differ between the two
	// paths (they count the compilation work and the vectorized frame
	// dispatches themselves, not logical query work).
	esCompiled.KernelCompiles, esGeneric.KernelCompiles = 0, 0
	esCompiled.Blocks, esGeneric.Blocks = 0, 0
	if esCompiled.KernelFallbacks != 0 {
		t.Errorf("KernelFallbacks = %d, want 0 (every tc rule compiles)", esCompiled.KernelFallbacks)
	}
	if esCompiled != esGeneric {
		t.Errorf("work counters diverge: compiled %+v vs generic %+v", esCompiled, esGeneric)
	}
	if esCompiled.TuplesDerived != 30*31/2 {
		t.Errorf("TuplesDerived = %d, want %d", esCompiled.TuplesDerived, 30*31/2)
	}
}
