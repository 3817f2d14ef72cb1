package ldl

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current optimizer")

// TestCorpusOptimizedGolden pins what the optimized path produces: for
// every embedded query of every corpus program, the Explain text, the
// sorted answers and the logical work counters of Optimize+Execute must
// match testdata/golden/<name>.txt byte for byte. KernelCompiles is left
// out: where kernels get compiled is an implementation choice, not a
// property of the plan. Run with -update to regenerate.
func TestCorpusOptimizedGolden(t *testing.T) {
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
			var b strings.Builder
			for _, goal := range sys.Queries() {
				plan, err := sys.Optimize(goal)
				if err != nil {
					t.Fatalf("%s: %v", goal, err)
				}
				b.WriteString(plan.Explain())
				if !plan.Safe() {
					b.WriteByte('\n')
					continue
				}
				rows, es, err := plan.ExecuteStats()
				if err != nil {
					t.Fatalf("%s: %v", goal, err)
				}
				fmt.Fprintf(&b, "answers: %d\n", len(rows))
				for _, r := range sortedRows(rows) {
					fmt.Fprintf(&b, "  %s\n", r)
				}
				fmt.Fprintf(&b, "work: tuples=%d iterations=%d unifications=%d lookups=%d fallbacks=%d blocks=%d\n\n",
					es.TuplesDerived, es.Iterations, es.Unifications, es.Lookups, es.KernelFallbacks, es.Blocks)
			}
			golden := filepath.Join("testdata", "golden", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("%s diverges from the optimized-path golden\n%s", golden, lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff reports the first differing line of two texts.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n want: %q\n  got: %q", i+1, wl, gl)
		}
	}
	return "identical lines"
}
